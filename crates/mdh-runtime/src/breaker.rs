//! Per-[`PlanKey`] circuit breakers: a key that fails `breaker_threshold`
//! times in a row fails fast for `breaker_cooldown`, then admits a single
//! half-open probe whose outcome closes or re-opens it.

use crate::plan_cache::PlanKey;
use crate::runtime::RuntimeConfig;
use crate::sync::lock;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// One key's breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
enum BreakerState {
    /// Requests flow; consecutive failures are counted.
    #[default]
    Closed,
    /// Failing fast until `until`, then a single probe is admitted.
    Open { until: Instant },
    /// One probe is in flight; everything else fails fast.
    HalfOpen,
}

#[derive(Debug, Default)]
struct Breaker {
    consecutive: u32,
    state: BreakerState,
}

/// What the breaker allows for a batch about to execute.
pub(crate) enum Admit {
    /// Closed: execute the whole batch.
    Execute,
    /// Half-open after cooldown: execute exactly one probe request.
    Probe,
    /// Open (or a probe already in flight): fail everything fast.
    FastFail,
}

/// Every plan key's breaker, under one lock.
#[derive(Default)]
pub(crate) struct Breakers(Mutex<HashMap<PlanKey, Breaker>>);

impl Breakers {
    /// Consult the breaker for `key`. Called once per batch.
    pub(crate) fn admit(&self, key: &PlanKey, now: Instant) -> Admit {
        let mut breakers = lock(&self.0);
        let b = breakers.entry(key.clone()).or_default();
        match b.state {
            BreakerState::Closed => Admit::Execute,
            BreakerState::Open { until } if now < until => Admit::FastFail,
            BreakerState::Open { .. } => {
                b.state = BreakerState::HalfOpen;
                Admit::Probe
            }
            BreakerState::HalfOpen => Admit::FastFail,
        }
    }

    /// Record one request outcome for `key`'s breaker. Returns `true` when
    /// this outcome tripped the breaker open (the caller fails the rest of
    /// its batch fast).
    pub(crate) fn record(&self, key: &PlanKey, ok: bool, config: &RuntimeConfig) -> bool {
        let mut breakers = lock(&self.0);
        let b = breakers.entry(key.clone()).or_default();
        if ok {
            // success closes a half-open breaker and resets the failure run
            b.consecutive = 0;
            b.state = BreakerState::Closed;
            return false;
        }
        b.consecutive += 1;
        let trip = match b.state {
            // a failed half-open probe re-opens immediately
            BreakerState::HalfOpen => true,
            BreakerState::Closed => b.consecutive >= config.breaker_threshold.max(1),
            BreakerState::Open { .. } => false,
        };
        if trip {
            b.state = BreakerState::Open {
                until: Instant::now() + config.breaker_cooldown,
            };
        }
        trip
    }
}
