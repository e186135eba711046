//! Admission and dispatch order — per-tenant FIFOs under deficit round
//! robin — and the one path that answers a job with an error.

use crate::plan_cache::PlanKey;
use crate::request::{Request, Response};
use crate::runtime::RuntimeConfig;
use crate::stats::RuntimeStats;
use crate::sync::{cv_wait, lock};
use mdh_core::error::{MdhError, Result};
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Tenant name a request without an explicit tenant is billed to. On
/// the wire, `tenant=default` and omitting `tenant=` are the same
/// tenant — one FIFO, one quota, one dispatch counter.
pub const DEFAULT_TENANT: &str = "default";

/// Named tenants that get their own `tenant_dispatches` entry.
pub(crate) const MAX_TRACKED_TENANTS: usize = 64;

/// The `tenant_dispatches` label every further tenant is counted under.
/// Not a name a wire client can send (`protocol::valid_tenant` rejects it).
pub(crate) const TENANT_OVERFLOW: &str = "(other)";

/// Base deficit-round-robin quantum: requests a weight-1 tenant earns
/// per scheduler round. Small relative to `max_batch` so weights bite
/// (a weight-`w` tenant banks `w`× this per visit), large enough that
/// batching still amortises plan lookups.
const DRR_QUANTUM: u64 = 4;

/// A tenant may bank at most this many rounds of unused deficit —
/// bounded banking keeps a long-idle tenant from bursting unboundedly
/// when it returns.
const DRR_MAX_BANKED_ROUNDS: u64 = 8;

/// One admitted request, waiting for its reply.
pub(crate) struct Job {
    pub(crate) key: PlanKey,
    pub(crate) req: Request,
    pub(crate) reply: mpsc::Sender<Result<Response>>,
    pub(crate) submitted: Instant,
}

impl Job {
    pub(crate) fn expired(&self, now: Instant) -> bool {
        self.req.deadline.is_some_and(|d| now >= d)
    }
}

/// Why a job is answered with an error instead of a response. Each
/// outcome makes its error and bills its own counters.
pub(crate) enum Outcome<'a> {
    /// Turned away at admission: draining, or the queue (`tenant`: the
    /// tenant's FIFO) is full.
    Draining,
    Shed {
        tenant: bool,
        why: String,
    },
    /// Expired before it ran; says where it was.
    Expired(&'static str),
    /// The key's breaker is open after this many failures.
    BreakerOpen(u32),
    /// The batch's plan could not be built.
    PlanFailed(&'a MdhError),
}

impl Outcome<'_> {
    fn error(&self, job: &Job) -> MdhError {
        match self {
            Outcome::Draining => MdhError::Draining("runtime is shutting down".into()),
            Outcome::Shed { why, .. } => MdhError::Overloaded(why.clone()),
            Outcome::Expired(why) => {
                let waited_ms = job.submitted.elapsed().as_secs_f64() * 1e3;
                MdhError::DeadlineExceeded(format!(
                    "{why} ({waited_ms:.1} ms after submit); not executed"
                ))
            }
            Outcome::BreakerOpen(threshold) => MdhError::BreakerOpen(format!(
                "circuit breaker open for this plan key after {threshold} consecutive \
                 failures; retry after the cooldown"
            )),
            Outcome::PlanFailed(e) => (*e).clone(),
        }
    }

    /// Bill `n` jobs to this outcome. Admission rejects never complete;
    /// a failed plan build still counts its batch.
    fn count(&self, c: &mut RuntimeStats, n: usize) {
        let k = n as u64;
        if !matches!(self, Outcome::Draining | Outcome::Shed { .. }) {
            c.completed += k;
        }
        match self {
            Outcome::Draining => c.draining_rejects += k,
            Outcome::Shed { tenant, .. } => {
                c.shed_requests += k;
                if *tenant {
                    c.tenant_shed += k;
                }
            }
            Outcome::Expired(_) => c.deadline_exceeded += k,
            Outcome::BreakerOpen(_) => c.breaker_fast_fails += k,
            Outcome::PlanFailed(_) => {
                c.batches += 1;
                c.batched_requests += k;
                c.max_batch = c.max_batch.max(n);
            }
        }
    }
}

/// Answer every job in `jobs` with `outcome`'s error. The counters
/// update strictly before the replies: a caller that observed its answer
/// must also observe it in the stats.
pub(crate) fn fail(counters: &Mutex<RuntimeStats>, jobs: Vec<Job>, outcome: &Outcome) {
    if jobs.is_empty() {
        return;
    }
    outcome.count(&mut lock(counters), jobs.len());
    for job in jobs {
        let _ = job.reply.send(Err(outcome.error(&job)));
    }
}

/// One tenant's FIFO plus its deficit-round-robin credit.
#[derive(Default)]
struct TenantQueue {
    jobs: VecDeque<Job>,
    /// Requests this tenant may dispatch before the scheduler rotates
    /// on. Replenished by `DRR_QUANTUM × weight` per visit; reset when
    /// the FIFO drains (classic DRR: an empty tenant banks nothing).
    deficit: u64,
}

/// The admission queue: per-tenant FIFOs scheduled by deficit round
/// robin. The ring holds each tenant with queued work exactly once, in
/// round-robin order; `queued` is the cross-tenant total the global
/// `max_queue_depth` bounds.
#[derive(Default)]
struct QueueState {
    tenants: HashMap<String, TenantQueue>,
    ring: VecDeque<String>,
    queued: usize,
    /// Jobs popped but not yet replied to (for `wait_idle`).
    active: usize,
    shutdown: bool,
}

/// The queue the submitters and the workers share.
#[derive(Default)]
pub(crate) struct Queue {
    state: Mutex<QueueState>,
    cv: Condvar,
}

impl Queue {
    /// Admission: enqueue `job` on its tenant's FIFO and wake a worker,
    /// or answer it here with why it was turned away — the runtime is
    /// draining, or the queue or the tenant is at its configured cap.
    /// Returns whether it was admitted.
    pub(crate) fn admit(
        &self,
        job: Job,
        config: &RuntimeConfig,
        counters: &Mutex<RuntimeStats>,
    ) -> bool {
        let (cap, quota) = (config.max_queue_depth.max(1), config.tenant_quota);
        let tenant = (job.req.tenant.clone()).unwrap_or_else(|| DEFAULT_TENANT.to_string());
        let refused = {
            let mut st = lock(&self.state);
            let held = st.tenants.get(&tenant).map_or(0, |tq| tq.jobs.len());
            if st.shutdown {
                Outcome::Draining
            } else if st.queued >= cap {
                let why = format!("queue depth {} at capacity {cap}; retry later", st.queued);
                Outcome::Shed { tenant: false, why }
            } else if quota > 0 && held >= quota {
                let why = format!(
                    "tenant '{tenant}' queue depth {held} at quota {quota}; \
                     other tenants unaffected; retry later"
                );
                Outcome::Shed { tenant: true, why }
            } else {
                let tq = st.tenants.entry(tenant.clone()).or_default();
                let was_empty = tq.jobs.is_empty();
                tq.jobs.push_back(job);
                st.queued += 1;
                if was_empty {
                    st.ring.push_back(tenant);
                }
                drop(st);
                self.cv.notify_one();
                return true;
            }
        };
        fail(counters, vec![job], &refused);
        false
    }

    /// Block until there is work for a worker: what [`drr_pop`] takes.
    /// `None` once the queue is closed and nothing is left in it.
    pub(crate) fn pop(&self, config: &RuntimeConfig) -> Option<(Vec<Job>, Vec<Job>, String)> {
        let mut st = lock(&self.state);
        loop {
            let (batch, lapsed, tenant) = drr_pop(&mut st, config);
            if !batch.is_empty() || !lapsed.is_empty() {
                st.active += batch.len();
                return Some((batch, lapsed, tenant));
            }
            if st.shutdown {
                return None;
            }
            st = cv_wait(&self.cv, st);
        }
    }

    /// A worker has answered `n` popped jobs.
    pub(crate) fn finished(&self, n: usize) {
        lock(&self.state).active -= n;
    }

    /// Nothing queued and no worker mid-batch.
    pub(crate) fn is_idle(&self) -> bool {
        let st = lock(&self.state);
        st.queued == 0 && st.active == 0
    }

    /// Refuse new jobs and wake every worker to drain what is queued.
    /// Returns `false` if the queue was already closed.
    pub(crate) fn close(&self) -> bool {
        let first = !std::mem::replace(&mut lock(&self.state).shutdown, true);
        self.cv.notify_all();
        first
    }
}

/// Weight of a tenant under the DRR scheduler (unlisted tenants weigh 1).
fn tenant_weight(config: &RuntimeConfig, tenant: &str) -> u64 {
    config
        .tenant_weights
        .iter()
        .find(|(t, _)| t == tenant)
        .map(|(_, w)| (*w).max(1) as u64)
        .unwrap_or(1)
}

/// Count `n` dispatches for `tenant`. Tenant names come from clients, so
/// only the first [`MAX_TRACKED_TENANTS`] named ones (and the default
/// tenant) get an entry of their own; the rest add up under
/// [`TENANT_OVERFLOW`] and the map stays bounded. Entries stay sorted by
/// name.
pub(crate) fn note_tenant_dispatch(c: &mut RuntimeStats, tenant: &str, n: u64) {
    let counts = &mut c.tenant_dispatches;
    let own_entry = |t: &str| t != DEFAULT_TENANT && t != TENANT_OVERFLOW;
    let tracked = !own_entry(tenant)
        || counts.iter().any(|(t, _)| t == tenant)
        || counts.iter().filter(|(t, _)| own_entry(t)).count() < MAX_TRACKED_TENANTS;
    let label = if tracked { tenant } else { TENANT_OVERFLOW };
    match counts.binary_search_by(|(t, _)| t.as_str().cmp(label)) {
        Ok(i) => counts[i].1 += n,
        Err(i) => counts.insert(i, (label.to_string(), n)),
    }
}

/// One deficit-round-robin scheduling decision, under the state lock.
///
/// Visits tenants in ring order: each visited tenant first has its
/// expired jobs diverted (answered without executing), then — if live
/// work remains — earns `DRR_QUANTUM × weight` deficit and dispatches
/// one batch anchored on its head job's [`PlanKey`], coalescing same-key
/// followers up to `min(deficit, max_batch)`. A drained tenant leaves
/// the ring (and banks nothing); one with work left rotates to the back,
/// so a flooding tenant cannot lock out the ring. Returns the batch, the
/// diverted jobs, and the dispatching tenant's name.
fn drr_pop(st: &mut QueueState, config: &RuntimeConfig) -> (Vec<Job>, Vec<Job>, String) {
    let now = Instant::now();
    let mut lapsed: Vec<Job> = Vec::new();
    while let Some(tenant) = st.ring.pop_front() {
        let Some(tq) = st.tenants.get_mut(&tenant) else {
            continue;
        };
        // divert expired jobs first — they must not consume deficit
        let mut live = VecDeque::with_capacity(tq.jobs.len());
        while let Some(j) = tq.jobs.pop_front() {
            if j.expired(now) {
                lapsed.push(j);
            } else {
                live.push_back(j);
            }
        }
        tq.jobs = live;
        if tq.jobs.is_empty() {
            // all expired; accounted for on whichever return path fires
            st.tenants.remove(&tenant);
            continue;
        }
        let weight = tenant_weight(config, &tenant);
        let quantum = DRR_QUANTUM * weight;
        tq.deficit = (tq.deficit + quantum).min(quantum * DRR_MAX_BANKED_ROUNDS);
        let cap = (tq.deficit as usize).min(config.max_batch.max(1)).max(1);
        let anchor = tq.jobs[0].key.clone();
        let mut batch: Vec<Job> = Vec::new();
        let mut rest = VecDeque::with_capacity(tq.jobs.len());
        while let Some(j) = tq.jobs.pop_front() {
            if batch.len() < cap && j.key == anchor {
                batch.push(j);
            } else {
                rest.push_back(j);
            }
        }
        tq.jobs = rest;
        tq.deficit -= batch.len() as u64;
        if tq.jobs.is_empty() {
            st.tenants.remove(&tenant);
        } else {
            st.ring.push_back(tenant.clone());
        }
        st.queued -= batch.len() + lapsed.len();
        return (batch, lapsed, tenant);
    }
    // ring exhausted: only expired (or no) work anywhere
    st.queued -= lapsed.len();
    (Vec::new(), lapsed, String::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Operands;
    use crate::runtime::Runtime;
    use crate::testing::dot;
    use mdh_lowering::asm::DeviceKind;
    use std::sync::Arc;

    /// A tenant with work left rotates to the back of the ring, so a
    /// flooder's backlog never keeps another tenant from the next dispatch.
    #[test]
    fn drr_pop_rotates_a_backlogged_tenant_behind_the_others() {
        let (prog, inputs) = dot();
        let operands: Operands = Arc::new(inputs);
        let mut st = QueueState::default();
        for (tenant, jobs) in [("noisy", 3 * DRR_QUANTUM), ("polite", 1)] {
            for _ in 0..jobs {
                st.tenants
                    .entry(tenant.into())
                    .or_default()
                    .jobs
                    .push_back(Job {
                        key: PlanKey::of(&prog, DeviceKind::Cpu),
                        req: Request::new(prog.clone(), DeviceKind::Cpu, Arc::clone(&operands)),
                        reply: mpsc::channel().0,
                        submitted: Instant::now(),
                    });
                st.queued += 1;
            }
            st.ring.push_back(tenant.into());
        }
        let config = RuntimeConfig::default();
        let order: Vec<_> = std::iter::from_fn(|| {
            let (batch, _, tenant) = drr_pop(&mut st, &config);
            (!batch.is_empty()).then_some((tenant, batch.len() as u64))
        })
        .collect();
        let turn = |tenant: &str, n| (tenant.to_string(), n);
        assert_eq!(
            order,
            [
                turn("noisy", DRR_QUANTUM),
                turn("polite", 1),
                turn("noisy", DRR_QUANTUM),
                turn("noisy", DRR_QUANTUM),
            ]
        );
        assert_eq!(st.queued, 0);
    }

    /// Tenant names come from clients: ten thousand of them must not grow
    /// the per-tenant counters (and so every stats snapshot) without bound.
    #[test]
    fn tenant_dispatch_counters_stay_bounded_under_distinct_names() {
        let (prog, inputs) = dot();
        let operands: Operands = Arc::new(inputs);
        let mut rt = Runtime::new(RuntimeConfig {
            max_queue_depth: 20_000,
            ..RuntimeConfig::default()
        })
        .unwrap();
        let handles: Vec<_> = (0..10_000)
            .map(|i| {
                let mut req = Request::new(prog.clone(), DeviceKind::Cpu, Arc::clone(&operands));
                // every fifth request carries no tenant
                req.tenant = (i % 5 != 0).then(|| format!("client-{i}"));
                rt.submit(req)
            })
            .collect();
        handles.into_iter().for_each(|h| drop(h.wait().unwrap()));
        rt.shutdown();
        let counts = rt.stats().tenant_dispatches;
        assert_eq!(counts.len(), MAX_TRACKED_TENANTS + 2, "{counts:?}");
        assert_eq!(counts.iter().map(|(_, n)| n).sum::<u64>(), 10_000);
        let of = |t: &str| counts.iter().find(|(l, _)| l == t).map(|(_, n)| *n);
        assert_eq!(of(DEFAULT_TENANT), Some(2_000));
        assert_eq!(
            of(TENANT_OVERFLOW),
            Some(8_000 - MAX_TRACKED_TENANTS as u64)
        );
    }
}
