//! Process-wide fast-path traffic counters.
//!
//! A [`FastKernel`](crate::fast::FastKernel) is held by the
//! [`Route`](crate::cpu::Route) built for a program — by the runtime once
//! per cached plan — so this is no kernel cache. What is shared
//! process-wide is the hit/fallback accounting that feeds `RuntimeStats`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Fast-path traffic counters.
pub struct FastRegistry {
    hits: AtomicU64,
    fallbacks: AtomicU64,
}

/// The process-wide registry.
pub fn registry() -> &'static FastRegistry {
    static REG: FastRegistry = FastRegistry {
        hits: AtomicU64::new(0),
        fallbacks: AtomicU64::new(0),
    };
    &REG
}

impl FastRegistry {
    pub fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_fallback(&self) {
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// `(kernel_hits, kernel_fallbacks)` — process-lifetime totals, so
    /// callers interested in one workload should snapshot a delta.
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.fallbacks.load(Ordering::Relaxed),
        )
    }
}
