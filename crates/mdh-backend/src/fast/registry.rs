//! Process-wide fast-path traffic counters.
//!
//! A [`FastKernel`](crate::fast::FastKernel) depends on the program
//! alone — not on sizes, tiles, or the plan — and classifying one is
//! cheaper than building any key to cache it under, so there is no
//! kernel cache: `CpuExecutor` classifies once per run. What is shared
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
