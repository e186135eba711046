//! `mdh-runtime` — a persistent, concurrent execution service over the
//! MDH pipeline.
//!
//! The paper's amortisation argument (§5) is that tuning cost is paid
//! once and reused across launches: `mdhc tune --cache F` searches
//! offline and writes a [`mdh_tuner::TuningCache`] file. This crate is the
//! long-lived runtime that launches many times from it:
//!
//! * a **compiled-plan cache** ([`plan_cache`]) keyed by
//!   `(program structural signature, shape class, backend)` holding
//!   fully-lowered execution plans, with LRU eviction and hit/miss
//!   counters. A plan is lowered once per key, from the file's schedule
//!   or else the heuristic's, and never changes while it is cached;
//! * a **request queue + worker pool** ([`runtime`]) that batches
//!   same-signature launches so lowering and device-residency setup
//!   amortise across a batch;
//! * a line-oriented **serving protocol** ([`server`]) over Unix domain
//!   sockets and TCP — with opt-in pipelined multiplexed framing — used
//!   by `mdhc serve` / `mdhc submit`, and its [`Client`].

mod breaker;
mod client;
mod front;
mod histogram;
pub mod plan_cache;
mod protocol;
mod queue;
mod request;
pub mod runtime;
pub mod server;
pub mod stats;
mod sync;
mod transport;

pub use client::Client;
pub use plan_cache::{
    structural_signature, CachedPlan, CompiledPlan, PlanCache, PlanKey, PlanSource,
};
pub use runtime::{
    GradHandle, GradResponse, Handle, Operands, Request, Response, Runtime, RuntimeConfig,
    TunePolicy, DEFAULT_TENANT,
};
pub use server::{ServeOptions, ServerAddr, SubmitClientOpts};
pub use stats::RuntimeStats;

/// Fixtures the unit tests share.
#[cfg(test)]
mod testing {
    use mdh_core::buffer::Buffer;
    use mdh_core::dsl::DslProgram;

    pub(crate) const DOT: &str = "\
@mdh( out( res = Buffer[fp32] ),
      inp( x = Buffer[fp32], y = Buffer[fp32] ),
      combine_ops( pw(add) ) )
def dot(res, x, y):
    for k in range(N):
        res[0] = x[k] * y[k]
";

    /// `DOT` at `N = 64` and its deterministic operands.
    pub(crate) fn dot() -> (DslProgram, Vec<Buffer>) {
        let env = mdh_directive::DirectiveEnv::new().size("N", 64);
        let prog = mdh_directive::compile_any(DOT, &env).unwrap();
        let inputs = crate::protocol::deterministic_inputs(&prog).unwrap();
        (prog, inputs)
    }
}
