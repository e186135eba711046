//! `mdh-runtime` — a persistent, concurrent execution service over the
//! MDH pipeline.
//!
//! The paper's amortisation argument (§5) is that tuning cost is paid
//! once and reused across launches. The one-shot `mdhc` CLI realises that
//! only through a file-backed [`mdh_tuner::TuningCache`]; every process
//! still re-lowers and re-warms everything. This crate provides the
//! long-lived runtime that production serving needs:
//!
//! * a **compiled-plan cache** ([`plan_cache`]) keyed by
//!   `(program structural signature, shape class, backend)` holding
//!   fully-lowered execution plans, with LRU eviction and hit/miss
//!   counters;
//! * a **request queue + worker pool** ([`runtime`]) that batches
//!   same-signature launches so lowering and device-residency setup
//!   amortise across a batch;
//! * a **background tune-and-swap policy** ([`tune`]): a miss is served
//!   immediately from the heuristic schedule while an `mdh-tuner` search
//!   runs asynchronously on a budget; when it beats the incumbent, the
//!   cached plan is atomically hot-swapped and the result persisted.
//! * a line-oriented **serving protocol** ([`server`]) over Unix domain
//!   sockets and TCP — with opt-in pipelined multiplexed framing and
//!   consistent-hash runtime shards ([`ring`]) — used by `mdhc serve` /
//!   `mdhc submit` / `mdhc front`.

mod histogram;
pub mod plan_cache;
pub mod ring;
pub mod runtime;
pub mod server;
pub mod stats;
mod sync;
pub mod tune;

pub use plan_cache::{structural_signature, CompiledPlan, PlanCache, PlanKey, PlanSource};
pub use ring::HashRing;
pub use runtime::{
    GradHandle, GradResponse, Handle, Operands, Request, Response, Runtime, RuntimeConfig,
    DEFAULT_TENANT,
};
pub use server::{ServeOptions, ServerAddr, SubmitClientOpts};
pub use stats::RuntimeStats;
pub use tune::TunePolicy;
