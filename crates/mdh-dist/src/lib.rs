//! # mdh-dist
//!
//! Reduction-aware multi-device execution. The MDH homomorphism laws
//! guarantee that any decomposition of the index space — including a
//! split across *devices* — recombines correctly through the
//! per-dimension combine operators. This crate turns that guarantee into
//! an executor:
//!
//! * [`device`] — [`device::DevicePool`]s of simulated GPUs and CPU
//!   executors, with host/peer link and topology configuration;
//! * [`topology`] — combine-topology cost model (serial chain vs binary
//!   tree vs host-side gather) over the `transfer::LinkParams` links;
//! * [`exec`] — [`exec::DistExecutor`]: partitions a program's outermost
//!   shardable dimension with `mdh_lowering::partition::PartitionPlan`
//!   and runs the launch in four stages, one private module each —
//!   `dispatch` (the shards of a level as one parallel region on the
//!   executor's one thread pool), `heal` (settle every attempt: retries,
//!   eviction and re-planning, the watchdog's hedge, the per-device
//!   health state machine), `recombine` (partials in shard order through
//!   `cc`/`pw(f)`/`ps(f)`/`rbi(f)`, a row at a time) and `account` (the
//!   upload/execute/combine/download time model, with residency from an
//!   attached `mdh_mem::MemPool`);
//! * [`fault`] — deterministic chaos: a seed-driven [`fault::FaultPlan`]
//!   of crashes, flaps, transients, slow links, hangs and resident-buffer
//!   corruption, and the [`fault::RetryPolicy`] / [`fault::HealPolicy`]
//!   the executor recovers under.
//!
//! Values never depend on the pool width, the fault schedule or
//! residency: every launch is bit-identical to single-device execution.
//! Programs with no shardable dimension degrade gracefully to one shard.

#![allow(clippy::needless_range_loop)]
#![allow(clippy::too_many_arguments)]
mod account;
pub mod device;
mod dispatch;
pub mod exec;
pub mod fault;
mod heal;
mod recombine;
#[cfg(test)]
mod testutil;
pub mod topology;

pub use device::{DeviceHealth, DevicePool, DeviceSpec, PoolConfig};
pub use exec::{DistExecutor, DistReport, MemLaunchStats, ShardReport};
pub use fault::{FaultPlan, FaultStats, HealPolicy, RetryPolicy};
pub use topology::{combine_cost, CombineCost, CombineTopology};
