//! # mdh-dist
//!
//! Reduction-aware multi-device execution. The MDH homomorphism laws
//! guarantee that any decomposition of the index space — including a
//! split across *devices* — recombines correctly through the
//! per-dimension combine operators. This crate turns that guarantee into
//! an executor:
//!
//! * [`device`] — a [`device::DevicePool`] is `N` identical simulated
//!   A100s behind one shared PCIe 4.0 host link, joined by NVLink3-class
//!   peer links, plus the per-device health states;
//! * [`exec`] — [`exec::DistExecutor`]: partitions a program's outermost
//!   shardable dimension with `mdh_lowering::partition::PartitionPlan`,
//!   whose `level` is the device level of the decomposition as an
//!   `ExecutionPlan`, and runs the launch in four stages, one private
//!   module each — `dispatch` (the shards of a level as one parallel
//!   region on the executor's one thread pool, every shard on the one
//!   A100 simulator), `heal` (settle every attempt: retries, eviction and
//!   re-planning, the watchdog's hedge, the per-device health state
//!   machine), `recombine` (partials in the level's group order through
//!   `cc`/`pw(f)`/`ps(f)`/`rbi(f)`, a row at a time) and `account` (the
//!   modelled upload/execute/combine/download time — a binary combine
//!   tree, a serial scan chain — with residency from an attached
//!   `mdh_mem::MemPool`);
//! * [`fault`] — deterministic chaos: a seed-driven [`fault::FaultPlan`]
//!   of crashes, flaps, transients, slow links, hangs and resident-buffer
//!   corruption, and the [`fault::RetryPolicy`] / [`fault::HealPolicy`]
//!   the executor recovers under.
//!
//! Values depend on the rotation's size alone: a launch's bits are
//! `mdh_core::eval::eval_planned` on the device level over the devices in
//! the rotation — each shard's partial narrowed by its store before the
//! fold — whatever faults fired and whatever was resident. On
//! integer-valued inputs they equal single-device execution.
//! Every reported time is modelled; none is measured on the host.
//! Programs with no shardable dimension degrade gracefully to one shard.

#![allow(clippy::needless_range_loop)]
mod account;
pub mod device;
mod dispatch;
pub mod exec;
pub mod fault;
mod heal;
mod recombine;
#[cfg(test)]
mod testutil;

pub use account::CombineCost;
pub use device::{DeviceHealth, DevicePool};
pub use exec::{DistExecutor, DistReport, MemLaunchStats, ShardReport};
pub use fault::{FaultPlan, FaultStats, HealPolicy, RetryPolicy};
