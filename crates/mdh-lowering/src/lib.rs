//! # mdh-lowering
//!
//! The low-level side of the MDH pipeline: abstract system models,
//! schedules (the tuner's search space and the knobs baseline systems
//! lack), and the decomposition of scheduled programs into execution
//! plans whose correctness is guaranteed by the homomorphism laws of
//! `mdh_core::laws`.

#![allow(clippy::needless_range_loop)]
pub mod asm;
pub mod explain;
pub mod heuristics;
pub mod partition;
pub mod plan;
pub mod schedule;

pub use asm::{Asm, DeviceKind, GpuParams};
pub use explain::explain;
pub use heuristics::{default_loop_order, mdh_default_schedule};
pub use partition::{PartitionOutcome, PartitionPlan, Shard};
pub use plan::{CombineGroup, ExecutionPlan, Task};
pub use schedule::{ReductionStrategy, Schedule};
