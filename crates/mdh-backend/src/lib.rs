//! # mdh-backend
//!
//! Execution backends for scheduled MDH programs:
//!
//! * [`cpu::CpuExecutor`] — real multi-threaded execution on the host
//!   (rayon pool), with tiled contraction/stencil kernels bit-identical
//!   to a compiling register VM, that VM for arbitrary scalar functions
//!   and custom combine operators, and a reference fallback;
//! * [`gpu::GpuSim`] — a functional GPU simulator with an A100-class
//!   analytic cost model (the documented substitution for real CUDA
//!   code generation).

// Dimension-indexed loops over parallel per-dim arrays are clearer with
// explicit indices here; see the kernels' odometer loops.
#![allow(clippy::needless_range_loop)]
pub mod cpu;
pub mod cpu_model;
pub mod fast;
pub mod gpu;
pub mod offsets;
pub mod pipeline;
pub mod transfer;
pub mod vm;
pub mod vm_exec;

pub use cpu::{CpuExecutor, ExecPath};
pub use cpu_model::{estimate_cpu, CpuParams, CpuReport};
pub use fast::{FastKernel, FastRegistry};
pub use gpu::{GpuReport, GpuSim};
pub use pipeline::{Pipeline, Source, Stage};
pub use transfer::{DeviceDataRegion, LinkParams};
