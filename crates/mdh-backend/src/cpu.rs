//! The parallel CPU executor.
//!
//! Runs a scheduled program on one of three paths, chosen by a [`Route`]
//! built once from the program:
//!
//! 1. `Fast` — the tiled, vectorized kernels [`fast::classify`] admits
//!    (f32 and f64 two-factor products, f32 weighted sums, f32 and f64
//!    builtin scans over the identity),
//! 2. `Vm` — the lane-blocked register-VM path (`vm_exec`) for everything
//!    else with affine input accesses and scalar outputs (custom combine
//!    operators, records, f64 maps, custom or integer `ps` scans, `rbi`
//!    indexed reductions),
//! 3. `Reference` — the sequential reference evaluator (always correct).
//!
//! The runtime keeps one route per cached plan and runs it on every hit
//! ([`CpuExecutor::run_routed`]); [`CpuExecutor::run_planned`] routes
//! per call. `Fast` is bit-identical to `Vm` on the same plan — there is
//! one fold order, the VM's. All paths implement the same decomposition
//! semantics, so they agree with `mdh_core::eval::evaluate_recursive` up
//! to the reassociation the plan's reduction splits introduce.

use crate::fast::{self, FastKernel};
use crate::vm::CompiledSf;
use crate::vm_exec::{self, Mode};
use mdh_core::buffer::Buffer;
use mdh_core::dsl::DslProgram;
use mdh_core::error::{MdhError, Result};
use mdh_core::eval;
use mdh_lowering::plan::ExecutionPlan;
use mdh_lowering::schedule::Schedule;
use std::fmt;
use std::time::{Duration, Instant};

/// Which execution path ran (exposed for tests and reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPath {
    /// Tiled/vectorized fast kernel (bit-identical to Vm).
    Fast,
    Vm,
    Reference,
}

/// How a program runs, decided from the program alone: the kernel
/// [`fast::classify`] built, or the scalar and combine functions
/// `vm_exec::classify` compiled, or the reference evaluator — each slower
/// path with the reason the faster one declined. Any program with the
/// same structure and sizes (the runtime's plan key) runs on it.
pub struct Route(Kind);

#[allow(clippy::large_enum_variant)] // one per cached plan
enum Kind {
    Fast(FastKernel),
    Vm {
        sf: CompiledSf,
        mode: Mode,
        why_not_fast: String,
    },
    Reference {
        why_not_vm: String,
    },
}

impl Route {
    /// Classify `prog` and compile what its path runs.
    pub fn of(prog: &DslProgram) -> Route {
        let why_not_fast = match fast::classify(prog) {
            Ok(kernel) => return Route(Kind::Fast(kernel)),
            Err(reason) => reason,
        };
        Route(match vm_exec::classify(prog) {
            Ok((sf, mode)) => Kind::Vm {
                sf,
                mode,
                why_not_fast,
            },
            Err(e) => Kind::Reference {
                why_not_vm: e.to_string(),
            },
        })
    }

    /// The path every run takes.
    pub fn path(&self) -> ExecPath {
        match self.0 {
            Kind::Fast(_) => ExecPath::Fast,
            Kind::Vm { .. } => ExecPath::Vm,
            Kind::Reference { .. } => ExecPath::Reference,
        }
    }
}

/// `fast`, `vm: <why not fast>` or `reference: <why not the VM>`.
impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Kind::Fast(_) => f.write_str("fast"),
            Kind::Vm { why_not_fast, .. } => write!(f, "vm: {why_not_fast}"),
            Kind::Reference { why_not_vm } => write!(f, "reference: {why_not_vm}"),
        }
    }
}

/// A thread-pooled CPU executor.
///
/// The pool handle is cloneable and process-shareable: build one pool
/// and hand width-scoped handles to every executor (runtime workers,
/// the GPU simulator's host threads, which every `mdh-dist` device runs on) via
/// [`CpuExecutor::with_pool`] so the process runs a single set of OS
/// threads instead of one pool per executor.
pub struct CpuExecutor {
    pool: rayon::ThreadPool,
    pub threads: usize,
}

/// Plans covering at most this many iteration-space points run with the
/// parallel width clamped to 1: the region never crosses a thread
/// boundary, so tiny requests skip pool publication and wakeups
/// entirely. Chunk bracketing depends on the width, but every path
/// combines per-task results in task-index order, so the cutoff cannot
/// change output bits.
const SMALL_PLAN_POINTS: usize = 2048;

impl CpuExecutor {
    /// Build an executor with its own dedicated pool of `threads`.
    pub fn new(threads: usize) -> Result<CpuExecutor> {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .map_err(|e| MdhError::Validation(format!("thread pool: {e}")))?;
        Ok(CpuExecutor { pool, threads })
    }

    /// Build an executor sharing an existing pool's OS threads, with its
    /// parallel width capped at `threads`. No threads are spawned.
    pub fn with_pool(pool: &rayon::ThreadPool, threads: usize) -> CpuExecutor {
        let pool = pool.with_width(threads);
        let threads = pool.current_num_threads();
        CpuExecutor { pool, threads }
    }

    /// The executor's pool handle (share it via
    /// [`CpuExecutor::with_pool`]).
    pub fn pool(&self) -> &rayon::ThreadPool {
        &self.pool
    }

    /// The pool handle a plan should execute under: full width normally,
    /// width 1 for plans too small to amortize crossing a thread
    /// boundary.
    fn pool_for(&self, plan: &ExecutionPlan) -> rayon::ThreadPool {
        if plan.covered_points() <= SMALL_PLAN_POINTS {
            self.pool.with_width(1)
        } else {
            self.pool.clone()
        }
    }

    /// Which path `run` would take for this program.
    pub fn path_for(&self, prog: &DslProgram) -> ExecPath {
        Route::of(prog).path()
    }

    /// Execute the program under the given schedule.
    pub fn run(
        &self,
        prog: &DslProgram,
        schedule: &Schedule,
        inputs: &[Buffer],
    ) -> Result<Vec<Buffer>> {
        prog.validate()?;
        schedule.validate(prog, 1 << 24)?;
        let plan = ExecutionPlan::build(prog, schedule)?;
        self.run_planned(prog, schedule, &plan, inputs)
    }

    /// Execute with an already-lowered plan, skipping program/schedule
    /// validation and plan construction. The caller guarantees `plan` was
    /// built from `(prog, schedule)`; only the per-request inputs are
    /// re-checked.
    pub fn run_planned(
        &self,
        prog: &DslProgram,
        _schedule: &Schedule,
        plan: &ExecutionPlan,
        inputs: &[Buffer],
    ) -> Result<Vec<Buffer>> {
        self.run_routed(prog, &Route::of(prog), plan, inputs)
    }

    /// [`CpuExecutor::run_planned`] on a route built beforehand from a
    /// program with `prog`'s structure and sizes: nothing is classified
    /// or compiled.
    pub fn run_routed(
        &self,
        prog: &DslProgram,
        route: &Route,
        plan: &ExecutionPlan,
        inputs: &[Buffer],
    ) -> Result<Vec<Buffer>> {
        eval::check_inputs(prog, inputs)?;
        // every run either hits a kernel or counts as a fallback, so
        // hits/(hits+fallbacks) is fast-path coverage
        match &route.0 {
            Kind::Fast(kernel) => {
                let outs = kernel.run(prog, plan, inputs, &self.pool_for(plan))?;
                fast::registry().record_hit();
                Ok(outs)
            }
            Kind::Vm { sf, mode, .. } => {
                fast::registry().record_fallback();
                vm_exec::run_classified(prog, sf, mode, plan, inputs, &self.pool_for(plan))
            }
            Kind::Reference { .. } => {
                fast::registry().record_fallback();
                eval::evaluate_recursive(prog, inputs)
            }
        }
    }

    /// Execute and report wall-clock time of the execution itself.
    pub fn run_timed(
        &self,
        prog: &DslProgram,
        schedule: &Schedule,
        inputs: &[Buffer],
    ) -> Result<(Vec<Buffer>, Duration)> {
        let t0 = Instant::now();
        let out = self.run(prog, schedule, inputs)?;
        Ok((out, t0.elapsed()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdh_core::combine::CombineOp;
    use mdh_core::dsl::DslBuilder;
    use mdh_core::expr::ScalarFunction;
    use mdh_core::index_fn::{AffineExpr, IndexFn};
    use mdh_core::shape::Shape;
    use mdh_core::types::{BasicType, ScalarKind};
    use mdh_lowering::asm::DeviceKind;
    use mdh_lowering::heuristics::mdh_default_schedule;
    use mdh_lowering::schedule::ReductionStrategy;

    fn exec() -> CpuExecutor {
        CpuExecutor::new(4).unwrap()
    }

    fn matmul_prog(i: usize, j: usize, k: usize) -> DslProgram {
        DslBuilder::new("matmul", vec![i, j, k])
            .out_buffer("C", BasicType::F32)
            .out_access("C", IndexFn::select(3, &[0, 1]))
            .inp_buffer("A", BasicType::F32)
            .inp_access("A", IndexFn::select(3, &[0, 2]))
            .inp_buffer("B", BasicType::F32)
            .inp_access("B", IndexFn::select(3, &[2, 1]))
            .scalar_function(ScalarFunction::mul2("f_mul", ScalarKind::F32))
            .combine_ops(vec![CombineOp::cc(), CombineOp::cc(), CombineOp::pw_add()])
            .build()
            .unwrap()
    }

    fn matmul_inputs(i: usize, j: usize, k: usize) -> Vec<Buffer> {
        let mut a = Buffer::zeros("A", BasicType::F32, Shape::new(vec![i, k]));
        a.fill_with(|f| ((f * 37) % 13) as f64 - 6.0);
        let mut b = Buffer::zeros("B", BasicType::F32, Shape::new(vec![k, j]));
        b.fill_with(|f| ((f * 17) % 9) as f64 * 0.25);
        vec![a, b]
    }

    #[test]
    fn matmul_via_fast_path_matches_reference() {
        let (i, j, k) = (10, 12, 9);
        let prog = matmul_prog(i, j, k);
        let inputs = matmul_inputs(i, j, k);
        let ex = exec();
        assert_eq!(ex.path_for(&prog), ExecPath::Fast);
        let expect = eval::evaluate_recursive(&prog, &inputs).unwrap();
        // several schedules, with and without split reductions
        for (par, tree) in [
            (vec![1, 1, 1], false),
            (vec![2, 3, 1], false),
            (vec![2, 2, 3], true),
            (vec![1, 1, 4], true),
        ] {
            let mut s = Schedule::sequential(3, DeviceKind::Cpu);
            s.par_chunks = par.clone();
            if tree {
                s.reduction = ReductionStrategy::Tree;
            }
            let got = ex.run(&prog, &s, &inputs).unwrap();
            assert!(
                got[0].approx_eq(&expect[0], 1e-4),
                "schedule par={par:?} tree={tree}"
            );
        }
    }

    #[test]
    fn histogram_via_rbi_mode_bit_identical_across_widths() {
        // hist[key[i]] += w[i], integer-valued weights so addition is
        // exact; the real assertion is bitwise equality across pool
        // widths, which the fixed chunk structure must guarantee even
        // for non-integer data.
        let n = 5000;
        let buckets = 16;
        let keys: Vec<usize> = (0..n).map(|i| (i * 131) % buckets).collect();
        let captured = keys.clone();
        let prog = DslBuilder::new("hist", vec![n])
            .out_buffer_with_shape("hist", BasicType::F32, vec![buckets])
            .out_access(
                "hist",
                IndexFn::General {
                    out_rank: 1,
                    f: std::sync::Arc::new(move |idx: &[usize], out: &mut [usize]| {
                        out[0] = captured[idx[0]]
                    }),
                    label: "key".into(),
                },
            )
            .inp_buffer("w", BasicType::F32)
            .inp_access("w", IndexFn::identity(1, 1))
            .scalar_function(ScalarFunction::identity("id", ScalarKind::F32))
            .combine_ops(vec![CombineOp::rbi_add()])
            .build()
            .unwrap();
        let mut w = Buffer::zeros("w", BasicType::F32, Shape::new(vec![n]));
        w.fill_with(|i| ((i.wrapping_mul(2654435761)) % 16) as f64 - 8.0);
        let inputs = vec![w];
        let expect = eval::evaluate_recursive(&prog, &inputs).unwrap();
        let mut bits: Vec<Vec<u32>> = Vec::new();
        for width in [1usize, 2, 4] {
            let ex = CpuExecutor::new(width).unwrap();
            assert_eq!(ex.path_for(&prog), ExecPath::Vm);
            let s = mdh_default_schedule(&prog, DeviceKind::Cpu, width);
            let got = ex.run(&prog, &s, &inputs).unwrap();
            assert_eq!(
                got[0].as_f32().unwrap(),
                expect[0].as_f32().unwrap(),
                "width {width} diverges from reference"
            );
            bits.push(
                got[0]
                    .as_f32()
                    .unwrap()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect(),
            );
        }
        assert!(
            bits.windows(2).all(|p| p[0] == p[1]),
            "rbi output bits differ across widths"
        );
    }

    #[test]
    fn stencil_via_fast_path_matches_reference() {
        let n = 64;
        let prog = DslBuilder::new("jacobi1d", vec![n])
            .out_buffer("y", BasicType::F32)
            .out_access("y", IndexFn::identity(1, 1))
            .inp_buffer("x", BasicType::F32)
            .inp_access("x", IndexFn::affine(vec![AffineExpr::new(vec![1], 0)]))
            .inp_access("x", IndexFn::affine(vec![AffineExpr::new(vec![1], 1)]))
            .inp_access("x", IndexFn::affine(vec![AffineExpr::new(vec![1], 2)]))
            .scalar_function(ScalarFunction::weighted_sum(
                "w",
                ScalarKind::F32,
                &[1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
            ))
            .combine_ops(vec![CombineOp::cc()])
            .build()
            .unwrap();
        let mut x = Buffer::zeros("x", BasicType::F32, Shape::new(vec![n + 2]));
        x.fill_with(|f| ((f * 31) % 11) as f64);
        let inputs = vec![x];
        let ex = exec();
        assert_eq!(ex.path_for(&prog), ExecPath::Fast);
        let expect = eval::evaluate_recursive(&prog, &inputs).unwrap();
        let mut s = Schedule::sequential(1, DeviceKind::Cpu);
        s.par_chunks = vec![4];
        let got = ex.run(&prog, &s, &inputs).unwrap();
        assert!(got[0].approx_eq(&expect[0], 1e-5));
    }

    #[test]
    fn f64_matvec_takes_fast_path() {
        let (i, k) = (8, 8);
        let prog = DslBuilder::new("matvec64", vec![i, k])
            .out_buffer("w", BasicType::F64)
            .out_access("w", IndexFn::select(2, &[0]))
            .inp_buffer("M", BasicType::F64)
            .inp_access("M", IndexFn::identity(2, 2))
            .inp_buffer("v", BasicType::F64)
            .inp_access("v", IndexFn::select(2, &[1]))
            .scalar_function(ScalarFunction::mul2("f", ScalarKind::F64))
            .combine_ops(vec![CombineOp::cc(), CombineOp::pw_add()])
            .build()
            .unwrap();
        let ex = exec();
        assert_eq!(ex.path_for(&prog), ExecPath::Fast);
        let mut m = Buffer::zeros("M", BasicType::F64, Shape::new(vec![i, k]));
        m.fill_with(|f| f as f64);
        let mut v = Buffer::zeros("v", BasicType::F64, Shape::new(vec![k]));
        v.fill_with(|f| 1.0 + f as f64);
        let inputs = vec![m, v];
        let expect = eval::evaluate_recursive(&prog, &inputs).unwrap();
        let s = mdh_default_schedule(&prog, DeviceKind::Cpu, 4);
        let got = ex.run(&prog, &s, &inputs).unwrap();
        assert!(got[0].approx_eq(&expect[0], 1e-9));
    }

    #[test]
    fn default_schedule_end_to_end_large_dot() {
        // pure reduction with a split: exercises group combining in the
        // fast contraction kernel
        let n = 100_000;
        let prog = DslBuilder::new("dot", vec![n])
            .out_buffer("res", BasicType::F32)
            .out_access("res", IndexFn::affine(vec![AffineExpr::constant(1, 0)]))
            .inp_buffer("x", BasicType::F32)
            .inp_access("x", IndexFn::identity(1, 1))
            .inp_buffer("y", BasicType::F32)
            .inp_access("y", IndexFn::identity(1, 1))
            .scalar_function(ScalarFunction::mul2("f", ScalarKind::F32))
            .combine_ops(vec![CombineOp::pw_add()])
            .build()
            .unwrap();
        let mut x = Buffer::zeros("x", BasicType::F32, Shape::new(vec![n]));
        x.fill_with(|f| ((f % 17) as f64 - 8.0) / 16.0);
        let mut y = Buffer::zeros("y", BasicType::F32, Shape::new(vec![n]));
        y.fill_with(|f| ((f % 23) as f64) / 23.0);
        let inputs = vec![x.clone(), y.clone()];
        let s = mdh_default_schedule(&prog, DeviceKind::Cpu, 4);
        assert!(s.splits_reduction(&prog));
        let ex = exec();
        let got = ex.run(&prog, &s, &inputs).unwrap();
        let xf = x.as_f32().unwrap();
        let yf = y.as_f32().unwrap();
        let expect: f64 = xf
            .iter()
            .zip(yf)
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        let got_v = got[0].as_f32().unwrap()[0] as f64;
        assert!(
            (got_v - expect).abs() < 1e-2 * expect.abs().max(1.0),
            "{got_v} vs {expect}"
        );
    }

    #[test]
    fn run_timed_returns_duration() {
        let prog = matmul_prog(16, 16, 16);
        let inputs = matmul_inputs(16, 16, 16);
        let s = Schedule::sequential(3, DeviceKind::Cpu);
        let (_, d) = exec().run_timed(&prog, &s, &inputs).unwrap();
        assert!(d.as_nanos() > 0);
    }
}
