//! Capability-faithful baseline schedulers.
//!
//! Each scheduler produces, for a given program, the schedule the real
//! system's documented capabilities allow — or the real system's
//! documented failure. The performance gaps of Figure 4 then follow from
//! schedule quality alone, executed by the same backends as MDH:
//!
//! | system   | reductions                    | tiling/staging        | failures |
//! |----------|-------------------------------|-----------------------|----------|
//! | OpenMP   | native ops only               | none                  | —        |
//! | OpenACC  | native ops only               | none (opt-in manual)  | —        |
//! | PPCG     | never parallelised            | heuristic/ATF tiles   | no cc dims; OOR on heuristic tiles |
//! | Pluto    | never parallelised            | heuristic/ATF tiles   | control flow in body |
//! | Numba    | simple native analysis        | none                  | —        |
//! | TVM      | native reducers only          | tuned templates       | custom/ps reducers |

use crate::capability as cap;
use mdh_core::dsl::DslProgram;
use mdh_lowering::asm::DeviceKind;
use mdh_lowering::heuristics::{default_loop_order, mdh_default_schedule};
use mdh_lowering::schedule::{ReductionStrategy, Schedule};
use std::fmt;

/// A baseline refusing or failing to handle a program — the paper's
/// `FAIL` entries (PPCG on Dot, Pluto on PRL, TVM on PRL/MBBS).
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleError {
    pub system: String,
    pub reason: String,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.system, self.reason)
    }
}

impl std::error::Error for ScheduleError {}

/// A baseline system that schedules programs.
pub trait Baseline: Send + Sync {
    fn name(&self) -> &str;
    fn device(&self) -> DeviceKind;
    fn schedule(&self, prog: &DslProgram) -> Result<Schedule, ScheduleError>;
}

fn base(rank: usize, device: DeviceKind, prog: &DslProgram) -> Schedule {
    let mut s = Schedule::sequential(rank, device);
    s.loop_order = default_loop_order(prog);
    s
}

// ---------------------------------------------------------------------------
// OpenMP
// ---------------------------------------------------------------------------

/// `#pragma omp parallel for` on the outermost concatenation loop plus
/// `reduction(...)` clauses for native operators. No tiling (OpenMP has no
/// `tile` directive; Section 5.2).
pub struct OpenMpLike {
    pub threads: usize,
}

impl Baseline for OpenMpLike {
    fn name(&self) -> &str {
        "OpenMP"
    }

    fn device(&self) -> DeviceKind {
        DeviceKind::Cpu
    }

    fn schedule(&self, prog: &DslProgram) -> Result<Schedule, ScheduleError> {
        let mut s = base(prog.rank(), DeviceKind::Cpu, prog);
        let sizes = &prog.md_hom.sizes;
        let cc = prog.md_hom.cc_dims();
        let native = cap::all_reductions_native(prog) && !cap::has_prefix_sum(prog);
        if let Some(&d0) = cc.first() {
            // parallel for on the outermost cc loop only
            s.par_chunks[d0] = self.threads.min(sizes[d0]).max(1);
        } else if native {
            // `parallel for reduction(+ : acc)` — OpenMP can split native
            // reductions across threads
            let dims = prog.md_hom.reduction_dims();
            if let Some(&d) = dims.iter().max_by_key(|&&d| sizes[d]) {
                s.par_chunks[d] = self.threads.min(sizes[d]).max(1);
                if s.par_chunks[d] > 1 {
                    s.reduction = ReductionStrategy::Tree;
                }
            }
        }
        // SIMD (Listing 2's `omp simd reduction(+:sum)` line): native
        // reductions vectorise; custom operators cannot be declared in a
        // reduction clause, so the reduction loop runs scalar. With a
        // large enough independent outer loop the compiler recovers some
        // SIMD by outer-loop vectorisation.
        let red = prog.md_hom.reduction_dims();
        if native {
            if let Some(&d) = red.iter().max_by_key(|&&d| sizes[d]) {
                s.block_threads[d] = 16.min(sizes[d]).max(1);
                if s.block_threads[d] > 1 {
                    s.reduction = ReductionStrategy::Tree;
                }
            } else if let Some(&dl) = cc.last() {
                s.block_threads[dl] = 16.min(sizes[dl]).max(1);
            }
        } else if let Some(&d0) = cc.first() {
            if sizes[d0] >= 4096 {
                s.block_threads[d0] = 16.min(sizes[d0]).max(1);
            }
        }
        Ok(s)
    }
}

// ---------------------------------------------------------------------------
// OpenACC
// ---------------------------------------------------------------------------

/// `#pragma acc parallel loop` mapping concatenation loops to gangs and
/// vectors, `loop reduction(...)` for native operators. No automatic
/// tiling; the `manual_tiling` variant models the paper's hand-applied
/// `tile` directive experiment (Section 5.2).
pub struct OpenAccLike {
    pub manual_tiling: bool,
}

impl Baseline for OpenAccLike {
    fn name(&self) -> &str {
        if self.manual_tiling {
            "OpenACC(manual tile)"
        } else {
            "OpenACC"
        }
    }

    fn device(&self) -> DeviceKind {
        DeviceKind::Gpu
    }

    fn schedule(&self, prog: &DslProgram) -> Result<Schedule, ScheduleError> {
        let mut s = base(prog.rank(), DeviceKind::Gpu, prog);
        let sizes = &prog.md_hom.sizes;
        // nvc's default mapping: `gang` on the annotated (outermost) cc
        // loop — one iteration per gang — and `vector` on the innermost
        // cc loop. Parallelism is therefore bounded by those two loop
        // extents; small extents underfill the device (the CCSD(T)
        // story, Section 5.2).
        let cc = prog.md_hom.cc_dims();
        match (cc.first(), cc.last()) {
            (Some(&g), Some(&v)) if g != v => {
                s.par_chunks[g] = sizes[g].clamp(1, 1 << 16);
                s.block_threads[v] = 128.min(sizes[v]).max(1);
            }
            (Some(&g), _) => {
                // a single cc loop: split it across gangs and vector lanes
                s.block_threads[g] = 128.min(sizes[g]).max(1);
                s.par_chunks[g] = sizes[g].div_ceil(s.block_threads[g]).clamp(1, 1 << 16);
            }
            _ => {
                // reduction-only kernels: `loop reduction(...)` for native
                // operators only
                if cap::all_reductions_native(prog) && !cap::has_prefix_sum(prog) {
                    let dims = prog.md_hom.reduction_dims();
                    if let Some(&d) = dims.iter().max_by_key(|&&d| sizes[d]) {
                        s.block_threads[d] = 256.min(sizes[d]).max(1);
                        s.par_chunks[d] = (sizes[d] / (256 * 64)).clamp(1, 864);
                        if s.par_chunks[d] > 1 || s.block_threads[d] > 1 {
                            s.reduction = ReductionStrategy::Tree;
                        }
                    }
                }
            }
        }
        // no automatic staging; the manual variant models the paper's
        // hand-applied `tile` directive: a second cc loop gets tiled onto
        // gangs (more parallelism) and inputs are staged per strip
        s.stage_inputs = self.manual_tiling;
        if self.manual_tiling {
            for d in 0..prog.rank() {
                s.inner_tiles[d] = 8.min(sizes[d]).max(1);
            }
            if cc.len() > 2 {
                let d1 = cc[1];
                s.par_chunks[d1] = sizes[d1].div_ceil(8).max(1);
            }
        }
        Ok(s)
    }
}

// ---------------------------------------------------------------------------
// PPCG
// ---------------------------------------------------------------------------

/// Polyhedral GPU compiler: tiles and maps parallel (cc) loops, stages in
/// shared memory, but *serialises reductions* (carried dependences;
/// Doerfert et al., arXiv:1505.07716). Cannot generate GPU code without a parallel
/// loop (fails on Dot, Section 5.2).
pub struct PpcgLike {
    /// Tile size per dimension (32 = heuristic; ATF-tuned variants pass
    /// tuned values).
    pub tile: usize,
    pub label: String,
}

impl PpcgLike {
    pub fn heuristic() -> PpcgLike {
        PpcgLike {
            tile: 32,
            label: "PPCG".into(),
        }
    }

    pub fn with_tile(tile: usize, label: &str) -> PpcgLike {
        PpcgLike {
            tile,
            label: label.into(),
        }
    }
}

impl Baseline for PpcgLike {
    fn name(&self) -> &str {
        &self.label
    }

    fn device(&self) -> DeviceKind {
        DeviceKind::Gpu
    }

    fn schedule(&self, prog: &DslProgram) -> Result<Schedule, ScheduleError> {
        let cc = prog.md_hom.cc_dims();
        if cc.is_empty() {
            return Err(ScheduleError {
                system: self.label.clone(),
                reason: "no parallel loops after dependence analysis: cannot \
                         generate GPU code for a reduction-only kernel"
                    .into(),
            });
        }
        let sizes = &prog.md_hom.sizes;
        let mut s = base(prog.rank(), DeviceKind::Gpu, prog);
        // tile every cc dim; map tiles to blocks, points to threads
        let mut tpb = 1usize;
        for (rank_pos, &d) in cc.iter().rev().enumerate() {
            let tile = self.tile.min(sizes[d]).max(1);
            s.par_chunks[d] = sizes[d].div_ceil(tile);
            if rank_pos < 2 {
                let t = tile.min(1024 / tpb).max(1);
                s.block_threads[d] = t;
                tpb *= t;
            }
            s.inner_tiles[d] = tile;
        }
        // reductions remain sequential, strip-mined for staging
        for &d in &prog.md_hom.reduction_dims() {
            s.inner_tiles[d] = self.tile.min(sizes[d]).max(1);
        }
        s.reduction = ReductionStrategy::Sequential;
        s.stage_inputs = true;
        Ok(s)
    }
}

// ---------------------------------------------------------------------------
// Pluto
// ---------------------------------------------------------------------------

/// Polyhedral CPU compiler: tiles + parallelises outer cc loops,
/// serialises reductions, and fails to extract polyhedra from bodies with
/// control flow (the PRL failure, Section 5.2).
pub struct PlutoLike {
    pub threads: usize,
    pub tile: usize,
    pub label: String,
}

impl PlutoLike {
    pub fn heuristic(threads: usize) -> PlutoLike {
        PlutoLike {
            threads,
            tile: 32,
            label: "Pluto".into(),
        }
    }

    pub fn with_tile(threads: usize, tile: usize, label: &str) -> PlutoLike {
        PlutoLike {
            threads,
            tile,
            label: label.into(),
        }
    }
}

impl Baseline for PlutoLike {
    fn name(&self) -> &str {
        &self.label
    }

    fn device(&self) -> DeviceKind {
        DeviceKind::Cpu
    }

    fn schedule(&self, prog: &DslProgram) -> Result<Schedule, ScheduleError> {
        if cap::body_has_control_flow(&prog.md_hom.sf) || cap::has_custom_reduction(prog) {
            return Err(ScheduleError {
                system: self.label.clone(),
                reason: "Error extracting polyhedra from source".into(),
            });
        }
        let sizes = &prog.md_hom.sizes;
        let mut s = base(prog.rank(), DeviceKind::Cpu, prog);
        let cc = prog.md_hom.cc_dims();
        if let Some(&d0) = cc.first() {
            s.par_chunks[d0] = self.threads.min(sizes[d0]).max(1);
        }
        // reductions sequential (carried dependence); tiling everywhere
        for d in 0..prog.rank() {
            s.inner_tiles[d] = self.tile.min(sizes[d]).max(1);
        }
        // the innermost *parallel* (cc) loop vectorises; reduction loops
        // do not (their dependence is carried)
        if let Some(&dl) = cc.last() {
            s.block_threads[dl] = 16.min(sizes[dl]).max(1);
        }
        Ok(s)
    }
}

// ---------------------------------------------------------------------------
// Numba
// ---------------------------------------------------------------------------

/// `@njit(parallel=True)` with `prange` on the outermost loop. Simple
/// native reductions are auto-parallelised by Numba's analysis; anything
/// more complex is skipped (footnote 4). No tiling.
pub struct NumbaLike {
    pub threads: usize,
}

impl Baseline for NumbaLike {
    fn name(&self) -> &str {
        "Numba"
    }

    fn device(&self) -> DeviceKind {
        DeviceKind::Cpu
    }

    fn schedule(&self, prog: &DslProgram) -> Result<Schedule, ScheduleError> {
        let mut s = base(prog.rank(), DeviceKind::Cpu, prog);
        let sizes = &prog.md_hom.sizes;
        let cc = prog.md_hom.cc_dims();
        if let Some(&d0) = cc.first() {
            s.par_chunks[d0] = self.threads.min(sizes[d0]).max(1);
        } else if cap::numba_auto_parallelizable_reduction(prog) {
            let dims = prog.md_hom.reduction_dims();
            if let Some(&d) = dims.iter().max_by_key(|&&d| sizes[d]) {
                s.par_chunks[d] = self.threads.min(sizes[d]).max(1);
                if s.par_chunks[d] > 1 {
                    s.reduction = ReductionStrategy::Tree;
                }
            }
        }
        // LLVM auto-vectorises straightforward bodies with native
        // operators; branches and custom reducers defeat it
        if cap::all_reductions_native(prog)
            && !cap::has_prefix_sum(prog)
            && !cap::body_has_control_flow(&prog.md_hom.sf)
        {
            let d = prog.rank() - 1;
            s.block_threads[d] = 16.min(sizes[d]).max(1);
            if s.block_threads[d] > 1 && prog.md_hom.reduction_dims().contains(&d) {
                s.reduction = ReductionStrategy::Tree;
            }
        }
        Ok(s)
    }
}

// ---------------------------------------------------------------------------
// TVM
// ---------------------------------------------------------------------------

/// Tensor-compiler baseline: schedule templates plus auto-tuning, but
/// rejects user-defined and prefix-sum reducers (the `comm_reducer`
/// restrictions reported in the TVM community [2, 3]).
pub struct TvmLike {
    pub device: DeviceKind,
    pub parallel_units: usize,
}

impl Baseline for TvmLike {
    fn name(&self) -> &str {
        "TVM"
    }

    fn device(&self) -> DeviceKind {
        self.device
    }

    fn schedule(&self, prog: &DslProgram) -> Result<Schedule, ScheduleError> {
        if cap::has_custom_reduction(prog) {
            return Err(ScheduleError {
                system: "TVM".into(),
                reason: "Invalid comm_reducer: user-defined reduction operators \
                         are not expressible"
                    .into(),
            });
        }
        if cap::has_prefix_sum(prog) {
            return Err(ScheduleError {
                system: "TVM".into(),
                reason: "cannot express nested/scan reduce operations".into(),
            });
        }
        // a competent template schedule (the harness additionally tunes
        // TVM with its own budget, mirroring AutoTVM)
        Ok(mdh_default_schedule(prog, self.device, self.parallel_units))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdh_core::combine::CombineOp;
    use mdh_core::dsl::DslBuilder;
    use mdh_core::expr::{BinOp, Expr, ScalarFunction, Stmt};
    use mdh_core::index_fn::{AffineExpr, IndexFn};
    use mdh_core::types::{BasicType, ScalarKind};

    fn matvec(i: usize, k: usize) -> DslProgram {
        DslBuilder::new("matvec", vec![i, k])
            .out_buffer("w", BasicType::F32)
            .out_access("w", IndexFn::select(2, &[0]))
            .inp_buffer("M", BasicType::F32)
            .inp_access("M", IndexFn::identity(2, 2))
            .inp_buffer("v", BasicType::F32)
            .inp_access("v", IndexFn::select(2, &[1]))
            .scalar_function(ScalarFunction::mul2("f_mul", ScalarKind::F32))
            .combine_ops(vec![CombineOp::cc(), CombineOp::pw_add()])
            .build()
            .unwrap()
    }

    fn dot(n: usize) -> DslProgram {
        DslBuilder::new("dot", vec![n])
            .out_buffer("res", BasicType::F32)
            .out_access("res", IndexFn::affine(vec![AffineExpr::constant(1, 0)]))
            .inp_buffer("x", BasicType::F32)
            .inp_access("x", IndexFn::identity(1, 1))
            .inp_buffer("y", BasicType::F32)
            .inp_access("y", IndexFn::identity(1, 1))
            .scalar_function(ScalarFunction::mul2("f", ScalarKind::F32))
            .combine_ops(vec![CombineOp::pw_add()])
            .build()
            .unwrap()
    }

    fn prl_like(n: usize, i: usize) -> DslProgram {
        let cf = ScalarFunction {
            name: "prl_max".into(),
            params: vec![("l".into(), BasicType::F64), ("r".into(), BasicType::F64)],
            results: vec![("res".into(), BasicType::F64)],
            body: vec![Stmt::If {
                cond: Expr::Bin(
                    BinOp::Ge,
                    Box::new(Expr::Param(0)),
                    Box::new(Expr::Param(1)),
                ),
                then_branch: vec![Stmt::Assign {
                    name: "res".into(),
                    value: Expr::Param(0),
                }],
                else_branch: vec![Stmt::Assign {
                    name: "res".into(),
                    value: Expr::Param(1),
                }],
            }],
        };
        DslBuilder::new("prl", vec![n, i])
            .out_buffer("w", BasicType::F64)
            .out_access("w", IndexFn::select(2, &[0]))
            .inp_buffer("m", BasicType::F64)
            .inp_access("m", IndexFn::identity(2, 2))
            .scalar_function(ScalarFunction::identity("id", ScalarKind::F64))
            .combine_ops(vec![CombineOp::cc(), CombineOp::pw_custom(cf).unwrap()])
            .build()
            .unwrap()
    }

    #[test]
    fn openmp_parallelises_outer_cc_only() {
        let p = matvec(4096, 4096);
        let s = OpenMpLike { threads: 16 }.schedule(&p).unwrap();
        s.validate(&p, 1 << 24).unwrap();
        assert_eq!(s.par_chunks, vec![16, 1]);
        assert!(!s.stage_inputs);
        // `omp simd reduction(+:sum)` vectorises the native reduction
        assert_eq!(s.block_threads[1], 16);
    }

    #[test]
    fn openmp_splits_native_dot() {
        let p = dot(1 << 20);
        let s = OpenMpLike { threads: 16 }.schedule(&p).unwrap();
        assert!(s.par_chunks[0] > 1);
        assert_eq!(s.reduction, ReductionStrategy::Tree);
    }

    #[test]
    fn openmp_cannot_split_custom_reduction() {
        let p = prl_like(1 << 10, 1 << 15);
        let s = OpenMpLike { threads: 16 }.schedule(&p).unwrap();
        // cc dim parallelised, custom reduction sequential and scalar
        assert!(s.par_chunks[0] > 1);
        assert_eq!(s.par_chunks[1], 1);
        assert_eq!(s.reduction, ReductionStrategy::Sequential);
        assert_eq!(s.block_threads[1], 1, "custom op cannot vectorise");
    }

    #[test]
    fn ppcg_fails_on_dot() {
        let p = dot(1 << 20);
        let e = PpcgLike::heuristic().schedule(&p).unwrap_err();
        assert!(e.reason.contains("reduction-only"), "{e}");
    }

    #[test]
    fn ppcg_matvec_serialises_reduction_but_tiles() {
        let p = matvec(4096, 4096);
        let s = PpcgLike::heuristic().schedule(&p).unwrap();
        s.validate(&p, usize::MAX / 2).unwrap();
        assert_eq!(s.reduction, ReductionStrategy::Sequential);
        assert!(s.stage_inputs);
        assert_eq!(s.par_chunks[1], 1, "reduction dim not split");
        assert!(s.par_chunks[0] > 1);
        assert!(s.inner_tiles[1] > 1, "reduction strip-mined for staging");
    }

    #[test]
    fn pluto_fails_on_control_flow() {
        let p = prl_like(16, 16);
        let e = PlutoLike::heuristic(16).schedule(&p).unwrap_err();
        assert!(e.reason.contains("polyhedra"), "{e}");
    }

    #[test]
    fn pluto_dot_is_fully_sequential() {
        let p = dot(1 << 20);
        let s = PlutoLike::heuristic(16).schedule(&p).unwrap();
        assert_eq!(s.grid_size(), 1, "no parallel loop for a pure reduction");
    }

    #[test]
    fn numba_parallelises_simple_reduction_only() {
        let simple = dot(1 << 20);
        let s = NumbaLike { threads: 8 }.schedule(&simple).unwrap();
        assert!(s.par_chunks[0] > 1);
        let complex = prl_like(4, 1 << 10);
        let s = NumbaLike { threads: 8 }.schedule(&complex).unwrap();
        assert_eq!(s.par_chunks[1], 1);
        assert_eq!(s.reduction, ReductionStrategy::Sequential);
    }

    #[test]
    fn tvm_rejects_custom_and_ps() {
        let p = prl_like(16, 16);
        let tvm = TvmLike {
            device: DeviceKind::Gpu,
            parallel_units: 1024,
        };
        assert!(tvm.schedule(&p).is_err());

        let ps_prog = DslBuilder::new("scan", vec![16])
            .out_buffer("y", BasicType::F64)
            .out_access("y", IndexFn::identity(1, 1))
            .inp_buffer("x", BasicType::F64)
            .inp_access("x", IndexFn::identity(1, 1))
            .scalar_function(ScalarFunction::identity("id", ScalarKind::F64))
            .combine_ops(vec![CombineOp::ps_add()])
            .build()
            .unwrap();
        assert!(tvm.schedule(&ps_prog).is_err());

        let ok = matvec(64, 64);
        assert!(tvm.schedule(&ok).is_ok());
    }

    #[test]
    fn openacc_schedules_validate() {
        for p in [matvec(4096, 4096), dot(1 << 22)] {
            for manual in [false, true] {
                let s = OpenAccLike {
                    manual_tiling: manual,
                }
                .schedule(&p)
                .unwrap();
                s.validate(&p, usize::MAX / 2).unwrap();
                assert!(s.threads_per_block() <= 1024);
            }
        }
    }
}
