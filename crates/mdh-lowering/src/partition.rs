//! Multi-device partitioning: the device level of a program's
//! decomposition.
//!
//! A split across devices is one more level of the decomposition an
//! [`ExecutionPlan`] describes for the CPU engines' tasks.
//! [`PartitionPlan::build`] picks one dimension — `cc` before `pw(f)`
//! before `rbi(f)` before `ps(f)`, outermost first — and builds the
//! `ExecutionPlan` of a schedule that cuts that dimension into one chunk
//! per device and no other: the plan's `level`. Its tasks are the shards,
//! by shard index, and its groups are the order the shards' partials
//! recombine in ([`ExecutionPlan::grouped`]), so the pool's bits are
//! `mdh_core::eval::eval_planned` on the level, up to the rounding of each
//! shard's stored partial. Each shard's program is rewritten to run as an
//! ordinary single-device program over a local iteration space:
//!
//! * input accesses are translated by the shard's offset along the split
//!   dimension (`constant += coeff[d] * lo`), so a shard reads exactly its
//!   slice of the original input buffers;
//! * output accesses are translated the same way. A `cc` or `ps` shard
//!   owes only its own slice of each output, so each output buffer is
//!   shaped to the *box* its accesses reach over the shard's range and the
//!   accesses are shifted by the box's low corner; the recombination
//!   copies or carry-folds every box into the global buffer. A `pw` or
//!   `rbi` shard produces a *partial* of every output position, so its
//!   output buffers keep the global shapes and fold element-wise.
//!
//! The split dimension's own [`CombineOp`] is the recombination the
//! executor owes. A dimension is eligible when every access touching it
//! is affine (a general index function cannot be translated) or it is an
//! `rbi` dimension. When no dimension qualifies the plan degrades to a
//! single shard running the unmodified program.

use crate::asm::DeviceKind;
use crate::plan::ExecutionPlan;
use crate::schedule::Schedule;
use mdh_core::combine::{CombineOp, DimBehavior};
use mdh_core::dsl::DslProgram;
use mdh_core::error::Result;
use mdh_core::index_fn::IndexFn;
use mdh_core::shape::MdRange;
use mdh_core::views::View;

/// Why a plan holds a single shard — or that it split. The typed reason
/// lets executors and `mdhc estimate` report *why* a pool was left idle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionOutcome {
    /// The iteration space was split across devices.
    Partitioned,
    /// A one-device pool: nothing to split.
    SingleDevice,
    /// A shardable dimension exists, but a general (non-affine) access
    /// depends on it, so the shard offset cannot be absorbed into the
    /// access constants.
    GeneralAccess,
    /// No dimension has a device-shardable combine operator with extent
    /// ≥ 2.
    NoShardableDim,
}

impl PartitionOutcome {
    /// Stable kebab-case label used in reports and CLI output.
    pub fn label(&self) -> &'static str {
        match self {
            PartitionOutcome::Partitioned => "partitioned",
            PartitionOutcome::SingleDevice => "single-device",
            PartitionOutcome::GeneralAccess => "general-access",
            PartitionOutcome::NoShardableDim => "no-shardable-dim",
        }
    }
}

impl std::fmt::Display for PartitionOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Plan-visible slice of one input operand, as a stable signature.
///
/// A device-resident copy of an input is reusable across launches exactly
/// when (a) the host operand's content/version is unchanged *and* (b) the
/// plan asks the device for the **same slice** of it. The second half is a
/// plan property, so it is computed here: the shard's global range,
/// restricted to the dimensions the operand's accesses actually depend
/// on, hashed into a `u64`.
///
/// Restricting to dependent dimensions is what makes weights-style
/// sharing work: a `MatVec` input `v` read as `select(dim 1)` has the
/// same signature on every shard (shards differ only along dim 0) and at
/// every pool width, so one resident copy serves them all — while the
/// matrix `M`, which depends on the split dimension, signs each shard's
/// row slice distinctly. General (data-dependent) accesses depend on
/// every dimension, so they conservatively sign the full shard range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OperandRegion {
    /// Index into the program's input-buffer declarations.
    pub input: usize,
    /// FNV-1a hash of the dependent-dimension sub-range.
    pub signature: u64,
}

/// One device's slice of the iteration space.
#[derive(Debug, Clone)]
pub struct Shard {
    /// Position in the split: the level's task id.
    pub index: usize,
    /// The shard's slice as a *global* iteration sub-range.
    pub range: MdRange,
    /// The rewritten, self-contained program for this slice: local
    /// iteration index 0 is global index `range.lo`, inputs are the global
    /// buffers, and each output is the shard's box of the global one
    /// (`cc`, `ps`) or a full-shape partial (`pw`, `rbi`).
    pub prog: DslProgram,
}

impl Shard {
    /// Region signatures for every input operand of this shard — the
    /// plan-visible half of a residency key (see [`OperandRegion`]).
    pub fn operand_regions(&self) -> Vec<OperandRegion> {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let eat = |h: &mut u64, x: u64| {
            for b in x.to_le_bytes() {
                *h ^= u64::from(b);
                *h = h.wrapping_mul(FNV_PRIME);
            }
        };
        let rank = self.range.lo.len();
        (0..self.prog.inp_view.buffers.len())
            .map(|input| {
                let mut h = FNV_OFFSET;
                eat(&mut h, input as u64);
                eat(&mut h, rank as u64);
                for d in 0..rank {
                    let dependent = self
                        .prog
                        .inp_view
                        .accesses
                        .iter()
                        .any(|a| a.buffer == input && a.index_fn.depends_on(d));
                    if dependent {
                        eat(&mut h, d as u64);
                        eat(&mut h, self.range.lo[d] as u64);
                        eat(&mut h, self.range.hi[d] as u64);
                    }
                }
                OperandRegion {
                    input,
                    signature: h,
                }
            })
            .collect()
    }
}

/// A device-granularity split of one program.
#[derive(Debug, Clone)]
pub struct PartitionPlan {
    /// Split dimension and its combine operator, the recombination the
    /// executor owes; `None` when the plan degraded to a single shard.
    pub partition: Option<(usize, CombineOp)>,
    /// Whether (and why not) the plan split the iteration space.
    pub outcome: PartitionOutcome,
    /// The device level: one task per shard, task id = shard index, and
    /// the groups the shards' partials recombine in.
    pub level: ExecutionPlan,
    pub shards: Vec<Shard>,
}

impl PartitionPlan {
    /// Split `prog` across up to `n_devices` devices.
    ///
    /// Dimension choice: the outermost `cc` dimension with extent ≥ 2 is
    /// preferred (disjoint outputs, zero combine arithmetic); failing
    /// that, the outermost `pw` dimension (cheap element-wise combine),
    /// then `rbi` (whole-buffer folds), then `ps` (serial carry chain).
    /// With no eligible dimension — or `n_devices == 1` — the plan holds
    /// one shard running `prog` unchanged.
    pub fn build(prog: &DslProgram, n_devices: usize) -> Result<PartitionPlan> {
        prog.validate()?;
        let (dim, outcome) = match (n_devices > 1).then(|| choose_dim(prog)) {
            None => (None, PartitionOutcome::SingleDevice),
            Some((Some(d), _)) => (Some(d), PartitionOutcome::Partitioned),
            Some((None, true)) => (None, PartitionOutcome::GeneralAccess),
            Some((None, false)) => (None, PartitionOutcome::NoShardableDim),
        };
        let mut schedule = Schedule::sequential(prog.rank(), DeviceKind::Gpu);
        let Some(d) = dim else {
            return Ok(PartitionPlan {
                partition: None,
                outcome,
                level: ExecutionPlan::build(prog, &schedule)?,
                shards: vec![Shard {
                    index: 0,
                    range: prog.md_hom.full_range(),
                    prog: prog.clone(),
                }],
            });
        };
        // an extent of at least 2 cut for at least 2 devices: at least
        // two shards
        schedule.par_chunks[d] = n_devices;
        let level = ExecutionPlan::build(prog, &schedule)?;
        let op = prog.md_hom.combine_ops[d].clone();
        let out_shapes = prog.output_shapes()?;
        let shards = (level.tasks.iter())
            .map(|t| {
                Ok(Shard {
                    index: t.id,
                    range: t.range.clone(),
                    prog: rewrite_shard(prog, (d, &op), &t.range, &out_shapes)?,
                })
            })
            .collect::<Result<_>>()?;
        Ok(PartitionPlan {
            partition: Some((d, op)),
            outcome,
            level,
            shards,
        })
    }

    /// Whether the plan actually splits the iteration space.
    pub fn is_partitioned(&self) -> bool {
        self.shards.len() > 1
    }

    /// The split dimension's combine operator.
    pub fn op(&self) -> Option<&CombineOp> {
        self.partition.as_ref().map(|(_, op)| op)
    }

    pub fn dim(&self) -> Option<usize> {
        self.partition.as_ref().map(|(d, _)| *d)
    }
}

/// Pick the split dimension, preferring cc > pw > rbi > ps, outermost
/// first. The second return is `true` when at least one otherwise-eligible
/// dimension was rejected only because a general access depends on it —
/// the signal [`PartitionOutcome::GeneralAccess`] reports.
fn choose_dim(prog: &DslProgram) -> (Option<usize>, bool) {
    let ops = &prog.md_hom.combine_ops;
    let preference = |d: &usize| match ops[*d] {
        CombineOp::Cc => 0,
        CombineOp::Pw(_) => 1,
        CombineOp::Rbi(_) => 2,
        CombineOp::Ps(_) => 3,
    };
    let mut blocked_by_general = false;
    let best = (0..ops.len())
        .filter(|&d| prog.md_hom.sizes[d] >= 2)
        .filter(|&d| {
            // rbi dims are always translatable: affine accesses absorb the
            // shard offset into their constants and general
            // (data-dependent) accesses are wrapped with an index-shift shim
            let ok = ops[d].is_indexed_reduction() || dim_translatable(prog, d);
            blocked_by_general |= !ok;
            ok
        })
        .min_by_key(preference);
    (best, blocked_by_general)
}

/// A dimension is translatable when every access that depends on it is
/// affine (constants can absorb the shard offset).
fn dim_translatable(prog: &DslProgram, d: usize) -> bool {
    let affine_or_independent = |view: &View| {
        view.accesses
            .iter()
            .all(|a| a.index_fn.as_affine().is_some() || !a.index_fn.depends_on(d))
    };
    affine_or_independent(&prog.inp_view) && affine_or_independent(&prog.out_view)
}

/// Build the self-contained program for `range`, the slice `[lo, hi)` of
/// the split dim `d`.
fn rewrite_shard(
    prog: &DslProgram,
    (d, op): (usize, &CombineOp),
    range: &MdRange,
    out_shapes: &[Vec<usize>],
) -> Result<DslProgram> {
    let (lo, hi) = (range.lo[d], range.hi[d]);
    let mut shard = prog.clone();
    shard.name = format!("{}__shard{lo}_{hi}", prog.name);
    shard.md_hom.sizes[d] = hi - lo;
    translate_view(&mut shard.inp_view, d, lo)?;
    translate_view(&mut shard.out_view, d, lo)?;
    // a cc or ps shard owes only the box its writes reach; a pw or rbi
    // shard owes a partial of every position, and partials combine
    // element-wise in the global shape
    let boxed = op.behavior() == DimBehavior::Preserve;
    let local = shard.md_hom.full_range();
    for (b, shape) in out_shapes.iter().enumerate() {
        let reach = boxed.then(|| output_box(&shard.out_view, b, &local, shape));
        let (corner, extents) = reach
            .flatten()
            .unwrap_or_else(|| (vec![0; shape.len()], shape.clone()));
        shift_buffer(&mut shard.out_view, b, &corner);
        shard.out_view.buffers[b].declared_shape = Some(extents);
    }
    shard.validate()?;
    Ok(shard)
}

/// The box buffer `b`'s accesses reach over `range` — its low corner and
/// extents, the bounding box clipped to `shape` — or `None` when an access
/// is general. The box starts at 0 at the earliest, so a write below 0
/// stays outside it and the shard's engine refuses it, as one device's
/// engine refuses it on the whole program; a dimension no point reaches
/// keeps one element.
fn output_box(
    view: &View,
    b: usize,
    range: &MdRange,
    shape: &[usize],
) -> Option<(Vec<i64>, Vec<usize>)> {
    let mut reach = vec![(i64::MAX, i64::MIN); shape.len()];
    for a in view.accesses_of(b) {
        for (r, e) in reach.iter_mut().zip(a.index_fn.as_affine()?) {
            let (lo, hi) = e.bounds_over(range);
            *r = (r.0.min(lo), r.1.max(hi));
        }
    }
    let corner: Vec<i64> = reach.iter().map(|&(lo, _)| lo.max(0)).collect();
    let extents = (reach.iter().zip(&corner).zip(shape))
        .map(|((&(_, hi), &c), &n)| ((hi + 1).min(n as i64).max(c + 1) - c) as usize)
        .collect();
    Some((corner, extents))
}

/// Shift buffer `b`'s (affine) accesses so coordinate `corner` becomes 0.
fn shift_buffer(view: &mut View, b: usize, corner: &[i64]) {
    for a in view.accesses.iter_mut().filter(|a| a.buffer == b) {
        if let IndexFn::Affine(exprs) = &mut a.index_fn {
            exprs
                .iter_mut()
                .zip(corner)
                .for_each(|(e, c)| e.constant -= c);
        }
    }
}

/// Iteration ranks whose shifted index the shard wrapper of a general
/// access builds on the stack (CCSD(T) and MCC, the deepest registered
/// programs, have 7 to 10 dimensions).
const SHIFT_STACK_RANK: usize = 16;

/// Shift every access by `lo` along dimension `d`, so local iteration
/// index 0 addresses what global index `lo` addressed. Affine accesses
/// absorb the offset into their constants; general accesses — legal only
/// for `rbi`-partitioned dims, where the scatter target is data-dependent
/// by design — are wrapped with a shim that restores the global iteration
/// coordinate before calling the original closure.
fn translate_view(view: &mut View, d: usize, lo: usize) -> Result<()> {
    use std::sync::Arc;
    for a in &mut view.accesses {
        match &mut a.index_fn {
            IndexFn::Affine(exprs) => {
                for e in exprs.iter_mut() {
                    let c = e.coeffs.get(d).copied().unwrap_or(0);
                    e.constant += c * lo as i64;
                }
            }
            IndexFn::General { out_rank, f, label } => {
                let inner = Arc::clone(f);
                *a = mdh_core::views::Access::new(
                    a.buffer,
                    IndexFn::General {
                        out_rank: *out_rank,
                        f: Arc::new(move |idx: &[usize], out: &mut [usize]| {
                            // the global index in a stack copy; only a rank
                            // past SHIFT_STACK_RANK allocates
                            let mut stack = [0; SHIFT_STACK_RANK];
                            let mut heap = Vec::new();
                            let global = match stack.get_mut(..idx.len()) {
                                Some(s) => s,
                                None => {
                                    heap.resize(idx.len(), 0);
                                    &mut heap[..]
                                }
                            };
                            global.copy_from_slice(idx);
                            global[d] += lo;
                            inner(global, out)
                        }),
                        label: format!("{label}[i{d}+{lo}]"),
                    },
                );
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdh_core::combine::CombineOp;
    use mdh_core::dsl::DslBuilder;
    use mdh_core::expr::ScalarFunction;
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
            .scalar_function(ScalarFunction::mul2("f_mul", ScalarKind::F32))
            .combine_ops(vec![CombineOp::pw_add()])
            .build()
            .unwrap()
    }

    #[test]
    fn matvec_partitions_cc_dim() {
        let p = matvec(10, 6);
        let plan = PartitionPlan::build(&p, 4).unwrap();
        assert!(matches!(plan.partition, Some((0, CombineOp::Cc))));
        assert_eq!(plan.shards.len(), 4);
        // even split of 10 into 4: 3,3,2,2
        let extents: Vec<usize> = plan.shards.iter().map(|s| s.range.extent(0)).collect();
        assert_eq!(extents, vec![3, 3, 2, 2]);
        // shard 1 covers global rows [3,6): its M access must be shifted
        let s1 = &plan.shards[1];
        assert_eq!(s1.range.lo[0], 3);
        assert_eq!(s1.prog.md_hom.sizes, vec![3, 6]);
        let m = s1.prog.inp_view.accesses[0].index_fn.as_affine().unwrap();
        assert_eq!(m[0].constant, 3);
        // the shard writes rows 3..6 into its own box of three rows: the
        // output access is shifted by 3, then back by the box's corner
        let w = s1.prog.out_view.accesses[0].index_fn.as_affine().unwrap();
        assert_eq!(w[0].constant, 0);
        assert_eq!(
            s1.prog.out_view.buffers[0].declared_shape,
            Some(vec![3usize])
        );
        s1.prog.validate().unwrap();
    }

    /// The declared output shapes and output access constants of every
    /// shard of `p` split `n` ways.
    fn shard_outputs(p: &DslProgram, n: usize) -> Vec<(Vec<usize>, Vec<i64>)> {
        let plan = PartitionPlan::build(p, n).unwrap();
        plan.shards
            .iter()
            .map(|s| {
                let out = &s.prog.out_view;
                let exprs = out.accesses[0].index_fn.as_affine().unwrap();
                let shape = out.buffers[0].declared_shape.clone().unwrap();
                (shape, exprs.iter().map(|e| e.constant).collect())
            })
            .collect()
    }

    /// A one-dimensional program over `n` points writing `out[c·i + k]`
    /// (declared `[len]`) from `x[i]` under `op`.
    fn one_d(op: CombineOp, (c, k): (i64, i64), len: usize, n: usize) -> DslProgram {
        DslBuilder::new("one_d", vec![n])
            .out_buffer_with_shape("out", BasicType::F64, vec![len])
            .out_access("out", IndexFn::affine(vec![AffineExpr::new(vec![c], k)]))
            .inp_buffer("x", BasicType::F64)
            .inp_access("x", IndexFn::identity(1, 1))
            .scalar_function(ScalarFunction::identity("id", ScalarKind::F64))
            .combine_ops(vec![op])
            .build()
            .unwrap()
    }

    #[test]
    fn a_scan_shard_owns_the_box_of_its_rows() {
        // out[2i + 1] over 8 points, split 3 + 3 + 2: shard 1 writes
        // 7, 9, 11, a box of five elements from 7
        let p = one_d(CombineOp::ps_add(), (2, 1), 16, 8);
        let plan = PartitionPlan::build(&p, 3).unwrap();
        assert!(matches!(plan.op(), Some(CombineOp::Ps(_))));
        assert_eq!(
            shard_outputs(&p, 3),
            [(vec![5], vec![0]), (vec![5], vec![0]), (vec![3], vec![0])]
        );
    }

    #[test]
    fn pw_and_rbi_shards_keep_the_global_shape() {
        // a Dot's partial and a scatter's partial cover every position
        let dot = dot(9);
        assert_eq!(shard_outputs(&dot, 2), vec![(vec![1], vec![0]); 2]);
        let scatter = one_d(CombineOp::rbi_add(), (1, 0), 12, 12);
        let plan = PartitionPlan::build(&scatter, 3).unwrap();
        assert!(matches!(plan.op(), Some(CombineOp::Rbi(_))));
        // shard k's accesses are translated by 4k but not shifted back
        assert_eq!(
            shard_outputs(&scatter, 3),
            [
                (vec![12], vec![0]),
                (vec![12], vec![4]),
                (vec![12], vec![8])
            ]
        );
    }

    #[test]
    fn a_box_is_clipped_at_coordinate_zero() {
        // out[i - 2] over 8 points: shard 0 (i in 0..3) writes only
        // coordinate 0, shard 1 (3..6) coordinates 1..4 from its corner 1
        let p = one_d(CombineOp::cc(), (1, -2), 6, 8);
        let shards = shard_outputs(&p, 3);
        assert_eq!(shards[0], (vec![1], vec![-2]), "box [0, 1), no shift");
        assert_eq!(shards[1], (vec![3], vec![0]), "box [1, 4)");
        assert_eq!(shards[2], (vec![2], vec![0]), "box [4, 6)");
    }

    /// The shards are the level's tasks, and the level groups them as
    /// the split dim's operator recombines them: a `cc` split is one
    /// group per shard, a `pw` split one group in shard order.
    #[test]
    fn the_level_is_an_execution_plan_over_the_split_dim() {
        let plan = PartitionPlan::build(&matvec(10, 6), 4).unwrap();
        let ranges = |plan: &PartitionPlan| -> Vec<(MdRange, MdRange)> {
            (plan.level.tasks.iter().zip(&plan.shards))
                .map(|(t, s)| (t.range.clone(), s.range.clone()))
                .collect()
        };
        assert!(ranges(&plan).iter().all(|(t, s)| t == s));
        assert!(plan.level.split_dims.is_empty());
        assert_eq!(plan.level.groups.len(), 4);
        let plan = PartitionPlan::build(&dot(9), 3).unwrap();
        assert!(ranges(&plan).iter().all(|(t, s)| t == s));
        assert_eq!(plan.level.split_dims, [0]);
        assert_eq!(plan.level.groups.len(), 1);
        assert_eq!(plan.level.groups[0].task_ids, [0, 1, 2]);
        let single = PartitionPlan::build(&dot(9), 1).unwrap();
        assert_eq!(single.level.tasks.len(), 1);
        assert!(single.level.split_dims.is_empty());
    }

    #[test]
    fn dot_partitions_reduction_dim() {
        let p = dot(9);
        let plan = PartitionPlan::build(&p, 2).unwrap();
        assert!(matches!(plan.partition, Some((0, CombineOp::Pw(_)))));
        assert_eq!(plan.shards.len(), 2);
        let s1 = &plan.shards[1];
        assert_eq!(s1.prog.md_hom.sizes, vec![4]);
        let x = s1.prog.inp_view.accesses[0].index_fn.as_affine().unwrap();
        assert_eq!(x[0].constant, 5);
        // the scalar output access does not depend on the split dim
        let out = s1.prog.out_view.accesses[0].index_fn.as_affine().unwrap();
        assert_eq!(out[0].constant, 0);
    }

    #[test]
    fn cc_preferred_over_reduction() {
        // matvec has both a cc dim (0) and a pw dim (1); cc wins even
        // though both are shardable
        let p = matvec(8, 1 << 12);
        let plan = PartitionPlan::build(&p, 2).unwrap();
        assert_eq!(plan.dim(), Some(0));
        assert!(matches!(plan.op(), Some(CombineOp::Cc)));
    }

    #[test]
    fn scan_dim_partitions_as_scan() {
        let p = DslBuilder::new("psum", vec![8])
            .out_buffer("out", BasicType::F64)
            .out_access("out", IndexFn::identity(1, 1))
            .inp_buffer("x", BasicType::F64)
            .inp_access("x", IndexFn::identity(1, 1))
            .scalar_function(ScalarFunction::identity("id", ScalarKind::F64))
            .combine_ops(vec![CombineOp::ps_add()])
            .build()
            .unwrap();
        let plan = PartitionPlan::build(&p, 3).unwrap();
        assert!(matches!(plan.op(), Some(CombineOp::Ps(_))));
        assert_eq!(plan.shards.len(), 3);
    }

    #[test]
    fn one_device_degrades_gracefully() {
        let p = matvec(4, 4);
        let plan = PartitionPlan::build(&p, 1).unwrap();
        assert!(!plan.is_partitioned());
        assert_eq!(plan.shards.len(), 1);
        assert_eq!(plan.shards[0].prog.name, "matvec");
        assert_eq!(plan.outcome, PartitionOutcome::SingleDevice);
    }

    #[test]
    fn tiny_extent_caps_shard_count() {
        let p = matvec(2, 64);
        let plan = PartitionPlan::build(&p, 8).unwrap();
        assert_eq!(plan.shards.len(), 2, "cannot split extent 2 eight ways");
        assert_eq!(plan.outcome, PartitionOutcome::Partitioned);
    }

    #[test]
    fn outcome_labels_are_kebab_case() {
        assert_eq!(PartitionOutcome::Partitioned.to_string(), "partitioned");
        assert_eq!(
            PartitionOutcome::GeneralAccess.to_string(),
            "general-access"
        );
        assert_eq!(
            PartitionOutcome::NoShardableDim.to_string(),
            "no-shardable-dim"
        );
    }

    #[test]
    fn general_access_degrades_to_single_shard() {
        use std::sync::Arc;
        let p = DslBuilder::new("gather", vec![6])
            .out_buffer("out", BasicType::F64)
            .out_access("out", IndexFn::identity(1, 1))
            .inp_buffer("x", BasicType::F64)
            .inp_access(
                "x",
                IndexFn::General {
                    out_rank: 1,
                    f: Arc::new(|idx: &[usize], out: &mut [usize]| out[0] = idx[0] / 2),
                    label: "half".into(),
                },
            )
            .scalar_function(ScalarFunction::identity("id", ScalarKind::F64))
            .combine_ops(vec![CombineOp::cc()])
            .build()
            .unwrap();
        let plan = PartitionPlan::build(&p, 4).unwrap();
        assert!(!plan.is_partitioned());
        assert_eq!(
            plan.outcome,
            PartitionOutcome::GeneralAccess,
            "the fallback must say *why* the pool is left idle"
        );
    }

    #[test]
    fn operand_regions_share_independent_dims_and_split_dependent_ones() {
        let p = matvec(10, 6);
        let plan = PartitionPlan::build(&p, 4).unwrap();
        let regions: Vec<Vec<OperandRegion>> =
            plan.shards.iter().map(|s| s.operand_regions()).collect();
        // input 0 is M (depends on split dim 0): distinct per shard
        let m_sigs: Vec<u64> = regions.iter().map(|r| r[0].signature).collect();
        for i in 0..m_sigs.len() {
            for j in i + 1..m_sigs.len() {
                assert_ne!(m_sigs[i], m_sigs[j], "M slices differ per shard");
            }
        }
        // input 1 is v (select dim 1, independent of the split): shared
        let v_sigs: Vec<u64> = regions.iter().map(|r| r[1].signature).collect();
        assert!(
            v_sigs.windows(2).all(|w| w[0] == w[1]),
            "v shared: {v_sigs:?}"
        );
        // ... and shared across pool widths too — the same resident copy
        // serves a 2-wide and a 4-wide plan
        let plan2 = PartitionPlan::build(&p, 2).unwrap();
        assert_eq!(
            plan2.shards[0].operand_regions()[1].signature,
            v_sigs[0],
            "v signature is width-invariant"
        );
        // distinct inputs never collide even when ranges agree
        assert_ne!(regions[0][0].signature, regions[0][1].signature);
    }

    #[test]
    fn operand_regions_conservative_for_general_access() {
        use std::sync::Arc;
        let p = DslBuilder::new("scatter", vec![8])
            .out_buffer_with_shape("out", BasicType::F64, vec![4])
            .out_access(
                "out",
                IndexFn::General {
                    out_rank: 1,
                    f: Arc::new(|idx: &[usize], out: &mut [usize]| out[0] = idx[0] % 4),
                    label: "mod4".into(),
                },
            )
            .inp_buffer("x", BasicType::F64)
            .inp_access(
                "x",
                IndexFn::General {
                    out_rank: 1,
                    f: Arc::new(|idx: &[usize], out: &mut [usize]| out[0] = idx[0] / 2),
                    label: "half".into(),
                },
            )
            .scalar_function(ScalarFunction::identity("id", ScalarKind::F64))
            .combine_ops(vec![CombineOp::rbi_add()])
            .build()
            .unwrap();
        let plan = PartitionPlan::build(&p, 2).unwrap();
        assert!(plan.is_partitioned());
        let s0 = plan.shards[0].operand_regions();
        let s1 = plan.shards[1].operand_regions();
        // a general access depends on every dim, so shards sign distinctly
        assert_ne!(s0[0].signature, s1[0].signature);
    }

    #[test]
    fn stencil_access_translates_with_coefficient() {
        // access (2*p + r): shard at p=lo must shift the constant by 2*lo
        let p = DslBuilder::new("down", vec![4, 3])
            .out_buffer("out", BasicType::F32)
            .out_access("out", IndexFn::select(2, &[0]))
            .inp_buffer_with_shape("x", BasicType::F32, vec![2 * 4 + 3])
            .inp_access("x", IndexFn::affine(vec![AffineExpr::new(vec![2, 1], 0)]))
            .scalar_function(ScalarFunction::identity("id", ScalarKind::F32))
            .combine_ops(vec![CombineOp::cc(), CombineOp::pw_add()])
            .build()
            .unwrap();
        let plan = PartitionPlan::build(&p, 2).unwrap();
        let s1 = &plan.shards[1];
        assert_eq!(s1.range.lo[0], 2);
        let x = s1.prog.inp_view.accesses[0].index_fn.as_affine().unwrap();
        assert_eq!(x[0].constant, 4, "2 * lo");
    }
}
