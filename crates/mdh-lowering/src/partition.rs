//! Multi-device partitioning of a program's iteration space.
//!
//! The MDH decomposition rules are device-agnostic: any contiguous split of
//! a dimension recombines correctly through that dimension's combine
//! operator. [`PartitionPlan`] applies one such split at *device*
//! granularity — it picks the outermost shardable dimension, cuts it into
//! per-device [`Shard`]s with [`split_even`], and rewrites each shard's
//! program so it runs as an ordinary single-device program over a local
//! iteration space while reading and writing the *global* buffers:
//!
//! * input accesses are translated by the shard's offset along the split
//!   dimension (`constant += coeff[d] * lo`), so a shard reads exactly its
//!   slice of the original input buffers;
//! * output accesses are translated the same way, and output buffer shapes
//!   are pinned to the global output shapes, so a `cc`/`ps` shard writes
//!   its disjoint/ordered region at globally-correct positions while a
//!   `pw` shard (whose outputs cannot depend on the split dimension)
//!   produces a full-shape *partial* output.
//!
//! Which recombination the executor owes is captured by
//! [`PartitionStrategy`]; a dimension is eligible when every access touching
//! it is affine (a general index function cannot be translated). When no
//! dimension qualifies the plan degrades to a single shard running the
//! unmodified program.

use crate::plan::split_even;
use mdh_core::combine::CombineOp;
use mdh_core::dsl::DslProgram;
use mdh_core::error::Result;
use mdh_core::index_fn::IndexFn;
use mdh_core::shape::MdRange;
use mdh_core::views::View;

/// What the partitioned dimension's combine operator obliges the executor
/// to do with per-shard results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionStrategy {
    /// `cc` dimension: shards write disjoint output regions; recombination
    /// is a gather with no combine arithmetic.
    Concat,
    /// `pw(f)` dimension: shards produce full-shape partial outputs that
    /// must be folded element-wise with `f` (any associative grouping —
    /// serial chain, binary tree, host gather — is legal).
    Reduce,
    /// `ps(f)` dimension: shards hold local scans; recombination is the
    /// ordered carry chain of Listing 17 and is inherently serial in the
    /// shard index.
    Scan,
    /// `rbi(add)` dimension: shards scatter into full-shape partial
    /// outputs; recombination folds the *entire* buffers element-wise with
    /// `add` in shard-index order (scatter targets are data-dependent, so
    /// no sub-region can be pinned).
    IndexedReduce,
}

/// Why a plan holds a single shard — or that it split. PR 2 fell back
/// to one shard silently; the typed reason lets executors and `mdhc
/// estimate` report *why* a pool was left idle instead of hiding it.
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
    /// The chosen dimension's extent could not be cut into more than
    /// one interval.
    IndivisibleExtent,
}

impl PartitionOutcome {
    /// Stable kebab-case label used in reports and CLI output.
    pub fn label(&self) -> &'static str {
        match self {
            PartitionOutcome::Partitioned => "partitioned",
            PartitionOutcome::SingleDevice => "single-device",
            PartitionOutcome::GeneralAccess => "general-access",
            PartitionOutcome::NoShardableDim => "no-shardable-dim",
            PartitionOutcome::IndivisibleExtent => "indivisible-extent",
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
    /// Position in the split (devices combine partials in this order).
    pub index: usize,
    /// The shard's slice as a *global* iteration sub-range.
    pub range: MdRange,
    /// The rewritten, self-contained program for this slice.
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
    /// Split dimension and its recombination obligation; `None` when the
    /// plan degraded to a single shard.
    pub partition: Option<(usize, PartitionStrategy)>,
    /// Whether (and why not) the plan split the iteration space.
    pub outcome: PartitionOutcome,
    pub shards: Vec<Shard>,
}

impl PartitionPlan {
    /// Split `prog` across up to `n_devices` devices.
    ///
    /// Dimension choice: the outermost `cc` dimension with extent ≥ 2 is
    /// preferred (disjoint outputs, zero combine arithmetic); failing
    /// that, the outermost `pw` dimension (cheap element-wise combine);
    /// failing that, the outermost `ps` dimension (serial carry chain).
    /// With no eligible dimension — or `n_devices == 1` — the plan holds
    /// one shard running `prog` unchanged.
    pub fn build(prog: &DslProgram, n_devices: usize) -> Result<PartitionPlan> {
        prog.validate()?;
        let single = |prog: &DslProgram, outcome: PartitionOutcome| PartitionPlan {
            partition: None,
            outcome,
            shards: vec![Shard {
                index: 0,
                range: prog.md_hom.full_range(),
                prog: prog.clone(),
            }],
        };
        if n_devices <= 1 {
            return Ok(single(prog, PartitionOutcome::SingleDevice));
        }
        let (chosen, blocked_by_general) = choose_dim(prog);
        let Some((dim, strategy)) = chosen else {
            let outcome = if blocked_by_general {
                PartitionOutcome::GeneralAccess
            } else {
                PartitionOutcome::NoShardableDim
            };
            return Ok(single(prog, outcome));
        };

        let intervals = split_even(prog.md_hom.sizes[dim], n_devices);
        if intervals.len() <= 1 {
            return Ok(single(prog, PartitionOutcome::IndivisibleExtent));
        }
        let out_shapes = prog.output_shapes()?;
        let mut shards = Vec::with_capacity(intervals.len());
        for (index, (lo, hi)) in intervals.into_iter().enumerate() {
            let mut range = prog.md_hom.full_range();
            range.lo[dim] = lo;
            range.hi[dim] = hi;
            let prog = rewrite_shard(prog, dim, lo, hi, &out_shapes)?;
            shards.push(Shard { index, range, prog });
        }
        Ok(PartitionPlan {
            partition: Some((dim, strategy)),
            outcome: PartitionOutcome::Partitioned,
            shards,
        })
    }

    /// Whether the plan actually splits the iteration space.
    pub fn is_partitioned(&self) -> bool {
        self.partition.is_some() && self.shards.len() > 1
    }

    pub fn strategy(&self) -> Option<PartitionStrategy> {
        self.partition.map(|(_, s)| s)
    }

    pub fn dim(&self) -> Option<usize> {
        self.partition.map(|(d, _)| d)
    }
}

/// Pick the split dimension, preferring cc > pw > ps, outermost first.
/// The second return is `true` when at least one otherwise-eligible
/// dimension was rejected only because a general access depends on it —
/// the signal [`PartitionOutcome::GeneralAccess`] reports.
fn choose_dim(prog: &DslProgram) -> (Option<(usize, PartitionStrategy)>, bool) {
    let mut best: Option<(usize, PartitionStrategy)> = None;
    let mut blocked_by_general = false;
    for (d, op) in prog.md_hom.combine_ops.iter().enumerate() {
        if prog.md_hom.sizes[d] < 2 {
            continue;
        }
        // rbi dims are always translatable: affine accesses absorb the
        // shard offset into their constants and general (data-dependent)
        // accesses are wrapped with an index-shift shim
        if !matches!(op, CombineOp::Rbi(_)) && !dim_translatable(prog, d) {
            blocked_by_general = true;
            continue;
        }
        let strategy = match op {
            CombineOp::Cc => PartitionStrategy::Concat,
            CombineOp::Pw(_) => PartitionStrategy::Reduce,
            CombineOp::Ps(_) => PartitionStrategy::Scan,
            CombineOp::Rbi(_) => PartitionStrategy::IndexedReduce,
        };
        best = match best {
            None => Some((d, strategy)),
            Some((_, prev)) if rank_of(strategy) < rank_of(prev) => Some((d, strategy)),
            other => other,
        };
    }
    (best, blocked_by_general)
}

fn rank_of(s: PartitionStrategy) -> u8 {
    match s {
        PartitionStrategy::Concat => 0,
        PartitionStrategy::Reduce => 1,
        PartitionStrategy::IndexedReduce => 2,
        PartitionStrategy::Scan => 3,
    }
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

/// Build the self-contained program for the slice `[lo, hi)` of dim `d`.
fn rewrite_shard(
    prog: &DslProgram,
    d: usize,
    lo: usize,
    hi: usize,
    out_shapes: &[Vec<usize>],
) -> Result<DslProgram> {
    let mut shard = prog.clone();
    shard.name = format!("{}__shard{lo}_{hi}", prog.name);
    shard.md_hom.sizes[d] = hi - lo;
    translate_view(&mut shard.inp_view, d, lo)?;
    translate_view(&mut shard.out_view, d, lo)?;
    // pin global output shapes: translated writes of later shards land
    // beyond the shard-local inferred extent, and every shard must
    // allocate identically for partials to combine element-wise
    for (decl, shape) in shard.out_view.buffers.iter_mut().zip(out_shapes) {
        decl.declared_shape = Some(shape.clone());
    }
    shard.validate()?;
    Ok(shard)
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
        assert_eq!(plan.partition, Some((0, PartitionStrategy::Concat)));
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
        // the output access is shifted identically (writes rows 3..6)
        let w = s1.prog.out_view.accesses[0].index_fn.as_affine().unwrap();
        assert_eq!(w[0].constant, 3);
        // output shape pinned to the global one
        assert_eq!(
            s1.prog.out_view.buffers[0].declared_shape,
            Some(vec![10usize])
        );
        s1.prog.validate().unwrap();
    }

    #[test]
    fn dot_partitions_reduction_dim() {
        let p = dot(9);
        let plan = PartitionPlan::build(&p, 2).unwrap();
        assert_eq!(plan.partition, Some((0, PartitionStrategy::Reduce)));
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
        assert_eq!(plan.strategy(), Some(PartitionStrategy::Concat));
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
        assert_eq!(plan.strategy(), Some(PartitionStrategy::Scan));
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
