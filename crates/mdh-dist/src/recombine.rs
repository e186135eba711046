//! Stage 3 — **recombine**: fold per-shard outputs into the final result
//! through the split dimension's combine operator, in the device level's
//! group order.
//!
//! The shards are the tasks of the plan's `level`
//! (`mdh_lowering::partition`), and `ExecutionPlan::grouped` hands
//! their outputs over group by group, each group's owner first: the one
//! order every split recombines in, the CPU engines' too. A `cc` split
//! is one group per shard, a `pw`, `rbi` or `ps` split one group in shard
//! order. A `cc` or `ps` shard returns only its box of each output: the
//! outputs are allocated once, in the global shape, and every box is
//! copied into them (`cc`, and a `ps` group's owner) or carry-folded
//! (`ps`, Listing 17: `res[j in Q] = f(lhs[last of P], rhs[j])`, the left
//! operand read from the slice just before the shard's range, final
//! because a group goes in order). A `pw(f)` or `rbi(f)` shard returns a
//! full-shape partial: the owner's partials are the accumulator and every
//! later member folds into it as the right operand (`rbi` as one
//! whole-buffer row). The bracketing is a function of the level alone,
//! so it holds for merely-associative (non-commutative) custom functions;
//! each shard's partial is stored, i.e. narrowed to its output's kind,
//! before it folds (DESIGN §9).
//!
//! One walker visits the positions a shard wrote, a row of the last
//! varying dimension at a time; offsets are the linearised affine
//! accesses of [`mdh_backend::offsets`], stepped by a stride along the row
//! instead of re-evaluated per point. The accumulator is addressed through
//! the program's accesses and global shapes, the shard's outputs through
//! its own program's accesses and box shapes: a [`Row`]'s `out` and `rhs`.
//! A shard whose engine ran wrote no coordinate below 0 (its box starts
//! at 0 at the earliest), so every row is whole.
//!
//! Builtin operators run through the one typed row loop, `fold_row`;
//! custom ones (tuple functions over several outputs) and record outputs
//! go through [`PwFunc::combine`] one element at a time.

use mdh_backend::offsets::{advance, linearize_view};
use mdh_core::buffer::Buffer;
use mdh_core::combine::{CombineOp, DimBehavior, Part, PwFunc, Row};
use mdh_core::dsl::DslProgram;
use mdh_core::error::{MdhError, Result};
use mdh_core::eval::alloc_outputs;
use mdh_core::shape::MdRange;
use mdh_core::types::Tuple;
use mdh_lowering::partition::{PartitionPlan, Shard};

/// Fold per-shard outputs (by shard index) into the final result, in the
/// level's group order, through the split dimension's combine operator.
pub(crate) fn recombine(
    prog: &DslProgram,
    plan: &PartitionPlan,
    shard_outs: Vec<Vec<Buffer>>,
) -> Result<Vec<Buffer>> {
    let no_outputs = || MdhError::Eval(format!("program '{}': no shard outputs", prog.name));
    let Some((d, op)) = &plan.partition else {
        return shard_outs.into_iter().next().ok_or_else(no_outputs);
    };
    let f = op.pw_func();
    let groups = plan.level.grouped(shard_outs)?;
    if op.behavior() == DimBehavior::Collapse {
        // one split dim, a reduction: the level is one group
        let mut members = groups.into_iter().flatten();
        let (_, mut acc) = members.next().ok_or_else(no_outputs)?;
        let full = prog.md_hom.full_range();
        for (tid, outs) in members {
            match op {
                // every shard wrote the same positions: the preserved
                // dimensions over the full range
                CombineOp::Pw(_) => walk(prog, &mut acc, &plan.shards[tid], &outs, &full, None, f)?,
                // scatter targets are data-dependent, so no sub-region can
                // be pinned: fold the entire (identically-shaped,
                // declared-shape) partial buffers element-wise
                _ => {
                    for buf in 0..acc.len() {
                        let whole = (buf, Row::along(0, 1, acc[buf].len()));
                        row_op(&mut acc, &outs, f, &[whole])?;
                    }
                }
            }
        }
        return Ok(acc);
    }
    let mut acc = alloc_outputs(prog)?;
    for group in groups {
        for (k, (tid, outs)) in group.into_iter().enumerate() {
            let shard = &plan.shards[tid];
            // a member carries from the already-final slice before its
            // range; an owner has none and is copied
            let carry = (k > 0).then(|| (*d, shard.range.lo[*d] as i64 - 1));
            let f = carry.and(f);
            walk(prog, &mut acc, shard, &outs, &shard.range, carry, f)?;
        }
    }
    Ok(acc)
}

/// Apply one row operation per row of the positions `range` wrote —
/// collapsed dimensions contribute a single index, their `lo`: copy when
/// `f` is `None`, fold when there is no `carry`, carry-fold from index
/// `carry.1` of dimension `carry.0` otherwise. `acc` is addressed through
/// `prog`'s accesses, `rhs` — `shard`'s outputs — through the shard
/// program's, at the shard-local index. Rows run along the last preserved
/// dimension the range varies in.
fn walk(
    prog: &DslProgram,
    acc: &mut [Buffer],
    shard: &Shard,
    rhs: &[Buffer],
    range: &MdRange,
    carry: Option<(usize, i64)>,
    f: Option<&PwFunc>,
) -> Result<()> {
    if range.is_empty() {
        return Ok(());
    }
    let shapes = |bufs: &[Buffer]| -> Vec<Vec<usize>> {
        bufs.iter().map(|b| b.shape.dims().to_vec()).collect()
    };
    let linear = linearize_view(&prog.out_view, &shapes(acc), range.rank())?;
    let mut rhs_linear = linearize_view(&shard.prog.out_view, &shapes(rhs), range.rank())?;
    // the shard program's index is the global one less the shard's low
    // corner
    for la in &mut rhs_linear {
        let corner = la.offset(&shard.range.lo) - la.constant;
        la.constant -= corner;
    }
    let ops = &prog.md_hom.combine_ops;
    let dims: Vec<usize> = (0..range.rank())
        .filter(|&d| ops[d].behavior() == DimBehavior::Preserve && range.extent(d) > 1)
        .collect();
    let (outer, row_d) = match dims.split_last() {
        Some((&row_d, outer)) => (outer, Some(row_d)),
        None => (&[][..], None),
    };
    let len = row_d.map_or(1, |d| range.extent(d));
    // an affine expression may carry fewer coefficients than the rank
    let along = |coeffs: &[i64], d: Option<usize>| d.and_then(|d| coeffs.get(d)).map_or(0, |&c| c);
    // the carry moves with the row — unless the row runs along its own
    // dimension
    let carry_d = row_d.filter(|&row_d| carry.is_none_or(|(d, _)| d != row_d));
    let mut idx = range.lo.clone();
    let mut lanes = Vec::with_capacity(linear.len());
    loop {
        lanes.clear();
        for (la, ra) in linear.iter().zip(&rhs_linear) {
            let mut row = Row {
                rhs: ra.offset(&idx),
                rhs_step: along(&ra.coeffs, row_d),
                ..Row::along(la.offset(&idx), along(&la.coeffs, row_d), len)
            };
            // the carry sits `at - idx[d]` steps of dimension `d` before
            // the row
            if let Some((d, at)) = carry {
                row.lhs += (at - idx[d] as i64) * la.coeffs[d];
                row.lhs_step = along(&la.coeffs, carry_d);
            }
            lanes.push((la.buffer, row));
        }
        row_op(acc, rhs, f, &lanes)?;
        if !advance(&mut idx, outer, range) {
            return Ok(());
        }
    }
}

/// `acc[out] = f(acc[lhs], rhs[rhs])` over one row of every output
/// access, a `(buffer, row)` lane (copy: `acc[out] = rhs[rhs]`). A
/// builtin operator combines tuples position by position, so each of its
/// lanes is independent and runs through the typed row loop when its
/// buffers allow; what is left — all lanes of a custom `f`, whose tuple
/// they form — goes through dynamic values.
fn row_op(
    acc: &mut [Buffer],
    rhs: &[Buffer],
    f: Option<&PwFunc>,
    lanes: &[(usize, Row)],
) -> Result<()> {
    let builtin = f.map_or(Some(None), |f| f.as_builtin().map(Some));
    let mut by_value = Vec::new();
    for &(buf, row) in lanes {
        let part = &Part::Right(&rhs[buf].data);
        if !builtin.is_some_and(|op| acc[buf].data.fold_row(part, &row, op)) {
            by_value.push((buf, row));
        }
    }
    let Some(n) = by_value.first().map(|(_, row)| row.len) else {
        return Ok(());
    };
    for l in 0..n as i64 {
        let at = |base: i64, step: i64| (base + l * step) as usize;
        let mut new: Tuple = (by_value.iter())
            .map(|&(buf, r)| rhs[buf].get_flat(at(r.rhs, r.rhs_step)))
            .collect();
        if let Some(f) = f {
            let lhs = |&(buf, r): &(usize, Row)| acc[buf].get_flat(at(r.lhs, r.lhs_step));
            new = f.combine(&by_value.iter().map(lhs).collect(), &new)?;
        }
        for (&(buf, r), v) in by_value.iter().zip(&new) {
            acc[buf].set_flat(at(r.out, r.step), v)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::account::CombineCost;
    use crate::device::DevicePool;
    use crate::exec::DistExecutor;
    use crate::testutil::{int_fill, matvec, matvec_inputs, single_device};
    use mdh_core::buffer::Buffer;
    use mdh_core::combine::CombineOp;
    use mdh_core::dsl::DslBuilder;
    use mdh_core::expr::ScalarFunction;
    use mdh_core::index_fn::{AffineExpr, IndexFn};
    use mdh_core::shape::Shape;
    use mdh_core::types::{BasicType, ScalarKind};
    use mdh_lowering::partition::PartitionOutcome;

    /// A write below coordinate 0 is an engine error on one device and on
    /// a pool alike: `y[i - 2]` over 11 points into `[9]` writes `y[-2]`
    /// and `y[-1]`, in the first shard's box on four devices.
    #[test]
    fn a_negative_output_coordinate_is_an_error_on_every_pool_width() {
        let prog = DslBuilder::new("shifted", vec![11])
            .out_buffer_with_shape("y", BasicType::I64, vec![9])
            .out_access("y", IndexFn::affine(vec![AffineExpr::new(vec![1], -2)]))
            .inp_buffer("x", BasicType::I64)
            .inp_access("x", IndexFn::identity(1, 1))
            .scalar_function(ScalarFunction::identity("id", ScalarKind::I64))
            .combine_ops(vec![CombineOp::cc()])
            .build()
            .unwrap();
        let mut x = Buffer::zeros("x", BasicType::I64, Shape::new(vec![11]));
        int_fill(&mut x);
        for n in [1usize, 4] {
            let dist = DistExecutor::new(DevicePool::gpus(n)).unwrap();
            assert!(dist.run(&prog, &[x.clone()]).is_err(), "n={n}");
        }
    }

    #[test]
    fn multi_gpu_matches_single_device_cc() {
        let prog = matvec(13, 37);
        let inputs = matvec_inputs(13, 37);
        let reference = single_device(&prog, &inputs);
        for n in [2usize, 3, 4] {
            let dist = DistExecutor::new(DevicePool::gpus(n)).unwrap();
            let (outs, report) = dist.run(&prog, &inputs).unwrap();
            assert_eq!(outs, reference, "n={n}");
            assert!(matches!(report.strategy, Some(CombineOp::Cc)));
            assert_eq!(report.shards, n);
            assert_eq!(report.outcome, PartitionOutcome::Partitioned);
            assert!(report.faults.is_zero());
            assert!(!report.degraded);
        }
    }

    #[test]
    fn dot_reduction_partitions_and_matches() {
        let prog = DslBuilder::new("dot", vec![101])
            .out_buffer("res", BasicType::F32)
            .out_access("res", IndexFn::affine(vec![AffineExpr::constant(1, 0)]))
            .inp_buffer("x", BasicType::F32)
            .inp_access("x", IndexFn::identity(1, 1))
            .inp_buffer("y", BasicType::F32)
            .inp_access("y", IndexFn::identity(1, 1))
            .scalar_function(ScalarFunction::mul2("f_mul", ScalarKind::F32))
            .combine_ops(vec![CombineOp::pw_add()])
            .build()
            .unwrap();
        let mut x = Buffer::zeros("x", BasicType::F32, Shape::new(vec![101]));
        let mut y = Buffer::zeros("y", BasicType::F32, Shape::new(vec![101]));
        int_fill(&mut x);
        int_fill(&mut y);
        let inputs = vec![x, y];
        let reference = single_device(&prog, &inputs);
        for n in [2usize, 4, 8] {
            let dist = DistExecutor::new(DevicePool::gpus(n)).unwrap();
            let (outs, report) = dist.run(&prog, &inputs).unwrap();
            assert_eq!(outs, reference, "n={n}");
            assert!(matches!(report.strategy, Some(CombineOp::Pw(_))));
            assert!(report.combine.steps > 0, "combine tree must be costed");
        }
    }

    #[test]
    fn scan_chain_matches() {
        let prog = DslBuilder::new("psum", vec![23])
            .out_buffer("out", BasicType::F64)
            .out_access("out", IndexFn::identity(1, 1))
            .inp_buffer("x", BasicType::F64)
            .inp_access("x", IndexFn::identity(1, 1))
            .scalar_function(ScalarFunction::identity("id", ScalarKind::F64))
            .combine_ops(vec![CombineOp::ps_add()])
            .build()
            .unwrap();
        let mut x = Buffer::zeros("x", BasicType::F64, Shape::new(vec![23]));
        int_fill(&mut x);
        let inputs = vec![x];
        let reference = single_device(&prog, &inputs);
        for n in [2usize, 3, 5] {
            let dist = DistExecutor::new(DevicePool::gpus(n)).unwrap();
            let (outs, report) = dist.run(&prog, &inputs).unwrap();
            assert_eq!(outs, reference, "n={n}");
            assert!(matches!(report.strategy, Some(CombineOp::Ps(_))));
        }
    }

    #[test]
    fn degenerate_single_device_pool() {
        let prog = matvec(5, 5);
        let inputs = matvec_inputs(5, 5);
        let dist = DistExecutor::new(DevicePool::gpus(1)).unwrap();
        let (outs, report) = dist.run(&prog, &inputs).unwrap();
        assert_eq!(outs, single_device(&prog, &inputs));
        assert_eq!(report.shards, 1);
        assert_eq!(report.combine, CombineCost::ZERO);
        assert_eq!(report.outcome, PartitionOutcome::SingleDevice);
        assert!(report.total_ms > 0.0);
    }
}
