//! Stage 3 — **recombine**: fold per-shard outputs into the final result
//! through the original program's combine operators.
//!
//! A `cc` or `ps` shard returns only its box of each output
//! (`mdh_lowering::partition`): the outputs are allocated once, in the
//! global shape, and every shard's box is copied (`cc`) or carry-folded
//! (`ps`, Listing 17: `res[j in Q] = f(lhs[last of P], rhs[j])`, the left
//! operand read from the slice just before the shard's range, final
//! because shards go in order) into them. A `pw(f)` or `rbi(f)` shard
//! returns a full-shape partial: shard 0's partials are the accumulator
//! and every later shard folds into it as the right operand (`rbi` as one
//! whole-buffer row). Shards go in shard-index order, so the bracketing is
//! a pure function of the plan, and the result is bit-identical to
//! single-device execution even for merely-associative (non-commutative)
//! custom functions.
//!
//! One walker visits the positions a shard wrote, a row of the last
//! varying dimension at a time; offsets are the linearised affine
//! accesses of [`mdh_backend::offsets`], stepped by a stride along the row
//! instead of re-evaluated per point. The accumulator is addressed through
//! the program's accesses and global shapes, the shard's outputs through
//! its own program's accesses and box shapes: a [`Row`]'s `out` and `rhs`.
//!
//! Builtin operators run through the one typed row loop, `fold_row`;
//! custom ones (tuple functions over several outputs) and record outputs
//! go through [`PwFunc::combine`] one element at a time.

use mdh_backend::offsets::{advance, linearize_view};
use mdh_core::buffer::Buffer;
use mdh_core::combine::{DimBehavior, Part, PwFunc, Row};
use mdh_core::dsl::DslProgram;
use mdh_core::error::{MdhError, Result};
use mdh_core::eval::alloc_outputs;
use mdh_core::shape::MdRange;
use mdh_core::types::Tuple;
use mdh_lowering::partition::{PartitionPlan, PartitionStrategy, Shard};

/// Fold per-shard outputs into the final result, in shard-index order,
/// through the original program's combine operators.
pub(crate) fn recombine(
    prog: &DslProgram,
    plan: &PartitionPlan,
    shard_outs: Vec<Vec<Buffer>>,
) -> Result<Vec<Buffer>> {
    let mut parts = plan.shards.iter().zip(shard_outs);
    let no_outputs = || MdhError::Eval(format!("program '{}': no shard outputs", prog.name));
    let Some((d, strategy)) = plan.partition else {
        return parts.next().map(|(_, outs)| outs).ok_or_else(no_outputs);
    };
    let f = match strategy {
        PartitionStrategy::Concat => None,
        _ => Some(prog.md_hom.combine_ops[d].pw_func().ok_or_else(|| {
            MdhError::Eval(format!(
                "program '{}': dimension {d} is partitioned as {strategy:?} but its combine \
                 operator has no combine function",
                prog.name
            ))
        })?),
    };
    if let PartitionStrategy::Concat | PartitionStrategy::Scan = strategy {
        let mut acc = alloc_outputs(prog)?;
        for (shard, outs) in parts {
            // the carry is read from the already-final previous region;
            // shard 0 has none and is copied
            let carry = (shard.index > 0 && strategy == PartitionStrategy::Scan)
                .then(|| (d, shard.range.lo[d] as i64 - 1));
            let f = carry.and(f);
            walk(prog, &mut acc, shard, &outs, &shard.range, carry, f)?;
        }
        return Ok(acc);
    }
    let (_, mut acc) = parts.next().ok_or_else(no_outputs)?;
    let full = prog.md_hom.full_range();
    for (shard, outs) in parts {
        match strategy {
            // every shard wrote the same positions: the preserved
            // dimensions over the full range
            PartitionStrategy::Reduce => walk(prog, &mut acc, shard, &outs, &full, None, f)?,
            // scatter targets are data-dependent, so no sub-region can be
            // pinned: fold the entire (identically-shaped, declared-shape)
            // partial buffers element-wise
            _ => {
                for buf in 0..acc.len() {
                    let whole = (buf, Row::along(0, 1, acc[buf].len()));
                    row_op(&mut acc, &outs, f, &[whole])?;
                }
            }
        }
    }
    Ok(acc)
}

/// Shrink the row span `lo..hi` to the `l` at which the coordinate
/// `v0 + l·c` is non-negative.
fn clip(span: &mut (i64, i64), v0: i64, c: i64) {
    match c.signum() {
        0 if v0 < 0 => span.1 = span.0,
        0 => {}
        1 => span.0 = span.0.max((c - 1 - v0).div_euclid(c)),
        _ => span.1 = span.1.min(v0.div_euclid(-c) + 1),
    }
}

/// Apply one row operation per row of the positions `range` wrote —
/// collapsed dimensions contribute a single index, their `lo`: copy when
/// `f` is `None`, fold when there is no `carry`, carry-fold from index
/// `carry.1` of dimension `carry.0` otherwise. `acc` is addressed through
/// `prog`'s accesses, `rhs` — `shard`'s outputs — through the shard
/// program's, at the shard-local index. Rows run along the last preserved
/// dimension the range varies in; points where an access (or its carry)
/// has a negative coordinate were never written and are skipped.
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
    // an affine expression may carry fewer coefficients than the rank
    let along = |coeffs: &[i64], d: Option<usize>| d.and_then(|d| coeffs.get(d)).map_or(0, |&c| c);
    // the carry moves with the row — unless the row runs along its own
    // dimension
    let carry_d = row_d.filter(|&row_d| carry.is_none_or(|(d, _)| d != row_d));
    let mut idx = range.lo.clone();
    let mut lanes = Vec::with_capacity(linear.len());
    loop {
        // how many steps of which dimension the carry sits before the row
        let back = carry.map(|(d, at)| (d, at - idx[d] as i64));
        let mut span = (0, row_d.map_or(1, |d| range.extent(d)) as i64);
        lanes.clear();
        for ((la, ra), access) in linear.iter().zip(&rhs_linear).zip(&prog.out_view.accesses) {
            // linearize_view succeeded, so every out access is affine
            for e in access.index_fn.as_affine().unwrap_or(&[]) {
                let v0 = e.eval(&idx);
                clip(&mut span, v0, along(&e.coeffs, row_d));
                if let Some((d, back)) = back {
                    let at_carry = v0 + back * along(&e.coeffs, Some(d));
                    clip(&mut span, at_carry, along(&e.coeffs, carry_d));
                }
            }
            let mut row = Row {
                rhs: ra.offset(&idx),
                rhs_step: along(&ra.coeffs, row_d),
                ..Row::along(la.offset(&idx), along(&la.coeffs, row_d), 0)
            };
            if let Some((d, back)) = back {
                row.lhs += back * la.coeffs[d];
                row.lhs_step = along(&la.coeffs, carry_d);
            }
            lanes.push((la.buffer, row));
        }
        if span.0 < span.1 {
            for (_, row) in &mut lanes {
                row.out += span.0 * row.step;
                row.lhs += span.0 * row.lhs_step;
                row.rhs += span.0 * row.rhs_step;
                row.len = (span.1 - span.0) as usize;
            }
            row_op(acc, rhs, f, &lanes)?;
        }
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
    use super::*;
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
    use mdh_lowering::partition::{PartitionOutcome, PartitionStrategy};

    /// Points whose output coordinate is negative were never written by
    /// any shard: the walker clips them off either end of a row, as the
    /// per-point `IndexFn::eval(..) == None` skip did.
    #[test]
    fn rows_are_clipped_to_non_negative_coordinates() {
        let shifted = |c: i64, k: i64| {
            DslBuilder::new("shifted", vec![6])
                .out_buffer_with_shape("y", BasicType::I64, vec![4])
                .out_access("y", IndexFn::affine(vec![AffineExpr::new(vec![c], k)]))
                .inp_buffer("x", BasicType::I64)
                .inp_access("x", IndexFn::identity(1, 1))
                .scalar_function(ScalarFunction::identity("id", ScalarKind::I64))
                .combine_ops(vec![CombineOp::cc()])
                .build()
                .unwrap()
        };
        let walked = |c, k, lo, hi| {
            let mut acc = vec![Buffer::from_i64("y", Shape::new(vec![4]), vec![0; 4])];
            let rhs = [Buffer::from_i64(
                "y",
                Shape::new(vec![4]),
                vec![10, 11, 12, 13],
            )];
            let region = MdRange::new(vec![lo], vec![hi]);
            let prog = shifted(c, k);
            // a shard over the whole range: its outputs are laid out as `acc`
            let whole = Shard {
                index: 0,
                range: prog.md_hom.full_range(),
                prog: prog.clone(),
            };
            walk(&prog, &mut acc, &whole, &rhs, &region, None, None).unwrap();
            acc[0].as_i64().unwrap().to_vec()
        };
        // y[i - 2]: i = 0, 1 fall off the front
        assert_eq!(walked(1, -2, 0, 6), [10, 11, 12, 13]);
        assert_eq!(walked(1, -2, 0, 3), [10, 0, 0, 0]);
        assert_eq!(walked(1, -2, 0, 2), [0, 0, 0, 0]);
        // y[3 - i]: i = 4, 5 fall off the back
        assert_eq!(walked(-1, 3, 0, 6), [10, 11, 12, 13]);
        assert_eq!(walked(-1, 3, 2, 6), [10, 11, 0, 0]);
        // a constant coordinate is in or out for the whole row
        assert_eq!(walked(0, -1, 0, 6), [0, 0, 0, 0]);
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
            assert_eq!(report.strategy, Some(PartitionStrategy::Concat));
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
            assert_eq!(report.strategy, Some(PartitionStrategy::Reduce));
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
            assert_eq!(report.strategy, Some(PartitionStrategy::Scan));
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
