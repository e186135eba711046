//! Homomorphism laws.
//!
//! The MDH formalism rests on the defining property of multi-dimensional
//! homomorphisms: evaluating a program on a concatenation of index-set
//! parts equals combining the parts' evaluations with the dimension's
//! combine operator,
//!
//! ```text
//! h( P ++_d Q ) = h(P)  ⊗_d  h(Q)
//! ```
//!
//! This property is exactly what makes the lowering's (de)composition —
//! tiling, thread partitioning, parallel reduction trees — *correct*. The
//! checks in this module are the hooks for the property-based test suite.

use crate::buffer::Buffer;
use crate::dsl::DslProgram;
use crate::error::Result;
use crate::eval::{eval_range, pairwise, Intermediate};
use crate::shape::MdRange;

/// Check the homomorphism law on dimension `d` at split point `at`
/// (absolute coordinate within `[0, sizes[d]]`): evaluates both sides and
/// compares with relative tolerance `rel_tol`.
pub fn check_split_law(
    prog: &DslProgram,
    inputs: &[Buffer],
    d: usize,
    at: usize,
    rel_tol: f64,
) -> Result<bool> {
    let (p, q) = prog.md_hom.full_range().split_at(d, at);
    check_parts(prog, inputs, d, &[p, q], false, rel_tol)
}

/// Check a full recursive decomposition: recursively split dimension `d`
/// into tiles of size `tile` and recombine — the exact shape of the
/// lowering's tiling — then compare to the direct evaluation.
pub fn check_tiled_decomposition(
    prog: &DslProgram,
    inputs: &[Buffer],
    d: usize,
    tile: usize,
    rel_tol: f64,
) -> Result<bool> {
    let tiles = prog.md_hom.full_range().tile_dim(d, tile);
    check_parts(prog, inputs, d, &tiles, false, rel_tol)
}

/// Tree-shaped recombination: combine tile results pairwise (the parallel
/// reduction-tree order used by the CPU/GPU backends) instead of the
/// sequential left fold, verifying that associativity of the combine
/// operator makes the tree order legal.
pub fn check_tree_recombination(
    prog: &DslProgram,
    inputs: &[Buffer],
    d: usize,
    tile: usize,
    rel_tol: f64,
) -> Result<bool> {
    let tiles = prog.md_hom.full_range().tile_dim(d, tile);
    check_parts(prog, inputs, d, &tiles, true, rel_tol)
}

/// Evaluate the non-empty `parts` of the iteration space, in order along
/// `d`, recombine them by a left fold or pairwise (`tree`) and compare with
/// the direct evaluation.
fn check_parts(
    prog: &DslProgram,
    inputs: &[Buffer],
    d: usize,
    parts: &[MdRange],
    tree: bool,
    rel_tol: f64,
) -> Result<bool> {
    let whole = eval_range(prog, inputs, &prog.md_hom.full_range())?;
    let parts = parts.iter().filter(|r| !r.is_empty());
    let parts = (parts.map(|r| eval_range(prog, inputs, r))).collect::<Result<Vec<_>>>()?;
    let op = &prog.md_hom.combine_ops[d];
    let combine = |a: Intermediate, b: Intermediate| Intermediate::combine_along(d, op, &a, &b);
    let combined = match tree {
        true => pairwise(parts, combine)?,
        false => parts
            .into_iter()
            .map(Ok)
            .reduce(|a, b| combine(a?, b?))
            .transpose()?,
    };
    let combined = combined.unwrap_or_else(|| whole.clone());
    Ok(whole.extents == combined.extents
        && whole.elems.len() == combined.elems.len()
        && whole.elems.iter().zip(&combined.elems).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(u, v)| u.approx_eq(v, rel_tol))
        }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::CombineOp;
    use crate::dsl::DslBuilder;
    use crate::expr::ScalarFunction;
    use crate::index_fn::IndexFn;
    use crate::shape::Shape;
    use crate::types::{BasicType, ScalarKind};

    fn matmul_prog(i: usize, j: usize, k: usize) -> DslProgram {
        DslBuilder::new("matmul", vec![i, j, k])
            .out_buffer("C", BasicType::F64)
            .out_access("C", IndexFn::select(3, &[0, 1]))
            .inp_buffer("A", BasicType::F64)
            .inp_access("A", IndexFn::select(3, &[0, 2]))
            .inp_buffer("B", BasicType::F64)
            .inp_access("B", IndexFn::select(3, &[2, 1]))
            .scalar_function(ScalarFunction::mul2("f_mul", ScalarKind::F64))
            .combine_ops(vec![CombineOp::cc(), CombineOp::cc(), CombineOp::pw_add()])
            .build()
            .unwrap()
    }

    fn matmul_inputs(i: usize, j: usize, k: usize) -> Vec<Buffer> {
        let mut a = Buffer::zeros("A", BasicType::F64, Shape::new(vec![i, k]));
        a.fill_with(|f| ((f * 37) % 11) as f64 - 5.0);
        let mut b = Buffer::zeros("B", BasicType::F64, Shape::new(vec![k, j]));
        b.fill_with(|f| ((f * 23) % 7) as f64 * 0.25);
        vec![a, b]
    }

    #[test]
    fn matmul_split_law_all_dims() {
        let prog = matmul_prog(4, 3, 5);
        let inputs = matmul_inputs(4, 3, 5);
        for (d, &n) in prog.md_hom.sizes.iter().enumerate() {
            assert!(check_split_law(&prog, &inputs, d, n / 2, 1e-9).unwrap());
        }
    }

    #[test]
    fn matmul_split_law_edge_splits() {
        let prog = matmul_prog(4, 3, 5);
        let inputs = matmul_inputs(4, 3, 5);
        for d in 0..3 {
            let n = prog.md_hom.sizes[d];
            assert!(check_split_law(&prog, &inputs, d, 0, 1e-9).unwrap());
            assert!(check_split_law(&prog, &inputs, d, n, 1e-9).unwrap());
            assert!(check_split_law(&prog, &inputs, d, 1, 1e-9).unwrap());
        }
    }

    #[test]
    fn matmul_tiled_decomposition() {
        let prog = matmul_prog(6, 4, 8);
        let inputs = matmul_inputs(6, 4, 8);
        for d in 0..3 {
            for tile in [1, 2, 3, 5, 100] {
                assert!(
                    check_tiled_decomposition(&prog, &inputs, d, tile, 1e-9).unwrap(),
                    "tiled decomposition failed on dim {d} tile {tile}"
                );
            }
        }
    }

    #[test]
    fn matmul_tree_recombination() {
        let prog = matmul_prog(6, 4, 8);
        let inputs = matmul_inputs(6, 4, 8);
        for d in 0..3 {
            assert!(check_tree_recombination(&prog, &inputs, d, 2, 1e-9).unwrap());
        }
    }

    #[test]
    fn prefix_sum_split_law() {
        let n = 9;
        let prog = DslBuilder::new("psum", vec![n])
            .out_buffer("out", BasicType::I64)
            .out_access("out", IndexFn::identity(1, 1))
            .inp_buffer("x", BasicType::I64)
            .inp_access("x", IndexFn::identity(1, 1))
            .scalar_function(ScalarFunction::identity("id", ScalarKind::I64))
            .combine_ops(vec![CombineOp::ps_add()])
            .build()
            .unwrap();
        let x = Buffer::from_i64("x", Shape::new(vec![n]), (1..=n as i64).collect());
        for at in 0..=n {
            assert!(
                check_split_law(&prog, std::slice::from_ref(&x), 0, at, 0.0).unwrap(),
                "ps split law failed at {at}"
            );
        }
        assert!(check_tree_recombination(&prog, &[x], 0, 2, 0.0).unwrap());
    }
}
