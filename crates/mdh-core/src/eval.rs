//! Reference evaluator — the executable semantics of the MDH DSL.
//!
//! [`evaluate_recursive`] implements the *formal* MDH semantics directly:
//! the iteration space is decomposed dimension by dimension, the scalar
//! function is applied at each point, and partial results are put back
//! together with the dimension's combine operator (`cc` stacks, `pw`
//! folds, `ps` scans). This is the semantics all backends must agree
//! with, and the object of the homomorphism-law property tests. Programs
//! with an `rbi` dimension go to [`evaluate_scatter`], since their output
//! positions are data-dependent.

use crate::buffer::Buffer;
use crate::combine::{CombineOp, DimBehavior};
use crate::dsl::DslProgram;
use crate::error::{MdhError, Result};
use crate::shape::{MdRange, Shape};
use crate::types::Tuple;

/// A dense multi-dimensional array of tuples: the intermediate result of
/// the recursive semantics. Covers all `D` dimensions; collapsed dimensions
/// have extent 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Intermediate {
    pub extents: Vec<usize>,
    pub elems: Vec<Tuple>,
}

impl Intermediate {
    fn shape(&self) -> Shape {
        Shape::new(self.extents.clone())
    }

    pub fn get(&self, idx: &[usize]) -> &Tuple {
        &self.elems[self.shape().linearize(idx)]
    }

    /// Combine two intermediates along dimension `d` with the given
    /// operator. Both operands must agree on all other extents. This is the
    /// "⊗_d" of the MDH formalism applied to finished parts, used by the
    /// recursive evaluator and the homomorphism-law checks (`laws.rs`).
    pub fn combine_along(
        d: usize,
        op: &CombineOp,
        lhs: &Intermediate,
        rhs: &Intermediate,
    ) -> Result<Intermediate> {
        for (dd, (a, b)) in lhs.extents.iter().zip(&rhs.extents).enumerate() {
            if dd != d && a != b {
                return Err(MdhError::Eval(format!(
                    "combine_along: extent mismatch on dim {dd}: {a} vs {b}"
                )));
            }
        }
        match op {
            CombineOp::Cc => {
                // stack along axis d
                let mut extents = lhs.extents.clone();
                extents[d] += rhs.extents[d];
                let out_shape = Shape::new(extents.clone());
                let mut elems = vec![Tuple::new(); out_shape.len()];
                for idx in Shape::new(lhs.extents.clone()).iter() {
                    elems[out_shape.linearize(&idx)] = lhs.get(&idx).clone();
                }
                for idx in Shape::new(rhs.extents.clone()).iter() {
                    let mut oidx = idx.clone();
                    oidx[d] += lhs.extents[d];
                    elems[out_shape.linearize(&oidx)] = rhs.get(&idx).clone();
                }
                Ok(Intermediate { extents, elems })
            }
            CombineOp::Pw(f) => {
                if lhs.extents[d] != 1 || rhs.extents[d] != 1 {
                    return Err(MdhError::Eval(
                        "pw combine_along expects collapsed operands".into(),
                    ));
                }
                let mut elems = Vec::with_capacity(lhs.elems.len());
                for (a, b) in lhs.elems.iter().zip(&rhs.elems) {
                    elems.push(f.combine(a, b)?);
                }
                Ok(Intermediate {
                    extents: lhs.extents.clone(),
                    elems,
                })
            }
            CombineOp::Rbi(_) => Err(MdhError::Eval(
                "rbi dimensions are not combined through intermediates; \
                 use the scatter evaluator"
                    .into(),
            )),
            CombineOp::Ps(f) => {
                // prefix-sum combine (Listing 17, contiguous split):
                // res[P] = lhs; res[Q][j] = cf(lhs[last of P], rhs[j])
                let mut extents = lhs.extents.clone();
                extents[d] += rhs.extents[d];
                let out_shape = Shape::new(extents.clone());
                let mut elems = vec![Tuple::new(); out_shape.len()];
                for idx in Shape::new(lhs.extents.clone()).iter() {
                    elems[out_shape.linearize(&idx)] = lhs.get(&idx).clone();
                }
                let last = lhs.extents[d].checked_sub(1);
                for idx in Shape::new(rhs.extents.clone()).iter() {
                    let mut oidx = idx.clone();
                    oidx[d] += lhs.extents[d];
                    let v = match last {
                        Some(l) => {
                            let mut lidx = idx.clone();
                            lidx[d] = l;
                            f.combine(lhs.get(&lidx), rhs.get(&idx))?
                        }
                        None => rhs.get(&idx).clone(),
                    };
                    elems[out_shape.linearize(&oidx)] = v;
                }
                Ok(Intermediate { extents, elems })
            }
        }
    }
}

/// Apply the scalar function at one iteration point: load input-access
/// values, run SF, return the result tuple.
pub fn apply_sf_at(prog: &DslProgram, inputs: &[Buffer], idx: &[usize]) -> Result<Tuple> {
    let mut args = Vec::with_capacity(prog.inp_view.accesses.len());
    for a in &prog.inp_view.accesses {
        let bidx = a.index_fn.eval(idx).ok_or_else(|| {
            MdhError::Eval(format!("negative buffer index at iteration point {idx:?}"))
        })?;
        let buf = &inputs[a.buffer];
        if !buf.shape.contains(&bidx) {
            return Err(MdhError::OutOfBounds {
                buffer: buf.name.clone(),
                index: bidx,
                shape: buf.shape.dims().to_vec(),
            });
        }
        args.push(buf.get(&bidx));
    }
    prog.md_hom.sf.eval(&args)
}

/// Evaluate the program over an iteration sub-range with the recursive
/// (formal) semantics, producing the intermediate tuple array.
pub fn eval_range(prog: &DslProgram, inputs: &[Buffer], range: &MdRange) -> Result<Intermediate> {
    let mut prefix = range.lo.clone();
    rec(prog, inputs, range, 0, &mut prefix)
}

fn rec(
    prog: &DslProgram,
    inputs: &[Buffer],
    range: &MdRange,
    d: usize,
    prefix: &mut Vec<usize>,
) -> Result<Intermediate> {
    let rank = prog.rank();
    if d == rank {
        let tuple = apply_sf_at(prog, inputs, prefix)?;
        return Ok(Intermediate {
            extents: vec![],
            elems: vec![tuple],
        });
    }
    let op = &prog.md_hom.combine_ops[d];
    let mut acc: Option<Intermediate> = None;
    for i in range.lo[d]..range.hi[d] {
        prefix[d] = i;
        let child = rec(prog, inputs, range, d + 1, prefix)?;
        // lift child to include axis d with extent 1
        let mut extents = vec![1];
        extents.extend(child.extents);
        let child = Intermediate {
            extents,
            elems: child.elems,
        };
        // the lifted children combine along their axis 0 with `op` itself
        acc = Some(match acc {
            None => child,
            Some(prev) => Intermediate::combine_along(0, op, &prev, &child)?,
        });
    }
    prefix[d] = range.lo[d];
    match acc {
        Some(i) => Ok(i),
        None => {
            // empty extent: child extents are unknown, so every one is 0
            Ok(Intermediate {
                extents: vec![0; rank - d],
                elems: vec![],
            })
        }
    }
}

/// Write a finished intermediate into freshly-allocated output buffers.
pub fn write_outputs(
    prog: &DslProgram,
    intermediate: &Intermediate,
    range: &MdRange,
    outputs: &mut [Buffer],
) -> Result<()> {
    let shape = Shape::new(intermediate.extents.clone());
    for j in shape.iter() {
        let tuple = intermediate.get(&j);
        // absolute iteration index: preserved dims offset by range.lo,
        // collapsed dims pinned to range.lo (out index fns cannot depend on
        // them — validated)
        let mut idx = Vec::with_capacity(prog.rank());
        for (d, op) in prog.md_hom.combine_ops.iter().enumerate() {
            match op.behavior() {
                DimBehavior::Preserve => idx.push(range.lo[d] + j[d]),
                DimBehavior::Collapse => idx.push(range.lo[d]),
            }
        }
        for (r, a) in prog.out_view.accesses.iter().enumerate() {
            let bidx = a
                .index_fn
                .eval(&idx)
                .ok_or_else(|| MdhError::Eval("negative output index".into()))?;
            outputs[a.buffer].set(&bidx, &tuple[r])?;
        }
    }
    Ok(())
}

/// Allocate zero-initialised output buffers for the program.
pub fn alloc_outputs(prog: &DslProgram) -> Result<Vec<Buffer>> {
    let shapes = prog.output_shapes()?;
    Ok(prog
        .out_view
        .buffers
        .iter()
        .zip(shapes)
        .map(|(decl, shape)| Buffer::zeros(decl.name.clone(), decl.ty.clone(), Shape::new(shape)))
        .collect())
}

/// Check that supplied input buffers match the program's expectations.
pub fn check_inputs(prog: &DslProgram, inputs: &[Buffer]) -> Result<()> {
    if inputs.len() != prog.inp_view.buffers.len() {
        return Err(MdhError::Validation(format!(
            "program '{}' expects {} input buffers, got {}",
            prog.name,
            prog.inp_view.buffers.len(),
            inputs.len()
        )));
    }
    let needed = prog.input_shapes()?;
    for ((buf, decl), shape) in inputs.iter().zip(&prog.inp_view.buffers).zip(needed) {
        if buf.ty != decl.ty {
            return Err(MdhError::Type(format!(
                "input buffer '{}' has type {}, expected {}",
                buf.name, buf.ty, decl.ty
            )));
        }
        if buf.shape.rank() != shape.len()
            || buf
                .shape
                .dims()
                .iter()
                .zip(&shape)
                .any(|(&have, &need)| have < need)
        {
            return Err(MdhError::Validation(format!(
                "input buffer '{}' has shape {}, needs at least {:?}",
                buf.name, buf.shape, shape
            )));
        }
    }
    Ok(())
}

/// Full recursive (formal-semantics) evaluation of a program. Programs with
/// an `rbi` dimension are routed to the scatter evaluator — their output
/// positions are data-dependent, so the intermediate-array machinery does
/// not apply.
pub fn evaluate_recursive(prog: &DslProgram, inputs: &[Buffer]) -> Result<Vec<Buffer>> {
    prog.validate()?;
    check_inputs(prog, inputs)?;
    if prog.md_hom.has_rbi() {
        return evaluate_scatter(prog, inputs);
    }
    let range = prog.md_hom.full_range();
    let inter = eval_range(prog, inputs, &range)?;
    let mut outputs = alloc_outputs(prog)?;
    write_outputs(prog, &inter, &range, &mut outputs)?;
    Ok(outputs)
}

/// Reference evaluator for indexed-reduction (`rbi`) programs: outputs are
/// zero-initialised (the `add` identity) and every iteration point — in
/// ascending row-major order, which fixes the fold order and hence the
/// result bits — accumulates its scalar-function results into the positions
/// its output accesses select. Contributions from `cc` dimensions land at
/// distinct positions by injectivity of the access along them; collapsed
/// (`pw(add)`/`rbi(add)`) dimensions collide and sum, which is exactly the
/// reduce-by-index semantics.
pub fn evaluate_scatter(prog: &DslProgram, inputs: &[Buffer]) -> Result<Vec<Buffer>> {
    prog.validate()?;
    check_inputs(prog, inputs)?;
    if !prog.md_hom.has_rbi() {
        return Err(MdhError::Eval(
            "evaluate_scatter requires at least one rbi dimension".into(),
        ));
    }
    let range = prog.md_hom.full_range();
    let mut outputs = alloc_outputs(prog)?;
    scatter_range(prog, inputs, &range, &mut outputs)?;
    Ok(outputs)
}

/// Accumulate one iteration sub-range into already-allocated outputs
/// (visiting points in ascending row-major order): the oracle the
/// backend's typed, lane-blocked `rbi` mode is tested against.
pub fn scatter_range(
    prog: &DslProgram,
    inputs: &[Buffer],
    range: &MdRange,
    outputs: &mut [Buffer],
) -> Result<()> {
    let add = crate::combine::PwFunc::builtin(crate::combine::BuiltinReduce::Add);
    let mut bidxs: Vec<Vec<usize>> = prog
        .out_view
        .accesses
        .iter()
        .map(|a| vec![0; a.index_fn.out_rank()])
        .collect();
    for idx in range.iter() {
        let tuple = apply_sf_at(prog, inputs, &idx)?;
        for ((r, a), bidx) in prog.out_view.accesses.iter().enumerate().zip(&mut bidxs) {
            if !a.index_fn.eval_into(&idx, bidx) {
                return Err(MdhError::Eval("negative scatter index".into()));
            }
            let buf = &mut outputs[a.buffer];
            if !buf.shape.contains(bidx) {
                return Err(MdhError::OutOfBounds {
                    buffer: buf.name.clone(),
                    index: bidx.clone(),
                    shape: buf.shape.dims().to_vec(),
                });
            }
            let prev = buf.get(bidx);
            let summed = add.combine(&vec![prev], &vec![tuple[r].clone()])?;
            buf.set(bidx, &summed[0])?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::DslBuilder;
    use crate::expr::ScalarFunction;
    use crate::index_fn::{AffineExpr, IndexFn};
    use crate::types::{BasicType, ScalarKind, Value};

    fn matvec_prog(i: usize, k: usize) -> DslProgram {
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

    fn matvec_inputs(i: usize, k: usize) -> Vec<Buffer> {
        let mut m = Buffer::zeros("M", BasicType::F32, Shape::new(vec![i, k]));
        m.fill_with(|f| (f % 7) as f64 - 3.0);
        let mut v = Buffer::zeros("v", BasicType::F32, Shape::new(vec![k]));
        v.fill_with(|f| (f % 5) as f64 * 0.5);
        vec![m, v]
    }

    fn matvec_expected(inputs: &[Buffer], i: usize, k: usize) -> Vec<f32> {
        let m = inputs[0].as_f32().unwrap();
        let v = inputs[1].as_f32().unwrap();
        (0..i)
            .map(|ii| (0..k).map(|kk| m[ii * k + kk] * v[kk]).sum())
            .collect()
    }

    #[test]
    fn recursive_matches_handwritten_matvec() {
        let (i, k) = (5, 7);
        let prog = matvec_prog(i, k);
        let inputs = matvec_inputs(i, k);
        let out = evaluate_recursive(&prog, &inputs).unwrap();
        assert_eq!(
            out[0].as_f32().unwrap(),
            &matvec_expected(&inputs, i, k)[..]
        );
    }

    #[test]
    fn dot_product_pure_reduction() {
        let n = 9;
        let prog = DslBuilder::new("dot", vec![n])
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
        let mut x = Buffer::zeros("x", BasicType::F32, Shape::new(vec![n]));
        x.fill_with(|f| f as f64);
        let mut y = Buffer::zeros("y", BasicType::F32, Shape::new(vec![n]));
        y.fill_with(|_| 2.0);
        let out = evaluate_recursive(&prog, &[x, y]).unwrap();
        let expect: f32 = (0..n).map(|f| f as f32 * 2.0).sum();
        assert_eq!(out[0].as_f32().unwrap(), &[expect]);
    }

    #[test]
    fn prefix_sum_scan_semantics() {
        // MBBS-like 1D prefix sum: out[i] = sum_{j<=i} x[j]
        let n = 8;
        let prog = DslBuilder::new("psum", vec![n])
            .out_buffer("out", BasicType::F64)
            .out_access("out", IndexFn::identity(1, 1))
            .inp_buffer("x", BasicType::F64)
            .inp_access("x", IndexFn::identity(1, 1))
            .scalar_function(ScalarFunction::identity("id", ScalarKind::F64))
            .combine_ops(vec![CombineOp::ps_add()])
            .build()
            .unwrap();
        let mut x = Buffer::zeros("x", BasicType::F64, Shape::new(vec![n]));
        x.fill_with(|f| f as f64 + 1.0);
        let out = evaluate_recursive(&prog, &[x]).unwrap();
        let got = out[0].as_f64().unwrap();
        let mut expect = vec![0.0; n];
        let mut s = 0.0;
        for i in 0..n {
            s += i as f64 + 1.0;
            expect[i] = s;
        }
        assert_eq!(got, &expect[..]);
    }

    #[test]
    fn combine_along_cc_stacks() {
        let lhs = Intermediate {
            extents: vec![1],
            elems: vec![vec![Value::I64(1)]],
        };
        let rhs = Intermediate {
            extents: vec![2],
            elems: vec![vec![Value::I64(2)], vec![Value::I64(3)]],
        };
        let out = Intermediate::combine_along(0, &CombineOp::cc(), &lhs, &rhs).unwrap();
        assert_eq!(out.extents, vec![3]);
        assert_eq!(out.elems[2], vec![Value::I64(3)]);
    }

    #[test]
    fn combine_along_ps_offsets_q_part() {
        // scan of [1,2] and scan of [3,4] combine to scan of [1,2,3,4]
        let lhs = Intermediate {
            extents: vec![2],
            elems: vec![vec![Value::I64(1)], vec![Value::I64(3)]],
        };
        let rhs = Intermediate {
            extents: vec![2],
            elems: vec![vec![Value::I64(3)], vec![Value::I64(7)]],
        };
        let out = Intermediate::combine_along(0, &CombineOp::ps_add(), &lhs, &rhs).unwrap();
        assert_eq!(
            out.elems,
            vec![
                vec![Value::I64(1)],
                vec![Value::I64(3)],
                vec![Value::I64(6)],
                vec![Value::I64(10)]
            ]
        );
    }

    #[test]
    fn rbi_histogram_scatter() {
        // hist[key[i]] += w[i]; keys are captured by the output index fn
        let n = 10;
        let keys: Vec<usize> = (0..n).map(|i| (i * 7 + 3) % 4).collect();
        let captured = keys.clone();
        let prog = DslBuilder::new("hist", vec![n])
            .out_buffer_with_shape("hist", BasicType::F64, vec![4])
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
            .inp_buffer("w", BasicType::F64)
            .inp_access("w", IndexFn::identity(1, 1))
            .scalar_function(ScalarFunction::identity("id", ScalarKind::F64))
            .combine_ops(vec![CombineOp::rbi_add()])
            .build()
            .unwrap();
        let mut w = Buffer::zeros("w", BasicType::F64, Shape::new(vec![n]));
        w.fill_with(|i| i as f64 + 1.0);
        let out = evaluate_recursive(&prog, &[w]).unwrap();
        let mut expect = [0.0f64; 4];
        for (i, &k) in keys.iter().enumerate() {
            expect[k] += i as f64 + 1.0;
        }
        assert_eq!(out[0].as_f64().unwrap(), &expect[..]);
    }

    #[test]
    fn rbi_validation_rules() {
        let build = |op: CombineOp, declared: bool| {
            let mut b = DslBuilder::new("h", vec![4, 3]);
            b = if declared {
                b.out_buffer_with_shape("o", BasicType::F64, vec![4])
            } else {
                b.out_buffer("o", BasicType::F64)
            };
            b.out_access("o", IndexFn::select(2, &[0]))
                .inp_buffer("x", BasicType::F64)
                .inp_access("x", IndexFn::identity(2, 2))
                .scalar_function(ScalarFunction::identity("id", ScalarKind::F64))
                .combine_ops(vec![CombineOp::rbi_add(), op])
                .build()
        };
        // rbi + pw(add) with declared shapes is fine
        assert!(build(CombineOp::pw_add(), true).is_ok());
        // mixing rbi with ps or non-add reductions is rejected
        assert!(build(CombineOp::ps_add(), true).is_err());
        assert!(build(CombineOp::pw_max(), true).is_err());
        // undeclared output shape is rejected
        assert!(build(CombineOp::pw_add(), false).is_err());
    }

    #[test]
    fn out_of_bounds_access_reported() {
        let (i, k) = (3, 3);
        let prog = matvec_prog(i, k);
        let mut inputs = matvec_inputs(i, k);
        // shrink v so accesses go out of bounds
        inputs[1] = Buffer::zeros("v", BasicType::F32, Shape::new(vec![k - 1]));
        let err = evaluate_recursive(&prog, &inputs).unwrap_err();
        assert!(matches!(
            err,
            MdhError::Validation(_) | MdhError::OutOfBounds { .. }
        ));
    }

    #[test]
    fn strided_output_view() {
        // out[i*2] = x[i] (stride-2 scatter, Listing 6 discussion)
        let n = 4;
        let prog = DslBuilder::new("strided", vec![n])
            .out_buffer_with_shape("out", BasicType::F64, vec![2 * n])
            .out_access("out", IndexFn::affine(vec![AffineExpr::new(vec![2], 0)]))
            .inp_buffer("x", BasicType::F64)
            .inp_access("x", IndexFn::identity(1, 1))
            .scalar_function(ScalarFunction::identity("id", ScalarKind::F64))
            .combine_ops(vec![CombineOp::cc()])
            .build()
            .unwrap();
        let mut x = Buffer::zeros("x", BasicType::F64, Shape::new(vec![n]));
        x.fill_with(|f| f as f64 + 1.0);
        let out = evaluate_recursive(&prog, &[x]).unwrap();
        assert_eq!(
            out[0].as_f64().unwrap(),
            &[1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 4.0, 0.0]
        );
    }
}
