//! Dependent-reduction → scan rewrite.
//!
//! A *dependent reduction* is a reduction whose extent depends on an outer
//! index — canonically `y[i] = Σ_{j ≤ i} x[j]`. The MDH iteration space
//! is a box, so front ends express the triangular bound with a mask:
//!
//! ```text
//! y[i] = Σ_j  (iota[j] ≤ iota[i] ? x[j] : 0)        // O(n²) points
//! ```
//!
//! where `iota` is the index-carrier buffer (`iota[k] = k`). The
//! polyhedral reduction literature rewrites this quadratic form to a
//! prefix sum; [`dependent_reduction_to_scan`] performs the same rewrite
//! on MDH programs: the emitted program is `y = ps(add) of x` — O(n)
//! points — and takes *only* the value buffer (the mask and the iota
//! carrier disappear).
//!
//! The recognition is purely structural; that `iota` actually carries
//! ascending indices is the caller's contract (the same contract under
//! which the mask encodes `j ≤ i`).

use mdh_core::combine::CombineOp;
use mdh_core::dsl::{DslProgram, MdHom};
use mdh_core::expr::{BinOp, Expr, ScalarFunction, Stmt};
use mdh_core::index_fn::IndexFn;
use mdh_core::views::{Access, BufferDecl, View};

/// Which forward input buffer the rewritten scan consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanRewrite {
    /// Index of the value buffer in the *forward* program's inputs.
    pub value_input: usize,
}

/// Does this access select exactly iteration dimension `d` (affine
/// `[i_d]`, rank-1 output)?
fn selects_dim(f: &IndexFn, d: usize) -> bool {
    let Some(exprs) = f.as_affine() else {
        return false;
    };
    exprs.len() == 1
        && exprs[0].constant == 0
        && exprs[0]
            .coeffs
            .iter()
            .enumerate()
            .all(|(k, &c)| if k == d { c == 1 } else { c == 0 })
}

/// Recognise the triangular-masked quadratic reduction and rewrite it to
/// an O(n) prefix sum. Returns `None` when the program does not match.
pub fn dependent_reduction_to_scan(prog: &DslProgram) -> Option<(DslProgram, ScanRewrite)> {
    // shape: 2-D, [cc, pw(add)], square, single output access selecting
    // the cc dimension
    if prog.rank() != 2 || prog.out_view.accesses.len() != 1 {
        return None;
    }
    let (ci, cj) = (&prog.md_hom.combine_ops[0], &prog.md_hom.combine_ops[1]);
    if !matches!(ci, CombineOp::Cc) {
        return None;
    }
    let add_ok = matches!(cj, CombineOp::Pw(f)
        if f.as_builtin() == Some(mdh_core::combine::BuiltinReduce::Add));
    if !add_ok {
        return None;
    }
    let n = prog.md_hom.sizes[0];
    if prog.md_hom.sizes[1] != n {
        return None;
    }
    if !selects_dim(&prog.out_view.accesses[0].index_fn, 0) {
        return None;
    }
    // body: res = Select(Le(p_j, p_i), value, 0) with p_j/p_i reading the
    // same index-carrier buffer along j and i, and value reading a
    // different buffer along j
    if prog.md_hom.sf.results.len() != 1 || prog.md_hom.sf.body.len() != 1 {
        return None;
    }
    let Stmt::Assign { name, value } = &prog.md_hom.sf.body[0] else {
        return None;
    };
    if name != &prog.md_hom.sf.results[0].0 {
        return None;
    }
    let Expr::Select(cond, then_e, else_e) = value else {
        return None;
    };
    if !matches!(&**else_e, Expr::Lit(v) if v.as_f64() == Some(0.0)) {
        return None;
    }
    let Expr::Bin(BinOp::Le, lhs, rhs) = &**cond else {
        return None;
    };
    let (Expr::Param(pj), Expr::Param(pi), Expr::Param(pv)) = (&**lhs, &**rhs, &**then_e) else {
        return None;
    };
    let acc = &prog.inp_view.accesses;
    let (aj, ai, av) = (acc.get(*pj)?, acc.get(*pi)?, acc.get(*pv)?);
    if aj.buffer != ai.buffer || av.buffer == aj.buffer {
        return None;
    }
    if !selects_dim(&aj.index_fn, 1)
        || !selects_dim(&ai.index_fn, 0)
        || !selects_dim(&av.index_fn, 1)
    {
        return None;
    }

    // emit: y[i] = ps(add) over x[i]
    let value_decl = &prog.inp_view.buffers[av.buffer];
    let out_decl = &prog.out_view.buffers[prog.out_view.accesses[0].buffer];
    let sf = ScalarFunction {
        name: "f_id".into(),
        params: vec![("x".into(), value_decl.ty.clone())],
        results: vec![(prog.md_hom.sf.results[0].0.clone(), out_decl.ty.clone())],
        body: vec![Stmt::Assign {
            name: prog.md_hom.sf.results[0].0.clone(),
            value: Expr::Param(0),
        }],
    };
    let scan = DslProgram::new(
        format!("{}_scan", prog.name),
        View::new(
            vec![BufferDecl::new(out_decl.name.clone(), out_decl.ty.clone())],
            vec![Access::new(0, IndexFn::identity(1, 1))],
        ),
        MdHom::new(vec![n], sf, vec![CombineOp::ps_add()]),
        View::new(
            vec![BufferDecl::new(
                value_decl.name.clone(),
                value_decl.ty.clone(),
            )],
            vec![Access::new(0, IndexFn::identity(1, 1))],
        ),
    );
    scan.validate().ok()?;
    Some((
        scan,
        ScanRewrite {
            value_input: av.buffer,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdh_core::buffer::Buffer;
    use mdh_core::dsl::DslBuilder;
    use mdh_core::shape::Shape;
    use mdh_core::types::{BasicType, ScalarKind, Value};

    fn quadratic_prefix(n: usize) -> DslProgram {
        // y[i] = sum_j (iota[j] <= iota[i] ? x[j] : 0)
        let sf = ScalarFunction {
            name: "tri".into(),
            params: vec![
                ("ij".into(), BasicType::F64),
                ("ii".into(), BasicType::F64),
                ("x".into(), BasicType::F64),
            ],
            results: vec![("res".into(), BasicType::F64)],
            body: vec![Stmt::Assign {
                name: "res".into(),
                value: Expr::Select(
                    Box::new(Expr::Bin(
                        BinOp::Le,
                        Box::new(Expr::Param(0)),
                        Box::new(Expr::Param(1)),
                    )),
                    Box::new(Expr::Param(2)),
                    Box::new(Expr::Lit(Value::F64(0.0))),
                ),
            }],
        };
        DslBuilder::new("dep_red", vec![n, n])
            .out_buffer("y", BasicType::F64)
            .out_access("y", IndexFn::select(2, &[0]))
            .inp_buffer("iota", BasicType::F64)
            .inp_access("iota", IndexFn::select(2, &[1]))
            .inp_access("iota", IndexFn::select(2, &[0]))
            .inp_buffer("x", BasicType::F64)
            .inp_access("x", IndexFn::select(2, &[1]))
            .scalar_function(sf)
            .combine_ops(vec![CombineOp::cc(), CombineOp::pw_add()])
            .build()
            .unwrap()
    }

    #[test]
    fn recognises_and_preserves_semantics() {
        let n = 17;
        let prog = quadratic_prefix(n);
        let (scan, rw) = dependent_reduction_to_scan(&prog).expect("pattern should match");
        assert_eq!(rw.value_input, 1);
        // O(n^2) -> O(n)
        assert_eq!(prog.md_hom.points(), n * n);
        assert_eq!(scan.md_hom.points(), n);

        let mut iota = Buffer::zeros("iota", BasicType::F64, Shape::new(vec![n]));
        iota.fill_with(|i| i as f64);
        let mut x = Buffer::zeros("x", BasicType::F64, Shape::new(vec![n]));
        x.fill_with(|i| ((i * 37) % 11) as f64 - 5.0);
        let slow = mdh_core::eval::evaluate_recursive(&prog, &[iota, x.clone()]).unwrap();
        let fast = mdh_core::eval::evaluate_recursive(&scan, &[x]).unwrap();
        assert_eq!(slow[0].as_f64().unwrap(), fast[0].as_f64().unwrap());
    }

    #[test]
    fn rejects_non_triangular_shapes() {
        // wrong mask comparison direction: Ge instead of Le with swapped roles
        let n = 8;
        let mut prog = quadratic_prefix(n);
        // non-square sizes
        prog.md_hom.sizes = vec![n, n + 1];
        assert!(dependent_reduction_to_scan(&prog).is_none());
        // plain matvec does not match
        let mv = DslBuilder::new("matvec", vec![4, 5])
            .out_buffer("w", BasicType::F32)
            .out_access("w", IndexFn::select(2, &[0]))
            .inp_buffer("M", BasicType::F32)
            .inp_access("M", IndexFn::identity(2, 2))
            .inp_buffer("v", BasicType::F32)
            .inp_access("v", IndexFn::select(2, &[1]))
            .scalar_function(ScalarFunction::mul2("f_mul", ScalarKind::F32))
            .combine_ops(vec![CombineOp::cc(), CombineOp::pw_add()])
            .build()
            .unwrap();
        assert!(dependent_reduction_to_scan(&mv).is_none());
    }
}
