//! Directive → DSL transformation (Section 4.3, Figures 1 and 2).
//!
//! Figure 1 (data): the directive's `out(...)`/`inp(...)` clauses and the
//! buffer subscripts of the loop body instantiate the DSL's `out_view` /
//! `inp_view` higher-order functions — one index function per access.
//!
//! Figure 2 (computation): the loop nest's sizes, the extracted scalar
//! function, and the `combine_ops(...)` clause instantiate `md_hom`.
//!
//! The produced [`DslProgram`] feeds the *existing* MDH pipeline —
//! lowering, auto-tuning, and code generation — unchanged, which is the
//! paper's reuse argument.

use crate::ast::{DirectiveAst, DirectiveEnv};
use crate::semantic::{analyze, AnalyzedDirective};
use mdh_core::dsl::{DslProgram, MdHom};
use mdh_core::error::Result;
use mdh_core::views::{Access, BufferDecl, View};

/// Build the DSL program from an analysed directive (Figures 1 + 2).
pub fn to_dsl(a: &AnalyzedDirective) -> Result<DslProgram> {
    // Figure 1: instantiate out_view and inp_view
    let out_view = View::new(
        a.out_buffers
            .iter()
            .map(|(name, ty, shape)| match shape {
                Some(s) => BufferDecl::with_shape(name.clone(), ty.clone(), s.clone()),
                None => BufferDecl::new(name.clone(), ty.clone()),
            })
            .collect(),
        a.out_accesses
            .iter()
            .map(|(b, f)| Access::new(*b, f.clone()))
            .collect(),
    );
    let inp_view = View::new(
        a.inp_buffers
            .iter()
            .map(|(name, ty, shape)| match shape {
                Some(s) => BufferDecl::with_shape(name.clone(), ty.clone(), s.clone()),
                None => BufferDecl::new(name.clone(), ty.clone()),
            })
            .collect(),
        a.inp_accesses
            .iter()
            .map(|(b, f)| Access::new(*b, f.clone()))
            .collect(),
    );
    // Figure 2: instantiate md_hom
    let md_hom = MdHom {
        sizes: a.sizes.clone(),
        sf: std::sync::Arc::new(a.sf.clone()),
        combine_ops: a.combine_ops.clone(),
    };
    let prog = DslProgram::new(a.name.clone(), out_view, md_hom, inp_view);
    prog.validate()?;
    Ok(prog)
}

/// One-step transformation: parsed directive + environment → DSL program.
pub fn directive_to_dsl(ast: &DirectiveAst, env: &DirectiveEnv) -> Result<DslProgram> {
    let analyzed = analyze(ast, env)?;
    to_dsl(&analyzed)
}

/// Full front end: directive source text + environment → DSL program.
pub fn compile(src: &str, env: &DirectiveEnv) -> Result<DslProgram> {
    let ast = crate::parser::parse(src)?;
    directive_to_dsl(&ast, env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdh_core::buffer::Buffer;
    use mdh_core::eval::evaluate_recursive;
    use mdh_core::shape::Shape;
    use mdh_core::types::BasicType;

    const MATVEC: &str = "\
@mdh( out( w = Buffer[fp32] ),
      inp( M = Buffer[fp32], v = Buffer[fp32] ),
      combine_ops( cc, pw(add) ) )
def matvec(w, M, v):
    for i in range(I):
        for k in range(K):
            w[i] = M[i, k] * v[k]
";

    #[test]
    fn matvec_compiles_and_evaluates() {
        let env = DirectiveEnv::new().size("I", 4).size("K", 6);
        let prog = compile(MATVEC, &env).unwrap();
        assert_eq!(prog.md_hom.sizes, vec![4, 6]);
        assert_eq!(prog.md_hom.reduction_dims(), vec![1]);

        let mut m = Buffer::zeros("M", BasicType::F32, Shape::new(vec![4, 6]));
        m.fill_with(|f| (f % 5) as f64 - 2.0);
        let mut v = Buffer::zeros("v", BasicType::F32, Shape::new(vec![6]));
        v.fill_with(|f| f as f64 * 0.5);
        let out = evaluate_recursive(&prog, &[m.clone(), v.clone()]).unwrap();
        let mf = m.as_f32().unwrap();
        let vf = v.as_f32().unwrap();
        let expect: Vec<f32> = (0..4)
            .map(|i| (0..6).map(|k| mf[i * 6 + k] * vf[k]).sum())
            .collect();
        assert_eq!(out[0].as_f32().unwrap(), &expect[..]);
    }

    #[test]
    fn matmul_directive_matches_listing_9() {
        // Listing 9 of the paper
        let src = "\
@mdh( out( C = Buffer[fp32] ),
      inp( A = Buffer[fp32], B = Buffer[fp32] ),
      combine_ops( cc, cc, pw(add) ) )
def matmul(C, A, B):
    for i in range(I):
        for j in range(J):
            for k in range(K):
                C[i, j] = A[i, k] * B[k, j]
";
        let env = DirectiveEnv::new().size("I", 3).size("J", 4).size("K", 5);
        let prog = compile(src, &env).unwrap();
        assert_eq!(prog.md_hom.sizes, vec![3, 4, 5]);
        assert_eq!(prog.output_shapes().unwrap(), vec![vec![3, 4]]);
        assert_eq!(prog.input_shapes().unwrap(), vec![vec![3, 5], vec![5, 4]]);

        let mut a = Buffer::zeros("A", BasicType::F32, Shape::new(vec![3, 5]));
        a.fill_with(|f| f as f64);
        let mut b = Buffer::zeros("B", BasicType::F32, Shape::new(vec![5, 4]));
        b.fill_with(|f| (f % 3) as f64);
        let out = evaluate_recursive(&prog, &[a.clone(), b.clone()]).unwrap();
        let af = a.as_f32().unwrap();
        let bf = b.as_f32().unwrap();
        let c = out[0].as_f32().unwrap();
        for i in 0..3 {
            for j in 0..4 {
                let expect: f32 = (0..5).map(|k| af[i * 5 + k] * bf[k * 4 + j]).sum();
                assert_eq!(c[i * 4 + j], expect);
            }
        }
    }

    #[test]
    fn jacobi1d_directive_matches_listing_10() {
        // Listing 10 of the paper (weights 1/3)
        let src = "\
@mdh( out( y = Buffer[fp32] ),
      inp( x = Buffer[fp32] ),
      combine_ops( cc ) )
def jacobi1d(y, x):
    for i in range(N):
        y[i] = 0.25 * (x[i] + x[i+1] + x[i+2])
";
        let env = DirectiveEnv::new().size("N", 6);
        let prog = compile(src, &env).unwrap();
        assert_eq!(prog.input_shapes().unwrap(), vec![vec![8]]);
        let mut x = Buffer::zeros("x", BasicType::F32, Shape::new(vec![8]));
        x.fill_with(|f| f as f64);
        let out = evaluate_recursive(&prog, &[x]).unwrap();
        let y = out[0].as_f32().unwrap();
        for i in 0..6 {
            let expect = 0.25 * ((i + i + 1 + i + 2) as f32);
            assert!((y[i] - expect).abs() < 1e-5);
        }
    }

    #[test]
    fn dot_reduction_only() {
        let src = "\
@mdh( out( res = Buffer[fp32] ),
      inp( x = Buffer[fp32], y = Buffer[fp32] ),
      combine_ops( pw(add) ) )
def dot(res, x, y):
    for k in range(N):
        res[0] = x[k] * y[k]
";
        let env = DirectiveEnv::new().size("N", 10);
        let prog = compile(src, &env).unwrap();
        assert_eq!(prog.md_hom.reduction_dims(), vec![0]);
        let mut x = Buffer::zeros("x", BasicType::F32, Shape::new(vec![10]));
        x.fill_with(|f| f as f64);
        let mut y = Buffer::zeros("y", BasicType::F32, Shape::new(vec![10]));
        y.fill_with(|_| 3.0);
        let out = evaluate_recursive(&prog, &[x, y]).unwrap();
        assert_eq!(out[0].as_f32().unwrap(), &[3.0 * 45.0]);
    }

    #[test]
    fn mbbs_prefix_sum_directive() {
        // Listing 13-style: prefix sums over accumulated column vectors
        let src = "\
@mdh( out( out = Buffer[fp64] ),
      inp( M = Buffer[fp64] ),
      combine_ops( ps(add), pw(add) ) )
def mbbs(out, M):
    for i in range(I):
        for j in range(J):
            out[i] = M[i, j]
";
        let env = DirectiveEnv::new().size("I", 4).size("J", 3);
        let prog = compile(src, &env).unwrap();
        let mut m = Buffer::zeros("M", BasicType::F64, Shape::new(vec![4, 3]));
        m.fill_with(|f| f as f64 + 1.0);
        let out = evaluate_recursive(&prog, &[m.clone()]).unwrap();
        let got = out[0].as_f64().unwrap();
        // row sums then prefix over i
        let mf = m.as_f64().unwrap();
        let rows: Vec<f64> = (0..4)
            .map(|i| (0..3).map(|j| mf[i * 3 + j]).sum())
            .collect();
        let mut pref = 0.0;
        for i in 0..4 {
            pref += rows[i];
            assert!((got[i] - pref).abs() < 1e-12, "i={i}: {} vs {pref}", got[i]);
        }
    }
}
