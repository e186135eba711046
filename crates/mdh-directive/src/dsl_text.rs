//! Textual surface of the MDH **DSL** itself (Listings 6 and 7).
//!
//! The paper's directive is translated *onto* the MDH DSL; this module
//! also lets the DSL be written directly, for users familiar with the
//! formalism:
//!
//! ```text
//! out_view[fp32]( w = [lambda i,k: (i)] ),
//! md_hom[I,K]( f_mul, (cc, pw(add)) ),
//! inp_view[fp32,fp32]( M = [lambda i,k: (i,k)], v = [lambda i,k: (k)] )
//! ```
//!
//! Index functions are the lambdas of `inp_view`/`out_view`; a buffer may
//! list several (stencil accesses, `#ACC_b` in the paper). Scalar
//! functions are referenced by name: `f_mul` (point-wise product of all
//! accesses) and `f_id` (single-access identity) are built in; others
//! are registered in the [`DirectiveEnv`].

use crate::ast::{CombineOpSpec, DirectiveEnv, SurfBinOp, SurfUnOp, SurfaceExpr};
use crate::grammar::Cursor;
use crate::lexer::{TokenKind, PYTHON};
use crate::semantic::{eval_const, resolve_type};
use mdh_core::combine::{BuiltinReduce, CombineOp, PwFunc};
use mdh_core::dsl::{DslProgram, MdHom};
use mdh_core::error::Result;
use mdh_core::expr::{Expr, ScalarFunction, Stmt};
use mdh_core::index_fn::{AffineExpr, IndexFn};
use mdh_core::types::BasicType;
use mdh_core::views::{Access, BufferDecl, View};
use std::sync::Arc;

/// Fold a surface expression over the lambda parameters `vars` into an
/// affine index expression; `Err` carries the reason it is not one.
fn affine(
    e: &SurfaceExpr,
    vars: &[String],
    env: &DirectiveEnv,
) -> std::result::Result<AffineExpr, String> {
    let rank = vars.len();
    // client bytes choose the constants: checked arithmetic throughout
    let zip = |a: &AffineExpr, b: &AffineExpr, f: fn(i64, i64) -> Option<i64>| {
        let coeffs = (a.coeffs.iter().zip(&b.coeffs)).map(|(&x, &y)| f(x, y));
        Some(AffineExpr {
            coeffs: coeffs.collect::<Option<_>>()?,
            constant: f(a.constant, b.constant)?,
        })
    };
    let scale = |a: &AffineExpr, c: i64| {
        let by_c = AffineExpr {
            coeffs: vec![c; rank],
            constant: c,
        };
        zip(a, &by_c, i64::checked_mul)
    };
    let folded = match e {
        SurfaceExpr::Int(v) => Some(AffineExpr::constant(rank, *v)),
        SurfaceExpr::Name(n) => match vars.iter().position(|v| v == n) {
            Some(d) => Some(AffineExpr::var(rank, d)),
            None => match env.sizes.get(n) {
                Some(&v) => Some(AffineExpr::constant(rank, v)),
                None => return Err(format!("unknown name '{n}' in index function")),
            },
        },
        SurfaceExpr::Un(SurfUnOp::Neg, a) => scale(&affine(a, vars, env)?, -1),
        SurfaceExpr::Bin(op, a, b) => {
            let (a, b) = (affine(a, vars, env)?, affine(b, vars, env)?);
            let is_const = |x: &AffineExpr| x.coeffs.iter().all(|&c| c == 0);
            match op {
                SurfBinOp::Add => zip(&a, &b, i64::checked_add),
                SurfBinOp::Sub => zip(&a, &b, i64::checked_sub),
                // a product is affine when at most one factor varies
                SurfBinOp::Mul if is_const(&a) => scale(&b, a.constant),
                SurfBinOp::Mul if is_const(&b) => scale(&a, b.constant),
                _ => None,
            }
        }
        _ => None,
    };
    folded.ok_or_else(|| "non-affine (or overflowing) index expression".to_string())
}

impl Cursor {
    fn skip_layout(&mut self) {
        while matches!(
            self.kind(),
            TokenKind::Newline | TokenKind::Indent | TokenKind::Dedent
        ) {
            self.advance();
        }
    }

    /// `[ T, T, ... ]` — basic types per buffer.
    fn type_list(&mut self, env: &DirectiveEnv) -> Result<Vec<BasicType>> {
        self.expect(&TokenKind::LBracket)?;
        self.nonempty_list(&TokenKind::RBracket, |p| {
            let at = p.here();
            let n = p.ident()?;
            resolve_type(&n, env).ok_or_else(|| p.error_at(at, format!("unknown type '{n}'")))
        })
    }

    /// `lambda i,k: (expr, expr)` → one affine index function; all lambdas
    /// in a program must agree on the iteration variables `vars`.
    fn lambda(&mut self, vars: &mut Option<Vec<String>>, env: &DirectiveEnv) -> Result<IndexFn> {
        self.keyword("lambda")?;
        let at = self.here();
        let params = self.nonempty_list(&TokenKind::Colon, Cursor::ident)?;
        match vars {
            None => *vars = Some(params.clone()),
            Some(v) if *v != params => {
                return Err(self.error_at(
                    at,
                    format!("index-function parameters {params:?} differ from {v:?}"),
                ))
            }
            Some(_) => {}
        }
        let at = self.here();
        let exprs = if self.accept(&TokenKind::LParen) {
            self.nonempty_list(&TokenKind::RParen, Cursor::parse_expr)?
        } else {
            vec![self.parse_expr()?]
        };
        let exprs = exprs.iter().map(|e| affine(e, &params, env));
        let exprs = exprs.collect::<std::result::Result<_, _>>();
        Ok(IndexFn::Affine(exprs.map_err(|m| self.error_at(at, m))?))
    }

    /// `( buf = [lambda...], buf = [lambda...] )` → a view.
    fn view(
        &mut self,
        tys: Vec<BasicType>,
        vars: &mut Option<Vec<String>>,
        env: &DirectiveEnv,
    ) -> Result<View> {
        self.expect(&TokenKind::LParen)?;
        let mut buffers = Vec::new();
        let mut accesses = Vec::new();
        loop {
            self.skip_layout();
            let at = self.here();
            let name = self.ident()?;
            self.expect(&TokenKind::Assign)?;
            self.expect(&TokenKind::LBracket)?;
            let b = buffers.len();
            loop {
                let f = self.lambda(vars, env)?;
                accesses.push(Access::new(b, f));
                if !self.accept(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RBracket)?;
            let ty = tys
                .get(b)
                .cloned()
                .ok_or_else(|| self.error_at(at, format!("no type listed for buffer '{name}'")))?;
            buffers.push(BufferDecl::new(name, ty));
            self.skip_layout();
            if !self.accept(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RParen)?;
        if buffers.len() != tys.len() {
            return Err(self.error(format!(
                "{} types listed for {} buffers",
                tys.len(),
                buffers.len()
            )));
        }
        Ok(View::new(buffers, accesses))
    }
}

/// Resolve a parsed combine operator against the builtins and the
/// environment's registered functions.
fn combine_op(spec: CombineOpSpec, env: &DirectiveEnv) -> std::result::Result<CombineOp, String> {
    let resolve = |name: &str| match name {
        "add" => Ok(PwFunc::builtin(BuiltinReduce::Add)),
        "mul" => Ok(PwFunc::builtin(BuiltinReduce::Mul)),
        "max" => Ok(PwFunc::builtin(BuiltinReduce::Max)),
        "min" => Ok(PwFunc::builtin(BuiltinReduce::Min)),
        other => (env.combine_fns.get(other).cloned())
            .ok_or_else(|| format!("unknown combine function '{other}'")),
    };
    Ok(match spec {
        CombineOpSpec::Cc => CombineOp::Cc,
        CombineOpSpec::Pw(f) => CombineOp::Pw(resolve(&f)?),
        CombineOpSpec::Ps(f) => CombineOp::Ps(resolve(&f)?),
        CombineOpSpec::Rbi(f) if f == "add" => CombineOp::rbi_add(),
        CombineOpSpec::Rbi(f) => {
            return Err(format!(
                "rbi only supports the builtin 'add' operator, got '{f}'"
            ))
        }
    })
}

/// Built-in scalar functions of the DSL surface.
fn builtin_sf(
    name: &str,
    param_tys: &[BasicType],
    result_tys: &[BasicType],
) -> Option<ScalarFunction> {
    let kind = |t: &BasicType| t.as_scalar();
    match name {
        // point-wise product of all accesses (Listing 6's f_mul)
        "f_mul" if result_tys.len() == 1 && !param_tys.is_empty() => {
            let mut e = Expr::Param(0);
            for p in 1..param_tys.len() {
                e = Expr::mul(e, Expr::Param(p));
            }
            Some(ScalarFunction {
                name: "f_mul".into(),
                params: param_tys
                    .iter()
                    .enumerate()
                    .map(|(p, t)| (format!("p{p}"), t.clone()))
                    .collect(),
                results: vec![("res".into(), result_tys[0].clone())],
                body: vec![Stmt::Assign {
                    name: "res".into(),
                    value: e,
                }],
            })
        }
        // point-wise sum of all accesses
        "f_add" if result_tys.len() == 1 && !param_tys.is_empty() => {
            let mut e = Expr::Param(0);
            for p in 1..param_tys.len() {
                e = Expr::add(e, Expr::Param(p));
            }
            Some(ScalarFunction {
                name: "f_add".into(),
                params: param_tys
                    .iter()
                    .enumerate()
                    .map(|(p, t)| (format!("p{p}"), t.clone()))
                    .collect(),
                results: vec![("res".into(), result_tys[0].clone())],
                body: vec![Stmt::Assign {
                    name: "res".into(),
                    value: e,
                }],
            })
        }
        // identity (Listing 13's per-point function)
        "f_id" if param_tys.len() == 1 && result_tys.len() == 1 => {
            let _ = kind(&param_tys[0]);
            Some(ScalarFunction {
                name: "f_id".into(),
                params: vec![("a".into(), param_tys[0].clone())],
                results: vec![("res".into(), result_tys[0].clone())],
                body: vec![Stmt::Assign {
                    name: "res".into(),
                    value: Expr::Param(0),
                }],
            })
        }
        _ => None,
    }
}

/// Parse a textual DSL program (Listing 7) against host bindings.
pub fn parse_dsl(src: &str, env: &DirectiveEnv) -> Result<DslProgram> {
    let mut p = Cursor::new(src, &PYTHON)?;
    let mut vars: Option<Vec<String>> = None;

    p.skip_layout();
    p.keyword("out_view")?;
    let out_tys = p.type_list(env)?;
    let out_view = p.view(out_tys, &mut vars, env)?;
    p.skip_layout();
    p.expect(&TokenKind::Comma)?;
    p.skip_layout();

    p.keyword("md_hom")?;
    p.expect(&TokenKind::LBracket)?;
    let sizes = p.nonempty_list(&TokenKind::RBracket, |p| {
        let at = p.here();
        let size = eval_const(&p.parse_expr()?, env).ok_or_else(|| {
            p.error_at(
                at,
                "md_hom sizes must be constant expressions over size parameters",
            )
        })?;
        usize::try_from(size)
            .map_err(|_| p.error_at(at, format!("negative iteration-space size {size}")))
    })?;
    p.expect(&TokenKind::LParen)?;
    let sf_name = p.ident()?;
    p.expect(&TokenKind::Comma)?;
    let at = p.here();
    let combine_ops = p.combine_op_specs()?.into_iter();
    let combine_ops = combine_ops.map(|spec| combine_op(spec, env));
    let combine_ops = combine_ops.collect::<std::result::Result<_, _>>();
    let combine_ops = combine_ops.map_err(|m| p.error_at(at, m))?;
    p.expect(&TokenKind::RParen)?;
    p.skip_layout();
    p.expect(&TokenKind::Comma)?;
    p.skip_layout();

    p.keyword("inp_view")?;
    let inp_tys = p.type_list(env)?;
    let inp_view = p.view(inp_tys, &mut vars, env)?;
    p.skip_layout();

    // rank consistency: lambdas' parameter count must equal |sizes|
    if let Some(v) = &vars {
        if v.len() != sizes.len() {
            return Err(p.error(format!(
                "index functions take {} iteration variables but md_hom lists {} sizes",
                v.len(),
                sizes.len()
            )));
        }
    }

    // resolve the scalar function
    let param_tys: Vec<BasicType> = inp_view
        .accesses
        .iter()
        .map(|a| inp_view.buffers[a.buffer].ty.clone())
        .collect();
    let result_tys: Vec<BasicType> = out_view
        .accesses
        .iter()
        .map(|a| out_view.buffers[a.buffer].ty.clone())
        .collect();
    let sf = env
        .scalar_fns
        .get(&sf_name)
        .cloned()
        .or_else(|| builtin_sf(&sf_name, &param_tys, &result_tys))
        .ok_or_else(|| p.error(format!("unknown scalar function '{sf_name}'")))?;

    let prog = DslProgram::new(
        format!("dsl_{sf_name}"),
        out_view,
        MdHom {
            sizes,
            sf: Arc::new(sf),
            combine_ops,
        },
        inp_view,
    );
    prog.validate()?;
    Ok(prog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdh_core::buffer::Buffer;
    use mdh_core::eval::evaluate_recursive;
    use mdh_core::shape::Shape;

    const MATVEC_DSL: &str = "\
out_view[fp32]( w = [lambda i,k: (i)] ),
md_hom[I,K]( f_mul, (cc, pw(add)) ),
inp_view[fp32,fp32]( M = [lambda i,k: (i,k)], v = [lambda i,k: (k)] )
";

    #[test]
    fn listing6_matvec_parses_and_runs() {
        let env = DirectiveEnv::new().size("I", 4).size("K", 5);
        let prog = parse_dsl(MATVEC_DSL, &env).unwrap();
        assert_eq!(prog.md_hom.sizes, vec![4, 5]);
        assert_eq!(prog.md_hom.reduction_dims(), vec![1]);
        let mut m = Buffer::zeros("M", BasicType::F32, Shape::new(vec![4, 5]));
        m.fill_with(|f| (f % 7) as f64);
        let mut v = Buffer::zeros("v", BasicType::F32, Shape::new(vec![5]));
        v.fill_with(|f| (f % 3) as f64);
        let out = evaluate_recursive(&prog, &[m.clone(), v.clone()]).unwrap();
        let (mf, vf) = (m.as_f32().unwrap(), v.as_f32().unwrap());
        for i in 0..4 {
            let e: f32 = (0..5).map(|k| mf[i * 5 + k] * vf[k]).sum();
            assert_eq!(out[0].as_f32().unwrap()[i], e);
        }
    }

    #[test]
    fn dsl_and_directive_front_ends_agree() {
        let env = DirectiveEnv::new().size("I", 6).size("K", 3);
        let from_dsl = parse_dsl(MATVEC_DSL, &env).unwrap();
        let from_directive = crate::transform::compile(
            "\
@mdh( out( w = Buffer[fp32] ),
      inp( M = Buffer[fp32], v = Buffer[fp32] ),
      combine_ops( cc, pw(add) ) )
def matvec(w, M, v):
    for i in range(I):
        for k in range(K):
            w[i] = M[i, k] * v[k]
",
            &env,
        )
        .unwrap();
        let mut m = Buffer::zeros("M", BasicType::F32, Shape::new(vec![6, 3]));
        m.fill_with(|f| (f % 11) as f64 * 0.5);
        let mut v = Buffer::zeros("v", BasicType::F32, Shape::new(vec![3]));
        v.fill_with(|f| f as f64);
        let inputs = vec![m, v];
        let a = evaluate_recursive(&from_dsl, &inputs).unwrap();
        let b = evaluate_recursive(&from_directive, &inputs).unwrap();
        assert_eq!(a[0], b[0]);
    }

    #[test]
    fn stencil_multi_access_lambdas() {
        // 3-point stencil via the DSL surface: three lambdas on one buffer
        let src = "\
out_view[fp32]( y = [lambda i: (i)] ),
md_hom[N]( f_add, (cc) ),
inp_view[fp32]( x = [lambda i: (i), lambda i: (i+1), lambda i: (i+2)] )
";
        let env = DirectiveEnv::new().size("N", 6);
        let prog = parse_dsl(src, &env).unwrap();
        assert_eq!(prog.inp_view.accesses.len(), 3);
        assert_eq!(prog.input_shapes().unwrap(), vec![vec![8]]);
        let mut x = Buffer::zeros("x", BasicType::F32, Shape::new(vec![8]));
        x.fill_with(|f| f as f64);
        let out = evaluate_recursive(&prog, &[x]).unwrap();
        for i in 0..6 {
            assert_eq!(out[0].as_f32().unwrap()[i], (3 * i + 3) as f32);
        }
    }

    #[test]
    fn strided_output_lambda() {
        let src = "\
out_view[fp32]( y = [lambda i: (2*i)] ),
md_hom[N]( f_id, (cc) ),
inp_view[fp32]( x = [lambda i: (i)] )
";
        let env = DirectiveEnv::new().size("N", 4);
        let prog = parse_dsl(src, &env).unwrap();
        assert_eq!(prog.output_shapes().unwrap(), vec![vec![7]]);
    }

    #[test]
    fn mbbs_via_dsl_surface() {
        let src = "\
out_view[fp64]( bbs = [lambda i,j: (i)] ),
md_hom[I,J]( f_id, (ps(add), pw(add)) ),
inp_view[fp64]( M = [lambda i,j: (i,j)] )
";
        let env = DirectiveEnv::new().size("I", 4).size("J", 3);
        let prog = parse_dsl(src, &env).unwrap();
        let mut m = Buffer::zeros("M", BasicType::F64, Shape::new(vec![4, 3]));
        m.fill_with(|f| f as f64 + 1.0);
        let out = evaluate_recursive(&prog, &[m.clone()]).unwrap();
        let mf = m.as_f64().unwrap();
        let mut acc = 0.0;
        for i in 0..4 {
            acc += mf[i * 3] + mf[i * 3 + 1] + mf[i * 3 + 2];
            assert!((out[0].as_f64().unwrap()[i] - acc).abs() < 1e-12);
        }
    }

    #[test]
    fn mismatched_lambda_vars_rejected() {
        let src = "\
out_view[fp32]( y = [lambda i: (i)] ),
md_hom[N]( f_id, (cc) ),
inp_view[fp32]( x = [lambda a: (a)] )
";
        let env = DirectiveEnv::new().size("N", 4);
        assert!(parse_dsl(src, &env).is_err());
    }

    #[test]
    fn rank_mismatch_rejected() {
        let src = "\
out_view[fp32]( y = [lambda i,k: (i)] ),
md_hom[N]( f_id, (cc) ),
inp_view[fp32]( x = [lambda i,k: (i)] )
";
        let env = DirectiveEnv::new().size("N", 4);
        let e = parse_dsl(src, &env).unwrap_err().to_string();
        assert!(e.contains("iteration variables"), "{e}");
    }

    #[test]
    fn unknown_scalar_fn_rejected() {
        let src = MATVEC_DSL.replace("f_mul", "f_mystery");
        let env = DirectiveEnv::new().size("I", 2).size("K", 2);
        let e = parse_dsl(&src, &env).unwrap_err().to_string();
        assert!(e.contains("f_mystery"), "{e}");
    }
}
