//! C front end — the paper's future-work direction (Section 8):
//! "incorporating our directive into OpenMP and OpenACC, thereby paving
//! the way for MDH-based optimizations to become part of widely adopted
//! directive standards and thus broadly accessible also for C, C++, and
//! Fortran programmers."
//!
//! This module implements that direction for a C subset: a `#pragma mdh`
//! annotation over a perfect C loop nest, in the style of the paper's
//! Listings 1–3:
//!
//! ```c
//! #pragma mdh out(w: float[I]) inp(M: float[I][K], v: float[K]) \
//!             combine_ops(cc, pw(add))
//! for (int i = 0; i < I; i++) {
//!     for (int k = 0; k < K; k++) {
//!         w[i] = M[i][k] * v[k];
//!     }
//! }
//! ```
//!
//! Only the statement grammar is C's own — `for (int i = 0; i < N; i++)`,
//! `if (...) {...} else {...}`, `float t;` — written over the shared
//! [`crate::grammar`] (tokens, expressions, clauses) under the
//! [`C`](crate::lexer::C) dialect. The result is the *same*
//! [`crate::ast::DirectiveAst`] as the Python-like front end, so analysis,
//! validation (including the `+=` guidance), and the Figure-1/2
//! transformation are shared verbatim.

use crate::ast::{AssignTarget, DirectiveAst, DirectiveEnv, SurfaceStmt};
use crate::grammar::Cursor;
use crate::lexer::{TokenKind, C};
use crate::transform::directive_to_dsl;
use mdh_core::dsl::DslProgram;
use mdh_core::error::Result;

impl Cursor {
    /// The induction variable, which the loop header must name three times.
    fn c_induction(&mut self, var: &str, role: &str) -> Result<()> {
        let at = self.here();
        if self.ident()? != var {
            return Err(self.error_at(at, format!("loop {role} must use the induction variable")));
        }
        Ok(())
    }

    fn c_stmt(&mut self) -> Result<SurfaceStmt> {
        let line = self.here().0;
        if self.accept_keyword("for") {
            // `for (int VAR = 0; VAR < EXPR; VAR++)`, `++VAR` and an
            // undeclared or `size_t` VAR included
            self.expect(&TokenKind::LParen)?;
            if self.at_type() || self.at_keyword("size_t") {
                self.advance();
            }
            let var = self.ident()?;
            self.expect(&TokenKind::Assign)?;
            if !self.accept(&TokenKind::Int(0)) {
                return Err(self.error(format!(
                    "loops must start at 0 (found {})",
                    self.kind().describe()
                )));
            }
            self.expect(&TokenKind::Semi)?;
            self.c_induction(&var, "condition")?;
            self.expect(&TokenKind::Lt)?;
            let count = self.parse_expr()?;
            self.expect(&TokenKind::Semi)?;
            if self.accept(&TokenKind::PlusPlus) {
                self.c_induction(&var, "increment")?;
            } else {
                self.c_induction(&var, "increment")?;
                self.expect(&TokenKind::PlusPlus)?;
            }
            self.expect(&TokenKind::RParen)?;
            let body = self.c_block()?;
            return Ok(SurfaceStmt::For {
                var,
                count,
                body,
                line,
            });
        }
        if self.accept_keyword("if") {
            self.expect(&TokenKind::LParen)?;
            let cond = self.parse_expr()?;
            self.expect(&TokenKind::RParen)?;
            let then_branch = self.c_block()?;
            let else_branch = if self.accept_keyword("else") {
                self.c_block()?
            } else {
                Vec::new()
            };
            return Ok(SurfaceStmt::If {
                cond,
                then_branch,
                else_branch,
                line,
            });
        }
        let stmt = if self.at_type() && matches!(self.kind_after(), TokenKind::Ident(_)) {
            // `float t;` declares; `float t = e;` is the assignment that
            // binds the fresh local
            let ty_name = self.type_name()?;
            let name = self.ident()?;
            if self.accept(&TokenKind::Assign) {
                SurfaceStmt::Assign {
                    target: AssignTarget::Name(name),
                    value: self.parse_expr()?,
                    line,
                }
            } else {
                SurfaceStmt::Decl {
                    name,
                    ty_name,
                    line,
                }
            }
        } else {
            self.assignment()?
        };
        self.expect(&TokenKind::Semi)?;
        Ok(stmt)
    }

    /// `{ stmt* }` or a single statement.
    fn c_block(&mut self) -> Result<Vec<SurfaceStmt>> {
        self.descend(|p| {
            if !p.accept(&TokenKind::LBrace) {
                return Ok(vec![p.c_stmt()?]);
            }
            let mut body = Vec::new();
            while !p.accept(&TokenKind::RBrace) {
                body.push(p.c_stmt()?);
            }
            Ok(body)
        })
    }
}

/// Parse a `#pragma mdh`-annotated C loop nest into a directive AST.
pub fn parse_c(src: &str) -> Result<DirectiveAst> {
    let mut p = Cursor::new(src, &C)?;
    // host code before the annotation (and after the nest) is not ours
    while !matches!(p.kind(), TokenKind::Sentinel | TokenKind::Eof) {
        p.advance();
    }
    let clauses = p.directive()?;
    let at = p.here();
    let nest = p.c_stmt()?;
    if !matches!(nest, SurfaceStmt::For { .. }) {
        return Err(p.error_at(at, "#pragma mdh must annotate a for-loop nest"));
    }
    Ok(clauses.over_nest("c_kernel", nest))
}

/// Full C front end: annotated C source + environment → DSL program.
pub fn compile_c(src: &str, env: &DirectiveEnv) -> Result<DslProgram> {
    directive_to_dsl(&parse_c(src)?, env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdh_core::buffer::Buffer;
    use mdh_core::eval::evaluate_recursive;
    use mdh_core::shape::Shape;
    use mdh_core::types::BasicType;

    const MATVEC_C: &str = r#"
#pragma mdh out(w: float[I]) inp(M: float[I][K], v: float[K]) \
            combine_ops(cc, pw(add))
for (int i = 0; i < I; i++) {
    for (int k = 0; k < K; k++) {
        w[i] = M[i][k] * v[k];
    }
}
"#;

    #[test]
    fn c_matvec_compiles_and_runs() {
        let env = DirectiveEnv::new().size("I", 4).size("K", 6);
        let prog = compile_c(MATVEC_C, &env).unwrap();
        assert_eq!(prog.md_hom.sizes, vec![4, 6]);
        assert_eq!(prog.md_hom.reduction_dims(), vec![1]);
        let mut m = Buffer::zeros("M", BasicType::F32, Shape::new(vec![4, 6]));
        m.fill_with(|f| (f % 5) as f64);
        let mut v = Buffer::zeros("v", BasicType::F32, Shape::new(vec![6]));
        v.fill_with(|f| (f % 3) as f64);
        let out = evaluate_recursive(&prog, &[m.clone(), v.clone()]).unwrap();
        let (mf, vf) = (m.as_f32().unwrap(), v.as_f32().unwrap());
        for i in 0..4 {
            let expect: f32 = (0..6).map(|k| mf[i * 6 + k] * vf[k]).sum();
            assert_eq!(out[0].as_f32().unwrap()[i], expect);
        }
    }

    #[test]
    fn c_plus_equals_gets_design_guidance() {
        // Listing 1/2 style: the traditional C formulation with `+=`
        let src = r#"
#pragma mdh out(w: float[I]) inp(M: float[I][K], v: float[K]) combine_ops(cc, pw(add))
for (int i = 0; i < I; i++) {
    for (int k = 0; k < K; k++) {
        w[i] += M[i][k] * v[k];
    }
}
"#;
        let env = DirectiveEnv::new().size("I", 2).size("K", 2);
        let err = compile_c(src, &env).unwrap_err().to_string();
        assert!(err.contains("combine_ops"), "{err}");
    }

    #[test]
    fn c_stencil_with_offsets() {
        let src = r#"
#pragma mdh out(y: float[N]) inp(x: float[N + 2]) combine_ops(cc)
for (int i = 0; i < N; i++) {
    y[i] = 0.25f * x[i] + 0.5f * x[i + 1] + 0.25f * x[i + 2];
}
"#;
        let env = DirectiveEnv::new().size("N", 6);
        let prog = compile_c(src, &env).unwrap();
        assert_eq!(prog.input_shapes().unwrap(), vec![vec![8]]);
        let mut x = Buffer::zeros("x", BasicType::F32, Shape::new(vec![8]));
        x.fill_with(|f| f as f64);
        let out = evaluate_recursive(&prog, &[x]).unwrap();
        let y = out[0].as_f32().unwrap();
        for i in 0..6 {
            let e = 0.25 * i as f32 + 0.5 * (i + 1) as f32 + 0.25 * (i + 2) as f32;
            assert!((y[i] - e).abs() < 1e-5);
        }
    }

    #[test]
    fn c_body_with_locals_and_branches() {
        let src = r#"
#pragma mdh out(y: float[N]) inp(x: float[N]) combine_ops(cc)
for (int i = 0; i < N; i++) {
    float t;
    t = x[i] * 2.0f;
    if (t > 1.0f) {
        y[i] = t;
    } else {
        y[i] = 0.0f;
    }
}
"#;
        let env = DirectiveEnv::new().size("N", 8);
        let prog = compile_c(src, &env).unwrap();
        let mut x = Buffer::zeros("x", BasicType::F32, Shape::new(vec![8]));
        x.fill_with(|f| f as f64 * 0.2);
        let out = evaluate_recursive(&prog, &[x.clone()]).unwrap();
        let (xf, y) = (x.as_f32().unwrap(), out[0].as_f32().unwrap());
        for i in 0..8 {
            let t = xf[i] * 2.0;
            let e = if t > 1.0 { t } else { 0.0 };
            assert_eq!(y[i], e);
        }
    }

    #[test]
    fn c_matmul_3d() {
        let src = r#"
#pragma mdh out(C: float[I][J]) inp(A: float[I][K], B: float[K][J]) \
            combine_ops(cc, cc, pw(add))
for (int i = 0; i < I; i++)
    for (int j = 0; j < J; j++)
        for (int k = 0; k < K; k++)
            C[i][j] = A[i][k] * B[k][j];
"#;
        let env = DirectiveEnv::new().size("I", 3).size("J", 4).size("K", 5);
        let prog = compile_c(src, &env).unwrap();
        assert_eq!(prog.md_hom.sizes, vec![3, 4, 5]);
        assert_eq!(prog.output_shapes().unwrap(), vec![vec![3, 4]]);
    }

    #[test]
    fn c_missing_pragma_errors() {
        let src = "for (int i = 0; i < N; i++) { y[i] = x[i]; }";
        assert!(parse_c(src).is_err());
    }

    #[test]
    fn c_nonzero_lower_bound_rejected() {
        let src = r#"
#pragma mdh out(y: float[N]) inp(x: float[N]) combine_ops(cc)
for (int i = 1; i < N; i++) { y[i] = x[i]; }
"#;
        let err = parse_c(src).unwrap_err().to_string();
        assert!(err.contains("start at 0"), "{err}");
    }
}
