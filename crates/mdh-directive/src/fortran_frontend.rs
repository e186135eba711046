//! Fortran front end — the remaining host language of the paper's
//! Section 8 ("broadly accessible also for C, C++, and Fortran
//! programmers").
//!
//! A `!$mdh` sentinel directive over a perfect `do` nest, in the style of
//! OpenMP's `!$omp` and OpenACC's `!$acc`:
//!
//! ```fortran
//! !$mdh out(w: real[I]) inp(M: real[I][K], v: real[K]) &
//! !$mdh combine_ops(cc, pw(add))
//! do i = 1, I
//!    do k = 1, K
//!       w(i) = M(i, k) * v(k)
//!    end do
//! end do
//! ```
//!
//! Only the statement grammar is Fortran's own — `do i = 1, N ... end do`,
//! `if (...) then ... else ... end if` — written over the shared
//! [`crate::grammar`] (tokens, expressions, clauses) under the
//! [`FORTRAN`](crate::lexer::FORTRAN) dialect, whose `index_base: 1`
//! normalises 1-based, inclusive `do` bounds and parenthesised array
//! indexing to the 0-based form of the shared surface AST: `do i = 1, N`
//! is the dimension `0..N`, `x(e)` reads `x[e - 1]`, and `i` used as a
//! value stands for `i + 1`. Analysis, validation and the Figure-1/2
//! transformation are reused unchanged. Column-major storage is *not*
//! modelled: buffers follow the row-major convention of the rest of the
//! stack (documented limitation).

use crate::ast::{DirectiveAst, DirectiveEnv, SurfaceStmt};
use crate::grammar::Cursor;
use crate::lexer::{TokenKind, FORTRAN};
use crate::transform::directive_to_dsl;
use mdh_core::dsl::DslProgram;
use mdh_core::error::Result;

/// How a block ends: `("do", "enddo")`.
type Closer = (&'static str, &'static str);
const END_DO: Closer = ("do", "enddo");
const END_IF: Closer = ("if", "endif");

impl Cursor {
    /// At `end <what>` (two words) or `end<what>` (one)?
    fn at_f_end(&self, (what, joined): Closer) -> bool {
        let spaced = self.at_keyword("end")
            && matches!(self.kind_after(), TokenKind::Ident(s) if FORTRAN.same_word(s, what));
        spaced || self.at_keyword(joined)
    }

    /// Statements up to and including the closer; an `if` body also stops
    /// at — and leaves — its `else`.
    fn f_block(&mut self, closer: Closer) -> Result<Vec<SurfaceStmt>> {
        self.expect(&TokenKind::Newline)?;
        self.descend(|p| {
            let mut body = Vec::new();
            while !p.at_f_end(closer) {
                if closer == END_IF && p.at_keyword("else") {
                    return Ok(body);
                }
                body.push(p.f_stmt()?);
            }
            p.accept_keyword("end");
            p.advance();
            p.expect(&TokenKind::Newline)?;
            Ok(body)
        })
    }

    fn f_stmt(&mut self) -> Result<SurfaceStmt> {
        let at = self.here();
        let line = at.0;
        if self.accept_keyword("do") {
            // `do VAR = 1, EXPR`: 1-based and inclusive, so EXPR iterations
            let var = self.ident()?;
            self.expect(&TokenKind::Assign)?;
            if !self.accept(&TokenKind::Int(FORTRAN.index_base)) {
                return Err(self.error(format!(
                    "do loops must start at 1 (found {})",
                    self.kind().describe()
                )));
            }
            self.expect(&TokenKind::Comma)?;
            let count = self.parse_expr()?;
            self.based_vars.push(var.clone());
            let body = self.f_block(END_DO);
            self.based_vars.pop();
            let body = body?;
            if body.is_empty() {
                return Err(self.error_at(at, "empty do body"));
            }
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
            self.keyword("then")?;
            let then_branch = self.f_block(END_IF)?;
            let else_branch = if self.accept_keyword("else") {
                self.f_block(END_IF)?
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
        let stmt = self.assignment()?;
        self.expect(&TokenKind::Newline)?;
        Ok(stmt)
    }
}

/// Parse `!$mdh`-annotated Fortran source into a directive AST.
pub fn parse_fortran(src: &str) -> Result<DirectiveAst> {
    let mut p = Cursor::new(src, &FORTRAN)?;
    let clauses = p.directive()?;
    let at = p.here();
    let nest = p.f_stmt()?;
    if !matches!(nest, SurfaceStmt::For { .. }) {
        return Err(p.error_at(at, "'!$mdh' must annotate a do nest"));
    }
    if p.kind() != &TokenKind::Eof {
        return Err(p.error("trailing statements after the annotated do nest"));
    }
    Ok(clauses.over_nest("fortran_kernel", nest))
}

/// Full Fortran front end: annotated source + environment → DSL program.
///
/// The `do` nest's 1-based inclusive ranges are normalised to the 0-based
/// iteration space, so `do i = 1, N` becomes the dimension `0..N` and all
/// subscripts shift by one.
pub fn compile_fortran(src: &str, env: &DirectiveEnv) -> Result<DslProgram> {
    directive_to_dsl(&parse_fortran(src)?, env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdh_core::buffer::Buffer;
    use mdh_core::eval::evaluate_recursive;
    use mdh_core::shape::Shape;
    use mdh_core::types::BasicType;

    const MATVEC_F: &str = "\
!$mdh out(w: real[I]) inp(M: real[I][K], v: real[K]) &
!$mdh combine_ops(cc, pw(add))
do i = 1, I
   do k = 1, K
      w(i) = M(i, k) * v(k)
   end do
end do
";

    #[test]
    fn fortran_matvec_compiles_and_runs() {
        let env = DirectiveEnv::new().size("I", 4).size("K", 6);
        let prog = compile_fortran(MATVEC_F, &env).unwrap();
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
    fn one_based_offsets_normalise() {
        // y(i) = x(i + 1): with 1-based normalisation this reads x[i+0]
        // shifted — verify end-to-end against a hand computation
        let src = "\
!$mdh out(y: real[N]) inp(x: real[N + 2]) combine_ops(cc)
do i = 1, N
   y(i) = 0.25 * x(i) + 0.5 * x(i + 1) + 0.25 * x(i + 2)
end do
";
        let env = DirectiveEnv::new().size("N", 6);
        let prog = compile_fortran(src, &env).unwrap();
        assert_eq!(prog.input_shapes().unwrap(), vec![vec![8]]);
        let mut x = Buffer::zeros("x", BasicType::F32, Shape::new(vec![8]));
        x.fill_with(|f| f as f64);
        let out = evaluate_recursive(&prog, &[x]).unwrap();
        let y = out[0].as_f32().unwrap();
        for i in 0..6 {
            let e = 0.25 * i as f32 + 0.5 * (i + 1) as f32 + 0.25 * (i + 2) as f32;
            assert!((y[i] - e).abs() < 1e-5, "y[{i}] = {} vs {e}", y[i]);
        }
    }

    #[test]
    fn fortran_if_then_else() {
        let src = "\
!$mdh out(y: real[N]) inp(x: real[N]) combine_ops(cc)
do i = 1, N
   if (x(i) > 0.5) then
      y(i) = x(i)
   else
      y(i) = 0.0
   end if
end do
";
        let env = DirectiveEnv::new().size("N", 8);
        let prog = compile_fortran(src, &env).unwrap();
        let mut x = Buffer::zeros("x", BasicType::F32, Shape::new(vec![8]));
        x.fill_with(|f| f as f64 * 0.2);
        let out = evaluate_recursive(&prog, &[x.clone()]).unwrap();
        let (xf, y) = (x.as_f32().unwrap(), out[0].as_f32().unwrap());
        for i in 0..8 {
            let e = if xf[i] > 0.5 { xf[i] } else { 0.0 };
            assert_eq!(y[i], e);
        }
    }

    #[test]
    fn do_loops_must_start_at_one() {
        let src = "\
!$mdh out(y: real[N]) inp(x: real[N]) combine_ops(cc)
do i = 2, N
   y(i) = x(i)
end do
";
        let err = parse_fortran(src).unwrap_err().to_string();
        assert!(err.contains("start at 1"), "{err}");
    }

    #[test]
    fn missing_sentinel_errors() {
        assert!(parse_fortran("do i = 1, N\n y(i) = x(i)\nend do\n").is_err());
    }

    #[test]
    fn logical_operators_normalise() {
        use crate::ast::{SurfBinOp, SurfaceExpr};
        let mut p = Cursor::new("a > 1 .and. b /= 2", &FORTRAN).unwrap();
        let e = p.parse_expr().unwrap();
        assert!(matches!(e, SurfaceExpr::Bin(SurfBinOp::And, _, _)));
    }
}
