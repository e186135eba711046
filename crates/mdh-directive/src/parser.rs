//! The Python-like directive language of the paper's listings
//! (Listings 8–13): the statement grammar — `def`, `for i in range(N):`,
//! `if` / `else`, `name: type` — over the shared [`crate::grammar`].
//!
//! ```text
//! @mdh( out( w = Buffer[fp32] ),
//!       inp( M = Buffer[fp32], v = Buffer[fp32] ),
//!       combine_ops( cc, pw(add) ) )
//! def matvec(w, M, v):
//!     for i in range(I):
//!         for k in range(K):
//!             w[i] = M[i, k] * v[k]
//! ```

use crate::ast::*;
use crate::grammar::Cursor;
use crate::lexer::{TokenKind, PYTHON};
use mdh_core::error::Result;

impl Cursor {
    /// `: NEWLINE INDENT stmt+ DEDENT`
    fn py_block(&mut self) -> Result<Vec<SurfaceStmt>> {
        self.expect(&TokenKind::Colon)?;
        self.expect(&TokenKind::Newline)?;
        self.descend(|p| {
            p.expect(&TokenKind::Indent)?;
            let mut stmts = Vec::new();
            loop {
                p.skip_newlines();
                if p.accept(&TokenKind::Dedent) || p.kind() == &TokenKind::Eof {
                    break;
                }
                stmts.push(p.py_stmt()?);
            }
            if stmts.is_empty() {
                return Err(p.error("empty block"));
            }
            Ok(stmts)
        })
    }

    fn py_stmt(&mut self) -> Result<SurfaceStmt> {
        let line = self.here().0;
        if self.accept_keyword("for") {
            let var = self.ident()?;
            self.keyword("in")?;
            self.keyword("range")?;
            self.expect(&TokenKind::LParen)?;
            let count = self.parse_expr()?;
            self.expect(&TokenKind::RParen)?;
            let body = self.py_block()?;
            return Ok(SurfaceStmt::For {
                var,
                count,
                body,
                line,
            });
        }
        if self.accept_keyword("if") {
            let cond = self.parse_expr()?;
            let then_branch = self.py_block()?;
            self.skip_newlines();
            let else_branch = if self.accept_keyword("else") {
                self.py_block()?
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
        let stmt = if matches!(
            (self.kind(), self.kind_after()),
            (TokenKind::Ident(_), TokenKind::Colon)
        ) {
            // `name: type` — a typed local, as in PRL's `tmp: fp64`
            let name = self.ident()?;
            self.advance();
            let ty_name = self.type_name()?;
            SurfaceStmt::Decl {
                name,
                ty_name,
                line,
            }
        } else {
            self.assignment()?
        };
        self.expect(&TokenKind::Newline)?;
        Ok(stmt)
    }
}

/// Parse one directive — `@mdh(...)` header, `def`, body — from source text.
pub fn parse(src: &str) -> Result<DirectiveAst> {
    let mut p = Cursor::new(src, &PYTHON)?;
    p.skip_newlines();
    let clauses = p.directive()?;
    p.skip_newlines();
    p.keyword("def")?;
    let name = p.ident()?;
    p.expect(&TokenKind::LParen)?;
    let params = p.list(&TokenKind::RParen, Cursor::ident)?;
    let body = p.py_block()?;
    // allow trailing dedents/newlines only
    while p.accept(&TokenKind::Newline) || p.accept(&TokenKind::Dedent) {}
    if p.kind() != &TokenKind::Eof {
        return Err(p.error(format!("trailing {} after directive", p.kind().describe())));
    }
    Ok(DirectiveAst {
        name,
        params,
        out: clauses.out,
        inp: clauses.inp,
        combine_ops: clauses.combine_ops,
        body,
        line: clauses.line,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn parses_matvec() {
        let d = parse(MATVEC).unwrap();
        assert_eq!(d.name, "matvec");
        assert_eq!(d.params, vec!["w", "M", "v"]);
        assert_eq!(d.out.len(), 1);
        assert_eq!(d.inp.len(), 2);
        assert_eq!(
            d.combine_ops,
            vec![CombineOpSpec::Cc, CombineOpSpec::Pw("add".into())]
        );
        // two nested loops
        let SurfaceStmt::For { var, body, .. } = &d.body[0] else {
            panic!("expected for");
        };
        assert_eq!(var, "i");
        let SurfaceStmt::For { var, body, .. } = &body[0] else {
            panic!("expected inner for");
        };
        assert_eq!(var, "k");
        assert!(matches!(&body[0], SurfaceStmt::Assign { .. }));
    }

    #[test]
    fn parses_buffer_with_shape() {
        let src = "\
@mdh( out( res = Buffer[fp32] ),
      inp( img = Buffer[fp32, [N, 2*P+R-1, C]] ),
      combine_ops( cc ) )
def f(res, img):
    for n in range(N):
        res[n] = img[n, 0, 0]
";
        let d = parse(src).unwrap();
        let shape = d.inp[0].shape.as_ref().unwrap();
        assert_eq!(shape.len(), 3);
        assert_eq!(shape[0], SurfaceExpr::Name("N".into()));
    }

    #[test]
    fn parses_if_else_and_decl() {
        let src = "\
@mdh( out( o = Buffer[fp64] ),
      inp( a = Buffer[fp64] ),
      combine_ops( cc ) )
def f(o, a):
    for i in range(N):
        tmp: fp64
        tmp = a[i] * 2
        if tmp > 1.0:
            o[i] = tmp
        else:
            o[i] = 0.0
";
        let d = parse(src).unwrap();
        let SurfaceStmt::For { body, .. } = &d.body[0] else {
            panic!()
        };
        assert!(matches!(&body[0], SurfaceStmt::Decl { name, .. } if name == "tmp"));
        assert!(matches!(&body[2], SurfaceStmt::If { else_branch, .. } if !else_branch.is_empty()));
    }

    #[test]
    fn plus_assign_parsed_for_error_reporting() {
        let src = "\
@mdh( out( w = Buffer[fp32] ),
      inp( v = Buffer[fp32] ),
      combine_ops( pw(add) ) )
def f(w, v):
    for k in range(K):
        w[0] += v[k]
";
        let d = parse(src).unwrap();
        let SurfaceStmt::For { body, .. } = &d.body[0] else {
            panic!()
        };
        assert!(matches!(&body[0], SurfaceStmt::AugAssign { .. }));
    }

    #[test]
    fn missing_clause_rejected() {
        let src = "\
@mdh( out( w = Buffer[fp32] ),
      combine_ops( cc ) )
def f(w):
    for i in range(I):
        w[i] = 1
";
        assert!(parse(src).is_err());
    }

    #[test]
    fn unknown_combine_op_rejected() {
        let src = "\
@mdh( out( w = Buffer[fp32] ),
      inp( v = Buffer[fp32] ),
      combine_ops( scan ) )
def f(w, v):
    for i in range(I):
        w[i] = v[i]
";
        let e = parse(src).unwrap_err();
        assert!(e.to_string().contains("unknown combine operator"));
    }

    fn expr(src: &str) -> SurfaceExpr {
        Cursor::new(src, &PYTHON).unwrap().parse_expr().unwrap()
    }

    #[test]
    fn operator_precedence() {
        let e = expr("a + b * c");
        // a + (b * c)
        assert!(matches!(e, SurfaceExpr::Bin(SurfBinOp::Add, _, ref r)
            if matches!(**r, SurfaceExpr::Bin(SurfBinOp::Mul, _, _))));
    }

    #[test]
    fn attribute_and_string_subscript() {
        let e = expr("probM[n, i].match_weight");
        assert!(matches!(e, SurfaceExpr::Attr(_, ref f) if f == "match_weight"));
        let e = expr("lhs['id_measure']");
        assert!(matches!(e, SurfaceExpr::Subscript(_, ref idx)
            if matches!(idx[0], SurfaceExpr::Str(_))));
    }

    #[test]
    fn call_expressions() {
        let e = expr("max(a, b) + sqrt(c)");
        assert!(matches!(e, SurfaceExpr::Bin(SurfBinOp::Add, _, _)));
    }
}
