//! The grammar every directive front end shares: one token cursor, one
//! precedence-climbing expression parser and one `out(...)` / `inp(...)` /
//! `combine_ops(...)` clause parser, parameterised by a
//! [`Dialect`](crate::lexer::Dialect).
//!
//! What is *not* here is what really differs between host languages: the
//! loop / `if` / declaration statement grammars in `parser.rs` (Python),
//! `c_frontend.rs` and `fortran_frontend.rs`, each a few functions over
//! this cursor. Nothing in this stack searches or slices source text — a
//! parser that only consumes tokens has no offsets to get wrong.

use crate::ast::{
    AssignTarget, BufferSpec, CombineOpSpec, DirectiveAst, SurfBinOp, SurfUnOp, SurfaceExpr,
    SurfaceStmt,
};
use crate::lexer::{tokenize_as, Dialect, Subscripts, Token, TokenKind};
use mdh_core::error::{MdhError, Result};

/// A position in the source: `(line, column)`, both 1-based.
pub(crate) type Pos = (usize, usize);

pub(crate) struct Cursor {
    /// Never empty: the lexer always ends with `Eof`.
    tokens: Vec<Token>,
    /// Always a valid index: `advance` stops on the final `Eof`.
    pos: usize,
    depth: usize,
    pub(crate) dialect: &'static Dialect,
    /// Enclosing loop variables whose first value is the dialect's
    /// `index_base` rather than 0 (pushed by the Fortran `do` grammar): used
    /// as a *value*, `i` stands for `i + index_base` in 0-based terms.
    pub(crate) based_vars: Vec<String>,
}

/// Binding strength of the binary operators, loosest first. `NOT` is the
/// level of the word operator `not` / `.not.`; `ATOM` of anything tighter
/// than every binary operator.
const NOT: u8 = 2;
const CMP: u8 = 3;
const ATOM: u8 = 6;

/// The one table of binary operators: token → (level, operator).
fn binary_op(kind: &TokenKind) -> Option<(u8, SurfBinOp)> {
    Some(match kind {
        TokenKind::Or => (0, SurfBinOp::Or),
        TokenKind::And => (1, SurfBinOp::And),
        TokenKind::EqEq => (CMP, SurfBinOp::Eq),
        TokenKind::NotEq => (CMP, SurfBinOp::Ne),
        TokenKind::Lt => (CMP, SurfBinOp::Lt),
        TokenKind::Le => (CMP, SurfBinOp::Le),
        TokenKind::Gt => (CMP, SurfBinOp::Gt),
        TokenKind::Ge => (CMP, SurfBinOp::Ge),
        TokenKind::Plus => (4, SurfBinOp::Add),
        TokenKind::Minus => (4, SurfBinOp::Sub),
        TokenKind::Star => (5, SurfBinOp::Mul),
        TokenKind::Slash => (5, SurfBinOp::Div),
        TokenKind::Percent => (5, SurfBinOp::Mod),
        _ => return None,
    })
}

/// Store a clause's value; was the clause already given?
fn set_once<T>(slot: &mut Option<T>, value: T) -> bool {
    let given = slot.is_some();
    *slot = Some(value);
    given
}

/// The header clauses of a directive.
pub(crate) struct Clauses {
    pub(crate) out: Vec<BufferSpec>,
    pub(crate) inp: Vec<BufferSpec>,
    pub(crate) combine_ops: Vec<CombineOpSpec>,
    /// Line of the sentinel.
    pub(crate) line: usize,
}

impl Clauses {
    /// The directive of a host language without a `def`: the clauses
    /// annotate one loop nest, and the kernel's parameters are the declared
    /// buffers in clause order.
    pub(crate) fn over_nest(self, name: &str, nest: SurfaceStmt) -> DirectiveAst {
        DirectiveAst {
            name: name.into(),
            params: (self.out.iter().chain(&self.inp))
                .map(|b| b.name.clone())
                .collect(),
            out: self.out,
            inp: self.inp,
            combine_ops: self.combine_ops,
            body: vec![nest],
            line: self.line,
        }
    }
}

impl Cursor {
    pub(crate) fn new(src: &str, dialect: &'static Dialect) -> Result<Self> {
        Ok(Cursor {
            tokens: tokenize_as(src, dialect)?,
            pos: 0,
            depth: 0,
            dialect,
            based_vars: Vec::new(),
        })
    }

    // ---- cursor -----------------------------------------------------------

    pub(crate) fn kind(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    /// Kind of the token after the current one (`Eof` repeats).
    pub(crate) fn kind_after(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    pub(crate) fn here(&self) -> Pos {
        let t = &self.tokens[self.pos];
        (t.line, t.col)
    }

    pub(crate) fn advance(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    pub(crate) fn error_at(&self, (line, col): Pos, message: impl Into<String>) -> MdhError {
        MdhError::Parse {
            line,
            col,
            message: message.into(),
        }
    }

    /// An error at the current token.
    pub(crate) fn error(&self, message: impl Into<String>) -> MdhError {
        self.error_at(self.here(), message)
    }

    pub(crate) fn accept(&mut self, kind: &TokenKind) -> bool {
        let hit = self.kind() == kind;
        if hit {
            self.advance();
        }
        hit
    }

    pub(crate) fn expect(&mut self, kind: &TokenKind) -> Result<()> {
        if self.accept(kind) {
            return Ok(());
        }
        Err(self.error(format!(
            "expected {}, found {}",
            kind.describe(),
            self.kind().describe()
        )))
    }

    pub(crate) fn ident(&mut self) -> Result<String> {
        match self.kind() {
            TokenKind::Ident(s) => {
                let s = s.clone();
                self.advance();
                Ok(s)
            }
            other => Err(self.error(format!("expected identifier, found {}", other.describe()))),
        }
    }

    /// Is the current token the keyword `kw` (under the dialect's case
    /// rule)? Keywords are not reserved: they lex as identifiers.
    pub(crate) fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.kind(), TokenKind::Ident(s) if self.dialect.same_word(s, kw))
    }

    pub(crate) fn accept_keyword(&mut self, kw: &str) -> bool {
        let hit = self.at_keyword(kw);
        if hit {
            self.advance();
        }
        hit
    }

    pub(crate) fn keyword(&mut self, kw: &str) -> Result<()> {
        if self.accept_keyword(kw) {
            return Ok(());
        }
        Err(self.error(format!("expected '{kw}', found {}", self.kind().describe())))
    }

    pub(crate) fn skip_newlines(&mut self) {
        while self.accept(&TokenKind::Newline) {}
    }

    /// Run one level of recursive descent — a parenthesis, a unary
    /// operator, a statement block — bounded by [`crate::MAX_NEST_DEPTH`]:
    /// client bytes choose the nesting, and past the bound that is a parse
    /// error here rather than a stack overflow no `catch_unwind` contains.
    pub(crate) fn descend<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth >= crate::MAX_NEST_DEPTH {
            return Err(self.error(format!(
                "nesting deeper than {} levels",
                crate::MAX_NEST_DEPTH
            )));
        }
        self.depth += 1;
        let r = f(self);
        self.depth -= 1;
        r
    }

    /// `item (, item)* close`, the opening bracket already consumed;
    /// `close` alone is the empty list.
    pub(crate) fn list<T>(
        &mut self,
        close: &TokenKind,
        mut item: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        let mut items = Vec::new();
        if self.accept(close) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            if !self.accept(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(close)?;
        Ok(items)
    }

    /// As [`Cursor::list`], but an empty list is an error.
    pub(crate) fn nonempty_list<T>(
        &mut self,
        close: &TokenKind,
        item: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        if self.kind() == close {
            return Err(self.error(format!("expected an item before {}", close.describe())));
        }
        self.list(close, item)
    }

    // ---- expressions ------------------------------------------------------

    /// `or < and < not < comparison < additive < multiplicative < unary <
    /// postfix < primary`; comparisons do not chain.
    pub(crate) fn parse_expr(&mut self) -> Result<SurfaceExpr> {
        self.descend(|p| p.binary(0))
    }

    /// Precedence climbing over [`binary_op`]: parse an operand, then fold
    /// in every operator at least as tight as `min`. `bound` is how tightly
    /// the expression built so far binds — a looser one cannot become the
    /// left operand of a tighter operator, and a comparison not of another.
    fn binary(&mut self, min: u8) -> Result<SurfaceExpr> {
        let (mut lhs, mut bound) = if min <= NOT && self.accept(&TokenKind::Not) {
            let operand = self.descend(|p| p.binary(NOT))?;
            (SurfaceExpr::Un(SurfUnOp::Not, Box::new(operand)), NOT)
        } else {
            (self.unary()?, ATOM)
        };
        while let Some((level, op)) = binary_op(self.kind()) {
            if level < min || bound < level || (bound == CMP && level == CMP) {
                break;
            }
            self.advance();
            let rhs = self.binary(level + 1)?;
            lhs = SurfaceExpr::Bin(op, Box::new(lhs), Box::new(rhs));
            bound = level;
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<SurfaceExpr> {
        let op = match self.kind() {
            TokenKind::Minus => SurfUnOp::Neg,
            TokenKind::Bang => SurfUnOp::Not,
            _ => return self.postfix(),
        };
        self.advance();
        let operand = self.descend(Self::unary)?;
        Ok(SurfaceExpr::Un(op, Box::new(operand)))
    }

    /// A primary followed by bracket subscripts and `.field`s.
    pub(crate) fn postfix(&mut self) -> Result<SurfaceExpr> {
        let mut e = self.primary()?;
        loop {
            if self.accept(&TokenKind::LBracket) {
                let indices = self.nonempty_list(&TokenKind::RBracket, Self::parse_expr)?;
                e = match e {
                    // C spells a multi-index as consecutive brackets
                    SurfaceExpr::Subscript(base, mut first)
                        if self.dialect.subscripts == Subscripts::Chained =>
                    {
                        first.extend(self.rebased(indices));
                        SurfaceExpr::Subscript(base, first)
                    }
                    other => self.subscript(other, indices),
                };
            } else if self.accept(&TokenKind::Dot) {
                e = SurfaceExpr::Attr(Box::new(e), self.ident()?);
            } else {
                return Ok(e);
            }
        }
    }

    fn primary(&mut self) -> Result<SurfaceExpr> {
        let at = self.here();
        let e = match self.kind() {
            TokenKind::Int(v) => SurfaceExpr::Int(*v),
            TokenKind::Float(v) => SurfaceExpr::Float(*v),
            TokenKind::Str(s) => SurfaceExpr::Str(s.clone()),
            TokenKind::Ident(name) => SurfaceExpr::Name(name.clone()),
            TokenKind::LParen => {
                self.advance();
                let e = self.parse_expr()?;
                self.expect(&TokenKind::RParen)?;
                return Ok(e);
            }
            other => return Err(self.error(format!("unexpected {}", other.describe()))),
        };
        self.advance();
        match e {
            SurfaceExpr::Name(name) if self.accept(&TokenKind::LParen) => {
                let args = self.list(&TokenKind::RParen, Self::parse_expr)?;
                self.call_or_reference(name, args, at)
            }
            SurfaceExpr::Name(name) if self.based_vars.contains(&name) => {
                Ok(self.shifted(SurfBinOp::Add, SurfaceExpr::Name(name)))
            }
            e => Ok(e),
        }
    }

    /// `name(args)`: one of the dialect's intrinsics, else — where arrays
    /// are indexed with parentheses — an array reference.
    fn call_or_reference(
        &self,
        name: String,
        args: Vec<SurfaceExpr>,
        at: Pos,
    ) -> Result<SurfaceExpr> {
        let Some(table) = self.dialect.intrinsics else {
            return Ok(SurfaceExpr::Call(name, args));
        };
        match self.dialect.lookup(table, &name) {
            Some(f) => Ok(SurfaceExpr::Call(f.to_string(), args)),
            None if self.dialect.subscripts == Subscripts::Paren => {
                Ok(self.subscript(SurfaceExpr::Name(name), args))
            }
            None => Err(self.error_at(at, format!("unknown function '{name}'"))),
        }
    }

    /// `base[indices]` in 0-based terms.
    fn subscript(&self, base: SurfaceExpr, indices: Vec<SurfaceExpr>) -> SurfaceExpr {
        SurfaceExpr::Subscript(Box::new(base), self.rebased(indices))
    }

    fn rebased(&self, indices: Vec<SurfaceExpr>) -> Vec<SurfaceExpr> {
        if self.dialect.index_base == 0 {
            return indices;
        }
        let shift = |i| self.shifted(SurfBinOp::Sub, i);
        indices.into_iter().map(shift).collect()
    }

    /// `e ± index_base`: the two directions of the index-base rule.
    fn shifted(&self, op: SurfBinOp, e: SurfaceExpr) -> SurfaceExpr {
        let base = SurfaceExpr::Int(self.dialect.index_base);
        SurfaceExpr::Bin(op, Box::new(e), Box::new(base))
    }

    // ---- statements every host language has ---------------------------------

    /// `target = value` or `target += value` (kept so the analysis can
    /// give the paper's "use `=`" guidance); the caller consumes its own
    /// statement terminator.
    pub(crate) fn assignment(&mut self) -> Result<SurfaceStmt> {
        let at = self.here();
        let target = match self.postfix()? {
            SurfaceExpr::Name(name) => AssignTarget::Name(name),
            SurfaceExpr::Subscript(base, indices) => match *base {
                SurfaceExpr::Name(name) => AssignTarget::Subscript(name, indices),
                _ => return Err(self.error_at(at, "cannot assign to this expression")),
            },
            _ => return Err(self.error_at(at, "cannot assign to this expression")),
        };
        let line = at.0;
        if self.accept(&TokenKind::PlusAssign) {
            self.parse_expr()?;
            return Ok(SurfaceStmt::AugAssign { target, line });
        }
        self.expect(&TokenKind::Assign)?;
        let value = self.parse_expr()?;
        Ok(SurfaceStmt::Assign {
            target,
            value,
            line,
        })
    }

    /// Is the current token a name in the dialect's type table?
    pub(crate) fn at_type(&self) -> bool {
        let table = self.dialect.types.unwrap_or_default();
        matches!(self.kind(), TokenKind::Ident(t) if self.dialect.lookup(table, t).is_some())
    }

    /// Map a host type name (current token) to the directive's.
    pub(crate) fn type_name(&mut self) -> Result<String> {
        let at = self.here();
        let host = self.ident()?;
        match self.dialect.types {
            None => Ok(host),
            Some(table) => match self.dialect.lookup(table, &host) {
                Some(ty) => Ok(ty.to_string()),
                None => Err(self.error_at(at, format!("unknown type '{host}'"))),
            },
        }
    }

    // ---- clauses ------------------------------------------------------------

    /// The directive header: the sentinel, then `out(...)`, `inp(...)` and
    /// `combine_ops(...)` once each in any order — comma-separated inside
    /// parentheses (`@mdh( ... )`) or blank-separated up to the end of the
    /// line (`#pragma mdh ...`, `!$mdh ...`; a following sentinel line
    /// carries on).
    pub(crate) fn directive(&mut self) -> Result<Clauses> {
        let what = self.dialect.sentinel;
        let at = self.here();
        if !self.accept(&TokenKind::Sentinel) {
            return Err(self.error(format!("expected a '{what}' directive")));
        }
        let wrapped = self.accept(&TokenKind::LParen);
        let (mut out, mut inp, mut combine_ops) = (None, None, None);
        loop {
            let clause_at = self.here();
            let clause = self.ident()?;
            let duplicate = match clause.as_str() {
                "out" => set_once(&mut out, self.buffer_specs()?),
                "inp" => set_once(&mut inp, self.buffer_specs()?),
                "combine_ops" => set_once(&mut combine_ops, self.combine_op_specs()?),
                other => {
                    return Err(self.error_at(
                        clause_at,
                        format!(
                            "unknown {what} clause '{other}' (expected out, inp, or combine_ops)"
                        ),
                    ))
                }
            };
            if duplicate {
                return Err(self.error_at(clause_at, format!("duplicate {clause}(...) clause")));
            }
            let comma = self.accept(&TokenKind::Comma);
            let more = if wrapped {
                comma
            } else {
                !self.accept(&TokenKind::Newline) || self.accept(&TokenKind::Sentinel)
            };
            if !more {
                break;
            }
        }
        if wrapped {
            self.expect(&TokenKind::RParen)?;
            self.expect(&TokenKind::Newline)?;
        }
        let missing = |clause: &str| {
            self.error_at(
                at,
                format!("{what} directive requires {clause}(...) clause"),
            )
        };
        Ok(Clauses {
            out: out.ok_or_else(|| missing("an out"))?,
            inp: inp.ok_or_else(|| missing("an inp"))?,
            combine_ops: combine_ops.ok_or_else(|| missing("a combine_ops"))?,
            line: at.0,
        })
    }

    /// `( name = Buffer[ty] , name = Buffer[ty, [dim, ...]] , name: ty[dim]... )`
    fn buffer_specs(&mut self) -> Result<Vec<BufferSpec>> {
        self.expect(&TokenKind::LParen)?;
        self.nonempty_list(&TokenKind::RParen, |p| {
            let line = p.here().0;
            let name = p.ident()?;
            let (ty_name, shape);
            if p.accept(&TokenKind::Assign) {
                p.keyword("Buffer")?;
                p.expect(&TokenKind::LBracket)?;
                ty_name = p.type_name()?;
                shape = if p.accept(&TokenKind::Comma) {
                    p.expect(&TokenKind::LBracket)?;
                    Some(p.nonempty_list(&TokenKind::RBracket, Self::parse_expr)?)
                } else {
                    None
                };
                p.expect(&TokenKind::RBracket)?;
            } else {
                p.expect(&TokenKind::Colon)?;
                ty_name = p.type_name()?;
                let mut dims = Vec::new();
                while p.accept(&TokenKind::LBracket) {
                    dims.push(p.parse_expr()?);
                    p.expect(&TokenKind::RBracket)?;
                }
                shape = (!dims.is_empty()).then_some(dims);
            }
            Ok(BufferSpec {
                name,
                ty_name,
                shape,
                line,
            })
        })
    }

    /// `( cc, pw(add), ps(f), rbi(add), ... )`
    pub(crate) fn combine_op_specs(&mut self) -> Result<Vec<CombineOpSpec>> {
        self.expect(&TokenKind::LParen)?;
        self.nonempty_list(&TokenKind::RParen, |p| {
            let at = p.here();
            let make = match p.ident()?.as_str() {
                "cc" => return Ok(CombineOpSpec::Cc),
                "pw" => CombineOpSpec::Pw,
                "ps" => CombineOpSpec::Ps,
                "rbi" => CombineOpSpec::Rbi,
                other => {
                    return Err(p.error_at(
                        at,
                        format!(
                        "unknown combine operator '{other}' (expected cc, pw(f), ps(f), or rbi(f))"
                    ),
                    ))
                }
            };
            p.expect(&TokenKind::LParen)?;
            let f = p.ident()?;
            p.expect(&TokenKind::RParen)?;
            Ok(make(f))
        })
    }
}
