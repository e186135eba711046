//! Surface AST of the MDH directive language and the host "environment".
//!
//! The environment plays the role of the Python host program in the paper:
//! it binds size parameters (`I`, `K`, ...), record type definitions
//! (`db18`, `chr46`, ...), and custom combine functions registered with
//! `@pw_custom_func` (like PRL's `prl_max`).

use mdh_core::combine::PwFunc;
use mdh_core::expr::ScalarFunction;
use mdh_core::types::RecordType;
use std::collections::HashMap;
use std::sync::Arc;

/// Binary operators of the surface expression language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SurfBinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

/// Unary operators of the surface expression language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SurfUnOp {
    Neg,
    Not,
}

/// A surface expression (positions recorded for error messages).
#[derive(Debug, Clone, PartialEq)]
pub enum SurfaceExpr {
    Int(i64),
    Float(f64),
    Str(String),
    Name(String),
    /// `base[e1, e2, ...]` — buffer access or record-field-by-string.
    Subscript(Box<SurfaceExpr>, Vec<SurfaceExpr>),
    /// `base.field`.
    Attr(Box<SurfaceExpr>, String),
    Bin(SurfBinOp, Box<SurfaceExpr>, Box<SurfaceExpr>),
    Un(SurfUnOp, Box<SurfaceExpr>),
    /// `fn(args...)` — math functions (`sqrt`, `exp`, `log`, `abs`,
    /// `min`, `max`).
    Call(String, Vec<SurfaceExpr>),
}

/// Assignment target: a local variable or a buffer element.
#[derive(Debug, Clone, PartialEq)]
pub enum AssignTarget {
    Name(String),
    Subscript(String, Vec<SurfaceExpr>),
}

/// A surface statement.
#[derive(Debug, Clone, PartialEq)]
pub enum SurfaceStmt {
    /// `target = value` — the *only* way outputs are produced; the paper's
    /// design deliberately forbids `+=` in loop bodies.
    Assign {
        target: AssignTarget,
        value: SurfaceExpr,
        line: usize,
    },
    /// `target += value` — parsed but rejected with the paper's guidance.
    AugAssign { target: AssignTarget, line: usize },
    /// `name: type` — a typed local declaration (as in PRL's
    /// `tmp_match_weight: fp64`).
    Decl {
        name: String,
        ty_name: String,
        line: usize,
    },
    If {
        cond: SurfaceExpr,
        then_branch: Vec<SurfaceStmt>,
        else_branch: Vec<SurfaceStmt>,
        line: usize,
    },
    /// `for var in range(count):` — a loop-nest level.
    For {
        var: String,
        count: SurfaceExpr,
        body: Vec<SurfaceStmt>,
        line: usize,
    },
}

/// Buffer specification from the `out(...)` / `inp(...)` clauses:
/// `name = Buffer[type]` or `name = Buffer[type, [shape...]]`.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferSpec {
    pub name: String,
    pub ty_name: String,
    pub shape: Option<Vec<SurfaceExpr>>,
    pub line: usize,
}

/// Combine-operator specification from the `combine_ops(...)` clause.
#[derive(Debug, Clone, PartialEq)]
pub enum CombineOpSpec {
    Cc,
    /// `pw(name)` — `add`, `mul`, `max`, `min`, or a registered custom
    /// function.
    Pw(String),
    /// `ps(name)`.
    Ps(String),
    /// `rbi(name)` — indexed reduction (scatter-add); only `add` is
    /// accepted downstream.
    Rbi(String),
}

/// A parsed (not yet analysed) directive: header clauses plus the
/// decorated function's loop nest.
#[derive(Debug, Clone, PartialEq)]
pub struct DirectiveAst {
    pub name: String,
    pub params: Vec<String>,
    pub out: Vec<BufferSpec>,
    pub inp: Vec<BufferSpec>,
    pub combine_ops: Vec<CombineOpSpec>,
    pub body: Vec<SurfaceStmt>,
    pub line: usize,
}

/// Host-program bindings available to a directive.
#[derive(Debug, Clone, Default)]
pub struct DirectiveEnv {
    /// Size parameters, e.g. `I = 4096`.
    pub sizes: HashMap<String, i64>,
    /// User-defined record types, e.g. `db18`.
    pub records: HashMap<String, Arc<RecordType>>,
    /// Custom combine functions registered with `@pw_custom_func`.
    pub combine_fns: HashMap<String, PwFunc>,
    /// Named scalar functions for the textual DSL surface (Listing 7's
    /// `SF` slot); `f_mul`, `f_add`, `f_id` are built in.
    pub scalar_fns: HashMap<String, ScalarFunction>,
}

impl DirectiveEnv {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn size(mut self, name: &str, value: i64) -> Self {
        self.sizes.insert(name.into(), value);
        self
    }

    pub fn record(mut self, rec: Arc<RecordType>) -> Self {
        self.records.insert(rec.name.clone(), rec);
        self
    }

    pub fn combine_fn(mut self, f: PwFunc) -> Self {
        self.combine_fns.insert(f.name.clone(), f);
        self
    }
}
