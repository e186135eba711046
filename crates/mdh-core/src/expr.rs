//! The scalar-function IR.
//!
//! The directive's loop body is "an arbitrary but pure scalar function SF"
//! (Sec. 4.2) mapping elements of input buffers to elements of output
//! buffers. We represent SF as a small imperative IR — expressions,
//! let-bindings, conditionals, and statically-bounded loops — exactly the
//! "imperative-style program code" footnote 9 permits. The same IR is used
//! for custom combine-operator functions such as PRL's `prl_max`.

use crate::error::{MdhError, Result};
use crate::types::{BasicType, ScalarKind, Value};
use std::collections::HashMap;
use std::fmt;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl BinOp {
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Neg,
    Not,
}

/// Built-in math functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MathFn {
    Sqrt,
    Exp,
    Log,
    Abs,
    Min,
    Max,
}

impl MathFn {
    pub fn arity(self) -> usize {
        match self {
            MathFn::Sqrt | MathFn::Exp | MathFn::Log | MathFn::Abs => 1,
            MathFn::Min | MathFn::Max => 2,
        }
    }
}

/// An expression of the scalar-function IR.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Lit(Value),
    /// The `p`-th input-access value (in `inp_view` access order).
    Param(usize),
    /// A named local, loop variable, or result variable.
    Var(String),
    /// Record field access `e.field`.
    Field(Box<Expr>, String),
    /// Array indexing into an array-typed record field: `e[idx]`.
    ArrayIndex(Box<Expr>, Box<Expr>),
    Bin(BinOp, Box<Expr>, Box<Expr>),
    Un(UnOp, Box<Expr>),
    Call(MathFn, Vec<Expr>),
    /// Explicit numeric cast.
    Cast(ScalarKind, Box<Expr>),
    /// Conditional expression `if c { a } else { b }`.
    Select(Box<Expr>, Box<Expr>, Box<Expr>),
}

#[allow(clippy::should_implement_trait)] // add/sub/mul/div are DSL constructors, not operators
impl Expr {
    pub fn lit_f32(v: f32) -> Expr {
        Expr::Lit(Value::F32(v))
    }

    pub fn lit_f64(v: f64) -> Expr {
        Expr::Lit(Value::F64(v))
    }

    pub fn lit_i64(v: i64) -> Expr {
        Expr::Lit(Value::I64(v))
    }

    pub fn param(p: usize) -> Expr {
        Expr::Param(p)
    }

    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Add, Box::new(a), Box::new(b))
    }

    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Sub, Box::new(a), Box::new(b))
    }

    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Mul, Box::new(a), Box::new(b))
    }

    pub fn div(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Div, Box::new(a), Box::new(b))
    }

    pub fn eq(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Eq, Box::new(a), Box::new(b))
    }

    pub fn and(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::And, Box::new(a), Box::new(b))
    }

    pub fn field(e: Expr, name: impl Into<String>) -> Expr {
        Expr::Field(Box::new(e), name.into())
    }

    /// Collect the set of referenced parameter slots.
    pub fn params_used(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Param(p) => {
                if !out.contains(p) {
                    out.push(*p);
                }
            }
            Expr::Lit(_) | Expr::Var(_) => {}
            Expr::Field(e, _) | Expr::Un(_, e) | Expr::Cast(_, e) => e.params_used(out),
            Expr::ArrayIndex(a, b) | Expr::Bin(_, a, b) => {
                a.params_used(out);
                b.params_used(out);
            }
            Expr::Call(_, args) => args.iter().for_each(|a| a.params_used(out)),
            Expr::Select(c, a, b) => {
                c.params_used(out);
                a.params_used(out);
                b.params_used(out);
            }
        }
    }
}

/// A statement of the scalar-function IR.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Declare-and-initialise a local variable.
    Let { name: String, value: Expr },
    /// Assign to a local or result variable.
    Assign { name: String, value: Expr },
    If {
        cond: Expr,
        then_branch: Vec<Stmt>,
        else_branch: Vec<Stmt>,
    },
    /// A statically-bounded loop, `for var in lo..hi` (unrolled by backends).
    For {
        var: String,
        lo: i64,
        hi: i64,
        body: Vec<Stmt>,
    },
}

/// A pure scalar function: `params` (one per input access) to `results`
/// (one per output access).
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarFunction {
    pub name: String,
    pub params: Vec<(String, BasicType)>,
    pub results: Vec<(String, BasicType)>,
    pub body: Vec<Stmt>,
}

impl ScalarFunction {
    /// `f(a, b) = a * b` — the `f_mul` of the paper's MatVec example.
    pub fn mul2(name: &str, ty: ScalarKind) -> ScalarFunction {
        ScalarFunction {
            name: name.into(),
            params: vec![("a".into(), ty.into()), ("b".into(), ty.into())],
            results: vec![("res".into(), ty.into())],
            body: vec![Stmt::Assign {
                name: "res".into(),
                value: Expr::mul(Expr::Param(0), Expr::Param(1)),
            }],
        }
    }

    /// Identity function of one parameter (e.g. MBBS's per-point function).
    pub fn identity(name: &str, ty: ScalarKind) -> ScalarFunction {
        ScalarFunction {
            name: name.into(),
            params: vec![("a".into(), ty.into())],
            results: vec![("res".into(), ty.into())],
            body: vec![Stmt::Assign {
                name: "res".into(),
                value: Expr::Param(0),
            }],
        }
    }

    /// Weighted sum of `n` parameters (stencil body):
    /// `res = w_0 * p_0 + ... + w_{n-1} * p_{n-1}`.
    pub fn weighted_sum(name: &str, ty: ScalarKind, weights: &[f64]) -> ScalarFunction {
        assert!(!weights.is_empty());
        let term = |i: usize| Expr::mul(Expr::Lit(Value::from_f64(ty, weights[i])), Expr::Param(i));
        let mut e = term(0);
        for (i, _) in weights.iter().enumerate().skip(1) {
            e = Expr::add(e, term(i));
        }
        ScalarFunction {
            name: name.into(),
            params: (0..weights.len())
                .map(|i| (format!("p{i}"), ty.into()))
                .collect(),
            results: vec![("res".into(), ty.into())],
            body: vec![Stmt::Assign {
                name: "res".into(),
                value: e,
            }],
        }
    }

    /// Evaluate the function on dynamic arguments.
    pub fn eval(&self, args: &[Value]) -> Result<Vec<Value>> {
        if args.len() != self.params.len() {
            return Err(MdhError::Eval(format!(
                "scalar function '{}' expects {} args, got {}",
                self.name,
                self.params.len(),
                args.len()
            )));
        }
        let mut env: HashMap<String, Value> = HashMap::new();
        // result variables start zero-initialised (the directive's `=`-only
        // bodies always assign them, but conditionals may leave branches)
        for (name, ty) in &self.results {
            env.insert(name.clone(), ty.zero());
        }
        // named parameters are also visible by name
        for ((name, _), v) in self.params.iter().zip(args) {
            env.insert(name.clone(), v.clone());
        }
        exec_block(&self.body, args, &mut env)?;
        self.results
            .iter()
            .map(|(name, _)| {
                env.get(name).cloned().ok_or_else(|| {
                    MdhError::Eval(format!("result variable '{name}' never assigned"))
                })
            })
            .collect()
    }

    /// Structural check: every result variable is assigned somewhere, and
    /// arity invariants hold.
    pub fn validate(&self) -> Result<()> {
        for (name, _) in &self.results {
            if !block_assigns(&self.body, name) {
                return Err(MdhError::Validation(format!(
                    "scalar function '{}' never assigns result '{name}'",
                    self.name
                )));
            }
        }
        let mut used = Vec::new();
        collect_params(&self.body, &mut used);
        for p in &used {
            if *p >= self.params.len() {
                return Err(MdhError::Validation(format!(
                    "scalar function '{}' references parameter slot {p} but declares only {}",
                    self.name,
                    self.params.len()
                )));
            }
        }
        Ok(())
    }

    /// Number of floating-point-equivalent operations per invocation
    /// (rough static count, used by cost models).
    pub fn flops_estimate(&self) -> usize {
        fn expr_ops(e: &Expr) -> usize {
            match e {
                Expr::Lit(_) | Expr::Param(_) | Expr::Var(_) => 0,
                Expr::Field(e, _) | Expr::Cast(_, e) => expr_ops(e),
                Expr::Un(_, e) => 1 + expr_ops(e),
                Expr::ArrayIndex(a, b) | Expr::Bin(_, a, b) => 1 + expr_ops(a) + expr_ops(b),
                Expr::Call(_, args) => 1 + args.iter().map(expr_ops).sum::<usize>(),
                Expr::Select(c, a, b) => 1 + expr_ops(c) + expr_ops(a) + expr_ops(b),
            }
        }
        fn stmt_ops(s: &Stmt) -> usize {
            match s {
                Stmt::Let { value, .. } | Stmt::Assign { value, .. } => expr_ops(value),
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    expr_ops(cond)
                        + then_branch.iter().map(stmt_ops).sum::<usize>()
                        + else_branch.iter().map(stmt_ops).sum::<usize>()
                }
                Stmt::For { lo, hi, body, .. } => {
                    ((hi - lo).max(0) as usize) * body.iter().map(stmt_ops).sum::<usize>()
                }
            }
        }
        self.body.iter().map(stmt_ops).sum::<usize>().max(1)
    }
}

impl fmt::Display for ScalarFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps: Vec<String> = self
            .params
            .iter()
            .map(|(n, t)| format!("{n}:{t}"))
            .collect();
        let rs: Vec<String> = self
            .results
            .iter()
            .map(|(n, t)| format!("{n}:{t}"))
            .collect();
        write!(f, "{}({}) -> ({})", self.name, ps.join(", "), rs.join(", "))
    }
}

fn collect_params(body: &[Stmt], out: &mut Vec<usize>) {
    for s in body {
        match s {
            Stmt::Let { value, .. } | Stmt::Assign { value, .. } => value.params_used(out),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                cond.params_used(out);
                collect_params(then_branch, out);
                collect_params(else_branch, out);
            }
            Stmt::For { body, .. } => collect_params(body, out),
        }
    }
}

fn block_assigns(body: &[Stmt], name: &str) -> bool {
    body.iter().any(|s| match s {
        Stmt::Assign { name: n, .. } => n == name,
        Stmt::Let { name: n, .. } => n == name,
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => block_assigns(then_branch, name) || block_assigns(else_branch, name),
        Stmt::For { body, .. } => block_assigns(body, name),
    })
}

fn exec_block(body: &[Stmt], args: &[Value], env: &mut HashMap<String, Value>) -> Result<()> {
    for s in body {
        match s {
            Stmt::Let { name, value } | Stmt::Assign { name, value } => {
                let v = eval_expr(value, args, env)?;
                env.insert(name.clone(), v);
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = eval_expr(cond, args, env)?;
                let c = c
                    .as_bool()
                    .ok_or_else(|| MdhError::Eval("non-boolean condition".into()))?;
                if c {
                    exec_block(then_branch, args, env)?;
                } else {
                    exec_block(else_branch, args, env)?;
                }
            }
            Stmt::For { var, lo, hi, body } => {
                for i in *lo..*hi {
                    env.insert(var.clone(), Value::I64(i));
                    exec_block(body, args, env)?;
                }
            }
        }
    }
    Ok(())
}

/// Evaluate an expression with the given parameter values and environment.
pub fn eval_expr(e: &Expr, args: &[Value], env: &HashMap<String, Value>) -> Result<Value> {
    match e {
        Expr::Lit(v) => Ok(v.clone()),
        Expr::Param(p) => args
            .get(*p)
            .cloned()
            .ok_or_else(|| MdhError::Eval(format!("parameter slot {p} out of range"))),
        Expr::Var(name) => env
            .get(name)
            .cloned()
            .ok_or_else(|| MdhError::Eval(format!("unbound variable '{name}'"))),
        Expr::Field(e, field) => {
            let v = eval_expr(e, args, env)?;
            field_of(&v, e, field)
        }
        Expr::ArrayIndex(e, idx) => {
            let v = eval_expr(e, args, env)?;
            let i = eval_expr(idx, args, env)?
                .as_i64()
                .ok_or_else(|| MdhError::Eval("non-integer array index".into()))?;
            match v {
                Value::Array(items) => items
                    .get(i as usize)
                    .cloned()
                    .ok_or_else(|| MdhError::Eval(format!("array index {i} out of range"))),
                other => Err(MdhError::Eval(format!(
                    "indexing non-array value of kind {}",
                    other.kind_name()
                ))),
            }
        }
        Expr::Bin(op, a, b) => {
            let a = eval_expr(a, args, env)?;
            let b = eval_expr(b, args, env)?;
            eval_bin(*op, &a, &b)
        }
        Expr::Un(op, a) => {
            let a = eval_expr(a, args, env)?;
            match op {
                UnOp::Neg => {
                    if a.is_float() {
                        let v = a
                            .as_f64()
                            .ok_or_else(|| MdhError::Eval("neg of non-numeric".into()))?;
                        Ok(match a {
                            Value::F32(_) => Value::F32(-v as f32),
                            _ => Value::F64(-v),
                        })
                    } else {
                        let v = a
                            .as_i64()
                            .ok_or_else(|| MdhError::Eval("neg of non-numeric".into()))?;
                        Ok(match a {
                            Value::I32(_) => Value::I32(v.wrapping_neg() as i32),
                            _ => Value::I64(v.wrapping_neg()),
                        })
                    }
                }
                UnOp::Not => {
                    Ok(Value::Bool(!a.as_bool().ok_or_else(|| {
                        MdhError::Eval("not of non-boolean".into())
                    })?))
                }
            }
        }
        Expr::Call(f, call_args) => {
            if call_args.len() != f.arity() {
                return Err(MdhError::Eval(format!("{f:?} expects {} args", f.arity())));
            }
            let vals: Vec<Value> = call_args
                .iter()
                .map(|a| eval_expr(a, args, env))
                .collect::<Result<_>>()?;
            let x = vals[0]
                .as_f64()
                .ok_or_else(|| MdhError::Eval("math fn on non-numeric".into()))?;
            let out = match f {
                MathFn::Sqrt => x.sqrt(),
                MathFn::Exp => x.exp(),
                MathFn::Log => x.ln(),
                MathFn::Abs => x.abs(),
                MathFn::Min => x.min(vals[1].as_f64().unwrap_or(f64::NAN)),
                MathFn::Max => x.max(vals[1].as_f64().unwrap_or(f64::NAN)),
            };
            // preserve the kind of the first operand
            Ok(match &vals[0] {
                Value::F32(_) => Value::F32(out as f32),
                Value::I32(_) => Value::I32(out as i32),
                Value::I64(_) => Value::I64(out as i64),
                _ => Value::F64(out),
            })
        }
        Expr::Cast(kind, e) => {
            let v = eval_expr(e, args, env)?;
            v.cast(*kind)
                .ok_or_else(|| MdhError::Eval(format!("cannot cast {} ", v.kind_name())))
        }
        Expr::Select(c, a, b) => {
            let c = eval_expr(c, args, env)?
                .as_bool()
                .ok_or_else(|| MdhError::Eval("non-boolean select condition".into()))?;
            if c {
                eval_expr(a, args, env)
            } else {
                eval_expr(b, args, env)
            }
        }
    }
}

fn field_of(v: &Value, _src: &Expr, field: &str) -> Result<Value> {
    match v {
        Value::Record(fields) => {
            // Field resolution by position requires the record type; the
            // evaluator threads field names through a side table at the
            // view/program level. Here we support the common convention of
            // "fieldN" positional access as a fallback.
            if let Some(rest) = field.strip_prefix("field") {
                if let Ok(i) = rest.parse::<usize>() {
                    return fields.get(i).cloned().ok_or_else(|| {
                        MdhError::Eval(format!("record field index {i} out of range"))
                    });
                }
            }
            Err(MdhError::Eval(format!(
                "cannot resolve record field '{field}' without type info; \
                 use typed accessors at the program level"
            )))
        }
        other => Err(MdhError::Eval(format!(
            "field access on non-record value of kind {}",
            other.kind_name()
        ))),
    }
}

/// Evaluate a binary operation on dynamic values with numeric promotion.
pub fn eval_bin(op: BinOp, a: &Value, b: &Value) -> Result<Value> {
    if op.is_logical() {
        let (x, y) = (
            a.as_bool()
                .ok_or_else(|| MdhError::Eval("logical op on non-boolean".into()))?,
            b.as_bool()
                .ok_or_else(|| MdhError::Eval("logical op on non-boolean".into()))?,
        );
        return Ok(Value::Bool(match op {
            BinOp::And => x && y,
            BinOp::Or => x || y,
            _ => unreachable!(),
        }));
    }
    let float = a.is_float() || b.is_float();
    if op.is_comparison() {
        let r = if float {
            let (x, y) = (
                a.as_f64()
                    .ok_or_else(|| MdhError::Eval("comparison on non-numeric".into()))?,
                b.as_f64()
                    .ok_or_else(|| MdhError::Eval("comparison on non-numeric".into()))?,
            );
            match op {
                BinOp::Eq => x == y,
                BinOp::Ne => x != y,
                BinOp::Lt => x < y,
                BinOp::Le => x <= y,
                BinOp::Gt => x > y,
                BinOp::Ge => x >= y,
                _ => unreachable!(),
            }
        } else {
            let (x, y) = (
                a.as_i64()
                    .ok_or_else(|| MdhError::Eval("comparison on non-numeric".into()))?,
                b.as_i64()
                    .ok_or_else(|| MdhError::Eval("comparison on non-numeric".into()))?,
            );
            match op {
                BinOp::Eq => x == y,
                BinOp::Ne => x != y,
                BinOp::Lt => x < y,
                BinOp::Le => x <= y,
                BinOp::Gt => x > y,
                BinOp::Ge => x >= y,
                _ => unreachable!(),
            }
        };
        return Ok(Value::Bool(r));
    }
    if float {
        let (x, y) = (
            a.as_f64()
                .ok_or_else(|| MdhError::Eval("arith on non-numeric".into()))?,
            b.as_f64()
                .ok_or_else(|| MdhError::Eval("arith on non-numeric".into()))?,
        );
        let r = match op {
            BinOp::Add => x + y,
            BinOp::Sub => x - y,
            BinOp::Mul => x * y,
            BinOp::Div => x / y,
            BinOp::Rem => x % y,
            _ => unreachable!(),
        };
        // result takes the wider of the two float kinds; f32 only if both
        // operands are at most f32-precision
        let narrow = matches!(
            a,
            Value::F32(_) | Value::I32(_) | Value::Char(_) | Value::Bool(_)
        ) && matches!(
            b,
            Value::F32(_) | Value::I32(_) | Value::Char(_) | Value::Bool(_)
        );
        Ok(if narrow {
            Value::F32(r as f32)
        } else {
            Value::F64(r)
        })
    } else {
        let (x, y) = (
            a.as_i64()
                .ok_or_else(|| MdhError::Eval("arith on non-numeric".into()))?,
            b.as_i64()
                .ok_or_else(|| MdhError::Eval("arith on non-numeric".into()))?,
        );
        if matches!(op, BinOp::Div | BinOp::Rem) && y == 0 {
            return Err(MdhError::Eval("integer division by zero".into()));
        }
        let r = match op {
            BinOp::Add => x.wrapping_add(y),
            BinOp::Sub => x.wrapping_sub(y),
            BinOp::Mul => x.wrapping_mul(y),
            // wrapping like the rest: `i64::MIN / -1` must not panic
            BinOp::Div => x.wrapping_div(y),
            BinOp::Rem => x.wrapping_rem(y),
            _ => unreachable!(),
        };
        let narrow = matches!(a, Value::I32(_)) && matches!(b, Value::I32(_));
        Ok(if narrow {
            Value::I32(r as i32)
        } else {
            Value::I64(r)
        })
    }
}

/// Structural patterns the backend specialisers recognise in a scalar
/// function (our stand-in for code generation: recognised patterns execute
/// through tight native loops instead of the interpreter).
#[derive(Debug, Clone, PartialEq)]
pub enum SfPattern {
    /// `res = p_0 * p_1 * ... * p_{n-1}` — tensor-contraction body.
    ProductOfParams(Vec<usize>),
    /// `res = sum_j w_j * p_j` — stencil body.
    WeightedSum(Vec<(usize, f64)>),
    /// `res = p_0` — identity (copy / scan input).
    Identity(usize),
    /// Anything else: interpreted.
    Opaque,
}

impl ScalarFunction {
    /// Recognise the structural pattern of this function (single-result
    /// functions only; multi-result functions are always `Opaque`).
    pub fn recognize(&self) -> SfPattern {
        if self.results.len() != 1 || self.body.len() != 1 {
            return SfPattern::Opaque;
        }
        let Stmt::Assign { name, value } = &self.body[0] else {
            return SfPattern::Opaque;
        };
        if name != &self.results[0].0 {
            return SfPattern::Opaque;
        }
        if let Expr::Param(p) = value {
            return SfPattern::Identity(*p);
        }
        if let Some(ps) = as_product(value) {
            return SfPattern::ProductOfParams(ps);
        }
        if let Some(terms) = as_weighted_sum(value) {
            return SfPattern::WeightedSum(terms);
        }
        SfPattern::Opaque
    }
}

fn as_product(e: &Expr) -> Option<Vec<usize>> {
    match e {
        Expr::Param(p) => Some(vec![*p]),
        Expr::Bin(BinOp::Mul, a, b) => {
            let mut l = as_product(a)?;
            l.extend(as_product(b)?);
            Some(l)
        }
        _ => None,
    }
}

fn as_weighted_sum(e: &Expr) -> Option<Vec<(usize, f64)>> {
    match e {
        Expr::Bin(BinOp::Add, a, b) => {
            let mut l = as_weighted_sum(a)?;
            l.extend(as_weighted_sum(b)?);
            Some(l)
        }
        Expr::Bin(BinOp::Mul, a, b) => match (a.as_ref(), b.as_ref()) {
            (Expr::Lit(w), Expr::Param(p)) | (Expr::Param(p), Expr::Lit(w)) => {
                Some(vec![(*p, w.as_f64()?)])
            }
            // distribute a constant over a sum: w * (p0 + p1 + ...)
            (Expr::Lit(w), inner) | (inner, Expr::Lit(w)) => {
                let w = w.as_f64()?;
                let terms = as_weighted_sum(inner)?;
                Some(terms.into_iter().map(|(p, c)| (p, c * w)).collect())
            }
            _ => None,
        },
        Expr::Param(p) => Some(vec![(*p, 1.0)]),
        _ => None,
    }
}

impl ScalarFunction {
    /// Append the function with its parameters and results renamed
    /// positionally (`p<i>`, `r<i>`) and its name left out: what the
    /// function computes as written, and nothing of what it is called.
    /// The plan key renders a scalar function and a custom combine
    /// function this way, and the VM tells two combine functions apart by
    /// it.
    pub fn render_positional(&self, out: &mut String) {
        use std::fmt::Write as _;
        let mut rename: HashMap<&str, String> = HashMap::new();
        for (i, (name, ty)) in self.params.iter().enumerate() {
            rename.insert(name.as_str(), format!("p{i}"));
            ty.render(out);
            out.push(',');
        }
        out.push_str("->");
        for (i, (name, ty)) in self.results.iter().enumerate() {
            rename.insert(name.as_str(), format!("r{i}"));
            ty.render(out);
            out.push(',');
        }
        let body: Vec<Stmt> = self.body.iter().map(|s| rename_stmt(s, &rename)).collect();
        let _ = write!(out, "{body:?}");
    }
}

fn rename_stmt(s: &Stmt, map: &HashMap<&str, String>) -> Stmt {
    let fix = |n: &String| map.get(n.as_str()).cloned().unwrap_or_else(|| n.clone());
    match s {
        Stmt::Let { name, value } => Stmt::Let {
            name: fix(name),
            value: rename_expr(value, map),
        },
        Stmt::Assign { name, value } => Stmt::Assign {
            name: fix(name),
            value: rename_expr(value, map),
        },
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => Stmt::If {
            cond: rename_expr(cond, map),
            then_branch: then_branch.iter().map(|s| rename_stmt(s, map)).collect(),
            else_branch: else_branch.iter().map(|s| rename_stmt(s, map)).collect(),
        },
        Stmt::For { var, lo, hi, body } => Stmt::For {
            var: fix(var),
            lo: *lo,
            hi: *hi,
            body: body.iter().map(|s| rename_stmt(s, map)).collect(),
        },
    }
}

fn rename_expr(e: &Expr, map: &HashMap<&str, String>) -> Expr {
    match e {
        Expr::Lit(_) | Expr::Param(_) => e.clone(),
        Expr::Var(n) => Expr::Var(map.get(n.as_str()).cloned().unwrap_or_else(|| n.clone())),
        Expr::Field(inner, f) => Expr::Field(Box::new(rename_expr(inner, map)), f.clone()),
        Expr::ArrayIndex(a, b) => {
            Expr::ArrayIndex(Box::new(rename_expr(a, map)), Box::new(rename_expr(b, map)))
        }
        Expr::Bin(op, a, b) => Expr::Bin(
            *op,
            Box::new(rename_expr(a, map)),
            Box::new(rename_expr(b, map)),
        ),
        Expr::Un(op, a) => Expr::Un(*op, Box::new(rename_expr(a, map))),
        Expr::Call(f, args) => Expr::Call(*f, args.iter().map(|a| rename_expr(a, map)).collect()),
        Expr::Cast(k, a) => Expr::Cast(*k, Box::new(rename_expr(a, map))),
        Expr::Select(c, a, b) => Expr::Select(
            Box::new(rename_expr(c, map)),
            Box::new(rename_expr(a, map)),
            Box::new(rename_expr(b, map)),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul2_evaluates() {
        let f = ScalarFunction::mul2("f_mul", ScalarKind::F32);
        f.validate().unwrap();
        let out = f.eval(&[Value::F32(3.0), Value::F32(4.0)]).unwrap();
        assert_eq!(out, vec![Value::F32(12.0)]);
        assert_eq!(f.recognize(), SfPattern::ProductOfParams(vec![0, 1]));
    }

    #[test]
    fn weighted_sum_pattern() {
        let f = ScalarFunction::weighted_sum("jacobi", ScalarKind::F32, &[0.25, 0.5, 0.25]);
        let out = f
            .eval(&[Value::F32(1.0), Value::F32(2.0), Value::F32(3.0)])
            .unwrap();
        assert_eq!(out, vec![Value::F32(0.25 + 1.0 + 0.75)]);
        match f.recognize() {
            SfPattern::WeightedSum(terms) => {
                assert_eq!(terms.len(), 3);
                assert_eq!(terms[1], (1, 0.5));
            }
            other => panic!("expected weighted sum, got {other:?}"),
        }
    }

    #[test]
    fn identity_pattern() {
        let f = ScalarFunction::identity("id", ScalarKind::F64);
        assert_eq!(f.recognize(), SfPattern::Identity(0));
    }

    #[test]
    fn conditional_and_locals() {
        // res = if a > b { a } else { b } via statements
        let f = ScalarFunction {
            name: "max2".into(),
            params: vec![("a".into(), BasicType::F64), ("b".into(), BasicType::F64)],
            results: vec![("res".into(), BasicType::F64)],
            body: vec![Stmt::If {
                cond: Expr::Bin(
                    BinOp::Gt,
                    Box::new(Expr::Param(0)),
                    Box::new(Expr::Param(1)),
                ),
                then_branch: vec![Stmt::Assign {
                    name: "res".into(),
                    value: Expr::Param(0),
                }],
                else_branch: vec![Stmt::Assign {
                    name: "res".into(),
                    value: Expr::Param(1),
                }],
            }],
        };
        f.validate().unwrap();
        assert_eq!(
            f.eval(&[Value::F64(2.0), Value::F64(5.0)]).unwrap(),
            vec![Value::F64(5.0)]
        );
        assert_eq!(f.recognize(), SfPattern::Opaque);
    }

    #[test]
    fn static_loop_unrolls_semantics() {
        // res = sum_{j=0}^{3} j  (uses loop var)
        let f = ScalarFunction {
            name: "sumj".into(),
            params: vec![],
            results: vec![("res".into(), BasicType::I64)],
            body: vec![
                Stmt::Assign {
                    name: "res".into(),
                    value: Expr::lit_i64(0),
                },
                Stmt::For {
                    var: "j".into(),
                    lo: 0,
                    hi: 4,
                    body: vec![Stmt::Assign {
                        name: "res".into(),
                        value: Expr::add(Expr::var("res"), Expr::var("j")),
                    }],
                },
            ],
        };
        assert_eq!(f.eval(&[]).unwrap(), vec![Value::I64(6)]);
    }

    #[test]
    fn validate_rejects_unassigned_result() {
        let f = ScalarFunction {
            name: "bad".into(),
            params: vec![],
            results: vec![("res".into(), BasicType::F32)],
            body: vec![],
        };
        assert!(f.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_param_slot() {
        let f = ScalarFunction {
            name: "bad".into(),
            params: vec![("a".into(), BasicType::F32)],
            results: vec![("res".into(), BasicType::F32)],
            body: vec![Stmt::Assign {
                name: "res".into(),
                value: Expr::Param(3),
            }],
        };
        assert!(f.validate().is_err());
    }

    #[test]
    fn numeric_promotion() {
        assert_eq!(
            eval_bin(BinOp::Add, &Value::I32(1), &Value::F64(2.5)).unwrap(),
            Value::F64(3.5)
        );
        assert_eq!(
            eval_bin(BinOp::Mul, &Value::F32(2.0), &Value::F32(3.0)).unwrap(),
            Value::F32(6.0)
        );
        assert_eq!(
            eval_bin(BinOp::Add, &Value::I32(1), &Value::I32(2)).unwrap(),
            Value::I32(3)
        );
        assert!(eval_bin(BinOp::Div, &Value::I64(1), &Value::I64(0)).is_err());
    }

    #[test]
    fn math_fns() {
        let f = ScalarFunction {
            name: "m".into(),
            params: vec![("a".into(), BasicType::F64)],
            results: vec![("res".into(), BasicType::F64)],
            body: vec![Stmt::Assign {
                name: "res".into(),
                value: Expr::Call(MathFn::Sqrt, vec![Expr::Param(0)]),
            }],
        };
        assert_eq!(f.eval(&[Value::F64(9.0)]).unwrap(), vec![Value::F64(3.0)]);
    }

    #[test]
    fn flops_estimate_counts() {
        let f = ScalarFunction::mul2("f", ScalarKind::F32);
        assert_eq!(f.flops_estimate(), 1);
        let g = ScalarFunction::weighted_sum("g", ScalarKind::F32, &[1.0, 2.0, 3.0]);
        assert_eq!(g.flops_estimate(), 5); // 3 muls + 2 adds
    }
}
