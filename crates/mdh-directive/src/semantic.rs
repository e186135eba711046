//! Semantic analysis of a parsed directive.
//!
//! This module extracts from the annotated loop nest everything the
//! directive-to-DSL transformation (Figures 1 and 2 of the paper) needs:
//!
//! * the iteration space — loop variables and their sizes,
//! * per-buffer *accesses* — affine index functions from iteration
//!   variables to buffer coordinates,
//! * the *scalar function* SF — the loop body with buffer loads replaced
//!   by parameter slots and buffer stores replaced by result slots,
//! * resolved combine operators (builtin or looked up in the
//!   [`DirectiveEnv`]).
//!
//! It also enforces the directive's contract: a perfect loop nest, one
//! combine operator per loop, pure `=`-only stores (a `+=` gets the
//! paper's guidance as an error message), and affine index expressions.

use crate::ast::*;
use mdh_core::combine::{BuiltinReduce, CombineOp, PwFunc};
use mdh_core::error::{MdhError, Result};
use mdh_core::expr::{BinOp, Expr, MathFn, ScalarFunction, Stmt, UnOp};
use mdh_core::index_fn::{AffineExpr, IndexFn};
use mdh_core::types::{BasicType, RecordType, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// A fully-analysed directive, ready for DSL construction.
#[derive(Debug, Clone)]
pub struct AnalyzedDirective {
    pub name: String,
    pub loop_vars: Vec<String>,
    pub sizes: Vec<usize>,
    pub combine_ops: Vec<CombineOp>,
    /// `(name, type, declared shape)` per output buffer.
    pub out_buffers: Vec<(String, BasicType, Option<Vec<usize>>)>,
    /// `(name, type, declared shape)` per input buffer.
    pub inp_buffers: Vec<(String, BasicType, Option<Vec<usize>>)>,
    /// Output accesses in result-slot order: `(buffer index, index fn)`.
    pub out_accesses: Vec<(usize, IndexFn)>,
    /// Input accesses in parameter-slot order.
    pub inp_accesses: Vec<(usize, IndexFn)>,
    pub sf: ScalarFunction,
}

/// Analyse a parsed directive against host bindings.
pub fn analyze(ast: &DirectiveAst, env: &DirectiveEnv) -> Result<AnalyzedDirective> {
    // --- resolve buffer declarations -----------------------------------
    let out_buffers = resolve_buffers(&ast.out, env)?;
    let inp_buffers = resolve_buffers(&ast.inp, env)?;
    for spec in ast.out.iter().chain(&ast.inp) {
        let count = ast
            .out
            .iter()
            .chain(&ast.inp)
            .filter(|s| s.name == spec.name)
            .count();
        if count > 1 {
            return Err(err(
                spec.line,
                format!("duplicate buffer name '{}'", spec.name),
            ));
        }
    }

    // --- extract the perfect loop nest ---------------------------------
    let mut loop_vars = Vec::new();
    let mut sizes = Vec::new();
    let mut stmts: &[SurfaceStmt] = &ast.body;
    loop {
        match stmts {
            [SurfaceStmt::For {
                var,
                count,
                body,
                line,
            }] => {
                if loop_vars.contains(var) {
                    return Err(err(*line, format!("loop variable '{var}' reused")));
                }
                if env.sizes.contains_key(var) {
                    return Err(err(
                        *line,
                        format!("loop variable '{var}' shadows a size parameter"),
                    ));
                }
                let n = eval_const(count, env).ok_or_else(|| {
                    err(
                        *line,
                        "loop bound must be a constant expression over size parameters".to_string(),
                    )
                })?;
                if n < 0 {
                    return Err(err(*line, format!("negative loop bound {n}")));
                }
                loop_vars.push(var.clone());
                sizes.push(n as usize);
                stmts = body;
            }
            body => {
                // innermost block must contain no further loops: the
                // directive targets *perfect* loop nests (Sec. 4.2)
                if let Some(SurfaceStmt::For { line, .. }) =
                    body.iter().find(|s| matches!(s, SurfaceStmt::For { .. }))
                {
                    return Err(err(
                        *line,
                        "imperfect loop nest: a for-loop appears next to other statements; \
                         the MDH directive targets perfect loop nests"
                            .to_string(),
                    ));
                }
                break;
            }
        }
    }
    if loop_vars.is_empty() {
        return Err(err(
            ast.line,
            "directive body must contain a loop nest".into(),
        ));
    }

    // --- resolve combine operators --------------------------------------
    if ast.combine_ops.len() != loop_vars.len() {
        return Err(err(
            ast.line,
            format!(
                "combine_ops lists {} operators but the loop nest has depth {}: \
                 each loop level must be associated with a combine operator",
                ast.combine_ops.len(),
                loop_vars.len()
            ),
        ));
    }
    let combine_ops: Vec<CombineOp> = ast
        .combine_ops
        .iter()
        .map(|spec| resolve_combine_op(spec, env, ast.line))
        .collect::<Result<_>>()?;

    // --- translate the innermost body into the scalar function ----------
    let mut cx = BodyCx {
        env,
        loop_vars: &loop_vars,
        out_buffers: &out_buffers,
        inp_buffers: &inp_buffers,
        inp_accesses: Vec::new(),
        out_accesses: Vec::new(),
        params: Vec::new(),
        results: Vec::new(),
        locals: HashMap::new(),
    };
    let body = cx.translate_block(stmts)?;
    if cx.out_accesses.is_empty() {
        return Err(err(
            ast.line,
            "loop body never stores to an output buffer".to_string(),
        ));
    }
    // every declared output buffer must be written
    for (b, (name, _, _)) in out_buffers.iter().enumerate() {
        if !cx.out_accesses.iter().any(|(bb, _)| *bb == b) {
            return Err(err(
                ast.line,
                format!("output buffer '{name}' is never written in the loop body"),
            ));
        }
    }

    let BodyCx {
        params,
        results,
        out_accesses,
        inp_accesses,
        ..
    } = cx;
    let sf = ScalarFunction {
        name: format!("{}__sf", ast.name),
        params,
        results,
        body,
    };
    sf.validate()?;

    Ok(AnalyzedDirective {
        name: ast.name.clone(),
        loop_vars,
        sizes,
        combine_ops,
        out_buffers,
        inp_buffers,
        out_accesses,
        inp_accesses,
        sf,
    })
}

fn err(line: usize, message: String) -> MdhError {
    MdhError::Parse {
        line,
        col: 1,
        message,
    }
}

/// A resolved buffer declaration: `(name, element type, declared shape)`.
pub type ResolvedBuffer = (String, BasicType, Option<Vec<usize>>);

fn resolve_buffers(specs: &[BufferSpec], env: &DirectiveEnv) -> Result<Vec<ResolvedBuffer>> {
    specs
        .iter()
        .map(|s| {
            let ty = resolve_type(&s.ty_name, env)
                .ok_or_else(|| err(s.line, format!("unknown type '{}'", s.ty_name)))?;
            let shape = match &s.shape {
                None => None,
                Some(dims) => Some(
                    dims.iter()
                        .map(|d| {
                            eval_const(d, env)
                                .filter(|&v| v >= 0)
                                .map(|v| v as usize)
                                .ok_or_else(|| {
                                    err(
                                        s.line,
                                        format!(
                                            "buffer '{}': shape must be a constant \
                                             expression over size parameters",
                                            s.name
                                        ),
                                    )
                                })
                        })
                        .collect::<Result<Vec<usize>>>()?,
                ),
            };
            Ok((s.name.clone(), ty, shape))
        })
        .collect()
}

/// Resolve a type name to a basic type: builtin scalars or a record from
/// the environment.
pub fn resolve_type(name: &str, env: &DirectiveEnv) -> Option<BasicType> {
    match name {
        "fp32" | "float" => Some(BasicType::F32),
        "fp64" | "double" => Some(BasicType::F64),
        "int32" => Some(BasicType::I32),
        "int64" | "int" => Some(BasicType::I64),
        "bool" => Some(BasicType::BOOL),
        "char" => Some(BasicType::CHAR),
        other => env.records.get(other).cloned().map(BasicType::Record),
    }
}

fn resolve_combine_op(spec: &CombineOpSpec, env: &DirectiveEnv, line: usize) -> Result<CombineOp> {
    let resolve_fn = |name: &str| -> Result<PwFunc> {
        match name {
            "add" => Ok(PwFunc::builtin(BuiltinReduce::Add)),
            "mul" => Ok(PwFunc::builtin(BuiltinReduce::Mul)),
            "max" => Ok(PwFunc::builtin(BuiltinReduce::Max)),
            "min" => Ok(PwFunc::builtin(BuiltinReduce::Min)),
            custom => env.combine_fns.get(custom).cloned().ok_or_else(|| {
                err(
                    line,
                    format!(
                        "unknown combine function '{custom}': register it in the \
                         DirectiveEnv with @pw_custom_func semantics"
                    ),
                )
            }),
        }
    };
    Ok(match spec {
        CombineOpSpec::Cc => CombineOp::Cc,
        CombineOpSpec::Pw(f) => CombineOp::Pw(resolve_fn(f)?),
        CombineOpSpec::Ps(f) => CombineOp::Ps(resolve_fn(f)?),
        CombineOpSpec::Rbi(f) => {
            if f != "add" {
                return Err(err(
                    line,
                    format!("rbi only supports the builtin 'add' operator, got '{f}'"),
                ));
            }
            CombineOp::rbi_add()
        }
    })
}

/// Evaluate a constant surface expression over size parameters.
pub fn eval_const(e: &SurfaceExpr, env: &DirectiveEnv) -> Option<i64> {
    match e {
        SurfaceExpr::Int(v) => Some(*v),
        SurfaceExpr::Name(n) => env.sizes.get(n).copied(),
        SurfaceExpr::Bin(op, a, b) => {
            let (a, b) = (eval_const(a, env)?, eval_const(b, env)?);
            // checked arithmetic throughout: directive sources are
            // untrusted input, and an i64::MAX size binding must become a
            // "not a constant" miss (and then a validation error), never
            // an overflow panic
            match op {
                SurfBinOp::Add => a.checked_add(b),
                SurfBinOp::Sub => a.checked_sub(b),
                SurfBinOp::Mul => a.checked_mul(b),
                SurfBinOp::Div => a.checked_div(b),
                SurfBinOp::Mod => a.checked_rem(b),
                _ => None,
            }
        }
        SurfaceExpr::Un(SurfUnOp::Neg, a) => eval_const(a, env)?.checked_neg(),
        _ => None,
    }
}

struct BodyCx<'a> {
    env: &'a DirectiveEnv,
    loop_vars: &'a [String],
    out_buffers: &'a [(String, BasicType, Option<Vec<usize>>)],
    inp_buffers: &'a [(String, BasicType, Option<Vec<usize>>)],
    inp_accesses: Vec<(usize, IndexFn)>,
    out_accesses: Vec<(usize, IndexFn)>,
    params: Vec<(String, BasicType)>,
    results: Vec<(String, BasicType)>,
    locals: HashMap<String, ()>,
}

impl<'a> BodyCx<'a> {
    fn out_index(&self, name: &str) -> Option<usize> {
        self.out_buffers.iter().position(|(n, _, _)| n == name)
    }

    fn inp_index(&self, name: &str) -> Option<usize> {
        self.inp_buffers.iter().position(|(n, _, _)| n == name)
    }

    fn translate_block(&mut self, stmts: &[SurfaceStmt]) -> Result<Vec<Stmt>> {
        let mut out = Vec::new();
        for s in stmts {
            match s {
                SurfaceStmt::AugAssign { target, line } => {
                    let tname = match target {
                        AssignTarget::Name(n) => n.clone(),
                        AssignTarget::Subscript(n, _) => n.clone(),
                    };
                    return Err(err(
                        *line,
                        format!(
                            "'+=' on '{tname}': the MDH directive expresses reductions \
                             through combine_ops(...), not in the loop body — compute a \
                             single iteration-space point with '=' and declare the \
                             reduction operator on the corresponding loop dimension"
                        ),
                    ));
                }
                SurfaceStmt::Decl {
                    name,
                    ty_name,
                    line,
                } => {
                    let ty = resolve_type(ty_name, self.env)
                        .ok_or_else(|| err(*line, format!("unknown type '{ty_name}'")))?;
                    self.locals.insert(name.clone(), ());
                    out.push(Stmt::Let {
                        name: name.clone(),
                        value: Expr::Lit(ty.zero()),
                    });
                }
                SurfaceStmt::Assign {
                    target,
                    value,
                    line,
                } => match target {
                    AssignTarget::Name(name) => {
                        if self.out_index(name).is_some() || self.inp_index(name).is_some() {
                            return Err(err(
                                *line,
                                format!(
                                    "assignment to buffer '{name}' without subscript; \
                                     buffers are stored to element-wise"
                                ),
                            ));
                        }
                        let v = self.translate_expr(value, *line)?;
                        self.locals.insert(name.clone(), ());
                        out.push(Stmt::Assign {
                            name: name.clone(),
                            value: v,
                        });
                    }
                    AssignTarget::Subscript(name, indices) => {
                        let Some(b) = self.out_index(name) else {
                            if self.inp_index(name).is_some() {
                                return Err(err(*line, format!("store to input buffer '{name}'")));
                            }
                            return Err(err(*line, format!("unknown buffer '{name}'")));
                        };
                        let ifn = self.affine_index_fn(indices, *line)?;
                        let slot = self.result_slot(b, ifn);
                        let v = self.translate_expr(value, *line)?;
                        out.push(Stmt::Assign {
                            name: self.results[slot].0.clone(),
                            value: v,
                        });
                    }
                },
                SurfaceStmt::If {
                    cond,
                    then_branch,
                    else_branch,
                    line,
                } => {
                    let c = self.translate_expr(cond, *line)?;
                    let t = self.translate_block(then_branch)?;
                    let e = if else_branch.is_empty() {
                        Vec::new()
                    } else {
                        self.translate_block(else_branch)?
                    };
                    out.push(Stmt::If {
                        cond: c,
                        then_branch: t,
                        else_branch: e,
                    });
                }
                SurfaceStmt::For { line, .. } => {
                    return Err(err(
                        *line,
                        "nested for-loop inside the innermost body: the MDH directive \
                         targets perfect loop nests"
                            .to_string(),
                    ));
                }
            }
        }
        Ok(out)
    }

    /// Deduplicated result slot for an output access.
    fn result_slot(&mut self, buffer: usize, ifn: IndexFn) -> usize {
        if let Some(i) = self
            .out_accesses
            .iter()
            .position(|(b, f)| *b == buffer && *f == ifn)
        {
            return i;
        }
        let i = self.out_accesses.len();
        self.out_accesses.push((buffer, ifn));
        let (name, ty, _) = &self.out_buffers[buffer];
        self.results.push((format!("res_{name}_{i}"), ty.clone()));
        i
    }

    /// Deduplicated parameter slot for an input access.
    fn param_slot(&mut self, buffer: usize, ifn: IndexFn) -> usize {
        if let Some(i) = self
            .inp_accesses
            .iter()
            .position(|(b, f)| *b == buffer && *f == ifn)
        {
            return i;
        }
        let i = self.inp_accesses.len();
        self.inp_accesses.push((buffer, ifn));
        let (name, ty, _) = &self.inp_buffers[buffer];
        self.params.push((format!("arg_{name}_{i}"), ty.clone()));
        i
    }

    /// Convert surface index expressions to an affine index function.
    fn affine_index_fn(&self, indices: &[SurfaceExpr], line: usize) -> Result<IndexFn> {
        let exprs: Vec<AffineExpr> = indices
            .iter()
            .map(|e| self.affine_expr(e, line))
            .collect::<Result<_>>()?;
        Ok(IndexFn::Affine(exprs))
    }

    fn affine_expr(&self, e: &SurfaceExpr, line: usize) -> Result<AffineExpr> {
        let rank = self.loop_vars.len();
        match e {
            SurfaceExpr::Int(v) => Ok(AffineExpr::constant(rank, *v)),
            SurfaceExpr::Name(n) => {
                if let Some(d) = self.loop_vars.iter().position(|v| v == n) {
                    Ok(AffineExpr::var(rank, d))
                } else if let Some(&v) = self.env.sizes.get(n) {
                    Ok(AffineExpr::constant(rank, v))
                } else {
                    Err(err(line, format!("unknown name '{n}' in index expression")))
                }
            }
            SurfaceExpr::Bin(op, a, b) => {
                let a = self.affine_expr(a, line)?;
                let b = self.affine_expr(b, line)?;
                match op {
                    SurfBinOp::Add => Ok(AffineExpr {
                        coeffs: a.coeffs.iter().zip(&b.coeffs).map(|(x, y)| x + y).collect(),
                        constant: a.constant + b.constant,
                    }),
                    SurfBinOp::Sub => Ok(AffineExpr {
                        coeffs: a.coeffs.iter().zip(&b.coeffs).map(|(x, y)| x - y).collect(),
                        constant: a.constant - b.constant,
                    }),
                    SurfBinOp::Mul => {
                        // one side must be constant for affinity
                        let (c, v) = if a.coeffs.iter().all(|&c| c == 0) {
                            (a.constant, b)
                        } else if b.coeffs.iter().all(|&c| c == 0) {
                            (b.constant, a)
                        } else {
                            return Err(err(
                                line,
                                "non-affine index expression: product of two \
                                 iteration variables"
                                    .to_string(),
                            ));
                        };
                        Ok(AffineExpr {
                            coeffs: v.coeffs.iter().map(|x| x * c).collect(),
                            constant: v.constant * c,
                        })
                    }
                    _ => Err(err(
                        line,
                        "non-affine index expression: only +, -, and scaling by \
                         constants are allowed"
                            .to_string(),
                    )),
                }
            }
            SurfaceExpr::Un(SurfUnOp::Neg, a) => {
                let a = self.affine_expr(a, line)?;
                Ok(AffineExpr {
                    coeffs: a.coeffs.iter().map(|x| -x).collect(),
                    constant: -a.constant,
                })
            }
            _ => Err(err(line, "non-affine index expression".to_string())),
        }
    }

    /// Translate a surface value expression into the scalar-function IR.
    fn translate_expr(&mut self, e: &SurfaceExpr, line: usize) -> Result<Expr> {
        match e {
            SurfaceExpr::Int(v) => Ok(Expr::Lit(Value::I64(*v))),
            SurfaceExpr::Float(v) => Ok(Expr::Lit(Value::F64(*v))),
            SurfaceExpr::Str(_) => Err(err(
                line,
                "string literals are only valid as record field selectors".to_string(),
            )),
            SurfaceExpr::Name(n) => {
                if self.locals.contains_key(n) {
                    Ok(Expr::Var(n.clone()))
                } else if let Some(&v) = self.env.sizes.get(n) {
                    Ok(Expr::Lit(Value::I64(v)))
                } else if self.loop_vars.contains(n) {
                    Err(err(
                        line,
                        format!(
                            "loop variable '{n}' used as a value: the scalar function \
                             depends only on buffer elements in the MDH formalism; \
                             read it through an index buffer instead"
                        ),
                    ))
                } else if self.inp_index(n).is_some() || self.out_index(n).is_some() {
                    Err(err(line, format!("buffer '{n}' used without subscript")))
                } else {
                    Err(err(line, format!("unknown name '{n}'")))
                }
            }
            SurfaceExpr::Subscript(base, indices) => {
                // buffer load?
                if let SurfaceExpr::Name(name) = base.as_ref() {
                    if let Some(b) = self.inp_index(name) {
                        let ifn = self.affine_index_fn(indices, line)?;
                        let slot = self.param_slot(b, ifn);
                        return Ok(Expr::Param(slot));
                    }
                    if self.out_index(name).is_some() {
                        return Err(err(
                            line,
                            format!(
                                "read of output buffer '{name}' in the loop body: the \
                                 scalar function maps inputs to outputs; aggregation \
                                 happens through combine_ops"
                            ),
                        ));
                    }
                }
                // record field by string: base['field'] — or array index
                let base_expr = self.translate_expr(base, line)?;
                if indices.len() == 1 {
                    if let SurfaceExpr::Str(field) = &indices[0] {
                        return self.record_field(base_expr, base, field, line);
                    }
                    let idx = self.translate_expr(&indices[0], line)?;
                    return Ok(Expr::ArrayIndex(Box::new(base_expr), Box::new(idx)));
                }
                Err(err(line, "unsupported subscript expression".to_string()))
            }
            SurfaceExpr::Attr(base, field) => {
                let base_expr = self.translate_expr(base, line)?;
                self.record_field(base_expr, base, field, line)
            }
            SurfaceExpr::Bin(op, a, b) => {
                let a = self.translate_expr(a, line)?;
                let b = self.translate_expr(b, line)?;
                let op = match op {
                    SurfBinOp::Add => BinOp::Add,
                    SurfBinOp::Sub => BinOp::Sub,
                    SurfBinOp::Mul => BinOp::Mul,
                    SurfBinOp::Div => BinOp::Div,
                    SurfBinOp::Mod => BinOp::Rem,
                    SurfBinOp::Eq => BinOp::Eq,
                    SurfBinOp::Ne => BinOp::Ne,
                    SurfBinOp::Lt => BinOp::Lt,
                    SurfBinOp::Le => BinOp::Le,
                    SurfBinOp::Gt => BinOp::Gt,
                    SurfBinOp::Ge => BinOp::Ge,
                    SurfBinOp::And => BinOp::And,
                    SurfBinOp::Or => BinOp::Or,
                };
                Ok(Expr::Bin(op, Box::new(a), Box::new(b)))
            }
            SurfaceExpr::Un(op, a) => {
                let a = self.translate_expr(a, line)?;
                Ok(Expr::Un(
                    match op {
                        SurfUnOp::Neg => UnOp::Neg,
                        SurfUnOp::Not => UnOp::Not,
                    },
                    Box::new(a),
                ))
            }
            SurfaceExpr::Call(f, args) => {
                let mf = match f.as_str() {
                    "sqrt" => MathFn::Sqrt,
                    "exp" => MathFn::Exp,
                    "log" => MathFn::Log,
                    "abs" => MathFn::Abs,
                    "min" => MathFn::Min,
                    "max" => MathFn::Max,
                    other => return Err(err(line, format!("unknown function '{other}'"))),
                };
                if args.len() != mf.arity() {
                    return Err(err(line, format!("'{f}' expects {} arguments", mf.arity())));
                }
                let args = args
                    .iter()
                    .map(|a| self.translate_expr(a, line))
                    .collect::<Result<_>>()?;
                Ok(Expr::Call(mf, args))
            }
        }
    }

    /// Resolve a record field access by name into a positional access the
    /// core evaluator understands.
    fn record_field(
        &mut self,
        base_expr: Expr,
        base_surface: &SurfaceExpr,
        field: &str,
        line: usize,
    ) -> Result<Expr> {
        let rec = self
            .record_type_of(base_surface)
            .ok_or_else(|| err(line, format!("field access '.{field}' on non-record value")))?;
        let pos = rec.field_index(field).ok_or_else(|| {
            err(
                line,
                format!("record '{}' has no field '{field}'", rec.name),
            )
        })?;
        Ok(Expr::Field(Box::new(base_expr), format!("field{pos}")))
    }

    /// Record type of a surface expression, if it denotes a record-typed
    /// buffer load.
    fn record_type_of(&self, e: &SurfaceExpr) -> Option<Arc<RecordType>> {
        if let SurfaceExpr::Subscript(base, _) = e {
            if let SurfaceExpr::Name(name) = base.as_ref() {
                let ty = self
                    .inp_index(name)
                    .map(|b| &self.inp_buffers[b].1)
                    .or_else(|| self.out_index(name).map(|b| &self.out_buffers[b].1))?;
                if let BasicType::Record(r) = ty {
                    return Some(r.clone());
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use mdh_core::combine::DimBehavior;

    fn env_ik() -> DirectiveEnv {
        DirectiveEnv::new().size("I", 4).size("K", 5)
    }

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
    fn analyzes_matvec() {
        let ast = parse(MATVEC).unwrap();
        let a = analyze(&ast, &env_ik()).unwrap();
        assert_eq!(a.loop_vars, vec!["i", "k"]);
        assert_eq!(a.sizes, vec![4, 5]);
        assert_eq!(a.combine_ops.len(), 2);
        assert_eq!(a.combine_ops[0].behavior(), DimBehavior::Preserve);
        assert_eq!(a.combine_ops[1].behavior(), DimBehavior::Collapse);
        assert_eq!(a.out_accesses.len(), 1);
        assert_eq!(a.inp_accesses.len(), 2);
        assert_eq!(a.sf.params.len(), 2);
        // M access is (i,k) -> (i,k)
        assert_eq!(a.inp_accesses[0].1, IndexFn::identity(2, 2));
        // v access is (i,k) -> (k)
        assert_eq!(a.inp_accesses[1].1, IndexFn::select(2, &[1]));
    }

    #[test]
    fn plus_equals_gets_design_guidance() {
        let src = "\
@mdh( out( w = Buffer[fp32] ),
      inp( M = Buffer[fp32], v = Buffer[fp32] ),
      combine_ops( cc, pw(add) ) )
def matvec(w, M, v):
    for i in range(I):
        for k in range(K):
            w[i] += M[i, k] * v[k]
";
        let ast = parse(src).unwrap();
        let e = analyze(&ast, &env_ik()).unwrap_err();
        assert!(e.to_string().contains("combine_ops"), "{e}");
    }

    #[test]
    fn combine_op_count_mismatch() {
        let src = "\
@mdh( out( w = Buffer[fp32] ),
      inp( M = Buffer[fp32], v = Buffer[fp32] ),
      combine_ops( cc ) )
def matvec(w, M, v):
    for i in range(I):
        for k in range(K):
            w[i] = M[i, k] * v[k]
";
        let ast = parse(src).unwrap();
        let e = analyze(&ast, &env_ik()).unwrap_err();
        assert!(e.to_string().contains("depth"), "{e}");
    }

    #[test]
    fn imperfect_nest_rejected() {
        let src = "\
@mdh( out( w = Buffer[fp32] ),
      inp( M = Buffer[fp32], v = Buffer[fp32] ),
      combine_ops( cc, pw(add) ) )
def f(w, M, v):
    for i in range(I):
        w[i] = v[i]
        for k in range(K):
            w[i] = M[i, k] * v[k]
";
        let ast = parse(src).unwrap();
        let e = analyze(&ast, &env_ik()).unwrap_err();
        assert!(e.to_string().contains("perfect"), "{e}");
    }

    #[test]
    fn reading_output_rejected() {
        let src = "\
@mdh( out( w = Buffer[fp32] ),
      inp( v = Buffer[fp32] ),
      combine_ops( cc ) )
def f(w, v):
    for i in range(I):
        w[i] = w[i] * v[i]
";
        let ast = parse(src).unwrap();
        let e = analyze(&ast, &env_ik()).unwrap_err();
        assert!(e.to_string().contains("read of output"), "{e}");
    }

    #[test]
    fn stencil_multi_access_dedup() {
        let src = "\
@mdh( out( y = Buffer[fp32] ),
      inp( x = Buffer[fp32] ),
      combine_ops( cc ) )
def jacobi1d(y, x):
    for i in range(I):
        y[i] = 0.33 * (x[i] + x[i+1] + x[i+2])
";
        let ast = parse(src).unwrap();
        let a = analyze(&ast, &DirectiveEnv::new().size("I", 8)).unwrap();
        assert_eq!(a.inp_accesses.len(), 3, "three distinct stencil accesses");
        assert_eq!(a.sf.params.len(), 3);
    }

    #[test]
    fn repeated_access_shares_param_slot() {
        let src = "\
@mdh( out( y = Buffer[fp32] ),
      inp( x = Buffer[fp32] ),
      combine_ops( cc ) )
def sq(y, x):
    for i in range(I):
        y[i] = x[i] * x[i]
";
        let ast = parse(src).unwrap();
        let a = analyze(&ast, &DirectiveEnv::new().size("I", 8)).unwrap();
        assert_eq!(a.inp_accesses.len(), 1, "same access deduplicated");
    }

    #[test]
    fn strided_store_access() {
        let src = "\
@mdh( out( y = Buffer[fp32] ),
      inp( x = Buffer[fp32] ),
      combine_ops( cc ) )
def strided(y, x):
    for i in range(I):
        y[2*i + 1] = x[i]
";
        let ast = parse(src).unwrap();
        let a = analyze(&ast, &DirectiveEnv::new().size("I", 8)).unwrap();
        let IndexFn::Affine(exprs) = &a.out_accesses[0].1 else {
            panic!()
        };
        assert_eq!(exprs[0], AffineExpr::new(vec![2], 1));
    }

    #[test]
    fn nonaffine_index_rejected() {
        let src = "\
@mdh( out( y = Buffer[fp32] ),
      inp( x = Buffer[fp32] ),
      combine_ops( cc, cc ) )
def f(y, x):
    for i in range(I):
        for k in range(K):
            y[i*k] = x[i]
";
        let ast = parse(src).unwrap();
        let e = analyze(&ast, &env_ik()).unwrap_err();
        assert!(e.to_string().contains("non-affine"), "{e}");
    }

    #[test]
    fn locals_and_conditionals() {
        let src = "\
@mdh( out( y = Buffer[fp64] ),
      inp( x = Buffer[fp64] ),
      combine_ops( cc ) )
def f(y, x):
    for i in range(I):
        t: fp64
        t = x[i] * 2.0
        if t > 1.0:
            y[i] = t
        else:
            y[i] = 0.0
";
        let ast = parse(src).unwrap();
        let a = analyze(&ast, &DirectiveEnv::new().size("I", 4)).unwrap();
        assert_eq!(
            a.out_accesses.len(),
            1,
            "both branches store to same access"
        );
        a.sf.validate().unwrap();
    }

    #[test]
    fn unknown_custom_combine_fn() {
        let src = "\
@mdh( out( y = Buffer[fp32] ),
      inp( x = Buffer[fp32] ),
      combine_ops( pw(prl_max) ) )
def f(y, x):
    for i in range(I):
        y[0] = x[i]
";
        let ast = parse(src).unwrap();
        let e = analyze(&ast, &DirectiveEnv::new().size("I", 4)).unwrap_err();
        assert!(e.to_string().contains("prl_max"), "{e}");
    }

    #[test]
    fn loop_var_as_value_rejected() {
        let src = "\
@mdh( out( y = Buffer[fp32] ),
      inp( x = Buffer[fp32] ),
      combine_ops( cc ) )
def f(y, x):
    for i in range(I):
        y[i] = x[i] * i
";
        let ast = parse(src).unwrap();
        let e = analyze(&ast, &DirectiveEnv::new().size("I", 4)).unwrap_err();
        assert!(e.to_string().contains("loop variable"), "{e}");
    }
}
