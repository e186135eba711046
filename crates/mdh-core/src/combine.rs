//! Combine operators (reduction operators).
//!
//! The central design point of the paper: reductions are captured
//! *semantically* in the directive's `combine_ops(...)` clause rather than
//! syntactically in the loop body. Each iteration-space dimension is
//! associated with one combine operator (footnote 10: "Combine Operator
//! (CO)" in the MDH formalism):
//!
//! * [`CombineOp::Cc`] — concatenation: the dimension survives into the
//!   output (a "parallel-free" dimension),
//! * [`CombineOp::Pw`] — point-wise reduction with an arbitrary function:
//!   the dimension collapses to a single element,
//! * [`CombineOp::Ps`] — prefix sum with an arbitrary function: the
//!   dimension survives, each position holding the scan up to it.
//! * [`CombineOp::Rbi`] — indexed reduction (reduce-by-index / scatter-add):
//!   the dimension collapses, but unlike `pw` the *output access* may depend
//!   on it — each iteration point scatters its contribution into the
//!   position selected by the output index function, and colliding
//!   contributions combine with the operator's function. This is the
//!   histogram / embedding-gradient operator of the reduce-by-index AD
//!   literature.
//!
//! `cc`/`pw`/`ps` are the three pre-implemented operators of Appendix A;
//! fully custom operators can be added through [`PwFunc::custom`] functions
//! operating on *tuples* of output values (as PRL's `prl_max` does across
//! three output buffers). `rbi` is restricted to the built-in `add`
//! function so that scatter collisions stay exact over the integer-valued
//! test fills and deterministic under the fixed-order combining the
//! backends implement.

use crate::error::{MdhError, Result};
use crate::expr::ScalarFunction;
use crate::types::{ScalarKind, Tuple, Value};
use std::fmt;
use std::sync::Arc;

/// Whether a combine operator preserves its dimension in the output
/// (`index_set_function = lambda I: I` in Appendix A) or collapses it
/// (`lambda I: {0}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DimBehavior {
    Preserve,
    Collapse,
}

/// How we know a combine function is associative — the property every
/// decomposition (tiling, thread chunking, *multi-device partitioning*)
/// rests on. The partitioner consults this to decide which dimensions are
/// legal to shard and how aggressively partial results may be re-grouped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Associativity {
    /// Associative by construction (the built-in operators; exact over
    /// integral values, associative-up-to-rounding over floats).
    Proven,
    /// Associative by the MDH contract: user-supplied combine functions
    /// *must* be associative for the homomorphism laws to hold. We cannot
    /// prove it statically; [`PwFunc::check_associative`] is the empirical
    /// hook for validating the assumption.
    Assumed,
}

/// Natively-supported point-wise reduction functions. These are the
/// operators existing directive systems (OpenMP/OpenACC) can also express —
/// the capability matrix in `mdh-baselines` keys off this distinction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BuiltinReduce {
    Add,
    Mul,
    Max,
    Min,
}

impl BuiltinReduce {
    pub fn apply_f64(self, a: f64, b: f64) -> f64 {
        match self {
            BuiltinReduce::Add => a + b,
            BuiltinReduce::Mul => a * b,
            BuiltinReduce::Max => a.max(b),
            BuiltinReduce::Min => a.min(b),
        }
    }

    pub fn apply_i64(self, a: i64, b: i64) -> i64 {
        match self {
            BuiltinReduce::Add => a.wrapping_add(b),
            BuiltinReduce::Mul => a.wrapping_mul(b),
            BuiltinReduce::Max => a.max(b),
            BuiltinReduce::Min => a.min(b),
        }
    }

    /// Identity element for the given scalar kind.
    pub fn identity(self, kind: ScalarKind) -> Value {
        match self {
            BuiltinReduce::Add => Value::from_f64(kind, 0.0),
            BuiltinReduce::Mul => Value::from_f64(kind, 1.0),
            BuiltinReduce::Max => match kind {
                ScalarKind::F32 => Value::F32(f32::NEG_INFINITY),
                ScalarKind::F64 => Value::F64(f64::NEG_INFINITY),
                ScalarKind::I32 => Value::I32(i32::MIN),
                ScalarKind::I64 => Value::I64(i64::MIN),
                ScalarKind::Bool => Value::Bool(false),
                ScalarKind::Char => Value::Char(0),
            },
            BuiltinReduce::Min => match kind {
                ScalarKind::F32 => Value::F32(f32::INFINITY),
                ScalarKind::F64 => Value::F64(f64::INFINITY),
                ScalarKind::I32 => Value::I32(i32::MAX),
                ScalarKind::I64 => Value::I64(i64::MAX),
                ScalarKind::Bool => Value::Bool(true),
                ScalarKind::Char => Value::Char(u8::MAX),
            },
        }
    }
}

impl fmt::Display for BuiltinReduce {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BuiltinReduce::Add => "add",
            BuiltinReduce::Mul => "mul",
            BuiltinReduce::Max => "max",
            BuiltinReduce::Min => "min",
        };
        f.write_str(s)
    }
}

/// The customising function of a `pw`/`ps` operator.
#[derive(Debug, Clone)]
pub enum PwKind {
    /// A native operator (tuple width must be 1, numeric).
    Builtin(BuiltinReduce),
    /// A user-defined function over tuples: the underlying
    /// [`ScalarFunction`] takes `2n` parameters (`lhs` tuple then `rhs`
    /// tuple) and produces `n` results.
    Custom(Arc<ScalarFunction>),
}

/// A point-wise combine function `cf : T^n x T^n -> T^n` over output tuples.
#[derive(Debug, Clone)]
pub struct PwFunc {
    pub name: String,
    pub kind: PwKind,
}

impl PwFunc {
    pub fn builtin(op: BuiltinReduce) -> PwFunc {
        PwFunc {
            name: op.to_string(),
            kind: PwKind::Builtin(op),
        }
    }

    /// Wrap a user-defined combining function. `f` must declare `2n` params
    /// and `n` results for some tuple width `n`.
    pub fn custom(f: ScalarFunction) -> Result<PwFunc> {
        if f.params.len() != 2 * f.results.len() || f.results.is_empty() {
            return Err(MdhError::Validation(format!(
                "custom combine function '{}' must take 2n params and return n results \
                 (got {} params, {} results)",
                f.name,
                f.params.len(),
                f.results.len()
            )));
        }
        f.validate()?;
        Ok(PwFunc {
            name: f.name.clone(),
            kind: PwKind::Custom(Arc::new(f)),
        })
    }

    /// Tuple width this function combines (None = any width of 1-wide
    /// builtins... builtins always have width 1 per element and apply to
    /// single-output programs).
    pub fn tuple_width(&self) -> Option<usize> {
        match &self.kind {
            PwKind::Builtin(_) => None,
            PwKind::Custom(f) => Some(f.results.len()),
        }
    }

    /// Whether `self` and `other` are one function: the same builtin, or
    /// two custom functions whose bodies render alike
    /// ([`ScalarFunction::render_positional`], as the plan key renders
    /// them). The name decides nothing: the builtin `add` and a custom
    /// function named `add` differ.
    pub fn same_function(&self, other: &PwFunc) -> bool {
        let rendered = |f: &ScalarFunction| {
            let mut out = String::new();
            f.render_positional(&mut out);
            out
        };
        match (&self.kind, &other.kind) {
            (PwKind::Builtin(a), PwKind::Builtin(b)) => a == b,
            (PwKind::Custom(f), PwKind::Custom(g)) => rendered(f) == rendered(g),
            _ => false,
        }
    }

    pub fn as_builtin(&self) -> Option<BuiltinReduce> {
        match &self.kind {
            PwKind::Builtin(b) => Some(*b),
            PwKind::Custom(_) => None,
        }
    }

    /// Combine two tuples.
    pub fn combine(&self, lhs: &Tuple, rhs: &Tuple) -> Result<Tuple> {
        if lhs.len() != rhs.len() {
            return Err(MdhError::Eval("tuple width mismatch in combine".into()));
        }
        match &self.kind {
            PwKind::Builtin(op) => lhs
                .iter()
                .zip(rhs)
                .map(|(a, b)| {
                    if a.is_float() || b.is_float() {
                        let r = op.apply_f64(
                            a.as_f64().ok_or_else(non_numeric)?,
                            b.as_f64().ok_or_else(non_numeric)?,
                        );
                        Ok(match a {
                            Value::F32(_) => Value::F32(r as f32),
                            _ => Value::F64(r),
                        })
                    } else {
                        let r = op.apply_i64(
                            a.as_i64().ok_or_else(non_numeric)?,
                            b.as_i64().ok_or_else(non_numeric)?,
                        );
                        Ok(match a {
                            Value::I32(_) => Value::I32(r as i32),
                            Value::Bool(_) => Value::Bool(r != 0),
                            Value::Char(_) => Value::Char(r as u8),
                            _ => Value::I64(r),
                        })
                    }
                })
                .collect(),
            PwKind::Custom(f) => {
                let mut args = Vec::with_capacity(lhs.len() * 2);
                args.extend_from_slice(lhs);
                args.extend_from_slice(rhs);
                f.eval(&args)
            }
        }
    }

    /// Provenance of this function's associativity (see [`Associativity`]).
    pub fn associativity(&self) -> Associativity {
        match &self.kind {
            PwKind::Builtin(_) => Associativity::Proven,
            PwKind::Custom(_) => Associativity::Assumed,
        }
    }

    /// Whether reordering operands (not just re-grouping) is known to be
    /// safe. All built-in reductions are commutative; custom functions are
    /// only required to be associative, so partial results from distinct
    /// sub-ranges must be combined in index order unless this returns true.
    pub fn is_commutative(&self) -> bool {
        matches!(&self.kind, PwKind::Builtin(_))
    }

    /// Empirically check associativity on the given sample tuples
    /// (`f(f(a,b),c) == f(a,f(b,c))`). Custom operators are *required* to be
    /// associative for parallelisation to be legal; this is the property
    /// test hook.
    pub fn check_associative(&self, samples: &[Tuple], rel_tol: f64) -> Result<bool> {
        for a in samples {
            for b in samples {
                for c in samples {
                    let l = self.combine(&self.combine(a, b)?, c)?;
                    let r = self.combine(a, &self.combine(b, c)?)?;
                    if !l.iter().zip(&r).all(|(x, y)| x.approx_eq(y, rel_tol)) {
                        return Ok(false);
                    }
                }
            }
        }
        Ok(true)
    }

    /// Empirically check commutativity on the given sample tuples.
    pub fn check_commutative(&self, samples: &[Tuple], rel_tol: f64) -> Result<bool> {
        for a in samples {
            for b in samples {
                let l = self.combine(a, b)?;
                let r = self.combine(b, a)?;
                if !l.iter().zip(&r).all(|(x, y)| x.approx_eq(y, rel_tol)) {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }
}

fn non_numeric() -> MdhError {
    MdhError::Eval("builtin reduce on non-numeric value".into())
}

/// A combine operator assigned to one iteration-space dimension.
#[derive(Debug, Clone)]
pub enum CombineOp {
    /// Concatenation `cc` (Listing 15): the dimension survives.
    Cc,
    /// Point-wise reduction `pw(cf)` (Listing 16): the dimension collapses.
    Pw(PwFunc),
    /// Prefix sum `ps(cf)` (Listing 17): the dimension survives; position
    /// `i` holds the fold of positions `0..=i`.
    Ps(PwFunc),
    /// Indexed reduction `rbi(cf)` (reduce-by-index): the dimension
    /// collapses, and the output index function — which *may* depend on
    /// this dimension — selects the scatter target per iteration point;
    /// collisions combine with `cf` (currently restricted to `add`).
    Rbi(PwFunc),
}

impl CombineOp {
    /// `cc`.
    pub fn cc() -> CombineOp {
        CombineOp::Cc
    }

    /// `pw(add)`.
    pub fn pw_add() -> CombineOp {
        CombineOp::Pw(PwFunc::builtin(BuiltinReduce::Add))
    }

    /// `pw(mul)`.
    pub fn pw_mul() -> CombineOp {
        CombineOp::Pw(PwFunc::builtin(BuiltinReduce::Mul))
    }

    /// `pw(max)`.
    pub fn pw_max() -> CombineOp {
        CombineOp::Pw(PwFunc::builtin(BuiltinReduce::Max))
    }

    /// `pw(min)`.
    pub fn pw_min() -> CombineOp {
        CombineOp::Pw(PwFunc::builtin(BuiltinReduce::Min))
    }

    /// `pw(cf)` for a custom function.
    pub fn pw_custom(f: ScalarFunction) -> Result<CombineOp> {
        Ok(CombineOp::Pw(PwFunc::custom(f)?))
    }

    /// `ps(add)` — the classic prefix sum.
    pub fn ps_add() -> CombineOp {
        CombineOp::Ps(PwFunc::builtin(BuiltinReduce::Add))
    }

    /// `ps(cf)` for a custom function.
    pub fn ps_custom(f: ScalarFunction) -> Result<CombineOp> {
        Ok(CombineOp::Ps(PwFunc::custom(f)?))
    }

    /// `rbi(add)` — scatter-add, the only supported indexed reduction.
    pub fn rbi_add() -> CombineOp {
        CombineOp::Rbi(PwFunc::builtin(BuiltinReduce::Add))
    }

    pub fn behavior(&self) -> DimBehavior {
        match self {
            CombineOp::Cc | CombineOp::Ps(_) => DimBehavior::Preserve,
            CombineOp::Pw(_) | CombineOp::Rbi(_) => DimBehavior::Collapse,
        }
    }

    /// Whether this dimension is a *reduction* dimension (anything that
    /// actually combines values: `pw` or `ps`).
    pub fn is_reduction(&self) -> bool {
        !matches!(self, CombineOp::Cc)
    }

    pub fn pw_func(&self) -> Option<&PwFunc> {
        match self {
            CombineOp::Cc => None,
            CombineOp::Pw(f) | CombineOp::Ps(f) | CombineOp::Rbi(f) => Some(f),
        }
    }

    /// Whether this is an indexed reduction (`rbi`) dimension.
    pub fn is_indexed_reduction(&self) -> bool {
        matches!(self, CombineOp::Rbi(_))
    }

    /// Provenance of the operator's associativity. Concatenation is
    /// associative by construction (list concatenation); `pw`/`ps` inherit
    /// their combine function's provenance.
    pub fn associativity(&self) -> Associativity {
        match self {
            CombineOp::Cc => Associativity::Proven,
            CombineOp::Pw(f) | CombineOp::Ps(f) | CombineOp::Rbi(f) => f.associativity(),
        }
    }

    /// Whether a dimension governed by this operator may be partitioned
    /// across devices, and with which recombination obligation:
    ///
    /// * `cc` — always shardable; shards own disjoint output regions and
    ///   need no cross-device combine;
    /// * `pw(f)` — shardable because `f` is associative (proven or by
    ///   contract); shards produce *partial* outputs that must flow through
    ///   a combine tree;
    /// * `ps(f)` — shardable, but recombination is an ordered carry chain
    ///   (the `Q`-part rule of Listing 17), so the combine topology is
    ///   forced serial.
    pub fn device_shardable(&self) -> bool {
        match self.associativity() {
            Associativity::Proven | Associativity::Assumed => true,
        }
    }

    /// Whether the operator is expressible in OpenMP/OpenACC `reduction`
    /// clauses (native operator on a single scalar output).
    pub fn is_native_reduction(&self) -> bool {
        match self {
            CombineOp::Cc => false,
            CombineOp::Pw(f) => f.as_builtin().is_some(),
            CombineOp::Ps(_) | CombineOp::Rbi(_) => false,
        }
    }
}

impl fmt::Display for CombineOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CombineOp::Cc => f.write_str("cc"),
            CombineOp::Pw(g) => write!(f, "pw({})", g.name),
            CombineOp::Ps(g) => write!(f, "ps({})", g.name),
            CombineOp::Rbi(g) => write!(f, "rbi({})", g.name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, Expr, Stmt};
    use crate::types::BasicType;

    fn t(vs: &[f64]) -> Tuple {
        vs.iter().map(|&v| Value::F64(v)).collect()
    }

    #[test]
    fn builtin_add_combines() {
        let f = PwFunc::builtin(BuiltinReduce::Add);
        assert_eq!(f.combine(&t(&[1.0]), &t(&[2.0])).unwrap(), t(&[3.0]));
    }

    #[test]
    fn builtin_max_and_identity() {
        let f = PwFunc::builtin(BuiltinReduce::Max);
        assert_eq!(f.combine(&t(&[1.0]), &t(&[2.0])).unwrap(), t(&[2.0]));
        assert_eq!(
            BuiltinReduce::Max.identity(ScalarKind::F64),
            Value::F64(f64::NEG_INFINITY)
        );
        assert_eq!(BuiltinReduce::Add.identity(ScalarKind::I32), Value::I32(0));
    }

    #[test]
    fn builtin_preserves_kind() {
        let f = PwFunc::builtin(BuiltinReduce::Add);
        let out = f
            .combine(&vec![Value::F32(1.0)], &vec![Value::F32(2.0)])
            .unwrap();
        assert_eq!(out, vec![Value::F32(3.0)]);
        let out = f
            .combine(&vec![Value::I32(1)], &vec![Value::I32(2)])
            .unwrap();
        assert_eq!(out, vec![Value::I32(3)]);
    }

    /// A PRL-style custom combine: keep lhs if its measure equals 14 and
    /// rhs's does not, else keep rhs (simplified from Listing 11).
    fn prl_like() -> PwFunc {
        let f = ScalarFunction {
            name: "prl_max".into(),
            params: vec![
                ("lhs_id".into(), BasicType::I64),
                ("lhs_w".into(), BasicType::F64),
                ("rhs_id".into(), BasicType::I64),
                ("rhs_w".into(), BasicType::F64),
            ],
            results: vec![
                ("res_id".into(), BasicType::I64),
                ("res_w".into(), BasicType::F64),
            ],
            body: vec![Stmt::If {
                cond: Expr::Bin(
                    BinOp::Ge,
                    Box::new(Expr::Param(1)),
                    Box::new(Expr::Param(3)),
                ),
                then_branch: vec![
                    Stmt::Assign {
                        name: "res_id".into(),
                        value: Expr::Param(0),
                    },
                    Stmt::Assign {
                        name: "res_w".into(),
                        value: Expr::Param(1),
                    },
                ],
                else_branch: vec![
                    Stmt::Assign {
                        name: "res_id".into(),
                        value: Expr::Param(2),
                    },
                    Stmt::Assign {
                        name: "res_w".into(),
                        value: Expr::Param(3),
                    },
                ],
            }],
        };
        PwFunc::custom(f).unwrap()
    }

    #[test]
    fn custom_tuple_combine() {
        let f = prl_like();
        assert_eq!(f.tuple_width(), Some(2));
        let lhs = vec![Value::I64(1), Value::F64(0.9)];
        let rhs = vec![Value::I64(2), Value::F64(0.5)];
        assert_eq!(f.combine(&lhs, &rhs).unwrap(), lhs);
        assert_eq!(f.combine(&rhs, &lhs).unwrap(), lhs);
    }

    #[test]
    fn custom_argmax_is_associative() {
        let f = prl_like();
        let samples: Vec<Tuple> = (0..4)
            .map(|i| vec![Value::I64(i), Value::F64(i as f64 * 0.3)])
            .collect();
        assert!(f.check_associative(&samples, 1e-12).unwrap());
    }

    #[test]
    fn subtraction_is_not_associative() {
        // a deliberately-illegal combine function
        let f = PwFunc::custom(ScalarFunction {
            name: "sub".into(),
            params: vec![("l".into(), BasicType::F64), ("r".into(), BasicType::F64)],
            results: vec![("res".into(), BasicType::F64)],
            body: vec![Stmt::Assign {
                name: "res".into(),
                value: Expr::sub(Expr::Param(0), Expr::Param(1)),
            }],
        })
        .unwrap();
        let samples: Vec<Tuple> = (1..4).map(|i| vec![Value::F64(i as f64)]).collect();
        assert!(!f.check_associative(&samples, 1e-12).unwrap());
    }

    #[test]
    fn custom_arity_validation() {
        let bad = ScalarFunction {
            name: "bad".into(),
            params: vec![("a".into(), BasicType::F64)],
            results: vec![("res".into(), BasicType::F64)],
            body: vec![Stmt::Assign {
                name: "res".into(),
                value: Expr::Param(0),
            }],
        };
        assert!(PwFunc::custom(bad).is_err());
    }

    #[test]
    fn behaviors() {
        assert_eq!(CombineOp::cc().behavior(), DimBehavior::Preserve);
        assert_eq!(CombineOp::pw_add().behavior(), DimBehavior::Collapse);
        assert_eq!(CombineOp::ps_add().behavior(), DimBehavior::Preserve);
        assert_eq!(CombineOp::rbi_add().behavior(), DimBehavior::Collapse);
        assert!(!CombineOp::cc().is_reduction());
        assert!(CombineOp::pw_add().is_reduction());
        assert!(CombineOp::ps_add().is_reduction());
        assert!(CombineOp::rbi_add().is_reduction());
        assert!(CombineOp::rbi_add().is_indexed_reduction());
        assert!(!CombineOp::pw_add().is_indexed_reduction());
        assert!(CombineOp::pw_add().is_native_reduction());
        assert!(!CombineOp::ps_add().is_native_reduction());
        assert!(!CombineOp::rbi_add().is_native_reduction());
    }

    #[test]
    fn rbi_display_and_shardable() {
        assert_eq!(CombineOp::rbi_add().to_string(), "rbi(add)");
        assert_eq!(CombineOp::rbi_add().associativity(), Associativity::Proven);
        assert!(CombineOp::rbi_add().device_shardable());
    }

    #[test]
    fn associativity_metadata() {
        assert_eq!(CombineOp::cc().associativity(), Associativity::Proven);
        assert_eq!(CombineOp::pw_add().associativity(), Associativity::Proven);
        assert_eq!(CombineOp::ps_add().associativity(), Associativity::Proven);
        let custom = CombineOp::Pw(prl_like());
        assert_eq!(custom.associativity(), Associativity::Assumed);
        assert!(custom.device_shardable());
        assert!(!prl_like().is_commutative());
        assert!(PwFunc::builtin(BuiltinReduce::Max).is_commutative());
        assert!(CombineOp::cc().device_shardable());
        assert!(CombineOp::pw_add().device_shardable());
    }

    #[test]
    fn display() {
        assert_eq!(CombineOp::cc().to_string(), "cc");
        assert_eq!(CombineOp::pw_add().to_string(), "pw(add)");
        assert_eq!(CombineOp::ps_add().to_string(), "ps(add)");
    }
}
