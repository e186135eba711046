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
    #[inline]
    pub fn apply_f64(self, a: f64, b: f64) -> f64 {
        match self {
            BuiltinReduce::Add => a + b,
            BuiltinReduce::Mul => a * b,
            BuiltinReduce::Max => a.max(b),
            BuiltinReduce::Min => a.min(b),
        }
    }

    #[inline]
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

/// A scalar a builtin operator combines in place: element for element
/// what [`PwFunc::combine`] does to two `Value`s of that type — f32
/// through f64 and back, integers, `bool` and `char` wrapping in i64.
pub trait RowElem: Copy {
    fn apply(op: BuiltinReduce, a: Self, b: Self) -> Self;
}

macro_rules! row_elems {
    ($($t:ty: |$op:ident, $a:ident, $b:ident| $e:expr;)*) => {$(
        impl RowElem for $t {
            #[inline(always)]
            fn apply($op: BuiltinReduce, $a: $t, $b: $t) -> $t {
                $e
            }
        }
    )*};
}

row_elems! {
    f32: |op, a, b| op.apply_f64(a as f64, b as f64) as f32;
    f64: |op, a, b| op.apply_f64(a, b);
    i32: |op, a, b| op.apply_i64(a as i64, b as i64) as i32;
    i64: |op, a, b| op.apply_i64(a, b);
    bool: |op, a, b| op.apply_i64(a as i64, b as i64) != 0;
    u8: |op, a, b| op.apply_i64(a as i64, b as i64) as u8;
}

/// One row of a recombination: element `l < len` is written at `out +
/// l·step` of the accumulator, its left operand is read at `lhs +
/// l·lhs_step` and its right operand at `out + l·step` — each from the
/// accumulator or from the partial a [`Part`] names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    pub out: i64,
    pub step: i64,
    pub lhs: i64,
    pub lhs_step: i64,
    pub len: usize,
}

impl Row {
    /// A row whose left operand is the element it overwrites.
    pub fn along(out: i64, step: i64, len: usize) -> Row {
        Row {
            out,
            step,
            lhs: out,
            lhs_step: step,
            len,
        }
    }

    /// `(out, lhs)` offsets of each element, `l` ascending.
    pub fn offsets(&self) -> impl Iterator<Item = (usize, usize)> {
        let at = |base: i64, step: i64, l: i64| (base + l * step) as usize;
        let r = *self;
        (0..r.len as i64).map(move |l| (at(r.out, r.step, l), at(r.lhs, r.lhs_step, l)))
    }
}

/// Which operand of a [`Row`] another partial supplies; the other one is
/// the accumulator's.
pub enum Part<'a, S: ?Sized> {
    /// Neither: both are the accumulator's (a scan's recurrence).
    None,
    /// The left operand: the carry of an earlier partial (the VM's scan
    /// carry-fold).
    Left(&'a S),
    /// The right operand: the partial folded or copied in (group and
    /// shard folds, a device scan's carry-fold, the `rbi` tree).
    Right(&'a S),
}

impl<'a, S: ?Sized> Part<'a, S> {
    /// The same operand one level down (a column of a partial, a typed
    /// slice of a buffer); `None` when `f` finds none.
    pub fn map<U: ?Sized>(&self, f: impl FnOnce(&'a S) -> Option<&'a U>) -> Option<Part<'a, U>> {
        Some(match *self {
            Part::None => Part::None,
            Part::Left(s) => Part::Left(f(s)?),
            Part::Right(s) => Part::Right(f(s)?),
        })
    }
}

/// The one typed recombination loop (DESIGN §9 "Recombination"):
/// `acc[out + l·step] = op(left, right)` over `row`, `l` ascending — copy
/// (`op` `None`: `= right`), fold (the left operand is the element
/// itself) or carry-fold (it is read elsewhere). A left operand read from
/// the accumulator is read when `l` is reached, after any earlier `l`
/// wrote it. A contiguous fold of a partial is one slice loop.
pub fn fold_row<T: RowElem>(acc: &mut [T], part: &Part<[T]>, row: &Row, op: Option<BuiltinReduce>) {
    use BuiltinReduce::*;
    match op {
        None => row_loop(acc, part, row, |_, b| b),
        Some(Add) => row_loop(acc, part, row, |a, b| T::apply(Add, a, b)),
        Some(Mul) => row_loop(acc, part, row, |a, b| T::apply(Mul, a, b)),
        Some(Max) => row_loop(acc, part, row, |a, b| T::apply(Max, a, b)),
        Some(Min) => row_loop(acc, part, row, |a, b| T::apply(Min, a, b)),
    }
}

#[inline(always)]
fn row_loop<T: Copy>(acc: &mut [T], part: &Part<[T]>, r: &Row, g: impl Fn(T, T) -> T) {
    match *part {
        Part::Right(p) if (r.step, r.lhs, r.lhs_step) == (1, r.out, 1) => {
            let (o, n) = (r.out as usize, r.len);
            let pairs = acc[o..o + n].iter_mut().zip(&p[o..o + n]);
            pairs.for_each(|(a, &b)| *a = g(*a, b));
        }
        // a carry-fold along a contiguous row: one left operand for all,
        // out of another partial or out of the accumulator ahead of the row
        // (an empty row reads no operand, so it takes the general arm)
        Part::Left(p) if (r.step, r.lhs_step) == (1, 0) && r.len > 0 => {
            let (o, carry) = (r.out as usize, p[r.lhs as usize]);
            acc[o..o + r.len].iter_mut().for_each(|a| *a = g(carry, *a));
        }
        Part::Right(p) if (r.step, r.lhs_step) == (1, 0) && r.lhs < r.out && r.len > 0 => {
            let (o, carry) = (r.out as usize, acc[r.lhs as usize]);
            let pairs = acc[o..o + r.len].iter_mut().zip(&p[o..o + r.len]);
            pairs.for_each(|(a, &b)| *a = g(carry, b));
        }
        // a scan's recurrence: each element combines with the one `k`
        // before it, final by then — a running value when `k` is 1, else
        // `k` independent elements at a time
        Part::None if (r.step, r.lhs_step) == (1, 1) && r.lhs < r.out && r.len > 0 => {
            let (o, k, end) = (
                r.out as usize,
                (r.out - r.lhs) as usize,
                r.out as usize + r.len,
            );
            if k == 1 {
                let mut prev = acc[o - 1];
                for a in &mut acc[o..end] {
                    prev = g(prev, *a);
                    *a = prev;
                }
            } else {
                for b in (o..end).step_by(k) {
                    let (done, rest) = acc.split_at_mut(b);
                    let block = rest[..k.min(end - b)].iter_mut().zip(&done[b - k..]);
                    block.for_each(|(a, &l)| *a = g(l, *a));
                }
            }
        }
        Part::None => r.offsets().for_each(|(o, l)| acc[o] = g(acc[l], acc[o])),
        Part::Left(p) => r.offsets().for_each(|(o, l)| acc[o] = g(p[l], acc[o])),
        Part::Right(p) => r.offsets().for_each(|(o, l)| acc[o] = g(acc[l], p[o])),
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

    /// Whether reordering operands (not just re-grouping) is known to be
    /// safe. All built-in reductions are commutative; custom functions are
    /// only required to be associative, so partial results from distinct
    /// sub-ranges must be combined in index order unless this returns true.
    pub fn is_commutative(&self) -> bool {
        matches!(&self.kind, PwKind::Builtin(_))
    }

    /// Empirically check associativity on the given sample tuples
    /// (`f(f(a,b),c) == f(a,f(b,c))`). Custom combine functions must be
    /// associative by the MDH contract for the homomorphism laws — and so
    /// every tiling, thread split and device partition — to hold; that
    /// cannot be proved statically, so this is the property test hook.
    /// The built-in operators are associative by construction (exactly
    /// over integral values, up to rounding over floats).
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

    /// The typed row loop is [`PwFunc::combine`], element by element:
    /// every element kind × builtin operator over every pair of edge
    /// values, bitwise, along a contiguous row, a reversed one, with the
    /// partial supplying the left operand instead of the right, with one
    /// left operand for the whole row out of either side (a scan's
    /// carry-fold), and as a
    /// scan's recurrence over the accumulator itself, 1, 2 and 3 apart.
    #[test]
    fn fold_row_is_pw_func_combine_element_by_element() {
        use crate::buffer::{bits_hash, Buffer};
        use crate::shape::Shape;
        let f32s = [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let f32s = [&f32s[..], &[f32::MAX, 16_777_216.0, 1.000_000_1, -3.3]].concat();
        let f64s = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let f64s = [&f64s[..], &[f64::MAX, 1e-300, 0.1, -3.3]].concat();
        let specials: [(ScalarKind, Vec<Value>); 6] = [
            (ScalarKind::F32, f32s.into_iter().map(Value::F32).collect()),
            (ScalarKind::F64, f64s.into_iter().map(Value::F64).collect()),
            (
                ScalarKind::I32,
                [0, 1, -1, i32::MAX, i32::MIN, 65_537]
                    .map(Value::I32)
                    .into(),
            ),
            (
                ScalarKind::I64,
                [0, 1, -1, i64::MAX, i64::MIN, 1 << 40]
                    .map(Value::I64)
                    .into(),
            ),
            (ScalarKind::Bool, [false, true].map(Value::Bool).into()),
            (
                ScalarKind::Char,
                [0, 1, 127, 200, 255].map(Value::Char).into(),
            ),
        ];
        let mut cases = 0;
        for (kind, vals) in specials {
            let buffer = |vs: &[Value]| {
                let mut b = Buffer::zeros("b", kind.into(), Shape::new(vec![vs.len()]));
                for (i, v) in vs.iter().enumerate() {
                    b.set_flat(i, v).unwrap();
                }
                b
            };
            // every pair meets: the left operand cycles fast, the right slow
            let n = vals.len() * vals.len();
            let lhs: Vec<Value> = (0..n).map(|i| vals[i % vals.len()].clone()).collect();
            let rhs: Vec<Value> = (0..n).map(|i| vals[i / vals.len()].clone()).collect();
            let (lhs_buf, rhs_buf) = (buffer(&lhs), buffer(&rhs));
            let forward = Row::along(0, 1, n);
            let reversed = Row::along(n as i64 - 1, -1, n);
            for op in [
                BuiltinReduce::Add,
                BuiltinReduce::Mul,
                BuiltinReduce::Max,
                BuiltinReduce::Min,
            ] {
                let f = PwFunc::builtin(op);
                let want: Vec<Value> = (lhs.iter().zip(&rhs))
                    .map(|(a, b)| f.combine(&vec![a.clone()], &vec![b.clone()]).unwrap()[0].clone())
                    .collect();
                let want = bits_hash(&[buffer(&want)]);
                for (row, right) in [(forward, true), (reversed, true), (forward, false)] {
                    let (mut acc, part) = match right {
                        true => (lhs_buf.clone(), Part::Right(&rhs_buf.data)),
                        false => (rhs_buf.clone(), Part::Left(&lhs_buf.data)),
                    };
                    assert!(acc.data.fold_row(&part, &row, Some(op)));
                    assert_eq!(bits_hash(&[acc]), want, "{kind} {op} {row:?} right={right}");
                    cases += 1;
                }
                // a scan's recurrence `k` elements apart: each element
                // combines with the one `k` before it, already final
                for k in [1, 2, 3] {
                    let mut want = lhs.clone();
                    for i in k..n {
                        want[i] = f
                            .combine(&vec![want[i - k].clone()], &vec![want[i].clone()])
                            .unwrap()[0]
                            .clone();
                    }
                    let row = Row {
                        out: k as i64,
                        step: 1,
                        lhs: 0,
                        lhs_step: 1,
                        len: n - k,
                    };
                    let mut acc = lhs_buf.clone();
                    assert!(acc.data.fold_row(&Part::None, &row, Some(op)));
                    assert_eq!(
                        bits_hash(&[acc]),
                        bits_hash(&[buffer(&want)]),
                        "{kind} {op} scan {k}"
                    );
                }
                // a device scan's carry-fold: the left operand is the
                // accumulator's element just ahead of the row
                for carry in &vals {
                    let want: Vec<Value> = (rhs.iter())
                        .map(|b| {
                            f.combine(&vec![carry.clone()], &vec![b.clone()]).unwrap()[0].clone()
                        })
                        .collect();
                    let ahead =
                        |rest: &[Value]| buffer(&[std::slice::from_ref(carry), rest].concat());
                    let row = Row {
                        out: 1,
                        lhs: 0,
                        lhs_step: 0,
                        ..forward
                    };
                    let mut acc = ahead(&lhs);
                    assert!(acc
                        .data
                        .fold_row(&Part::Right(&ahead(&rhs).data), &row, Some(op)));
                    assert_eq!(
                        bits_hash(&[acc]),
                        bits_hash(&[ahead(&want)]),
                        "{kind} {op} carry"
                    );
                }
                // a carry-fold: one left operand, element `i` of the
                // partial, for the whole row
                for (i, carry) in vals.iter().enumerate() {
                    let want: Vec<Value> = (rhs.iter())
                        .map(|b| {
                            f.combine(&vec![carry.clone()], &vec![b.clone()]).unwrap()[0].clone()
                        })
                        .collect();
                    let row = Row {
                        lhs: i as i64,
                        lhs_step: 0,
                        ..forward
                    };
                    let mut acc = rhs_buf.clone();
                    assert!(acc
                        .data
                        .fold_row(&Part::Left(&lhs_buf.data), &row, Some(op)));
                    assert_eq!(
                        bits_hash(&[acc]),
                        bits_hash(&[buffer(&want)]),
                        "{kind} {op} carry {i}"
                    );
                }
            }
        }
        assert_eq!(cases, 6 * 4 * 3);
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
    fn rbi_display() {
        assert_eq!(CombineOp::rbi_add().to_string(), "rbi(add)");
    }

    #[test]
    fn only_builtins_are_commutative() {
        assert!(!prl_like().is_commutative());
        assert!(PwFunc::builtin(BuiltinReduce::Max).is_commutative());
    }

    #[test]
    fn display() {
        assert_eq!(CombineOp::cc().to_string(), "cc");
        assert_eq!(CombineOp::pw_add().to_string(), "pw(add)");
        assert_eq!(CombineOp::ps_add().to_string(), "ps(add)");
    }
}
