//! Strict scalar-function pattern matchers for the fast path.
//!
//! The fast path promises *bit identity with the VM*, so its matchers
//! accept only expression shapes whose evaluation the kernels reproduce
//! operation-for-operation (left-nested additions, literal-times-parameter
//! terms, one literal scale around the whole sum), and reject anything
//! that would require reassociating floating-point arithmetic. They are
//! the workspace's only scalar-function matchers; `mdh-ad` reads the one
//! shape it needs, `res = p0`, off the function body itself.

use mdh_core::expr::{BinOp, Expr, ScalarFunction, Stmt};
use mdh_core::types::Value;

/// The single-assignment body `res = <expr>` of a one-result function,
/// or `None` for anything with locals, control flow, or multiple results.
fn single_assign(sf: &ScalarFunction) -> Option<&Expr> {
    if sf.results.len() != 1 || sf.body.len() != 1 {
        return None;
    }
    match &sf.body[0] {
        Stmt::Assign { name, value } if *name == sf.results[0].0 => Some(value),
        _ => None,
    }
}

/// A float literal as the f64 the VM's register bank would hold: f32
/// literals widen exactly, f64 literals pass through. Non-float literals
/// are rejected (integer arithmetic has different semantics).
fn lit_f64(v: &Value) -> Option<f64> {
    match v {
        Value::F32(x) => Some(*x as f64),
        Value::F64(x) => Some(*x),
        _ => None,
    }
}

/// Match `res = p_i * p_j` exactly (the `mul2` shape every contraction
/// study uses). Returns the two parameter slots in multiplication order.
pub fn strict_product2(sf: &ScalarFunction) -> Option<(usize, usize)> {
    match single_assign(sf)? {
        Expr::Bin(BinOp::Mul, a, b) => match (a.as_ref(), b.as_ref()) {
            (Expr::Param(i), Expr::Param(j)) => Some((*i, *j)),
            _ => None,
        },
        _ => None,
    }
}

/// Match `res = p_i` exactly, with `p_i` declared the result's type: the
/// VM compiles it to no instruction at all, so the result is the loaded
/// element, widened and nothing else. Returns the parameter slot.
pub fn strict_identity(sf: &ScalarFunction) -> Option<usize> {
    match single_assign(sf)? {
        Expr::Param(i) if sf.params.get(*i)?.1 == sf.results[0].1 => Some(*i),
        _ => None,
    }
}

/// What [`strict_weighted_sum`] matched.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedSum {
    /// `(slot, weight)` pairs in fold order.
    pub terms: Vec<(usize, f64)>,
    /// The outer literal factor, applied once after the fold.
    pub scale: Option<f64>,
}

/// Match a left-nested weighted sum `res = w_0*p_a + w_1*p_b + ...`
/// exactly as the VM would evaluate it: terms in source order, additions
/// left-associated. Each term is `lit * param`, `param * lit`, or a bare
/// `param` (weight 1.0 — `1.0 * x` is bitwise `x` for every finite and
/// quiet-NaN f64, and a bare parameter multiplies by nothing in the VM
/// too, so the kernel folds it with weight 1.0 without a bit change for
/// finite data; f64 multiplication is bitwise commutative on finite
/// values, covering the `param * lit` orientation).
///
/// The sum may carry one outer literal factor, `lit * (<sum>)` or
/// `(<sum>) * lit` (Jacobi1D's `0.333 * (a + b + c)`): the VM folds the
/// sum first and multiplies once, so the factor is returned as a scale
/// to apply after the fold, never distributed over the terms.
pub fn strict_weighted_sum(sf: &ScalarFunction) -> Option<WeightedSum> {
    let body = single_assign(sf)?;
    let mut terms = Vec::new();
    if collect_sum(body, &mut terms).is_some() {
        return Some(WeightedSum { terms, scale: None });
    }
    let Expr::Bin(BinOp::Mul, a, b) = body else {
        return None;
    };
    let (scale, sum) = match (a.as_ref(), b.as_ref()) {
        (Expr::Lit(v), sum) | (sum, Expr::Lit(v)) => (lit_f64(v)?, sum),
        _ => return None,
    };
    terms.clear();
    collect_sum(sum, &mut terms)?;
    Some(WeightedSum {
        terms,
        scale: Some(scale),
    })
}

fn collect_sum(e: &Expr, out: &mut Vec<(usize, f64)>) -> Option<()> {
    match e {
        // left-nested only: `a + b` where `b` must be a leaf term —
        // a right-nested addition means a different fold order, reject
        Expr::Bin(BinOp::Add, a, b) => {
            collect_sum(a, out)?;
            out.push(term(b)?);
            Some(())
        }
        _ => {
            out.push(term(e)?);
            Some(())
        }
    }
}

fn term(e: &Expr) -> Option<(usize, f64)> {
    match e {
        Expr::Param(i) => Some((*i, 1.0)),
        Expr::Bin(BinOp::Mul, a, b) => match (a.as_ref(), b.as_ref()) {
            (Expr::Lit(v), Expr::Param(i)) | (Expr::Param(i), Expr::Lit(v)) => {
                Some((*i, lit_f64(v)?))
            }
            _ => None,
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdh_core::types::ScalarKind;

    #[test]
    fn mul2_matches_strictly() {
        let sf = ScalarFunction::mul2("f", ScalarKind::F32);
        assert_eq!(strict_product2(&sf), Some((0, 1)));
        assert!(strict_weighted_sum(&sf).is_none());
    }

    #[test]
    fn weighted_sum_matches_in_fold_order() {
        let sf = ScalarFunction::weighted_sum("f", ScalarKind::F32, &[0.25, 0.5, 0.25]);
        let WeightedSum { terms, scale } = strict_weighted_sum(&sf).unwrap();
        assert_eq!(scale, None);
        assert_eq!(terms.len(), 3);
        assert_eq!(terms[0].0, 0);
        assert_eq!(terms[2].0, 2);
        // f32 literal 0.25 widens exactly
        assert_eq!(terms[0].1, 0.25);
        assert!(strict_product2(&sf).is_none());
    }

    #[test]
    fn identity_is_a_bare_param_sum() {
        let sf = ScalarFunction::identity("f", ScalarKind::F32);
        let want = WeightedSum {
            terms: vec![(0, 1.0)],
            scale: None,
        };
        assert_eq!(strict_weighted_sum(&sf), Some(want));
    }

    #[test]
    fn identity_matches_a_bare_param_of_the_result_type_only() {
        let sf = ScalarFunction::identity("f", ScalarKind::F64);
        assert_eq!(strict_identity(&sf), Some(0));
        let mut second = sf3(Expr::Param(1));
        assert_eq!(strict_identity(&second), Some(1));
        // a conversion on the way out is not the identity
        second.params[1].1 = ScalarKind::F64.into();
        assert_eq!(strict_identity(&second), None);
        for value in [
            Expr::mul(Expr::Lit(Value::F32(1.0)), Expr::Param(0)),
            Expr::add(Expr::Param(0), Expr::Param(1)),
        ] {
            assert_eq!(strict_identity(&sf3(value)), None);
        }
        assert_eq!(
            strict_identity(&ScalarFunction::mul2("f", ScalarKind::F32)),
            None
        );
    }

    #[test]
    fn right_nested_add_is_rejected() {
        // res = p0 + (p1 + p2) folds in a different order than the VM's
        // left-nested rendering — must not match
        let sf = ScalarFunction {
            name: "f".into(),
            params: vec![
                ("p0".into(), ScalarKind::F32.into()),
                ("p1".into(), ScalarKind::F32.into()),
                ("p2".into(), ScalarKind::F32.into()),
            ],
            results: vec![("res".into(), ScalarKind::F32.into())],
            body: vec![Stmt::Assign {
                name: "res".into(),
                value: Expr::add(Expr::Param(0), Expr::add(Expr::Param(1), Expr::Param(2))),
            }],
        };
        assert!(strict_weighted_sum(&sf).is_none());
    }

    fn sf3(value: Expr) -> ScalarFunction {
        ScalarFunction {
            name: "f".into(),
            params: vec![
                ("a".into(), ScalarKind::F32.into()),
                ("b".into(), ScalarKind::F32.into()),
                ("c".into(), ScalarKind::F32.into()),
            ],
            results: vec![("res".into(), ScalarKind::F32.into())],
            body: vec![Stmt::Assign {
                name: "res".into(),
                value,
            }],
        }
    }

    #[test]
    fn factor_times_sum_is_accepted_with_scale() {
        // res = 0.333 * (a + b + c) — jacobi1d's directive shape: the
        // multiply stays outside the fold, in either orientation
        let sum = || Expr::add(Expr::add(Expr::Param(0), Expr::Param(1)), Expr::Param(2));
        let want = Some(WeightedSum {
            terms: vec![(0, 1.0), (1, 1.0), (2, 1.0)],
            scale: Some(0.333),
        });
        let left = sf3(Expr::mul(Expr::Lit(Value::F64(0.333)), sum()));
        assert_eq!(strict_weighted_sum(&left), want);
        let right = sf3(Expr::mul(sum(), Expr::Lit(Value::F64(0.333))));
        assert_eq!(strict_weighted_sum(&right), want);
        assert!(strict_product2(&left).is_none());
        // a right-nested sum under the scale is still a different fold
        let nested = sf3(Expr::mul(
            Expr::Lit(Value::F64(0.333)),
            Expr::add(Expr::Param(0), Expr::add(Expr::Param(1), Expr::Param(2))),
        ));
        assert!(strict_weighted_sum(&nested).is_none());
    }
}
