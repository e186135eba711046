//! Property-based tests of the core data structures: shapes, ranges,
//! affine index functions, buffers, combine operators, and the scalar
//! expression evaluator.

use mdh_core::buffer::Buffer;
use mdh_core::combine::{BuiltinReduce, PwFunc};
use mdh_core::index_fn::{AffineExpr, IndexFn};
use mdh_core::shape::{MdRange, Shape};
use mdh_core::types::{BasicType, ScalarKind, Value};
use proptest::prelude::*;

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop::collection::vec(1usize..7, 1..5).prop_map(Shape::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- Shape ----------------------------------------------------------

    #[test]
    fn linearize_delinearize_roundtrip(shape in arb_shape(), flat_frac in 0.0f64..1.0) {
        let n = shape.len();
        prop_assume!(n > 0);
        let flat = ((n as f64) * flat_frac) as usize % n;
        let idx = shape.delinearize(flat);
        prop_assert!(shape.contains(&idx));
        prop_assert_eq!(shape.linearize(&idx), flat);
    }

    #[test]
    fn strides_are_consistent_with_linearize(shape in arb_shape()) {
        let strides = shape.strides();
        for (d, s) in strides.iter().enumerate() {
            // moving one step in dim d moves the flat index by the stride
            let mut idx = vec![0usize; shape.rank()];
            if shape.dims()[d] > 1 {
                let base = shape.linearize(&idx);
                idx[d] = 1;
                prop_assert_eq!(shape.linearize(&idx) - base, *s);
            }
        }
    }

    #[test]
    fn shape_iter_is_exhaustive_ordered_and_unique(shape in arb_shape()) {
        let pts: Vec<Vec<usize>> = shape.iter().collect();
        prop_assert_eq!(pts.len(), shape.len());
        for w in pts.windows(2) {
            prop_assert!(shape.linearize(&w[0]) < shape.linearize(&w[1]));
        }
    }

    // ---- MdRange ---------------------------------------------------------

    #[test]
    fn tiling_partitions_a_range(
        sizes in prop::collection::vec(1usize..20, 1..4),
        dim_frac in 0.0f64..1.0,
        tile in 1usize..8,
    ) {
        let r = MdRange::full(&sizes);
        let d = ((sizes.len() as f64) * dim_frac) as usize % sizes.len();
        let tiles = r.tile_dim(d, tile);
        // total points preserved
        prop_assert_eq!(tiles.iter().map(|t| t.len()).sum::<usize>(), r.len());
        // tiles are disjoint and ordered along d
        for w in tiles.windows(2) {
            prop_assert_eq!(w[0].hi[d], w[1].lo[d]);
        }
        // every tile is within the parent
        for t in &tiles {
            for dd in 0..sizes.len() {
                prop_assert!(t.lo[dd] >= r.lo[dd] && t.hi[dd] <= r.hi[dd]);
            }
        }
    }

    #[test]
    fn split_at_partitions(
        sizes in prop::collection::vec(1usize..16, 1..4),
        dim_frac in 0.0f64..1.0,
        at_frac in 0.0f64..=1.0,
    ) {
        let r = MdRange::full(&sizes);
        let d = ((sizes.len() as f64) * dim_frac) as usize % sizes.len();
        let at = ((sizes[d] as f64) * at_frac).round() as usize;
        let (p, q) = r.split_at(d, at.min(sizes[d]));
        prop_assert_eq!(p.len() + q.len(), r.len());
        for idx in r.iter() {
            prop_assert!(p.contains(&idx) != q.contains(&idx));
        }
    }

    // ---- AffineExpr / IndexFn ---------------------------------------------

    #[test]
    fn affine_bounds_contain_all_values(
        coeffs in prop::collection::vec(-4i64..5, 1..4),
        constant in -10i64..10,
        sizes in prop::collection::vec(1usize..6, 1..4),
    ) {
        prop_assume!(coeffs.len() == sizes.len());
        let e = AffineExpr::new(coeffs, constant);
        let r = MdRange::full(&sizes);
        let (lo, hi) = e.bounds_over(&r);
        for idx in r.iter() {
            let v = e.eval(&idx);
            prop_assert!(v >= lo && v <= hi, "{v} outside [{lo},{hi}]");
        }
    }

    #[test]
    fn footprint_covers_accessed_extents(
        c in 1i64..4,
        off in 0i64..5,
        n in 1usize..10,
    ) {
        let f = IndexFn::affine(vec![AffineExpr::new(vec![c], off)]);
        let r = MdRange::full(&[n]);
        let fp = f.footprint(&r).unwrap();
        let touched: std::collections::HashSet<usize> = r
            .iter()
            .map(|idx| f.eval(&idx).unwrap()[0])
            .collect();
        let span = touched.iter().max().unwrap() - touched.iter().min().unwrap() + 1;
        prop_assert!(fp[0] >= span);
    }

    #[test]
    fn exhaustive_injectivity_is_ground_truth(
        coeffs in prop::collection::vec(0i64..3, 2),
        sizes in prop::collection::vec(1usize..5, 2),
    ) {
        let f = IndexFn::affine(vec![AffineExpr::new(coeffs, 0)]);
        let r = MdRange::full(&sizes);
        if let Some(claim) = f.is_injective_over(&r, 10_000) {
            // recompute by brute force
            let mut seen = std::collections::HashSet::new();
            let mut truth = true;
            for idx in r.iter() {
                if !seen.insert(f.eval(&idx).unwrap()) {
                    truth = false;
                    break;
                }
            }
            prop_assert_eq!(claim, truth);
        }
    }

    // ---- Buffer ------------------------------------------------------------

    #[test]
    fn buffer_set_get_roundtrip(
        shape in arb_shape(),
        vals in prop::collection::vec(-100.0f64..100.0, 1..8),
    ) {
        let mut b = Buffer::zeros("b", BasicType::F64, shape.clone());
        for (i, &v) in vals.iter().enumerate() {
            let flat = i % shape.len().max(1);
            let idx = shape.delinearize(flat);
            b.set(&idx, &Value::F64(v)).unwrap();
            prop_assert_eq!(b.get(&idx), Value::F64(v));
        }
    }

    #[test]
    fn fill_with_matches_get_flat(shape in arb_shape()) {
        let mut b = Buffer::zeros("b", BasicType::F32, shape.clone());
        b.fill_with(|i| (i as f64) * 0.5);
        for i in 0..shape.len() {
            prop_assert_eq!(b.get_flat(i), Value::F32(i as f32 * 0.5));
        }
    }

    // ---- Combine operators ---------------------------------------------------

    #[test]
    fn builtin_reduces_are_associative_and_commutative(
        op in prop_oneof![
            Just(BuiltinReduce::Add),
            Just(BuiltinReduce::Mul),
            Just(BuiltinReduce::Max),
            Just(BuiltinReduce::Min),
        ],
        vals in prop::collection::vec(-16i64..16, 3..6),
    ) {
        let f = PwFunc::builtin(op);
        let samples: Vec<Vec<Value>> = vals.iter().map(|&v| vec![Value::I64(v)]).collect();
        prop_assert!(f.check_associative(&samples, 0.0).unwrap());
        for (a, b) in samples.iter().flat_map(|a| samples.iter().map(move |b| (a, b))) {
            prop_assert_eq!(f.combine(a, b).unwrap(), f.combine(b, a).unwrap());
        }
    }

    #[test]
    fn identity_elements_are_neutral(
        op in prop_oneof![
            Just(BuiltinReduce::Add),
            Just(BuiltinReduce::Mul),
            Just(BuiltinReduce::Max),
            Just(BuiltinReduce::Min),
        ],
        v in -1000i64..1000,
    ) {
        let f = PwFunc::builtin(op);
        let id = op.identity(ScalarKind::I64);
        let combined = f.combine(&vec![id], &vec![Value::I64(v)]).unwrap();
        prop_assert_eq!(combined, vec![Value::I64(v)]);
    }

    // ---- Value semantics ------------------------------------------------------

    #[test]
    fn value_cast_is_idempotent(v in -1e6f64..1e6) {
        for kind in [ScalarKind::F32, ScalarKind::F64, ScalarKind::I32, ScalarKind::I64] {
            let once = Value::F64(v).cast(kind).unwrap();
            let twice = once.cast(kind).unwrap();
            prop_assert_eq!(once, twice);
        }
    }

    #[test]
    fn approx_eq_is_reflexive_and_symmetric(a in -1e9f64..1e9, b in -1e9f64..1e9) {
        let (x, y) = (Value::F64(a), Value::F64(b));
        prop_assert!(x.approx_eq(&x, 0.0));
        prop_assert_eq!(x.approx_eq(&y, 1e-9), y.approx_eq(&x, 1e-9));
    }
}
