//! Property tests for plan-cache keying.
//!
//! The contract the runtime depends on:
//!
//! * **buffer names are irrelevant** — two directives differing only in
//!   their buffer (and program) names must key the same cache entry, or
//!   a served model re-deployed under a new tensor-naming scheme would
//!   re-lower everything;
//! * **combine operators are load-bearing** — programs differing in any
//!   combine operator compute different reductions and must *never*
//!   collide, or the cache would serve wrong answers. That holds for a
//!   custom combine function named like a builtin, and for two custom
//!   functions sharing a name but not a body. A cached plan carries the
//!   route its runs take, so a collision would also serve one program
//!   another's kernel; one runtime test checks that end to end.

use mdh_core::buffer::{bits_hash, Buffer};
use mdh_core::combine::CombineOp;
use mdh_core::dsl::{DslBuilder, DslProgram};
use mdh_core::eval::evaluate_recursive;
use mdh_core::expr::{BinOp, Expr, MathFn, ScalarFunction, Stmt};
use mdh_core::index_fn::IndexFn;
use mdh_core::shape::Shape;
use mdh_core::types::{BasicType, ScalarKind};
use mdh_directive::{compile, DirectiveEnv};
use mdh_lowering::asm::DeviceKind;
use mdh_runtime::{structural_signature, PlanKey, Request, Runtime, RuntimeConfig};
use proptest::prelude::*;
use std::sync::Arc;

/// A valid, distinct-from-keywords buffer identifier.
fn ident() -> BoxedStrategy<String> {
    proptest::collection::vec(0usize..26, 1..8)
        .prop_map(|v| {
            let suffix: String = v.iter().map(|&c| (b'a' + c as u8) as char).collect();
            format!("buf_{suffix}")
        })
        .boxed()
}

/// The MatVec directive with configurable buffer names.
fn matvec_src(out: &str, mat: &str, vec: &str) -> String {
    format!(
        "@mdh( out( {out} = Buffer[fp32] ),\n\
         \x20     inp( {mat} = Buffer[fp32], {vec} = Buffer[fp32] ),\n\
         \x20     combine_ops( cc, pw(add) ) )\n\
         def matvec({out}, {mat}, {vec}):\n\
         \x20   for i in range(I):\n\
         \x20       for k in range(K):\n\
         \x20           {out}[i] = {mat}[i, k] * {vec}[k]\n"
    )
}

/// A custom combine function named `add` computing `body(lhs, rhs)` over
/// f32.
fn custom_add(body: fn(Expr, Expr) -> Expr) -> CombineOp {
    custom_add_of(BasicType::F32, body)
}

/// A custom combine function named `add` computing `body(lhs, rhs)` over
/// `ty`.
fn custom_add_of(ty: BasicType, body: fn(Expr, Expr) -> Expr) -> CombineOp {
    let f = ScalarFunction {
        name: "add".into(),
        params: vec![("lhs".into(), ty.clone()), ("rhs".into(), ty.clone())],
        results: vec![("out".into(), ty)],
        body: vec![Stmt::Assign {
            name: "out".into(),
            value: body(Expr::Param(0), Expr::Param(1)),
        }],
    };
    CombineOp::pw_custom(f).expect("valid combine function")
}

/// An f32 MatVec `w = m · v` reducing its second dimension with `red`.
fn matvec_reducing(i: usize, k: usize, red: CombineOp) -> DslProgram {
    DslBuilder::new("matvec", vec![i, k])
        .out_buffer("w", BasicType::F32)
        .out_access("w", IndexFn::select(2, &[0]))
        .inp_buffer("m", BasicType::F32)
        .inp_access("m", IndexFn::identity(2, 2))
        .inp_buffer("v", BasicType::F32)
        .inp_access("v", IndexFn::select(2, &[1]))
        .scalar_function(ScalarFunction::mul2("f", ScalarKind::F32))
        .combine_ops(vec![CombineOp::cc(), red])
        .build()
        .expect("valid program")
}

/// `w[i]` over a 2×3×4 f64 `x`: `cc`, then the builtin `pw(add)` along
/// the second dim and a custom function named `add` that keeps the larger
/// operand along the third — two pw functions sharing one name.
fn add_then_custom_add() -> DslProgram {
    let larger = |l: Expr, r: Expr| {
        let ge = Expr::Bin(BinOp::Ge, Box::new(l.clone()), Box::new(r.clone()));
        Expr::Select(Box::new(ge), Box::new(l), Box::new(r))
    };
    DslBuilder::new("mixed", vec![2, 3, 4])
        .out_buffer("w", BasicType::F64)
        .out_access("w", IndexFn::select(3, &[0]))
        .inp_buffer("x", BasicType::F64)
        .inp_access("x", IndexFn::identity(3, 3))
        .scalar_function(ScalarFunction::identity("f", ScalarKind::F64))
        .combine_ops(vec![
            CombineOp::cc(),
            CombineOp::pw_add(),
            custom_add_of(BasicType::F64, larger),
        ])
        .build()
        .expect("valid program")
}

fn compile_matvec(names: &[String; 3], i: i64, k: i64) -> DslProgram {
    let env = DirectiveEnv::new().size("I", i).size("K", k);
    compile(&matvec_src(&names[0], &names[1], &names[2]), &env).expect("matvec directive compiles")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Directives differing only in buffer names share one cache entry.
    #[test]
    fn buffer_names_do_not_affect_the_plan_key(
        a in ident(),
        b in ident(),
        c in ident(),
        d in ident(),
        e in ident(),
        f in ident(),
        i in 1i64..64,
        k in 1i64..64,
    ) {
        // distinct names within each program (prefixes make them valid;
        // suffix them positionally to rule out accidental collision)
        let n1 = [format!("{a}_o"), format!("{b}_m"), format!("{c}_v")];
        let n2 = [format!("{d}_o"), format!("{e}_m"), format!("{f}_v")];
        let p1 = compile_matvec(&n1, i, k);
        let p2 = compile_matvec(&n2, i, k);
        prop_assert_eq!(
            structural_signature(&p1),
            structural_signature(&p2),
            "buffer names leaked into the structural signature"
        );
        prop_assert_eq!(
            PlanKey::of(&p1, DeviceKind::Cpu),
            PlanKey::of(&p2, DeviceKind::Cpu)
        );
    }

    /// Distinct shape classes and devices key distinct entries even for
    /// identical structure.
    #[test]
    fn shape_class_and_device_separate_entries(
        i in 1i64..64,
        k in 1i64..64,
    ) {
        let names = ["w".to_string(), "m".to_string(), "v".to_string()];
        let p = compile_matvec(&names, i, k);
        let q = compile_matvec(&names, i + 1, k);
        prop_assert_ne!(PlanKey::of(&p, DeviceKind::Cpu), PlanKey::of(&q, DeviceKind::Cpu));
        prop_assert_ne!(PlanKey::of(&p, DeviceKind::Cpu), PlanKey::of(&p, DeviceKind::Gpu));
    }

    /// Programs identical except for a combine operator never collide.
    #[test]
    fn differing_combine_ops_never_collide(
        i in 1usize..32,
        k in 1usize..32,
        op_a in 0usize..6,
        op_b in 0usize..6,
    ) {
        prop_assume!(op_a != op_b);
        let ops = [
            CombineOp::pw_add(),
            CombineOp::pw_mul(),
            CombineOp::pw_max(),
            CombineOp::pw_min(),
            // renders `pw(add)` like the builtin
            custom_add(Expr::add),
            // the same name, another body
            custom_add(Expr::mul),
        ];
        let pa = matvec_reducing(i, k, ops[op_a].clone());
        let pb = matvec_reducing(i, k, ops[op_b].clone());
        prop_assert_ne!(
            structural_signature(&pa),
            structural_signature(&pb),
            "combine operators must always separate cache entries"
        );
        prop_assert_ne!(PlanKey::of(&pa, DeviceKind::Cpu), PlanKey::of(&pb, DeviceKind::Cpu));
    }
}

/// A custom combine function named `add` keys its own plan, and so its
/// own route: through one runtime, neither it nor the builtin `pw(add)`
/// is served the other's kernel. Nor does the VM fold a pw dim with
/// another dim's function because the two share a name.
#[test]
fn a_custom_add_is_not_served_the_builtin_route() {
    let builtin = matvec_reducing(16, 32, CombineOp::pw_add());
    let custom = matvec_reducing(
        16,
        32,
        custom_add(|l, r| Expr::Call(MathFn::Max, vec![l, r])),
    );
    let mut m = Buffer::zeros("m", BasicType::F32, Shape::new(vec![16, 32]));
    m.fill_with(|i| (i % 7) as f64);
    let mut v = Buffer::zeros("v", BasicType::F32, Shape::new(vec![32]));
    v.fill_with(|i| (i % 5) as f64);
    let inputs = Arc::new(vec![m, v]);
    let mixed = add_then_custom_add();
    let mut x = Buffer::zeros("x", BasicType::F64, Shape::new(vec![2, 3, 4]));
    x.fill_with(|i| ((i * 7) % 11) as f64);
    let mixed_inputs = Arc::new(vec![x]);
    let rt = Runtime::new(RuntimeConfig::default()).expect("runtime");
    for device in [DeviceKind::Cpu, DeviceKind::Gpu] {
        for prog in [&builtin, &custom, &builtin, &custom, &mixed] {
            let inputs = if prog.name == "mixed" {
                &mixed_inputs
            } else {
                &inputs
            };
            let want = evaluate_recursive(prog, inputs).expect("oracle");
            let req = Request::new(prog.clone(), device, Arc::clone(inputs));
            let got = rt.submit(req).wait().expect("launch").outputs;
            let ops = &prog.md_hom.combine_ops[1..];
            assert_eq!(bits_hash(&got), bits_hash(&want), "{device} {ops:?}");
        }
    }
    let routes = rt.stats().plan_routes;
    assert_eq!(routes.len(), 6, "{routes:?}");
    assert_eq!(routes[0], ("cpu matvec 16x32".into(), "fast".into()));
    assert!(routes[1].1.starts_with("vm: "), "{routes:?}");
    let mixed_route = routes.iter().find(|(label, _)| label == "cpu mixed 2x3x4");
    let declined = mixed_route.is_some_and(|(_, r)| r.starts_with("reference: "));
    assert!(declined, "{routes:?}");
}

/// The builtin scan `stack_bench` serves as `scan_256k` (its
/// `kernels/scan.py`, `N = 2¹⁸`) is cached on the scan kernel's route,
/// and `STATS json` says so.
#[test]
fn the_benchmark_scan_is_cached_on_the_scan_kernel() {
    const SCAN: &str = "\
@mdh( out( y = Buffer[fp64] ),
      inp( x = Buffer[fp64] ),
      combine_ops( ps(add) ) )
def scan(y, x):
    for i in range(N):
        y[i] = x[i]
";
    let n = 1 << 18;
    let prog = compile(SCAN, &DirectiveEnv::new().size("N", n as i64)).expect("scan");
    let mut x = Buffer::zeros("x", BasicType::F64, Shape::new(vec![n]));
    x.fill_with(|i| (i % 3) as f64);
    let rt = Runtime::new(RuntimeConfig::default()).expect("runtime");
    let req = Request::new(prog, DeviceKind::Cpu, Arc::new(vec![x]));
    let out = rt.submit(req).wait().expect("launch").outputs;
    // integer-valued: every bracketing of the sum is exact
    let y = out[0].as_f64().expect("f64 output");
    assert_eq!((y[0], y[3], y[n - 1]), (0.0, 3.0, (n - 1) as f64));
    let json = rt.stats().to_json();
    assert!(json.contains(r#""cpu scan 262144":"fast""#), "{json}");
}
