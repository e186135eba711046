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
//!   collide, or the cache would serve wrong answers.

use mdh_core::combine::CombineOp;
use mdh_core::dsl::{DslBuilder, DslProgram};
use mdh_core::expr::ScalarFunction;
use mdh_core::index_fn::IndexFn;
use mdh_core::types::{BasicType, ScalarKind};
use mdh_directive::{compile, DirectiveEnv};
use mdh_lowering::asm::DeviceKind;
use mdh_runtime::{structural_signature, PlanKey};
use proptest::prelude::*;

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
        op_a in 0usize..4,
        op_b in 0usize..4,
    ) {
        prop_assume!(op_a != op_b);
        let ops = [
            CombineOp::pw_add(),
            CombineOp::pw_mul(),
            CombineOp::pw_max(),
            CombineOp::pw_min(),
        ];
        let build = |red: CombineOp| {
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
        };
        let pa = build(ops[op_a].clone());
        let pb = build(ops[op_b].clone());
        prop_assert_ne!(
            structural_signature(&pa),
            structural_signature(&pb),
            "combine operators must always separate cache entries"
        );
        prop_assert_ne!(PlanKey::of(&pa, DeviceKind::Cpu), PlanKey::of(&pb, DeviceKind::Cpu));
    }
}
