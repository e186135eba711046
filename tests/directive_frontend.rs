//! Integration tests of the directive front end: textual parsing,
//! analysis, transformation to the DSL, equivalence with the programmatic
//! builder, and the paper-mandated error behaviours — plus property tests
//! randomising sizes through the whole front end.

use mdh::core::buffer::Buffer;
use mdh::core::eval::evaluate_recursive;
use mdh::core::shape::Shape;
use mdh::core::types::BasicType;
use mdh::directive::builder::sx;
use mdh::directive::{compile, DirectiveBuilder, DirectiveEnv};
use proptest::prelude::*;

const MATMUL: &str = "\
@mdh( out( C = Buffer[fp32] ),
      inp( A = Buffer[fp32], B = Buffer[fp32] ),
      combine_ops( cc, cc, pw(add) ) )
def matmul(C, A, B):
    for i in range(I):
        for j in range(J):
            for k in range(K):
                C[i, j] = A[i, k] * B[k, j]
";

#[test]
fn textual_and_builder_front_ends_agree() {
    let env = DirectiveEnv::new().size("I", 5).size("J", 4).size("K", 6);
    let from_text = compile(MATMUL, &env).unwrap();
    let from_builder = DirectiveBuilder::new("matmul")
        .out("C", "fp32")
        .inp("A", "fp32")
        .inp("B", "fp32")
        .combine_op_cc()
        .combine_op_cc()
        .combine_op_pw("add")
        .loop_var("i", sx::name("I"))
        .loop_var("j", sx::name("J"))
        .loop_var("k", sx::name("K"))
        .store(
            sx::store("C", vec![sx::name("i"), sx::name("j")]),
            sx::mul(
                sx::load("A", vec![sx::name("i"), sx::name("k")]),
                sx::load("B", vec![sx::name("k"), sx::name("j")]),
            ),
        )
        .build(&env)
        .unwrap();

    assert_eq!(from_text.md_hom.sizes, from_builder.md_hom.sizes);
    assert_eq!(
        from_text.output_shapes().unwrap(),
        from_builder.output_shapes().unwrap()
    );
    // identical results on identical inputs
    let mut a = Buffer::zeros("A", BasicType::F32, Shape::new(vec![5, 6]));
    a.fill_with(|f| (f % 7) as f64);
    let mut b = Buffer::zeros("B", BasicType::F32, Shape::new(vec![6, 4]));
    b.fill_with(|f| (f % 5) as f64 * 0.5);
    let inputs = vec![a, b];
    let r1 = evaluate_recursive(&from_text, &inputs).unwrap();
    let r2 = evaluate_recursive(&from_builder, &inputs).unwrap();
    assert_eq!(r1[0], r2[0]);
}

#[test]
fn plus_equals_is_rejected_with_guidance() {
    let src = MATMUL.replace("C[i, j] = A[i, k]", "C[i, j] += A[i, k]");
    let env = DirectiveEnv::new().size("I", 2).size("J", 2).size("K", 2);
    let err = compile(&src, &env).unwrap_err().to_string();
    assert!(err.contains("combine_ops"), "{err}");
}

#[test]
fn missing_size_binding_is_reported() {
    let env = DirectiveEnv::new().size("I", 2).size("J", 2); // K missing
    let err = compile(MATMUL, &env).unwrap_err().to_string();
    assert!(err.contains("constant"), "{err}");
}

#[test]
fn wrong_operator_count_is_reported() {
    let src = MATMUL.replace(
        "combine_ops( cc, cc, pw(add) )",
        "combine_ops( cc, pw(add) )",
    );
    let env = DirectiveEnv::new().size("I", 2).size("J", 2).size("K", 2);
    let err = compile(&src, &env).unwrap_err().to_string();
    assert!(err.contains("depth"), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn matmul_directive_matches_handwritten_for_random_sizes(
        i in 1usize..6,
        j in 1usize..6,
        k in 1usize..7,
        seed in prop::collection::vec(-2.0f64..2.0, 3..9),
    ) {
        let env = DirectiveEnv::new()
            .size("I", i as i64)
            .size("J", j as i64)
            .size("K", k as i64);
        let prog = compile(MATMUL, &env).unwrap();
        let mut a = Buffer::zeros("A", BasicType::F32, Shape::new(vec![i, k]));
        a.fill_with(|f| seed[f % seed.len()]);
        let mut b = Buffer::zeros("B", BasicType::F32, Shape::new(vec![k, j]));
        b.fill_with(|f| seed[(f * 11 + 5) % seed.len()]);
        let out = evaluate_recursive(&prog, &[a.clone(), b.clone()]).unwrap();
        let (af, bf) = (a.as_f32().unwrap(), b.as_f32().unwrap());
        let c = out[0].as_f32().unwrap();
        for ii in 0..i {
            for jj in 0..j {
                let expect: f32 =
                    (0..k).map(|kk| af[ii * k + kk] * bf[kk * j + jj]).sum();
                prop_assert!((c[ii * j + jj] - expect).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn stencil_directive_matches_for_random_sizes_and_weights(
        n in 1usize..32,
        w0 in -2.0f64..2.0,
        w1 in -2.0f64..2.0,
    ) {
        let src = format!(
            "\
@mdh( out( y = Buffer[fp32] ),
      inp( x = Buffer[fp32] ),
      combine_ops( cc ) )
def st(y, x):
    for i in range(N):
        y[i] = {w0:.6} * x[i] + {w1:.6} * x[i+1]
"
        );
        let env = DirectiveEnv::new().size("N", n as i64);
        let prog = compile(&src, &env).unwrap();
        let mut x = Buffer::zeros("x", BasicType::F32, Shape::new(vec![n + 1]));
        x.fill_with(|f| (f % 9) as f64 - 4.0);
        let out = evaluate_recursive(&prog, &[x.clone()]).unwrap();
        let xf = x.as_f32().unwrap();
        let y = out[0].as_f32().unwrap();
        for i in 0..n {
            let e = (w0 as f32) * xf[i] + (w1 as f32) * xf[i + 1];
            prop_assert!((y[i] - e).abs() < 1e-3);
        }
    }
}
