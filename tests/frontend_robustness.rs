//! Robustness fuzzing of the directive front end: arbitrary input text
//! must never panic the lexer or parser — it either parses or returns a
//! positioned error. Structured mutations of a valid directive must
//! produce actionable errors.

use mdh::directive::lexer::tokenize;
use mdh::directive::{compile, parse, DirectiveEnv};
use proptest::prelude::*;

const VALID: &str = "\
@mdh( out( w = Buffer[fp32] ),
      inp( M = Buffer[fp32], v = Buffer[fp32] ),
      combine_ops( cc, pw(add) ) )
def matvec(w, M, v):
    for i in range(I):
        for k in range(K):
            w[i] = M[i, k] * v[k]
";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lexer_never_panics(src in ".*") {
        let _ = tokenize(&src);
    }

    #[test]
    fn lexer_never_panics_on_directive_like_soup(
        words in prop::collection::vec(
            prop_oneof![
                Just("@mdh".to_string()),
                Just("def".to_string()),
                Just("for".to_string()),
                Just("in".to_string()),
                Just("range".to_string()),
                Just("(".to_string()),
                Just(")".to_string()),
                Just("[".to_string()),
                Just("]".to_string()),
                Just(":".to_string()),
                Just("=".to_string()),
                Just("+=".to_string()),
                Just(",".to_string()),
                Just("\n".to_string()),
                Just("    ".to_string()),
                "[a-z]{1,4}",
                "[0-9]{1,3}",
            ],
            0..60,
        )
    ) {
        let src = words.concat();
        let _ = tokenize(&src);
        let _ = parse(&src); // must not panic either
    }

    #[test]
    fn parser_never_panics_on_mutated_directives(
        cut_at in 0usize..200,
        insert in prop_oneof![
            Just(""), Just(")"), Just("("), Just(":"), Just("=="),
            Just("\n\n"), Just("combine_ops"), Just("@"), Just("0.5"),
        ],
    ) {
        let mut src = VALID.to_string();
        let cut = cut_at.min(src.len());
        // cut at a char boundary
        let cut = (0..=cut).rev().find(|&i| src.is_char_boundary(i)).unwrap_or(0);
        src.truncate(cut);
        src.push_str(insert);
        let _ = parse(&src);
    }

    #[test]
    fn compile_never_panics_with_random_bindings(
        i in -3i64..300,
        k in -3i64..300,
    ) {
        let env = DirectiveEnv::new().size("I", i).size("K", k);
        let _ = compile(VALID, &env); // negative sizes must error, not panic
    }
}

#[test]
fn negative_loop_bound_is_an_error() {
    let env = DirectiveEnv::new().size("I", -1).size("K", 4);
    let err = compile(VALID, &env).unwrap_err().to_string();
    assert!(err.contains("negative"), "{err}");
}

#[test]
fn parse_errors_carry_positions() {
    let src = "@mdh( out( w = Buffer[fp32] ),\n      inp( v = Buffer[ ),\n      combine_ops( cc ) )\ndef f(w, v):\n    for i in range(I):\n        w[i] = v[i]\n";
    let err = compile(src, &DirectiveEnv::new().size("I", 4)).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("parse error at 2:"), "{msg}");
}

#[test]
fn zero_sized_dimensions_are_handled() {
    // a zero-extent loop is legal: outputs stay zero-initialised
    let env = DirectiveEnv::new().size("I", 0).size("K", 4);
    let prog = compile(VALID, &env).unwrap();
    assert_eq!(prog.md_hom.points(), 0);
}

/// A declared buffer shape smaller than what the loop nest touches must
/// stop at `validate` — both map kernels used to write such an output out
/// of bounds (heap corruption in release builds, past the server's
/// worker-panic isolation).
#[test]
fn declared_shapes_smaller_than_the_loop_are_rejected() {
    use mdh::core::error::MdhError;
    use mdh::directive::{compile_c, compile_fortran};
    let env = DirectiveEnv::new().size("N", 100_000);
    // Fortran, undersized output: the scaled-sum and the weighted-sum body
    let f_scaled = "\
!$mdh out(y: real[4]) inp(x: real[N + 2]) combine_ops(cc)
do i = 1, N
   y(i) = 0.333 * (x(i) + x(i + 1) + x(i + 2))
end do
";
    let f_weighted = "\
!$mdh out(y: real[4]) inp(x: real[N + 2]) combine_ops(cc)
do i = 1, N
   y(i) = 0.25 * x(i) + 0.5 * x(i + 1) + 0.25 * x(i + 2)
end do
";
    // Fortran, undersized input
    let f_input = "\
!$mdh out(y: real[N]) inp(x: real[N]) combine_ops(cc)
do i = 1, N
   y(i) = 0.333 * (x(i) + x(i + 1) + x(i + 2))
end do
";
    let c_output = "\
#pragma mdh out(y: float[4]) inp(x: float[N + 2]) combine_ops(cc)
for (int i = 0; i < N; i++)
    y[i] = 0.25 * x[i] + 0.5 * x[i + 1] + 0.25 * x[i + 2];
";
    type Front = fn(&str, &DirectiveEnv) -> mdh::core::error::Result<mdh::core::dsl::DslProgram>;
    let cases: [(&str, Front, &str, &str); 4] = [
        ("fortran scaled sum", compile_fortran, f_scaled, "'y'"),
        ("fortran weighted sum", compile_fortran, f_weighted, "'y'"),
        ("fortran input", compile_fortran, f_input, "'x'"),
        ("c pragma", compile_c, c_output, "'y'"),
    ];
    for (what, front, src, buffer) in cases {
        // whether the front end validates itself or leaves it to the
        // caller, the program must not survive `validate`
        match front(src, &env).and_then(|p| p.validate()) {
            Err(MdhError::Validation(msg)) => {
                assert!(
                    msg.contains(buffer) && msg.contains("declared"),
                    "{what}: {msg}"
                )
            }
            other => panic!("{what}: expected a Validation error, got {other:?}"),
        }
    }
    // the same kernels with covering declarations still compile
    let ok = f_scaled.replace("real[4]", "real[N]");
    compile_fortran(&ok, &env).unwrap().validate().unwrap();
}
