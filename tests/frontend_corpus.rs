//! Hostile-input corpus through *all four* front ends (Python-like
//! directive, C pragma, Fortran directive, textual DSL): truncated
//! sources, deep nesting, `i64::MAX` sizes, stray control characters —
//! every case must return a graceful `MdhError`, never panic. This is
//! the compile-side complement of the wire-level corpus in
//! `server_protocol.rs` (the serving path feeds exactly these functions
//! with client-controlled bytes).

use mdh::core::error::MdhError;
use mdh::directive::{compile, compile_c, compile_fortran, parse_dsl, DirectiveEnv};

const DIRECTIVE: &str = "\
@mdh( out( w = Buffer[fp32] ),
      inp( M = Buffer[fp32], v = Buffer[fp32] ),
      combine_ops( cc, pw(add) ) )
def matvec(w, M, v):
    for i in range(I):
        for k in range(K):
            w[i] = M[i, k] * v[k]
";

const C_SRC: &str = "\
#pragma mdh out(w[fp32]) inp(M[fp32], v[fp32]) combine(cc, pw(add))
for (int i = 0; i < I; i++)
  for (int k = 0; k < K; k++)
    w[i] += M[i][k] * v[k];
";

const FORTRAN_SRC: &str = "\
!$mdh out(w:fp32) inp(M:fp32, v:fp32) combine(cc, pw(add))
do i = 1, I
  do k = 1, K
    w(i) = w(i) + M(i, k) * v(k)
  end do
end do
";

/// Valid in its front end, unlike `C_SRC` / `FORTRAN_SRC`: the corpus
/// mutates one line of these, so the mutated line is what gets refused.
const C_KERNEL: &str = "\
#pragma mdh out(y: float[N]) inp(x: float[N]) combine_ops(cc)
for (int i = 0; i < N; i++) {
    y[i] = x[i];
}
";

const F_KERNEL: &str = "\
!$mdh out(y: real[N]) inp(x: real[N]) combine_ops(cc)
do i = 1, N
   y(i) = x(i)
end do
";

fn env() -> DirectiveEnv {
    DirectiveEnv::new().size("I", 8).size("K", 8).size("N", 8)
}

type FrontEnd = (
    &'static str,
    fn(&str, &DirectiveEnv) -> Result<mdh::core::dsl::DslProgram, MdhError>,
);

fn front_ends() -> Vec<FrontEnd> {
    vec![
        ("directive", compile),
        ("c", compile_c),
        ("fortran", compile_fortran),
        ("dsl", parse_dsl),
    ]
}

/// Feed every corpus entry through every front end: no call may panic,
/// and clearly-invalid input must come back as `Err`, not a bogus
/// program.
#[test]
fn hostile_sources_error_gracefully_in_all_front_ends() {
    // (name, source, must_reject): `must_reject = false` marks input a
    // front end may legitimately accept — the invariant under test is
    // then only "no panic, no stack overflow". Nesting past
    // MAX_NEST_DEPTH is rejected by the depth guard, never recursed into.
    let deep_nest = format!("w[i] = {}1{}", "(".repeat(2000), ")".repeat(2000));
    let corpus: Vec<(String, String, bool)> = vec![
        ("empty".into(), String::new(), true),
        ("whitespace only".into(), "  \t \n \t\t \n\n".into(), true),
        ("NUL bytes".into(), "@mdh\0def f():\0".into(), true),
        (
            "stray tabs in header".into(),
            "@mdh(\tout(\tw =\tBuffer[fp32]".into(),
            true,
        ),
        (
            "truncated directive".into(),
            DIRECTIVE[..DIRECTIVE.len() / 2].into(),
            true,
        ),
        ("truncated c".into(), C_SRC[..C_SRC.len() / 3].into(), true),
        (
            "truncated fortran".into(),
            FORTRAN_SRC[..FORTRAN_SRC.len() / 3].into(),
            true,
        ),
        (
            "unbalanced parens".into(),
            "@mdh( out( w = Buffer[fp32] )".into(),
            true,
        ),
        (
            "deep paren nesting".into(),
            format!(
                "@mdh( out( w = Buffer[fp32] ), inp( v = Buffer[fp32] ), \
             combine_ops( cc ) )\ndef f(w, v):\n    for i in range(I):\n        {deep_nest}\n"
            ),
            true,
        ),
        (
            "deep unary chain".into(),
            format!(
                "@mdh( out( w = Buffer[fp32] ), inp( v = Buffer[fp32] ), \
             combine_ops( cc ) )\ndef f(w, v):\n    for i in range(I):\n        w[i] = {}v[i]\n",
                "-".repeat(100_000)
            ),
            true,
        ),
        (
            "directive with no body".into(),
            "@mdh( out(), inp(), combine_ops() )\n".into(),
            true,
        ),
        (
            "pragma with garbage".into(),
            "#pragma mdh ()()()!!\nfor;;\n".into(),
            true,
        ),
        (
            "fortran soup".into(),
            "!$mdh do do do end end end".into(),
            true,
        ),
        ("dsl keyword only".into(), "out_view".into(), true),
        ("emoji".into(), "@mdh 🚀 def 🚀():".into(), true),
        // statement lines that defeat text slicing: the old Fortran front
        // end sliced `&t[open + 1..close]` with `open > close` and panicked
        (
            "fortran if with reversed parentheses".into(),
            F_KERNEL.replace("y(i) = x(i)", "if )( then\ny(i) = x(i)\nend if"),
            true,
        ),
        (
            "fortran assignment with reversed parentheses".into(),
            F_KERNEL.replace("y(i)", "y)i("),
            true,
        ),
        (
            "c if with reversed parentheses".into(),
            C_KERNEL.replace("y[i] = x[i];", "if )( { y[i] = x[i]; }"),
            true,
        ),
        (
            "do with no =".into(),
            F_KERNEL.replace("do i = 1, N", "do i 1, N"),
            true,
        ),
        (
            "if with no then".into(),
            F_KERNEL.replace("y(i) = x(i)", "if (x(i) > 0)\ny(i) = x(i)\nend if"),
            true,
        ),
        (
            "unterminated & continuation".into(),
            "!$mdh out(y: real[N]) inp(x: real[N]) combine_ops(cc) &".into(),
            true,
        ),
        (
            "unterminated \\ continuation".into(),
            "#pragma mdh out(y: float[N]) inp(x: float[N]) combine_ops(cc) \\".into(),
            true,
        ),
        (
            "# in a string subscript".into(),
            DIRECTIVE.replace("v[k]", "v['#k']"),
            true,
        ),
        (
            "// in a string subscript".into(),
            C_KERNEL.replace("x[i]", "x[\"//i\"]"),
            true,
        ),
        (
            "! in a string subscript".into(),
            F_KERNEL.replace("x(i)", "x('!i')"),
            true,
        ),
    ];
    let e = env();
    for (name, src, must_reject) in &corpus {
        for (fe_name, fe) in front_ends() {
            let result = std::panic::catch_unwind(|| fe(src, &e));
            let result = result
                .unwrap_or_else(|_| panic!("front end '{fe_name}' panicked on corpus '{name}'"));
            if *must_reject {
                assert!(
                    result.is_err(),
                    "front end '{fe_name}' accepted hostile corpus '{name}'"
                );
            }
        }
    }
}

/// `i64::MAX`-scale size bindings: the compile may succeed (a program is
/// just metadata) but must not panic, and multi-dimensional programs
/// whose iteration-space volume overflows `usize` must fail validation
/// gracefully rather than wrap around.
#[test]
fn huge_sizes_do_not_panic_and_overflow_fails_validation() {
    let huge = DirectiveEnv::new().size("I", i64::MAX).size("K", i64::MAX);
    // rejecting at compile time is equally graceful; if it compiles,
    // validation must catch the overflow
    if let Ok(prog) = compile(DIRECTIVE, &huge) {
        let err = prog
            .validate()
            .expect_err("i64::MAX × i64::MAX iteration space must not validate");
        assert!(
            matches!(err, MdhError::Validation(_)),
            "expected a validation error, got {err:?}"
        );
    }

    // a size expression that overflows during constant evaluation must
    // come back as an error, not an arithmetic panic (debug) or a
    // silently wrapped size (release)
    let overflowing = "\
@mdh( out( w = Buffer[fp32] ),
      inp( v = Buffer[fp32] ),
      combine_ops( cc ) )
def f(w, v):
    for i in range(N * N):
        w[i] = v[i]
";
    let near_max = DirectiveEnv::new().size("N", i64::MAX / 2);
    let r = std::panic::catch_unwind(|| compile(overflowing, &near_max));
    let r = r.expect("overflowing size expression must not panic the front end");
    assert!(r.is_err(), "N*N with N=i64::MAX/2 must be rejected: {r:?}");

    // negative sizes are rejected, not wrapped through `as usize`
    let negative = DirectiveEnv::new().size("I", -1).size("K", 8);
    let r = compile(DIRECTIVE, &negative);
    assert!(r.is_err(), "negative loop bound must be rejected: {r:?}");
}

/// The nesting-depth guard is a bound, not a blanket ban: parens within
/// `MAX_NEST_DEPTH` compile and evaluate, one source past it errors
/// gracefully in every front end — including deeply nested statements
/// (C braces, Fortran `do` chains), which recurse in the statement
/// parsers rather than the expression parsers.
#[test]
fn nesting_depth_is_bounded_not_stack_dependent() {
    use mdh::directive::MAX_NEST_DEPTH;

    let wrapped = |n: usize| {
        format!(
            "@mdh( out( w = Buffer[fp32] ), inp( v = Buffer[fp32] ), \
             combine_ops( cc ) )\ndef f(w, v):\n    for i in range(I):\n        \
             w[i] = {}v[i] * 1{}\n",
            "(".repeat(n),
            ")".repeat(n)
        )
    };
    let e = DirectiveEnv::new().size("I", 8);
    // comfortably inside the bound: accepted
    compile(&wrapped(MAX_NEST_DEPTH / 2), &e).expect("moderate nesting must compile");
    // far past the bound: a parse error, not a stack overflow
    let err = compile(&wrapped(MAX_NEST_DEPTH * 4), &e).expect_err("deep nesting must be rejected");
    assert!(
        err.to_string().contains("nesting deeper than"),
        "expected the depth-guard error, got: {err}"
    );

    // statement-level nesting: 5000 brace-nested C for-loops
    let mut c_src = String::from(
        "#pragma mdh out(w:float[8]) inp(v:float[8]) combine(cc)\n\
         for (int i = 0; i < I; i++) {\n",
    );
    for _ in 0..5000 {
        c_src.push_str("{\n");
    }
    c_src.push_str("w[i] = v[i];\n");
    for _ in 0..5000 {
        c_src.push_str("}\n");
    }
    c_src.push_str("}\n");
    let r = std::panic::catch_unwind(|| compile_c(&c_src, &e));
    assert!(
        r.expect("deep C statement nesting must not panic").is_err(),
        "deep C statement nesting must be rejected"
    );

    // statement-level nesting: 5000 Fortran do-loops
    let mut f_src = String::from("!$mdh out(w:fp32) inp(v:fp32) combine(cc)\n");
    for d in 0..5000 {
        f_src.push_str(&format!("do i{d} = 1, 2\n"));
    }
    f_src.push_str("w(i0) = v(i0)\n");
    for _ in 0..5000 {
        f_src.push_str("end do\n");
    }
    let r = std::panic::catch_unwind(|| compile_fortran(&f_src, &e));
    assert!(
        r.expect("deep Fortran do nesting must not panic").is_err(),
        "deep Fortran do nesting must be rejected"
    );
}

/// A literal `range(9223372036854775807)` in the source text (no binding
/// involved) goes through constant evaluation without panicking.
#[test]
fn literal_i64_max_loop_bound_is_handled() {
    let src = "\
@mdh( out( w = Buffer[fp32] ),
      inp( v = Buffer[fp32] ),
      combine_ops( cc ) )
def f(w, v):
    for i in range(9223372036854775807):
        w[i] = v[i]
";
    let r = std::panic::catch_unwind(|| compile(src, &DirectiveEnv::new()));
    let r = r.expect("i64::MAX literal bound must not panic");
    if let Ok(prog) = r {
        // 1-D: the volume itself fits in usize, so validation may pass;
        // what matters is that nothing panicked and the size is exact
        assert_eq!(prog.md_hom.sizes, vec![i64::MAX as usize]);
    }
}

/// A seeded token-level mutator over the four `kernels/` sources: drop,
/// duplicate, swap, or replace a token with one from anywhere else in the
/// file. No mutant may panic its front end, and two runs must agree on
/// how many compiled — the front ends are pure functions of their input.
/// (A net under the front ends, not the proof of their robustness: the
/// same mutator found nothing in 10⁶ mutants of the text-slicing parsers
/// either. The proof is that the statement grammars only consume tokens;
/// CI greps for text searching in them.)
#[test]
fn seeded_token_mutants_never_panic_and_runs_agree() {
    // one kernel per front end, in `front_ends()` order
    let kernels = [
        include_str!("../kernels/matvec.py"),
        include_str!("../kernels/matmul.c"),
        include_str!("../kernels/jacobi1d.f90"),
        include_str!("../kernels/matvec.mdh"),
    ];
    let e = DirectiveEnv::new().size("I", 8).size("J", 8).size("K", 8);
    let e = e.size("N", 8);
    let run = || {
        let mut state = 0x9E37_79B9_7F4A_7C15u64; // xorshift64 seed
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let mut counts = Vec::new();
        for (src, (name, front_end)) in kernels.into_iter().zip(front_ends()) {
            // tokens: words, single punctuation characters, blank runs
            let mut pieces: Vec<&str> = Vec::new();
            let mut rest = src;
            while let Some(c) = rest.chars().next() {
                let class = |c: char| (c.is_alphanumeric() || c == '_', c.is_whitespace());
                let end = rest
                    .char_indices()
                    .find(|&(i, d)| i > 0 && (class(d) != class(c) || class(c) == (false, false)))
                    .map_or(rest.len(), |(i, _)| i);
                pieces.push(&rest[..end]);
                rest = &rest[end..];
            }
            let (mut ok, mut err) = (0usize, 0usize);
            for _ in 0..20_000 {
                let mut mutant = pieces.clone();
                for _ in 0..1 + next(3) {
                    let (i, j) = (next(mutant.len()), next(mutant.len()));
                    match next(4) {
                        0 => drop(mutant.remove(i)),
                        1 => mutant.insert(i, mutant[i]),
                        2 => mutant.swap(i, j),
                        _ => mutant[i] = pieces[next(pieces.len())],
                    }
                    if mutant.is_empty() {
                        break;
                    }
                }
                let text = mutant.concat();
                match std::panic::catch_unwind(|| front_end(&text, &e)) {
                    Ok(Ok(_)) => ok += 1,
                    Ok(Err(_)) => err += 1,
                    Err(_) => panic!("front end '{name}' panicked on mutant:\n{text}"),
                }
            }
            counts.push((name, ok, err));
        }
        counts
    };
    let first = run();
    assert_eq!(first, run(), "two runs of one seed must agree");
    for (name, ok, err) in first {
        assert!(
            ok > 0 && err > 0,
            "{name}: {ok} ok / {err} err — mutator too weak or too strong"
        );
    }
}
