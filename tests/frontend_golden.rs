//! One golden for what the four front ends *produce*: `format!("{:?}",
//! DslProgram)` of every kernel file (`kernels/`, `stack_bench/kernels/`)
//! and of every source constant the other test files, `examples/c_pragmas.rs`
//! and the C / Fortran unit tests compile, under the bindings those files
//! use. `tests/golden/frontend_programs.txt` was recorded at the commit
//! *before* the three directive parsers were replaced by one lexer, one
//! expression grammar and one clause parser (DESIGN.md "Front ends: one
//! grammar, three dialects"); byte equality here is the proof that the
//! rewrite lowers the same programs. A rejected source is pinned by its
//! error *kind* only — messages and columns are allowed to improve.
//!
//! On a mismatch the test names the rows that moved and writes the
//! complete replacement file under `target/tmp/`; copying it over the
//! golden is the (deliberate, reviewed) re-baseline.

use mdh::core::combine::PwFunc;
use mdh::core::error::MdhError;
use mdh::core::expr::{BinOp, Expr, ScalarFunction, Stmt};
use mdh::core::types::BasicType;
use mdh::directive::{compile, compile_c, compile_fortran, parse_dsl, DirectiveEnv};

const GOLDEN: &str = include_str!("golden/frontend_programs.txt");

#[derive(Clone, Copy)]
enum Fe {
    Py,
    C,
    F,
    Dsl,
}

/// `tests/tutorial.rs`'s custom combine operator.
fn argmin() -> PwFunc {
    let take = |from: usize| {
        vec![
            Stmt::Assign {
                name: "res_id".into(),
                value: Expr::Param(from),
            },
            Stmt::Assign {
                name: "res_dist".into(),
                value: Expr::Param(from + 1),
            },
        ]
    };
    PwFunc::custom(ScalarFunction {
        name: "argmin".into(),
        params: vec![
            ("lhs_id".into(), BasicType::I64),
            ("lhs_dist".into(), BasicType::F32),
            ("rhs_id".into(), BasicType::I64),
            ("rhs_dist".into(), BasicType::F32),
        ],
        results: vec![
            ("res_id".into(), BasicType::I64),
            ("res_dist".into(), BasicType::F32),
        ],
        body: vec![Stmt::If {
            cond: Expr::Bin(
                BinOp::Le,
                Box::new(Expr::Param(1)),
                Box::new(Expr::Param(3)),
            ),
            then_branch: take(0),
            else_branch: take(2),
        }],
    })
    .unwrap()
}

const PY_MATVEC: &str = "\
@mdh( out( w = Buffer[fp32] ),
      inp( M = Buffer[fp32], v = Buffer[fp32] ),
      combine_ops( cc, pw(add) ) )
def matvec(w, M, v):
    for i in range(I):
        for k in range(K):
            w[i] = M[i, k] * v[k]
";

const PY_MATMUL: &str = "\
@mdh( out( C = Buffer[fp32] ),
      inp( A = Buffer[fp32], B = Buffer[fp32] ),
      combine_ops( cc, cc, pw(add) ) )
def matmul(C, A, B):
    for i in range(I):
        for j in range(J):
            for k in range(K):
                C[i, j] = A[i, k] * B[k, j]
";

const PY_DOT: &str = "\
@mdh( out( res = Buffer[fp32] ),
      inp( x = Buffer[fp32], y = Buffer[fp32] ),
      combine_ops( pw(add) ) )
def dot(res, x, y):
    for k in range(N):
        res[0] = x[k] * y[k]
";

const PY_STENCIL: &str = "\
@mdh( out( y = Buffer[fp32] ),
      inp( x = Buffer[fp32] ),
      combine_ops( cc ) )
def st(y, x):
    for i in range(N):
        y[i] = 0.750000 * x[i] + -1.250000 * x[i+1]
";

const PY_NEAREST: &str = "\
@mdh( out( assign = Buffer[int64], dist = Buffer[fp32] ),
      inp( ids = Buffer[int64], points = Buffer[fp32], centroids = Buffer[fp32] ),
      combine_ops( cc, pw(argmin) ) )
def nearest(assign, dist, ids, points, centroids):
    for n in range(N):
        for c in range(C):
            d0: fp32
            d1: fp32
            d2: fp32
            d0 = points[n, 0] - centroids[c, 0]
            d1 = points[n, 1] - centroids[c, 1]
            d2 = points[n, 2] - centroids[c, 2]
            assign[n] = ids[c]
            dist[n] = d0 * d0 + d1 * d1 + d2 * d2
";

const C_NEAREST: &str = r#"
#pragma mdh out(assign: long[N], dist: float[N]) \
            inp(ids: long[C], points: float[N][3], centroids: float[C][3]) \
            combine_ops(cc, pw(argmin))
for (int n = 0; n < N; n++) {
    for (int c = 0; c < C; c++) {
        float d0;
        float d1;
        float d2;
        d0 = points[n][0] - centroids[c][0];
        d1 = points[n][1] - centroids[c][1];
        d2 = points[n][2] - centroids[c][2];
        assign[n] = ids[c];
        dist[n] = d0 * d0 + d1 * d1 + d2 * d2;
    }
}
"#;

const PY_OVERFLOWING: &str = "\
@mdh( out( w = Buffer[fp32] ),
      inp( v = Buffer[fp32] ),
      combine_ops( cc ) )
def f(w, v):
    for i in range(N * N):
        w[i] = v[i]
";

const PY_I64_MAX: &str = "\
@mdh( out( w = Buffer[fp32] ),
      inp( v = Buffer[fp32] ),
      combine_ops( cc ) )
def f(w, v):
    for i in range(9223372036854775807):
        w[i] = v[i]
";

const PY_WRAP: &str = "\
@mdh( out( y = Buffer[int64] ),
      inp( x = Buffer[int64] ),
      combine_ops( cc ) )
def wrap(y, x):
    for i in range(N):
        y[i] = (x[i] * 0 - 9223372036854775807 - 1) % (x[i] * 0 - 1)
";

const PY_SCALED: &str = "\
@mdh( out( y = Buffer[fp32] ),
      inp( x = Buffer[fp32] ),
      combine_ops( cc ) )
def scaled(y, x):
    for k in range(N):
        y[k] = 0.5 * x[k]
";

// tests/frontend_corpus.rs: deliberately not in either pragma grammar
const CORPUS_C: &str = "\
#pragma mdh out(w[fp32]) inp(M[fp32], v[fp32]) combine(cc, pw(add))
for (int i = 0; i < I; i++)
  for (int k = 0; k < K; k++)
    w[i] += M[i][k] * v[k];
";

const CORPUS_F: &str = "\
!$mdh out(w:fp32) inp(M:fp32, v:fp32) combine(cc, pw(add))
do i = 1, I
  do k = 1, K
    w(i) = w(i) + M(i, k) * v(k)
  end do
end do
";

const F_SCALED: &str = "\
!$mdh out(y: real[4]) inp(x: real[N + 2]) combine_ops(cc)
do i = 1, N
   y(i) = 0.333 * (x(i) + x(i + 1) + x(i + 2))
end do
";

const F_WEIGHTED: &str = "\
!$mdh out(y: real[4]) inp(x: real[N + 2]) combine_ops(cc)
do i = 1, N
   y(i) = 0.25 * x(i) + 0.5 * x(i + 1) + 0.25 * x(i + 2)
end do
";

const F_JACOBI: &str = "\
!$mdh out(y: real[N]) inp(x: real[N + 2]) combine_ops(cc)
do i = 1, N
   y(i) = 0.333 * (x(i) + x(i + 1) + x(i + 2))
end do
";

const C_UNDERSIZED: &str = "\
#pragma mdh out(y: float[4]) inp(x: float[N + 2]) combine_ops(cc)
for (int i = 0; i < N; i++)
    y[i] = 0.25 * x[i] + 0.5 * x[i + 1] + 0.25 * x[i + 2];
";

const C_MATVEC_ONE_LINE: &str = r#"
#pragma mdh out(w: float[I]) inp(M: float[I][K], v: float[K]) combine_ops(cc, pw(add))
for (int i = 0; i < I; i++) {
    for (int k = 0; k < K; k++) {
        w[i] = M[i][k] * v[k];
    }
}
"#;

const C_MATVEC: &str = r#"
#pragma mdh out(w: float[I]) inp(M: float[I][K], v: float[K]) \
            combine_ops(cc, pw(add))
for (int i = 0; i < I; i++) {
    for (int k = 0; k < K; k++) {
        w[i] = M[i][k] * v[k];
    }
}
"#;

const C_MATMUL_COMMENTED: &str = r#"
// MatMul as a C programmer writes it — compare the paper's Listing 1
// (PPCG/Pluto) and Listing 2 (OpenMP): same loop nest, but the reduction
// over k is declared in the pragma instead of hidden in a `+=`.
#pragma mdh out(C: float[I][J]) inp(A: float[I][K], B: float[K][J]) \
            combine_ops(cc, cc, pw(add))
for (int i = 0; i < I; i++)
    for (int j = 0; j < J; j++)
        for (int k = 0; k < K; k++)
            C[i][j] = A[i][k] * B[k][j];
"#;

const C_MATMUL_3D: &str = r#"
#pragma mdh out(C: float[I][J]) inp(A: float[I][K], B: float[K][J]) \
            combine_ops(cc, cc, pw(add))
for (int i = 0; i < I; i++)
    for (int j = 0; j < J; j++)
        for (int k = 0; k < K; k++)
            C[i][j] = A[i][k] * B[k][j];
"#;

const C_STENCIL: &str = r#"
#pragma mdh out(y: float[N]) inp(x: float[N + 2]) combine_ops(cc)
for (int i = 0; i < N; i++) {
    y[i] = 0.25f * x[i] + 0.5f * x[i + 1] + 0.25f * x[i + 2];
}
"#;

const C_LOCALS: &str = r#"
#pragma mdh out(y: float[N]) inp(x: float[N]) combine_ops(cc)
for (int i = 0; i < N; i++) {
    float t;
    t = x[i] * 2.0f;
    if (t > 1.0f) {
        y[i] = t;
    } else {
        y[i] = 0.0f;
    }
}
"#;

const C_LOWER_BOUND: &str = r#"
#pragma mdh out(y: float[N]) inp(x: float[N]) combine_ops(cc)
for (int i = 1; i < N; i++) { y[i] = x[i]; }
"#;

const F_MATVEC: &str = "\
!$mdh out(w: real[I]) inp(M: real[I][K], v: real[K]) &
!$mdh combine_ops(cc, pw(add))
do i = 1, I
   do k = 1, K
      w(i) = M(i, k) * v(k)
   end do
end do
";

const F_IF: &str = "\
!$mdh out(y: real[N]) inp(x: real[N]) combine_ops(cc)
do i = 1, N
   if (x(i) > 0.5) then
      y(i) = x(i)
   else
      y(i) = 0.0
   end if
end do
";

const F_LOWER_BOUND: &str = "\
!$mdh out(y: real[N]) inp(x: real[N]) combine_ops(cc)
do i = 2, N
   y(i) = x(i)
end do
";

const DSL_MATVEC: &str = "\
out_view[fp32]( w = [lambda i,k: (i)] ),
md_hom[I,K]( f_mul, (cc, pw(add)) ),
inp_view[fp32,fp32]( M = [lambda i,k: (i,k)], v = [lambda i,k: (k)] )
";

type Row = (&'static str, Fe, String, &'static [(&'static str, i64)]);

fn rows() -> Vec<Row> {
    const IK: &[(&str, i64)] = &[("I", 8), ("K", 8)];
    const IJK: &[(&str, i64)] = &[("I", 5), ("J", 4), ("K", 6)];
    const N8: &[(&str, i64)] = &[("N", 8)];
    const N64: &[(&str, i64)] = &[("N", 64)];
    const CORPUS: &[(&str, i64)] = &[("I", 8), ("K", 8), ("N", 8)];
    const NC: &[(&str, i64)] = &[("N", 64), ("C", 16)];
    let file = |s: &str| s.to_string();
    vec![
        // kernels/ (README's sizes scaled down; a program is metadata)
        (
            "kernels/matvec.py",
            Fe::Py,
            file(include_str!("../kernels/matvec.py")),
            &[("I", 2048), ("K", 2048)],
        ),
        (
            "kernels/matmul.c",
            Fe::C,
            file(include_str!("../kernels/matmul.c")),
            &[("I", 256), ("J", 256), ("K", 256)],
        ),
        (
            "kernels/jacobi1d.f90",
            Fe::F,
            file(include_str!("../kernels/jacobi1d.f90")),
            &[("N", 100_000)],
        ),
        (
            "kernels/matvec.mdh",
            Fe::Dsl,
            file(include_str!("../kernels/matvec.mdh")),
            &[("I", 2048), ("K", 2048)],
        ),
        // stack_bench/kernels/ at the sizes of stack_bench/src/workloads.rs
        (
            "stack_bench/matvec.py",
            Fe::Py,
            file(include_str!("../stack_bench/kernels/matvec.py")),
            &[("I", 4096), ("K", 4096)],
        ),
        (
            "stack_bench/matmul.c",
            Fe::C,
            file(include_str!("../stack_bench/kernels/matmul.c")),
            &[("I", 1024), ("J", 1024), ("K", 1024)],
        ),
        (
            "stack_bench/jacobi1d.f90",
            Fe::F,
            file(include_str!("../stack_bench/kernels/jacobi1d.f90")),
            &[("N", 128)],
        ),
        (
            "stack_bench/matvec.mdh",
            Fe::Dsl,
            file(include_str!("../stack_bench/kernels/matvec.mdh")),
            &[("I", 96), ("K", 48)],
        ),
        (
            "stack_bench/dot.py",
            Fe::Py,
            file(include_str!("../stack_bench/kernels/dot.py")),
            &[("N", 1 << 22)],
        ),
        (
            "stack_bench/jacobi3d.py",
            Fe::Py,
            file(include_str!("../stack_bench/kernels/jacobi3d.py")),
            &[("N", 254)],
        ),
        (
            "stack_bench/ccsdt.py",
            Fe::Py,
            file(include_str!("../stack_bench/kernels/ccsdt.py")),
            &[
                ("A", 12),
                ("B", 8),
                ("C", 8),
                ("D", 12),
                ("E", 8),
                ("F", 12),
                ("K", 16),
            ],
        ),
        (
            "stack_bench/scan.py",
            Fe::Py,
            file(include_str!("../stack_bench/kernels/scan.py")),
            &[("N", 1 << 18)],
        ),
        (
            "stack_bench/matvec_f64.py",
            Fe::Py,
            file(include_str!("../stack_bench/kernels/matvec_f64.py")),
            &[("I", 1024), ("K", 1024)],
        ),
        (
            "stack_bench/matmul_f64.c",
            Fe::C,
            file(include_str!("../stack_bench/kernels/matmul_f64.c")),
            &[("I", 128), ("J", 128), ("K", 128)],
        ),
        // tests/directive_frontend.rs
        ("directive_frontend/MATMUL", Fe::Py, file(PY_MATMUL), IJK),
        (
            "directive_frontend/MATMUL +=",
            Fe::Py,
            PY_MATMUL.replace("C[i, j] = A[i, k]", "C[i, j] += A[i, k]"),
            IJK,
        ),
        (
            "directive_frontend/MATMUL K unbound",
            Fe::Py,
            file(PY_MATMUL),
            &[("I", 2), ("J", 2)],
        ),
        (
            "directive_frontend/MATMUL two operators",
            Fe::Py,
            PY_MATMUL.replace(
                "combine_ops( cc, cc, pw(add) )",
                "combine_ops( cc, pw(add) )",
            ),
            IJK,
        ),
        (
            "directive_frontend/stencil",
            Fe::Py,
            file(PY_STENCIL),
            &[("N", 17)],
        ),
        // tests/tutorial.rs (argmin registered)
        ("tutorial/SRC", Fe::Py, file(PY_NEAREST), NC),
        ("tutorial/c_src", Fe::C, file(C_NEAREST), NC),
        // tests/frontend_corpus.rs
        ("frontend_corpus/DIRECTIVE", Fe::Py, file(PY_MATVEC), CORPUS),
        ("frontend_corpus/C_SRC", Fe::C, file(CORPUS_C), CORPUS),
        ("frontend_corpus/FORTRAN_SRC", Fe::F, file(CORPUS_F), CORPUS),
        (
            "frontend_corpus/overflowing",
            Fe::Py,
            file(PY_OVERFLOWING),
            &[("N", i64::MAX / 2)],
        ),
        (
            "frontend_corpus/negative",
            Fe::Py,
            file(PY_MATVEC),
            &[("I", -1), ("K", 8)],
        ),
        (
            "frontend_corpus/i64 max literal",
            Fe::Py,
            file(PY_I64_MAX),
            &[],
        ),
        // tests/frontend_robustness.rs
        (
            "frontend_robustness/VALID zero extent",
            Fe::Py,
            file(PY_MATVEC),
            &[("I", 0), ("K", 4)],
        ),
        (
            "frontend_robustness/f_scaled",
            Fe::F,
            file(F_SCALED),
            &[("N", 100_000)],
        ),
        (
            "frontend_robustness/f_weighted",
            Fe::F,
            file(F_WEIGHTED),
            &[("N", 100_000)],
        ),
        (
            "frontend_robustness/f_input",
            Fe::F,
            F_JACOBI.replace("x: real[N + 2]", "x: real[N]"),
            &[("N", 100_000)],
        ),
        (
            "frontend_robustness/c_output",
            Fe::C,
            file(C_UNDERSIZED),
            &[("N", 100_000)],
        ),
        (
            "frontend_robustness/f_scaled covering",
            Fe::F,
            F_SCALED.replace("real[4]", "real[N]"),
            &[("N", 100_000)],
        ),
        // tests/server_protocol.rs, tests/grad_serving.rs, server.rs units
        ("server_protocol/DOT", Fe::Py, file(PY_DOT), N64),
        (
            "server_protocol/JACOBI",
            Fe::F,
            file(F_JACOBI),
            &[("N", 100_000)],
        ),
        ("server_protocol/WRAP", Fe::Py, file(PY_WRAP), N64),
        ("server/SCALED", Fe::Py, file(PY_SCALED), N64),
        (
            "grad_serving/MATVEC",
            Fe::Py,
            file(PY_MATVEC),
            &[("I", 48), ("K", 32)],
        ),
        // tests/cli.rs
        ("cli/PY_MATVEC", Fe::Py, file(PY_MATVEC), IK),
        ("cli/C_MATVEC", Fe::C, file(C_MATVEC_ONE_LINE), IK),
        ("cli/DSL_MATVEC", Fe::Dsl, file(DSL_MATVEC), IK),
        ("cli/F_MATVEC", Fe::F, file(F_MATVEC), IK),
        // examples/c_pragmas.rs
        (
            "c_pragmas/C_KERNEL",
            Fe::C,
            file(C_MATMUL_COMMENTED),
            &[("I", 128), ("J", 96), ("K", 160)],
        ),
        (
            "c_pragmas/PY_KERNEL",
            Fe::Py,
            file(PY_MATMUL),
            &[("I", 128), ("J", 96), ("K", 160)],
        ),
        (
            "c_pragmas/legacy +=",
            Fe::C,
            C_MATMUL_COMMENTED.replace("C[i][j] =", "C[i][j] +="),
            &[("I", 128), ("J", 96), ("K", 160)],
        ),
        // c_frontend unit tests
        (
            "c_frontend/MATVEC_C",
            Fe::C,
            file(C_MATVEC),
            &[("I", 4), ("K", 6)],
        ),
        (
            "c_frontend/plus equals",
            Fe::C,
            C_MATVEC_ONE_LINE.replace("w[i] =", "w[i] +="),
            &[("I", 2), ("K", 2)],
        ),
        ("c_frontend/stencil", Fe::C, file(C_STENCIL), &[("N", 6)]),
        ("c_frontend/locals and branches", Fe::C, file(C_LOCALS), N8),
        (
            "c_frontend/matmul 3d",
            Fe::C,
            file(C_MATMUL_3D),
            &[("I", 3), ("J", 4), ("K", 5)],
        ),
        (
            "c_frontend/missing pragma",
            Fe::C,
            file("for (int i = 0; i < N; i++) { y[i] = x[i]; }"),
            N8,
        ),
        ("c_frontend/lower bound 1", Fe::C, file(C_LOWER_BOUND), N8),
        // fortran_frontend unit tests
        (
            "fortran_frontend/MATVEC_F",
            Fe::F,
            file(F_MATVEC),
            &[("I", 4), ("K", 6)],
        ),
        (
            "fortran_frontend/one based offsets",
            Fe::F,
            F_WEIGHTED.replace("real[4]", "real[N]"),
            &[("N", 6)],
        ),
        ("fortran_frontend/if then else", Fe::F, file(F_IF), N8),
        (
            "fortran_frontend/lower bound 2",
            Fe::F,
            file(F_LOWER_BOUND),
            N8,
        ),
        (
            "fortran_frontend/missing sentinel",
            Fe::F,
            file("do i = 1, N\n y(i) = x(i)\nend do\n"),
            N8,
        ),
    ]
}

fn render() -> Vec<(&'static str, String)> {
    rows()
        .into_iter()
        .map(|(name, fe, src, sizes)| {
            let env = sizes
                .iter()
                .fold(DirectiveEnv::new().combine_fn(argmin()), |e, (n, v)| {
                    e.size(n, *v)
                });
            let result = match fe {
                Fe::Py => compile(&src, &env),
                Fe::C => compile_c(&src, &env),
                Fe::F => compile_fortran(&src, &env),
                Fe::Dsl => parse_dsl(&src, &env),
            };
            let text = match result {
                Ok(prog) => format!("{prog:?}"),
                Err(MdhError::Parse { .. }) => "Err(Parse)".to_string(),
                Err(MdhError::Validation(_)) => "Err(Validation)".to_string(),
                Err(other) => format!("Err({other:?})"),
            };
            (name, text)
        })
        .collect()
}

#[test]
fn every_known_source_lowers_to_the_recorded_program() {
    let actual = render();
    let text: String = actual
        .iter()
        .map(|(name, body)| format!("== {name}\n{body}\n"))
        .collect();
    if text == GOLDEN {
        return;
    }
    let golden: std::collections::HashMap<&str, &str> = GOLDEN
        .split("== ")
        .filter_map(|section| section.split_once('\n'))
        .map(|(name, body)| (name, body.trim_end_matches('\n')))
        .collect();
    let moved: Vec<&str> = actual
        .iter()
        .filter(|(name, body)| golden.get(name) != Some(&body.as_str()))
        .map(|(name, _)| *name)
        .collect();
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("frontend_programs.txt");
    std::fs::write(&path, &text).expect("write replacement golden");
    panic!(
        "{} of {} front-end programs differ from tests/golden/frontend_programs.txt \
         (or rows were added/removed): {moved:?}\nreplacement written to {}",
        moved.len(),
        actual.len(),
        path.display()
    );
}
