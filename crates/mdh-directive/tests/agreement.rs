//! The three directive front ends are one grammar in three spellings
//! (DESIGN.md "Front ends: one grammar, three dialects"). Each row of
//! [`ROWS`] is one kernel spelled as the paper's Python-like listing, as
//! `#pragma mdh` over C loops and as `!$mdh` over a Fortran `do` nest; all
//! three must parse to the same surface statements (line numbers aside,
//! integer index arithmetic folded so Fortran's `(i + 1) - 1` equals `i`),
//! declare the same buffers and lower to the byte-equal `DslProgram`.
//! [`REJECTED`] is the other half: inputs every front end that can spell
//! them must refuse, at the offending token's line and column.

use mdh_core::error::MdhError;
use mdh_directive::ast::{AssignTarget, BufferSpec, SurfBinOp, SurfUnOp, SurfaceExpr, SurfaceStmt};
use mdh_directive::{
    compile, compile_c, directive_to_dsl, parse, parse_c, parse_fortran, DirectiveAst, DirectiveEnv,
};
use std::collections::BTreeMap;

struct Row {
    what: &'static str,
    py: &'static str,
    c: &'static str,
    f: &'static str,
}

const ROWS: &[Row] = &[
    Row {
        what: "matvec: a reduction, a continued directive",
        py: "\
@mdh( out( w = Buffer[fp32, [I]] ),
      inp( M = Buffer[fp32, [I, K]], v = Buffer[fp32, [K]] ),
      combine_ops( cc, pw(add) ) )
def matvec(w, M, v):
    for i in range(I):
        for k in range(K):
            w[i] = M[i, k] * v[k]
",
        c: "\
#pragma mdh out(w: float[I]) inp(M: float[I][K], v: float[K]) \\
            combine_ops(cc, pw(add))
for (int i = 0; i < I; i++) {
    for (int k = 0; k < K; k++) {
        w[i] = M[i][k] * v[k];
    }
}
",
        f: "\
!$mdh out(w: real[I]) inp(M: real[I][K], v: real[K]) &
!$mdh combine_ops(cc, pw(add))
do i = 1, I
   do k = 1, K
      w(i) = M(i, k) * v(k)
   end do
end do
",
    },
    Row {
        what: "mixed precedence, parentheses, unary minus, intrinsics",
        py: "\
@mdh( out( y = Buffer[fp32, [N]] ), inp( a = Buffer[fp32, [N]], b = Buffer[fp32, [N]] ),
      combine_ops( cc ) )
def f(y, a, b):
    for i in range(N):
        y[i] = (a[i] + b[i] * 2) / (a[i] - 1.5) - -b[i] + max(abs(a[i]), sqrt(b[i]))
",
        c: "\
#pragma mdh out(y: float[N]) inp(a: float[N], b: float[N]) combine_ops(cc)
for (int i = 0; i < N; i++)
    y[i] = (a[i] + b[i] * 2) / (a[i] - 1.5) - -b[i] + fmaxf(fabsf(a[i]), sqrtf(b[i]));
",
        f: "\
!$mdh out(y: real[N]) inp(a: real[N], b: real[N]) combine_ops(cc)
do i = 1, N
   y(i) = (a(i) + b(i) * 2) / (a(i) - 1.5) - -b(i) + MAX(abs(a(i)), Sqrt(b(i)))
end do
",
    },
    Row {
        what: "and / or / not in every spelling",
        py: "\
@mdh( out( y = Buffer[fp32, [N]] ), inp( a = Buffer[fp32, [N]], b = Buffer[fp32, [N]] ),
      combine_ops( cc ) )
def f(y, a, b):
    for i in range(N):
        if (a[i] > 0.5 and not (b[i] > 0.25)) or a[i] != b[i]:
            y[i] = a[i]
        else:
            y[i] = b[i]
",
        c: "\
#pragma mdh out(y: float[N]) inp(a: float[N], b: float[N]) combine_ops(cc)
for (int i = 0; i < N; i++) {
    if ((a[i] > 0.5 && !(b[i] > 0.25)) || a[i] != b[i]) {
        y[i] = a[i];
    } else
        y[i] = b[i];
}
",
        f: "\
!$mdh out(y: real[N]) inp(a: real[N], b: real[N]) combine_ops(cc)
do i = 1, N
   IF ((a(i) > 0.5 .And. .NOT. (b(i) > 0.25)) .or. a(i) /= b(i)) Then
      y(i) = a(i)
   else
      y(i) = b(i)
   endif
enddo
",
    },
    Row {
        what: "one float grammar: exponents everywhere, the f suffix in C",
        py: "\
@mdh( out( y = Buffer[fp32, [N]] ), inp( x = Buffer[fp32, [N]] ), combine_ops( cc ) )
def f(y, x):
    for i in range(N):
        y[i] = 1e-3 * x[i] + 2.5E2 + 0.5
",
        c: "\
#pragma mdh out(y: float[N]) inp(x: float[N]) combine_ops(cc)
for (int i = 0; i < N; i++)
    y[i] = 1e-3 * x[i] + 2.5E2 + 0.5f;
",
        f: "\
!$mdh out(y: real[N]) inp(x: real[N]) combine_ops(cc)
do i = 1, N
   y(i) = 1e-3 * x(i) + 2.5E2 + 0.5
end do
",
    },
    Row {
        what: "rbi(add): an indexed reduction",
        py: "\
@mdh( out( h = Buffer[fp32, [N]] ), inp( w = Buffer[fp32, [N, K]] ),
      combine_ops( cc, rbi(add) ) )
def f(h, w):
    for i in range(N):
        for k in range(K):
            h[i] = w[i, k]
",
        c: "\
#pragma mdh out(h: float[N]) inp(w: float[N][K]) combine_ops(cc, rbi(add))
for (int i = 0; i < N; i++)
    for (int k = 0; k < K; ++k)
        h[i] = w[i][k];
",
        f: "\
!$mdh out(h: real[N]) inp(w: real[N][K]) combine_ops(cc, rbi(add))
do i = 1, N
   do k = 1, K
      h(i) = w(i, k)
   end do
end do
",
    },
    Row {
        what: "ps(add): a prefix sum, fp64",
        py: "\
@mdh( out( y = Buffer[fp64, [N]] ), inp( x = Buffer[fp64, [N]] ), combine_ops( ps(add) ) )
def f(y, x):
    for i in range(N):
        y[i] = x[i]
",
        c: "\
#pragma mdh out(y: double[N]) inp(x: double[N]) combine_ops(ps(add))
for (size_t i = 0; i < N; i++) { y[i] = x[i]; }
",
        f: "\
!$mdh out(y: REAL8[N]) inp(x: double[N]) combine_ops(ps(add))
do i = 1, N
   y(i) = x(i)
end do
",
    },
    Row {
        what: "declared extents: N + 2, -(-N), 2 * (N % 5); stencil offsets",
        py: "\
@mdh( out( y = Buffer[fp32, [-(-N)]] ),
      inp( x = Buffer[fp32, [N + 2]], t = Buffer[fp32, [2 * (N % 5)]] ),
      combine_ops( cc ) )
def f(y, x, t):
    for i in range(N):
        y[i] = 0.25 * x[i] + 0.5 * x[i + 1] + 0.25 * x[i + 2] + t[0]
",
        c: "\
#pragma mdh out(y: float[-(-N)]) inp(x: float[N + 2], t: float[2 * (N % 5)]) combine_ops(cc)
for (int i = 0; i < N; i++)
    y[i] = 0.25f * x[i] + 0.5f * x[i + 1] + 0.25f * x[i + 2] + t[0];
",
        f: "\
!$mdh out(y: real[-(-N)]) inp(x: real[N + 2], t: real[2 * (N % 5)]) combine_ops(cc)
do i = 1, N
   y(i) = 0.25 * x(i) + 0.5 * x(i + 1) + 0.25 * x(i + 2) + t(1)
end do
",
    },
    Row {
        what: "comments: trailing, full-line, before the directive",
        py: "\
# a scaled copy
@mdh( out( y = Buffer[fp32, [N]] ), inp( x = Buffer[fp32, [N]] ), combine_ops( cc ) )
def f(y, x):
    for i in range(N):  # every point
        # is independent
        y[i] = 2.0 * x[i]  # scaled
",
        c: "\
// a scaled copy
#pragma mdh out(y: float[N]) inp(x: float[N]) combine_ops(cc)
for (int i = 0; i < N; i++) {  // every point
    // is independent
    y[i] = 2.0f * x[i];  // scaled
}
",
        f: "\
! a scaled copy
!$mdh out(y: real[N]) inp(x: real[N]) combine_ops(cc)
do i = 1, N  ! every point
   ! is independent
   y(i) = 2.0 * x(i)  ! scaled
end do
",
    },
];

fn env() -> DirectiveEnv {
    DirectiveEnv::new().size("I", 5).size("K", 7).size("N", 12)
}

/// `Σ coeff·name + constant`, if `e` is integer-affine.
fn affine(e: &SurfaceExpr) -> Option<(BTreeMap<String, i64>, i64)> {
    let scaled = |(terms, c): (BTreeMap<String, i64>, i64), by: i64| {
        (
            terms.into_iter().map(|(n, k)| (n, k * by)).collect(),
            c * by,
        )
    };
    Some(match e {
        SurfaceExpr::Int(v) => (BTreeMap::new(), *v),
        SurfaceExpr::Name(n) => (BTreeMap::from([(n.clone(), 1)]), 0),
        SurfaceExpr::Un(SurfUnOp::Neg, a) => scaled(affine(a)?, -1),
        SurfaceExpr::Bin(op @ (SurfBinOp::Add | SurfBinOp::Sub), a, b) => {
            let sign = if *op == SurfBinOp::Add { 1 } else { -1 };
            let ((mut terms, c), (more, d)) = (affine(a)?, scaled(affine(b)?, sign));
            for (n, k) in more {
                *terms.entry(n).or_insert(0) += k;
            }
            (terms, c + d)
        }
        _ => return None,
    })
}

/// Canonical form: integer-affine subtrees rebuilt as `name + ... + c`.
fn norm(e: &SurfaceExpr) -> SurfaceExpr {
    if let Some((terms, c)) = affine(e) {
        let mut parts: Vec<SurfaceExpr> = terms
            .into_iter()
            .filter(|(_, k)| *k != 0)
            .map(|(n, k)| match k {
                1 => SurfaceExpr::Name(n),
                k => SurfaceExpr::Bin(
                    SurfBinOp::Mul,
                    Box::new(SurfaceExpr::Int(k)),
                    Box::new(SurfaceExpr::Name(n)),
                ),
            })
            .collect();
        if c != 0 || parts.is_empty() {
            parts.push(SurfaceExpr::Int(c));
        }
        let sum = |a, b| SurfaceExpr::Bin(SurfBinOp::Add, Box::new(a), Box::new(b));
        return parts
            .into_iter()
            .reduce(sum)
            .expect("at least the constant");
    }
    let all = |es: &[SurfaceExpr]| es.iter().map(norm).collect();
    match e {
        SurfaceExpr::Subscript(base, idx) => SurfaceExpr::Subscript(Box::new(norm(base)), all(idx)),
        SurfaceExpr::Attr(base, field) => SurfaceExpr::Attr(Box::new(norm(base)), field.clone()),
        SurfaceExpr::Bin(op, a, b) => SurfaceExpr::Bin(*op, Box::new(norm(a)), Box::new(norm(b))),
        SurfaceExpr::Un(op, a) => SurfaceExpr::Un(*op, Box::new(norm(a))),
        SurfaceExpr::Call(f, args) => SurfaceExpr::Call(f.clone(), all(args)),
        leaf => leaf.clone(),
    }
}

/// A statement with its expressions canonical and its line numbers zeroed.
fn norm_stmt(s: &SurfaceStmt) -> SurfaceStmt {
    let block = |b: &[SurfaceStmt]| b.iter().map(norm_stmt).collect();
    let line = 0;
    match s {
        SurfaceStmt::Assign { target, value, .. } => SurfaceStmt::Assign {
            target: match target {
                AssignTarget::Subscript(n, idx) => {
                    AssignTarget::Subscript(n.clone(), idx.iter().map(norm).collect())
                }
                name => name.clone(),
            },
            value: norm(value),
            line,
        },
        SurfaceStmt::AugAssign { target, .. } => SurfaceStmt::AugAssign {
            target: target.clone(),
            line,
        },
        SurfaceStmt::Decl { name, ty_name, .. } => SurfaceStmt::Decl {
            name: name.clone(),
            ty_name: ty_name.clone(),
            line,
        },
        SurfaceStmt::If {
            cond,
            then_branch,
            else_branch,
            ..
        } => SurfaceStmt::If {
            cond: norm(cond),
            then_branch: block(then_branch),
            else_branch: block(else_branch),
            line,
        },
        SurfaceStmt::For {
            var, count, body, ..
        } => SurfaceStmt::For {
            var: var.clone(),
            count: norm(count),
            body: block(body),
            line,
        },
    }
}

fn specs(bufs: &[BufferSpec]) -> Vec<(&str, &str, &Option<Vec<SurfaceExpr>>)> {
    (bufs.iter())
        .map(|b| (b.name.as_str(), b.ty_name.as_str(), &b.shape))
        .collect()
}

#[test]
fn one_kernel_three_spellings_one_program() {
    for row in ROWS {
        let what = row.what;
        let ast = |r: mdh_core::error::Result<DirectiveAst>, fe: &str| {
            let mut ast = r.unwrap_or_else(|e| panic!("{what}: {fe} front end: {e}"));
            ast.name = "kernel".into();
            ast
        };
        let py = ast(parse(row.py), "python");
        let lowered = |ast: &DirectiveAst, fe: &str| {
            let prog = directive_to_dsl(ast, &env());
            format!(
                "{:?}",
                prog.unwrap_or_else(|e| panic!("{what}: {fe} lowering: {e}"))
            )
        };
        let py_prog = lowered(&py, "python");
        let py_body: Vec<_> = py.body.iter().map(norm_stmt).collect();
        for (fe, other) in [
            ("c", ast(parse_c(row.c), "c")),
            ("fortran", ast(parse_fortran(row.f), "fortran")),
        ] {
            let body: Vec<_> = other.body.iter().map(norm_stmt).collect();
            assert_eq!(body, py_body, "{what}: {fe} body differs from python's");
            assert_eq!(specs(&other.out), specs(&py.out), "{what}: {fe} out(...)");
            assert_eq!(specs(&other.inp), specs(&py.inp), "{what}: {fe} inp(...)");
            assert_eq!(
                other.combine_ops, py.combine_ops,
                "{what}: {fe} combine_ops(...)"
            );
            assert_eq!(lowered(&other, fe), py_prog, "{what}: {fe} program");
        }
    }
}

type Parse = fn(&str) -> mdh_core::error::Result<DirectiveAst>;

/// `(what, front end, source, line, column, message fragment)`: the parse
/// error must sit on the offending token.
const REJECTED: &[(&str, Parse, &str, usize, usize, &str)] = &[
    (
        "duplicate out, python",
        parse,
        "@mdh( out( w = Buffer[fp32] ), out( w = Buffer[fp32] ),\n      inp( v = Buffer[fp32] ), combine_ops( cc ) )\ndef f(w, v):\n    for i in range(N):\n        w[i] = v[i]\n",
        1,
        32,
        "duplicate out",
    ),
    (
        "duplicate out, c",
        parse_c,
        "#pragma mdh out(w: float[N]) inp(v: float[N]) \\\n    out(w: float[N]) combine_ops(cc)\nfor (int i = 0; i < N; i++) w[i] = v[i];\n",
        2,
        5,
        "duplicate out",
    ),
    (
        "duplicate out, fortran",
        parse_fortran,
        "!$mdh out(w: real[N]) inp(v: real[N]) out(w: real[N]) combine_ops(cc)\ndo i = 1, N\n   w(i) = v(i)\nend do\n",
        1,
        39,
        "duplicate out",
    ),
    (
        "missing combine_ops, python",
        parse,
        "\n@mdh( out( w = Buffer[fp32] ), inp( v = Buffer[fp32] ) )\ndef f(w, v):\n    for i in range(N):\n        w[i] = v[i]\n",
        2,
        1,
        "requires a combine_ops",
    ),
    (
        "missing combine_ops, c",
        parse_c,
        "int unrelated;\n  #pragma mdh out(w: float[N]) inp(v: float[N])\nfor (int i = 0; i < N; i++) w[i] = v[i];\n",
        2,
        3,
        "requires a combine_ops",
    ),
    (
        "missing combine_ops, fortran",
        parse_fortran,
        "\n   !$mdh out(w: real[N]) inp(v: real[N])\ndo i = 1, N\n   w(i) = v(i)\nend do\n",
        2,
        4,
        "requires a combine_ops",
    ),
    (
        "reversed parentheses in an if, fortran",
        parse_fortran,
        "!$mdh out(y: real[N]) inp(x: real[N]) combine_ops(cc)\ndo i = 1, N\n   if )( then\n      y(i) = x(i)\n   end if\nend do\n",
        3,
        7,
        "expected '('",
    ),
    (
        "reversed parentheses in an assignment, fortran",
        parse_fortran,
        "!$mdh out(y: real[N]) inp(x: real[N]) combine_ops(cc)\ndo i = 1, N\n   y)i( = x(i)\nend do\n",
        3,
        5,
        "expected '='",
    ),
    (
        "reversed parentheses in an if, c",
        parse_c,
        "#pragma mdh out(y: float[N]) inp(x: float[N]) combine_ops(cc)\nfor (int i = 0; i < N; i++) {\n    if )( {\n        y[i] = x[i];\n    }\n}\n",
        3,
        8,
        "expected '('",
    ),
];

#[test]
fn malformed_input_is_refused_at_the_offending_token() {
    for (what, front_end, src, line, col, fragment) in REJECTED {
        match front_end(src) {
            Err(MdhError::Parse {
                line: l,
                col: c,
                message,
            }) => {
                assert_eq!((l, c), (*line, *col), "{what}: {message}");
                assert!(message.contains(fragment), "{what}: {message}");
            }
            other => panic!("{what}: expected a parse error, got {other:?}"),
        }
    }
}

/// `+=` parses — so that the analysis can answer with the paper's design
/// guidance (declare the reduction in `combine_ops`, write `=`).
#[test]
fn plus_equals_gets_the_papers_guidance_from_python_and_c() {
    let py = ROWS[0].py.replace("w[i] =", "w[i] +=");
    let c = ROWS[0].c.replace("w[i] =", "w[i] +=");
    for (fe, result) in [
        ("python", compile(&py, &env())),
        ("c", compile_c(&c, &env())),
    ] {
        let message = result.expect_err("`+=` must be rejected").to_string();
        assert!(
            message.contains("combine_ops") && message.contains("'='"),
            "{fe}: {message}"
        );
    }
}
