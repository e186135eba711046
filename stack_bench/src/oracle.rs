//! The oracle: plain-Rust loop nests that say what each reply's checksum
//! must be.
//!
//! `mdh_core::eval::evaluate_recursive` is the product's semantic
//! reference, but at benchmark sizes it takes seconds to minutes (13 s for
//! PRL at `Scale::Medium`, minutes for a 2^20-point `cc`), and for f32
//! sums past 2^24 it rounds differently from every executor. So the
//! references here accumulate in f64, round once to the output type, and
//! are themselves unit-tested against `evaluate_recursive` at small sizes.
//! A reply passes when each checksum is within `REL_TOL` of the reference,
//! relative to the L1 norm of that output: a re-bracketed reduction passes,
//! a wrong result does not.

use crate::workloads::{Kind, Req};
use mdh_apps::AppInstance;
use mdh_core::buffer::Buffer;
use mdh_core::dsl::DslProgram;
use mdh_core::types::{BasicType, ScalarKind};

pub const REL_TOL: f64 = 1e-6;

/// What one output buffer's checksum must be.
#[derive(Debug, Clone, PartialEq)]
pub struct Expect {
    pub name: String,
    pub sum: f64,
    /// Sum of absolute values: the scale the tolerance is relative to.
    pub l1: f64,
}

impl Expect {
    pub fn accepts(&self, got: f64) -> bool {
        (got - self.sum).abs() <= REL_TOL * self.l1.max(1.0)
    }
}

fn to_f64(b: &Buffer) -> Result<Vec<f64>, String> {
    if let Some(v) = b.as_f32() {
        Ok(v.iter().map(|&x| x as f64).collect())
    } else if let Some(v) = b.as_f64() {
        Ok(v.to_vec())
    } else {
        Err(format!("buffer '{}' is neither f32 nor f64", b.name))
    }
}

pub fn dot(x: &[f64], y: &[f64]) -> Vec<f64> {
    vec![x.iter().zip(y).map(|(a, b)| a * b).sum()]
}

pub fn matvec(m: &[f64], v: &[f64], rows: usize, cols: usize) -> Vec<f64> {
    (0..rows)
        .map(|i| dot(&m[i * cols..(i + 1) * cols], v)[0])
        .collect()
}

/// `C[i,j] = sum_k A[i,k] * B[k,j]`, row-major, i-k-j order so the inner
/// loop streams rows of B and C.
pub fn matmul(a: &[f64], b: &[f64], i_n: usize, j_n: usize, k_n: usize) -> Vec<f64> {
    let mut c = vec![0f64; i_n * j_n];
    for i in 0..i_n {
        let row = &mut c[i * j_n..(i + 1) * j_n];
        for k in 0..k_n {
            let aik = a[i * k_n + k];
            for (cj, bj) in row.iter_mut().zip(&b[k * j_n..(k + 1) * j_n]) {
                *cj += aik * bj;
            }
        }
    }
    c
}

pub fn jacobi1d(x: &[f64], n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 0.333 * (x[i] + x[i + 1] + x[i + 2]))
        .collect()
}

/// 7-point stencil over an `n^3` grid; `x` is padded to `(n+2)^3`.
pub fn jacobi3d(x: &[f64], n: usize) -> Vec<f64> {
    let m = n + 2;
    let at = |i: usize, j: usize, k: usize| x[(i * m + j) * m + k];
    let mut y = Vec::with_capacity(n * n * n);
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                y.push(
                    0.142 * at(i + 1, j + 1, k + 1)
                        + 0.143 * at(i, j + 1, k + 1)
                        + 0.143 * at(i + 2, j + 1, k + 1)
                        + 0.143 * at(i + 1, j, k + 1)
                        + 0.143 * at(i + 1, j + 2, k + 1)
                        + 0.143 * at(i + 1, j + 1, k)
                        + 0.143 * at(i + 1, j + 1, k + 2),
                );
            }
        }
    }
    y
}

pub fn prefix_sum(x: &[f64]) -> Vec<f64> {
    let mut acc = 0f64;
    x.iter()
        .map(|v| {
            acc += v;
            acc
        })
        .collect()
}

/// `out[i] = sum_{i' <= i} sum_j M[i', j]`.
pub fn mbbs(m: &[f64], rows: usize, cols: usize) -> Vec<f64> {
    let row_sums: Vec<f64> = (0..rows)
        .map(|i| m[i * cols..(i + 1) * cols].iter().sum())
        .collect();
    prefix_sum(&row_sums)
}

/// `hist[key(i)] += w[i]`; the key stream lives in the program's output
/// index function.
fn histogram(prog: &DslProgram, w: &[f64]) -> Result<Vec<f64>, String> {
    let buckets = prog.output_shapes().map_err(|e| e.to_string())?[0][0];
    let key = &prog.out_view.accesses[0].index_fn;
    let mut hist = vec![0f64; buckets];
    for (i, wi) in w.iter().enumerate() {
        let k = key.eval(&[i]).ok_or("histogram key out of range")?[0];
        hist[k] += wi;
    }
    Ok(hist)
}

/// One `Vec<f64>` per reply checksum: the forward outputs in declaration
/// order, then (for `MatVecGrad`) the gradients in input order.
pub fn reference(
    kind: Kind,
    prog: &DslProgram,
    inputs: &[Buffer],
) -> Result<Vec<Vec<f64>>, String> {
    let s = &prog.md_hom.sizes;
    Ok(match kind {
        Kind::Dot => vec![dot(&to_f64(&inputs[0])?, &to_f64(&inputs[1])?)],
        Kind::MatVec => vec![matvec(
            &to_f64(&inputs[0])?,
            &to_f64(&inputs[1])?,
            s[0],
            s[1],
        )],
        Kind::MatMul => vec![matmul(
            &to_f64(&inputs[0])?,
            &to_f64(&inputs[1])?,
            s[0],
            s[1],
            s[2],
        )],
        // res[a,b,c,d,e,f] = sum_k T2[a,b,c,k] * V[k,d,e,f] is a matmul of
        // (abc x k) by (k x def) in the same row-major layout
        Kind::Ccsdt => vec![matmul(
            &to_f64(&inputs[0])?,
            &to_f64(&inputs[1])?,
            s[0] * s[1] * s[2],
            s[3] * s[4] * s[5],
            s[6],
        )],
        Kind::Jacobi1d => vec![jacobi1d(&to_f64(&inputs[0])?, s[0])],
        Kind::Jacobi3d => vec![jacobi3d(&to_f64(&inputs[0])?, s[0])],
        Kind::Scan => vec![prefix_sum(&to_f64(&inputs[0])?)],
        Kind::Mbbs => vec![mbbs(&to_f64(&inputs[0])?, s[0], s[1])],
        Kind::Hist => vec![histogram(prog, &to_f64(&inputs[0])?)?],
        Kind::Prl => {
            let app = AppInstance {
                name: "PRL".into(),
                input_no: 1,
                domain: String::new(),
                program: prog.clone(),
                inputs: inputs.to_vec(),
                vendor_op: None,
                sizes_desc: String::new(),
            };
            let (ids, weights, measures) = mdh_apps::prl::prl_reference(&app);
            vec![
                ids.iter().map(|&v| v as f64).collect(),
                weights,
                measures.iter().map(|&v| v as f64).collect(),
            ]
        }
        Kind::MatVecGrad => {
            let (m, v) = (to_f64(&inputs[0])?, to_f64(&inputs[1])?);
            let (rows, cols) = (s[0], s[1]);
            // cotangent is all ones: d_M[i,k] = v[k], d_v[k] = sum_i M[i,k]
            let d_m: Vec<f64> = (0..rows).flat_map(|_| v.iter().copied()).collect();
            let mut d_v = vec![0f64; cols];
            for i in 0..rows {
                for (acc, x) in d_v.iter_mut().zip(&m[i * cols..(i + 1) * cols]) {
                    *acc += x;
                }
            }
            vec![matvec(&m, &v, rows, cols), d_m, d_v]
        }
    })
}

fn is_f32(ty: &BasicType) -> bool {
    matches!(ty.as_scalar(), Some(ScalarKind::F32))
}

/// The checksums a correct reply to `req` carries, by buffer name.
pub fn expected(req: &Req, prog: &DslProgram, inputs: &[Buffer]) -> Result<Vec<Expect>, String> {
    let outs = reference(req.kind, prog, inputs)?;
    let fwd = &prog.out_view.buffers;
    let mut decls: Vec<(String, bool)> = fwd
        .iter()
        .map(|d| (d.name.clone(), is_f32(&d.ty)))
        .collect();
    if req.kind == Kind::MatVecGrad {
        decls.extend(
            prog.inp_view
                .buffers
                .iter()
                .map(|d| (format!("d_{}", d.name), is_f32(&d.ty))),
        );
    }
    if decls.len() != outs.len() {
        return Err(format!(
            "{}: reference has {} outputs, program declares {}",
            req.tag,
            outs.len(),
            decls.len()
        ));
    }
    Ok(decls
        .into_iter()
        .zip(outs)
        .map(|((name, f32_out), vals)| {
            let round = |x: f64| if f32_out { x as f32 as f64 } else { x };
            Expect {
                name,
                sum: vals.iter().map(|&x| round(x)).sum(),
                l1: vals.iter().map(|&x| round(x).abs()).sum(),
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Source, JACOBI1D_F90, MATMUL_C, MATVEC_PY};
    use mdh_apps::{instantiate, Scale, StudyId};
    use mdh_core::eval::evaluate_recursive;
    use mdh_runtime::server::{compile_any, deterministic_inputs};

    fn assert_matches_eval(kind: Kind, prog: &DslProgram, inputs: &[Buffer]) {
        let want = evaluate_recursive(prog, inputs).unwrap();
        let got = reference(kind, prog, inputs).unwrap();
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(w.len(), g.len(), "{kind:?} output length");
            for (i, gv) in g.iter().enumerate() {
                let wv = w.get_flat(i).as_f64().unwrap();
                assert!(
                    (wv - gv).abs() <= 1e-5 * wv.abs().max(1.0),
                    "{kind:?}[{i}]: eval {wv} vs reference {gv}"
                );
            }
        }
    }

    fn small_text(src: &str, bindings: &[(&str, i64)]) -> (DslProgram, Vec<Buffer>) {
        let prog = compile_any(src, &crate::workloads::env_of(bindings)).unwrap();
        let inputs = deterministic_inputs(&prog).unwrap();
        (prog, inputs)
    }

    #[test]
    fn text_references_equal_eval_at_small_sizes() {
        let w = crate::workloads::workload("wire_fig3_fast").unwrap();
        let src_of = |tag: &str| match w.mix.iter().find(|r| r.tag == tag).unwrap().source {
            Source::Text(s) => s,
            Source::Study(..) => unreachable!(),
        };
        type Case = (Kind, &'static str, Vec<(&'static str, i64)>);
        let cases: Vec<Case> = vec![
            (Kind::Dot, src_of("dot_4m"), vec![("N", 257)]),
            (Kind::MatVec, MATVEC_PY, vec![("I", 13), ("K", 17)]),
            (Kind::MatMul, MATMUL_C, vec![("I", 5), ("J", 7), ("K", 6)]),
            (Kind::Jacobi1d, JACOBI1D_F90, vec![("N", 19)]),
            (Kind::Jacobi3d, src_of("jacobi3d_254"), vec![("N", 5)]),
            (
                Kind::Ccsdt,
                src_of("ccsdt_med"),
                vec![
                    ("A", 3),
                    ("B", 2),
                    ("C", 2),
                    ("D", 3),
                    ("E", 2),
                    ("F", 2),
                    ("K", 4),
                ],
            ),
        ];
        for (kind, src, bindings) in cases {
            let (prog, inputs) = small_text(src, &bindings);
            assert_matches_eval(kind, &prog, &inputs);
        }
        let lib = crate::workloads::workload("lib_offfast").unwrap();
        for (tag, kind, bindings) in [
            ("scan_256k", Kind::Scan, vec![("N", 33)]),
            ("matvec_f64_1k", Kind::MatVec, vec![("I", 9), ("K", 11)]),
        ] {
            let Source::Text(src) = lib.mix.iter().find(|r| r.tag == tag).unwrap().source else {
                unreachable!()
            };
            let (prog, inputs) = small_text(src, &bindings);
            assert_matches_eval(kind, &prog, &inputs);
        }
    }

    #[test]
    fn study_references_equal_eval_at_scale_small() {
        for (kind, name, input_no) in [
            (Kind::Prl, "PRL", 1),
            (Kind::Hist, "Histogram", 1),
            (Kind::Hist, "Histogram", 2),
            (Kind::Jacobi1d, "Jacobi1D", 1),
            (Kind::Mbbs, "MBBS", 1),
            (Kind::Jacobi3d, "Jacobi_3D", 1),
            (Kind::Ccsdt, "CCSD(T)", 1),
            (Kind::MatMul, "MatMul", 1),
        ] {
            let app = instantiate(StudyId { name, input_no }, Scale::Small).unwrap();
            assert_matches_eval(kind, &app.program, &app.inputs);
        }
    }

    #[test]
    fn matvec_grad_reference_equals_the_ad_evaluator() {
        let (prog, inputs) = small_text(MATVEC_PY, &[("I", 6), ("K", 9)]);
        let gp = mdh_ad::grad_all(&prog).unwrap();
        let shape = prog.output_shapes().unwrap().remove(0);
        let mut ones = Buffer::zeros(
            "w_bar",
            prog.out_view.buffers[0].ty.clone(),
            mdh_core::shape::Shape::new(shape),
        );
        ones.fill_with(|_| 1.0);
        let grads = mdh_ad::eval_gradients(&gp, &inputs, &ones).unwrap();
        let got = reference(Kind::MatVecGrad, &prog, &inputs).unwrap();
        assert_eq!(got.len(), 1 + grads.len());
        for (g, want) in got[1..].iter().zip(&grads) {
            assert_eq!(g.len(), want.len());
            for (i, gv) in g.iter().enumerate() {
                assert_eq!(*gv, want.get_flat(i).as_f64().unwrap());
            }
        }
    }

    #[test]
    fn expect_rounds_to_the_output_type_and_bounds_the_error() {
        let (prog, inputs) = small_text(MATVEC_PY, &[("I", 4), ("K", 4)]);
        let req = crate::workloads::workload("wire_toy_warm").unwrap().mix[0].clone();
        let e = expected(&req, &prog, &inputs).unwrap();
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].name, "w");
        assert!(e[0].accepts(e[0].sum));
        assert!(e[0].accepts(e[0].sum + 0.5e-6 * e[0].l1.max(1.0)));
        assert!(!e[0].accepts(e[0].sum + 3e-6 * e[0].l1.max(1.0)));
    }
}
