//! Probabilistic Record Linkage (PRL) — the data-mining case study
//! (Listing 11, [Rasch et al., SAC 2019]).
//!
//! For each of `N` new records (patients to be added), PRL scans all `I`
//! database records, computes a probabilistic match weight per pair, and
//! keeps the best match — a reduction with a *custom tuple-valued combine
//! operator* over three output buffers (`match_id`, `match_weight`,
//! `id_measure`). This operator is exactly what OpenMP/OpenACC reduction
//! clauses and TVM's `comm_reducer` cannot express, and the
//! control-flow-carrying body is what breaks Pluto's polyhedral
//! extraction.
//!
//! Data: synthetic EKR-style registry records (see DESIGN.md §4); the
//! real German cancer-registry data is not redistributable.

use crate::data::{record_buffer, rng_for};
use crate::spec::{AppInstance, Scale};
use mdh_core::combine::PwFunc;
use mdh_core::error::Result;
use mdh_core::expr::{BinOp, Expr, ScalarFunction, Stmt};
use mdh_core::types::{BasicType, FieldType, RecordType, ScalarKind, Value};
use mdh_directive::{compile, DirectiveEnv};
use rand::Rng;
use std::sync::Arc;

/// Number of compared record fields.
pub const FIELDS: usize = 12;

/// Per-field agreement weights (match weights in the Fellegi–Sunter
/// sense).
pub const AGREE_W: [f64; FIELDS] = [2.5, 1.8, 3.1, 1.2, 2.2, 0.9, 1.4, 2.8, 0.7, 1.9, 3.3, 1.1];

/// Per-field disagreement penalty.
pub const DISAGREE_W: f64 = -0.3;

/// The database record type (`db18`-style, Listing 11).
pub fn db_record() -> Arc<RecordType> {
    RecordType::new(
        "db_rec",
        vec![
            ("id".into(), FieldType::Scalar(ScalarKind::I64)),
            ("values".into(), FieldType::Array(ScalarKind::F64, FIELDS)),
        ],
    )
}

/// The query record type.
pub fn query_record() -> Arc<RecordType> {
    RecordType::new(
        "qr_rec",
        vec![("values".into(), FieldType::Array(ScalarKind::F64, FIELDS))],
    )
}

/// The custom combine operator `prl_max`: priority to full matches
/// (`id_measure == FIELDS`), then leftmost-maximum match weight.
/// Associative and (up to leftmost tie-breaking) the fold the paper's
/// Listing 11 computes.
pub fn prl_max() -> PwFunc {
    let assign = |suffix: &str, from: usize| -> Vec<Stmt> {
        vec![Stmt::Assign {
            name: format!("res_{suffix}"),
            value: Expr::Param(from),
        }]
    };
    let take = |side: usize| -> Vec<Stmt> {
        // side 0 = lhs (params 0..3), side 1 = rhs (params 3..6)
        let base = side * 3;
        let mut v = assign("id", base);
        v.extend(assign("w", base + 1));
        v.extend(assign("m", base + 2));
        v
    };
    let full = Expr::lit_i64(FIELDS as i64);
    let lhs_full = Expr::eq(Expr::Param(2), full.clone());
    let rhs_full = Expr::eq(Expr::Param(5), full);
    let f = ScalarFunction {
        name: "prl_max".into(),
        params: vec![
            ("lhs_id".into(), BasicType::I64),
            ("lhs_w".into(), BasicType::F64),
            ("lhs_m".into(), BasicType::I32),
            ("rhs_id".into(), BasicType::I64),
            ("rhs_w".into(), BasicType::F64),
            ("rhs_m".into(), BasicType::I32),
        ],
        results: vec![
            ("res_id".into(), BasicType::I64),
            ("res_w".into(), BasicType::F64),
            ("res_m".into(), BasicType::I32),
        ],
        body: vec![Stmt::If {
            cond: Expr::and(
                lhs_full.clone(),
                Expr::Un(mdh_core::expr::UnOp::Not, Box::new(rhs_full.clone())),
            ),
            then_branch: take(0),
            else_branch: vec![Stmt::If {
                cond: Expr::and(
                    rhs_full,
                    Expr::Un(mdh_core::expr::UnOp::Not, Box::new(lhs_full)),
                ),
                then_branch: take(1),
                else_branch: vec![Stmt::If {
                    cond: Expr::Bin(
                        BinOp::Ge,
                        Box::new(Expr::Param(1)),
                        Box::new(Expr::Param(4)),
                    ),
                    then_branch: take(0),
                    else_branch: take(1),
                }],
            }],
        }],
    };
    // proof: six params and three results, the one shape `custom` checks
    PwFunc::custom(f).expect("prl_max is a valid combine function")
}

/// The PRL directive source: six unrolled field comparisons accumulating
/// the match weight and agreement count, then per-pair results combined
/// with `pw(prl_max)` along the database dimension.
fn prl_source() -> String {
    let mut body = String::new();
    for f in 0..FIELDS {
        let w = AGREE_W[f];
        body.push_str(&format!(
            "            if abs(queries[n].values[{f}] - probM[i].values[{f}]) < 0.1:\n\
             \x20               tmp_w = tmp_w + {w}\n\
             \x20               tmp_m = tmp_m + 1\n\
             \x20           else:\n\
             \x20               tmp_w = tmp_w - 0.3\n"
        ));
    }
    format!(
        "\
@mdh( out( match_id = Buffer[int64], match_weight = Buffer[fp64], id_measure = Buffer[int32] ),
      inp( queries = Buffer[qr_rec], probM = Buffer[db_rec] ),
      combine_ops( cc, pw(prl_max) ) )
def prl(match_id, match_weight, id_measure, queries, probM):
    for n in range(N):
        for i in range(I):
            tmp_w: fp64
            tmp_m: int32
{body}            match_id[n] = probM[i].id
            match_weight[n] = tmp_w
            id_measure[n] = tmp_m
"
    )
}

/// Quantised field value generator (agreement = exact quantised match).
fn field_value(rng: &mut impl Rng) -> f64 {
    (rng.gen_range(0..16) as f64) * 0.5
}

/// Build the PRL instance. Input 1 is the realistic skew (small `N` of
/// new patients, large database `I`); input 2 artificially enlarges `N`
/// (Section 5.2's discussion).
pub fn prl(scale: Scale, input_no: usize) -> Result<AppInstance> {
    let (n, i) = match input_no {
        1 => (
            scale.pick(1 << 10, 1 << 8, 6),
            scale.pick(1 << 15, 1 << 12, 24),
        ),
        _ => (
            scale.pick(1 << 15, 1 << 11, 16),
            scale.pick(1 << 15, 1 << 11, 24),
        ),
    };
    let db = db_record();
    let qr = query_record();
    let env = DirectiveEnv::new()
        .size("N", n as i64)
        .size("I", i as i64)
        .record(db.clone())
        .record(qr.clone())
        .combine_fn(prl_max());
    let program = compile(&prl_source(), &env)?;

    // synthetic registry: every query has a planted near-duplicate
    let mut rng = rng_for("prl_db");
    let mut db_vals: Vec<[f64; FIELDS]> = Vec::with_capacity(i);
    for _ in 0..i {
        let mut v = [0f64; FIELDS];
        for x in v.iter_mut() {
            *x = field_value(&mut rng);
        }
        db_vals.push(v);
    }
    let probm = record_buffer("probM", BasicType::Record(db.clone()), i, |idx| {
        Value::Record(vec![
            Value::I64(idx as i64),
            Value::Array(db_vals[idx].iter().map(|&v| Value::F64(v)).collect()),
        ])
    })?;
    let mut qrng = rng_for("prl_queries");
    let queries = record_buffer("queries", BasicType::Record(qr.clone()), n, move |idx| {
        // planted duplicate with a few perturbed fields; query 0 is an
        // exact duplicate so a full match always exists
        let src = &db_vals[(idx * 31) % i];
        let mut v = *src;
        let perturb = if idx == 0 {
            0
        } else {
            qrng.gen_range(0..FIELDS)
        };
        for x in v.iter_mut().take(perturb) {
            *x = field_value(&mut qrng);
        }
        Value::Record(vec![Value::Array(
            v.iter().map(|&x| Value::F64(x)).collect(),
        )])
    })?;

    Ok(AppInstance {
        name: "PRL".into(),
        input_no,
        domain: "Data Mining".into(),
        program,
        inputs: vec![queries, probm],
        vendor_op: None, // no vendor library covers record linkage
        sizes_desc: format!("2^{} | 2^{}", n.ilog2(), i.ilog2()),
    })
}

/// Independent reference implementation (plain Rust, leftmost-max fold)
/// of a [`prl`] instance. An empty database matches nothing: the outputs
/// keep their zeros.
///
/// # Panics
/// If `app` is not a [`prl`] instance, whose inputs are record buffers.
pub fn prl_reference(app: &AppInstance) -> (Vec<i64>, Vec<f64>, Vec<i32>) {
    // proof: both inputs of a `prl` instance are record buffers (`prl` above)
    let [queries, probm] = [0, 1].map(|b| app.inputs[b].record_storage().expect("PRL input"));
    let n = app.program.md_hom.sizes[0];
    let i = app.program.md_hom.sizes[1];
    let qvals = &queries.columns[0];
    let ids = &probm.columns[0];
    let dvals = &probm.columns[1];
    let mut out_id = vec![0i64; n];
    let mut out_w = vec![0f64; n];
    let mut out_m = vec![0i32; n];
    for nn in 0..n {
        let mut best: Option<(i64, f64, i32)> = None;
        for ii in 0..i {
            let mut w = 0f64;
            let mut m = 0i32;
            for f in 0..FIELDS {
                let q = qvals.get_f64(nn * FIELDS + f);
                let d = dvals.get_f64(ii * FIELDS + f);
                if (q - d).abs() < 0.1 {
                    w += AGREE_W[f];
                    m += 1;
                } else {
                    w += DISAGREE_W;
                }
            }
            let cand = (ids.get_i64(ii), w, m);
            best = Some(match best {
                None => cand,
                Some(b) => {
                    let bf = b.2 == FIELDS as i32;
                    let cf = cand.2 == FIELDS as i32;
                    if bf && !cf {
                        b
                    } else if cf && !bf {
                        cand
                    } else if b.1 >= cand.1 {
                        b
                    } else {
                        cand
                    }
                }
            });
        }
        let Some((id, w, m)) = best else {
            continue;
        };
        out_id[nn] = id;
        out_w[nn] = w;
        out_m[nn] = m;
    }
    (out_id, out_w, out_m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdh_backend::cpu::CpuExecutor;
    use mdh_core::eval::evaluate_recursive;
    use mdh_core::types::Tuple;
    use mdh_lowering::asm::DeviceKind;
    use mdh_lowering::heuristics::mdh_default_schedule;

    #[test]
    fn prl_max_is_associative_and_priority_correct() {
        let f = prl_max();
        let t = |id: i64, w: f64, m: i32| -> Tuple {
            vec![Value::I64(id), Value::F64(w), Value::I32(m)]
        };
        // full match beats higher weight
        let full = t(1, 2.0, FIELDS as i32);
        let heavy = t(2, 99.0, 3);
        assert_eq!(f.combine(&full, &heavy).unwrap(), full);
        assert_eq!(f.combine(&heavy, &full).unwrap(), full);
        // otherwise max weight, leftmost on ties
        let a = t(3, 5.0, 2);
        let b = t(4, 5.0, 2);
        assert_eq!(f.combine(&a, &b).unwrap(), a);
        // associativity samples
        let samples: Vec<Tuple> = vec![
            t(1, 1.0, 0),
            t(2, 9.9, FIELDS as i32),
            t(3, 5.0, 3),
            t(4, -1.0, 1),
        ];
        assert!(f.check_associative(&samples, 1e-12).unwrap());
    }

    #[test]
    fn prl_small_matches_reference_implementation() {
        let app = prl(Scale::Small, 1).unwrap();
        let (rid, rw, rm) = prl_reference(&app);
        let out = evaluate_recursive(&app.program, &app.inputs).unwrap();
        assert_eq!(out[0].as_i64().unwrap(), &rid[..]);
        assert_eq!(out[1].as_f64().unwrap(), &rw[..]);
        for (got, want) in (0..rm.len()).map(|j| (out[2].get_flat(j), Value::I32(rm[j]))) {
            assert_eq!(got, want);
        }
    }

    #[test]
    fn prl_parallel_vm_path_matches_reference() {
        let app = prl(Scale::Small, 2).unwrap();
        let exec = CpuExecutor::new(4).unwrap();
        let (rid, rw, _) = prl_reference(&app);
        // MDH splits the reduction dimension: custom tuple combine across
        // thread partials
        let s = mdh_default_schedule(&app.program, DeviceKind::Cpu, 4);
        let got = exec.run(&app.program, &s, &app.inputs).unwrap();
        assert_eq!(got[0].as_i64().unwrap(), &rid[..]);
        assert_eq!(got[1].as_f64().unwrap(), &rw[..]);
    }

    #[test]
    fn compiled_op_counts_are_pinned() {
        use mdh_backend::vm::compile_sf;
        use mdh_core::combine::PwKind;
        // per pair: 12 × (sub, abs, cmp, one select of the two weight
        // addends, the weight add, the count add of the comparison) and
        // nothing else — literals and the zeroed results load once per
        // bank, and allocation reuses every dead temporary's register
        let app = prl(Scale::Small, 1).unwrap();
        let sf = compile_sf(&app.program.md_hom.sf).unwrap();
        assert!(sf.ops().len() <= 72, "prl: {} ops", sf.ops().len());
        let (f, i) = sf.banks();
        let bytes = (f.len() + i.len()) * 8;
        assert!(bytes <= 12 * 1024, "prl: {bytes} bytes of banks");
        // three conditions over two shared tests, one select per result
        // per `if`
        let PwKind::Custom(f) = &prl_max().kind else {
            panic!("prl_max is a custom combine function")
        };
        let cf = compile_sf(f).unwrap();
        assert!(cf.ops().len() <= 16, "prl_max: {} ops", cf.ops().len());
    }

    #[test]
    fn planted_duplicates_are_found() {
        let app = prl(Scale::Small, 1).unwrap();
        let out = evaluate_recursive(&app.program, &app.inputs).unwrap();
        // at least one query should achieve a full match (measure == FIELDS)
        let any_full = (0..app.program.md_hom.sizes[0])
            .any(|j| out[2].get_flat(j) == Value::I32(FIELDS as i32));
        assert!(any_full, "planted duplicates should yield full matches");
    }

    #[test]
    fn prl_defeats_polyhedral_and_tvm_baselines() {
        use mdh_baselines::schedulers::{Baseline, PlutoLike, TvmLike};
        let app = prl(Scale::Small, 1).unwrap();
        assert!(PlutoLike::heuristic(4).schedule(&app.program).is_err());
        assert!(TvmLike {
            device: DeviceKind::Cpu,
            parallel_units: 4
        }
        .schedule(&app.program)
        .is_err());
    }
}
