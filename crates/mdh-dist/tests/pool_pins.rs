//! Device-pool outputs on non-integer inputs: held to the oracle, and
//! pinned.
//!
//! `dist_props` and the registry chaos sweep fill small integers, so
//! every reassociation of a fold agrees bitwise there and a recombination
//! that regrouped a reduction would pass them. Here the inputs are
//! non-integer (uniform in `[-1, 1)` for the cases below, as instantiated
//! for the Fig. 3 registry):
//!
//! * every fault-free launch at 1–4 devices equals `eval_planned` on
//!   `PartitionPlan`'s device level — the level's task ranges in its
//!   group order — except where a split narrows: an f32 `pw` split stores
//!   each shard's partial as f32 before the fold ([`narrowed_fold`]);
//! * a crash recovered on the same rotation keeps the fault-free bits;
//! * `PINNED` hashes each case on an `n`-device pool, and a chaos row
//!   every launch of a crash-and-hang schedule under hedging, each launch
//!   first held to a fault-free pool of its shard count. A `pw`/`ps`
//!   recombination that folds in another order, a `cc` copy that reads
//!   the wrong shard element, or a carry taken from the wrong position
//!   moves a hash.
//!
//! On a mismatch the pin test prints the replacement table; re-baseline
//! only for a deliberate change of reduction order.

use mdh_apps::data::{f32_buffer, f64_buffer};
use mdh_apps::{all_fig3, Scale};
use mdh_core::buffer::{bits_hash, Buffer};
use mdh_core::combine::{BuiltinReduce, CombineOp, PwFunc};
use mdh_core::dsl::{DslBuilder, DslProgram};
use mdh_core::eval::eval_planned;
use mdh_core::expr::ScalarFunction;
use mdh_core::index_fn::{AffineExpr, IndexFn};
use mdh_core::shape::MdRange;
use mdh_core::types::{BasicType, ScalarKind};
use mdh_dist::{DevicePool, DistExecutor, FaultPlan, HealPolicy};
use mdh_lowering::PartitionPlan;
use std::collections::HashMap;
use std::fmt::Write as _;

/// `(case, devices, bits_hash of the outputs)`.
const PINNED: &[(&str, usize, u64)] = &[
    ("matvec_cc", 2, 0x81b288fc8941c5d4),
    ("matvec_cc", 3, 0x81b288fc8941c5d4),
    ("matvec_cc", 4, 0x81b288fc8941c5d4),
    ("matmul_cc", 2, 0x960ea0a6a3ff001b),
    ("matmul_cc", 3, 0x960ea0a6a3ff001b),
    ("matmul_cc", 4, 0x960ea0a6a3ff001b),
    ("scan_f64_add", 2, 0x3b9eb5b95ec81c7b),
    ("scan_f64_add", 3, 0xeca1330dbf6c0dca),
    ("scan_f64_add", 4, 0x92d5eb019ebf8c9c),
    ("scan_f64_max", 2, 0xdf41ef90b1986c34),
    ("scan_f64_max", 3, 0xdf41ef90b1986c34),
    ("scan_f64_max", 4, 0xdf41ef90b1986c34),
    ("dot_pw_add", 2, 0xa0bf5c596288e54e),
    ("dot_pw_add", 3, 0xa0bf5c596288e54e),
    ("dot_pw_add", 4, 0xa0bf5c596288e54e),
    ("strided_y_2i", 2, 0xbf6f9877bd48dfc4),
    ("strided_y_2i", 3, 0xbf6f9877bd48dfc4),
    ("strided_y_2i", 4, 0xbf6f9877bd48dfc4),
    ("reversed_y_n1_i", 2, 0x650455d181478820),
    ("reversed_y_n1_i", 3, 0x650455d181478820),
    ("reversed_y_n1_i", 4, 0x650455d181478820),
    ("matmul_out_ji", 2, 0x92fec08c38d59d77),
    ("matmul_out_ji", 3, 0x92fec08c38d59d77),
    ("matmul_out_ji", 4, 0x92fec08c38d59d77),
    ("chaos_crash_hang_hedged", 4, 0xe0b7a5d99bbccb0a),
];

/// `out = sum_k M[i][k] · v[k]` over `[i, k]` (`cc`, `pw(add)`), the
/// output written through `out_fn` into a buffer of `out_shape`.
fn matvec_into(name: &str, i: usize, k: usize, out_fn: IndexFn, out_shape: usize) -> DslProgram {
    DslBuilder::new(name, vec![i, k])
        .out_buffer_with_shape("y", BasicType::F32, vec![out_shape])
        .out_access("y", out_fn)
        .inp_buffer("M", BasicType::F32)
        .inp_access("M", IndexFn::identity(2, 2))
        .inp_buffer("v", BasicType::F32)
        .inp_access("v", IndexFn::select(2, &[1]))
        .scalar_function(ScalarFunction::mul2("f_mul", ScalarKind::F32))
        .combine_ops(vec![CombineOp::cc(), CombineOp::pw_add()])
        .build()
        .unwrap()
}

/// `C = A · B` over `[i, j, k]`, `C` written as `[i][j]` or, transposed,
/// as `[j][i]` — a split along `i` whose coordinate is not outermost.
fn matmul(name: &str, (i, j, k): (usize, usize, usize), transposed: bool) -> DslProgram {
    let out = if transposed {
        IndexFn::select(3, &[1, 0])
    } else {
        IndexFn::select(3, &[0, 1])
    };
    DslBuilder::new(name, vec![i, j, k])
        .out_buffer("C", BasicType::F32)
        .out_access("C", out)
        .inp_buffer("A", BasicType::F32)
        .inp_access("A", IndexFn::select(3, &[0, 2]))
        .inp_buffer("B", BasicType::F32)
        .inp_access("B", IndexFn::select(3, &[2, 1]))
        .scalar_function(ScalarFunction::mul2("f_mul", ScalarKind::F32))
        .combine_ops(vec![CombineOp::cc(), CombineOp::cc(), CombineOp::pw_add()])
        .build()
        .unwrap()
}

fn scan(name: &str, n: usize, op: BuiltinReduce) -> DslProgram {
    DslBuilder::new(name, vec![n])
        .out_buffer("out", BasicType::F64)
        .out_access("out", IndexFn::identity(1, 1))
        .inp_buffer("x", BasicType::F64)
        .inp_access("x", IndexFn::identity(1, 1))
        .scalar_function(ScalarFunction::identity("id", ScalarKind::F64))
        .combine_ops(vec![CombineOp::Ps(PwFunc::builtin(op))])
        .build()
        .unwrap()
}

fn dot(n: usize) -> DslProgram {
    DslBuilder::new("dot", vec![n])
        .out_buffer("res", BasicType::F32)
        .out_access("res", IndexFn::affine(vec![AffineExpr::constant(1, 0)]))
        .inp_buffer("x", BasicType::F32)
        .inp_access("x", IndexFn::identity(1, 1))
        .inp_buffer("y", BasicType::F32)
        .inp_access("y", IndexFn::identity(1, 1))
        .scalar_function(ScalarFunction::mul2("f_mul", ScalarKind::F32))
        .combine_ops(vec![CombineOp::pw_add()])
        .build()
        .unwrap()
}

/// Every case: a name, its program and its non-integer inputs.
fn cases() -> Vec<(&'static str, DslProgram, Vec<Buffer>)> {
    let (i, k) = (37, 53);
    let matvec_inputs = || {
        vec![
            f32_buffer("pin_M", vec![i, k]),
            f32_buffer("pin_v", vec![k]),
        ]
    };
    let row = |c: i64, k0: i64| IndexFn::affine(vec![AffineExpr::new(vec![c, 0], k0)]);
    let (mi, mj, mk) = (19, 23, 29);
    let matmul_inputs = || {
        vec![
            f32_buffer("pin_A", vec![mi, mk]),
            f32_buffer("pin_B", vec![mk, mj]),
        ]
    };
    let n = 1001;
    vec![
        (
            "matvec_cc",
            matvec_into("matvec", i, k, row(1, 0), i),
            matvec_inputs(),
        ),
        (
            "matmul_cc",
            matmul("matmul", (mi, mj, mk), false),
            matmul_inputs(),
        ),
        (
            "scan_f64_add",
            scan("psum", n, BuiltinReduce::Add),
            vec![f64_buffer("pin_x", vec![n])],
        ),
        (
            "scan_f64_max",
            scan("pmax", n, BuiltinReduce::Max),
            vec![f64_buffer("pin_x", vec![n])],
        ),
        (
            "dot_pw_add",
            dot(4099),
            vec![
                f32_buffer("pin_x32", vec![4099]),
                f32_buffer("pin_y32", vec![4099]),
            ],
        ),
        (
            "strided_y_2i",
            matvec_into("strided", i, k, row(2, 0), 2 * i),
            matvec_inputs(),
        ),
        (
            "reversed_y_n1_i",
            matvec_into("reversed", i, k, row(-1, i as i64 - 1), i),
            matvec_inputs(),
        ),
        (
            "matmul_out_ji",
            matmul("matmul_t", (mi, mj, mk), true),
            matmul_inputs(),
        ),
    ]
}

/// Six rounds of two launches on four devices under hedging, a scan
/// (order-sensitive carries) and a `cc` MatVec: device 1 crashes at launch
/// 1 and device 2 hangs at launch 3; every launch's outputs are hashed
/// together. Each launch first equals a fault-free pool of its shard
/// count: a degraded launch's bits are the level over the survivors.
fn chaos_hash() -> u64 {
    let plan = FaultPlan::parse("crash=1@1,hang=2@3").expect("fault spec");
    let dist = DistExecutor::with_faults(DevicePool::gpus(4), plan)
        .expect("pool")
        .with_healing(HealPolicy {
            hedge_ms: 0.05,
            probe_every: 2,
            reinstate_after: 1,
        });
    let n = 1001;
    let scan_prog = scan("psum", n, BuiltinReduce::Add);
    let scan_in = vec![f64_buffer("pin_x", vec![n])];
    let mv = matvec_into("matvec", 37, 53, IndexFn::select(2, &[0]), 37);
    let mv_in = vec![
        f32_buffer("pin_M", vec![37, 53]),
        f32_buffer("pin_v", vec![53]),
    ];
    let mut fault_free = HashMap::new();
    let mut all = Vec::new();
    for round in 0..6 {
        for (prog, inputs) in [(&scan_prog, &scan_in), (&mv, &mv_in)] {
            let (outs, report) = dist.run(prog, inputs).expect("chaos launch");
            let clean = fault_free
                .entry((prog.name.clone(), report.shards))
                .or_insert_with(|| clean_run(prog, inputs, report.shards));
            assert_eq!(
                bits_hash(&outs),
                bits_hash(clean),
                "{} in round {round} on {} shards",
                prog.name,
                report.shards
            );
            all.extend(outs);
        }
    }
    assert!(dist.fault_stats().injected_crashes > 0, "the crash fired");
    bits_hash(&all)
}

/// `prog` on a fault-free pool of `devices`.
fn clean_run(prog: &DslProgram, inputs: &[Buffer], devices: usize) -> Vec<Buffer> {
    let dist = DistExecutor::new(DevicePool::gpus(devices)).expect("pool");
    let (outs, _) = dist.run(prog, inputs).expect("fault-free launch");
    outs
}

/// The rounding the device level adds to the task level: each shard's
/// partial is `eval_planned` over the shard's range as one task — stored,
/// so narrowed to its output's kind — and the partials fold in shard
/// order through the builtin `f`, one output element at a time.
fn narrowed_fold(
    prog: &DslProgram,
    inputs: &[Buffer],
    shards: &[(usize, MdRange)],
    f: &PwFunc,
) -> Vec<Buffer> {
    assert!(
        f.as_builtin().is_some(),
        "a builtin folds each output alone"
    );
    let stored = |r: &MdRange| eval_planned(prog, inputs, &[vec![(0, r.clone())]]).expect("shard");
    let mut acc = stored(&shards[0].1);
    for (_, r) in &shards[1..] {
        for (a, p) in acc.iter_mut().zip(stored(r)) {
            for i in 0..a.len() {
                let v = f.combine(&vec![a.get_flat(i)], &vec![p.get_flat(i)]);
                a.set_flat(i, &v.expect("fold")[0]).expect("store");
            }
        }
    }
    acc
}

/// Every fault-free launch at 1–4 devices — each Fig. 3 registry
/// instantiation on its own inputs and each pinned case — equals
/// `eval_planned` on the device level, or, where the split narrows (an
/// f32 `pw` split), [`narrowed_fold`] over the level's one group.
#[test]
fn fault_free_launches_equal_eval_planned_on_the_device_level() {
    let apps = all_fig3(Scale::Small).expect("registry instantiates");
    let cases = cases();
    let registry = apps
        .iter()
        .map(|a| (&a.name[..], &a.program, &a.inputs, true));
    let pinned = cases
        .iter()
        .map(|(name, prog, inputs)| (*name, prog, inputs, false));
    let (mut partitioned, mut narrowing_shows) = (0usize, 0usize);
    for (name, prog, inputs, registered) in registry.chain(pinned) {
        for n in 1..=4usize {
            let (outs, report) = (DistExecutor::new(DevicePool::gpus(n)).unwrap())
                .run(prog, inputs)
                .unwrap_or_else(|e| panic!("{name} on {n} devices: {e}"));
            let plan = PartitionPlan::build(prog, n).expect("plan");
            let ranges = plan.level.tasks.iter().map(|t| t.range.clone()).collect();
            let groups = plan.level.grouped(ranges).expect("level groups");
            let level = eval_planned(prog, inputs, &groups).expect("eval_planned");
            let f32_output = (prog.out_view.buffers.iter()).any(|b| b.ty == BasicType::F32);
            let want = match plan.op() {
                Some(CombineOp::Pw(f)) if f32_output => {
                    let narrowed = narrowed_fold(prog, inputs, &groups[0], f);
                    narrowing_shows += usize::from(bits_hash(&level) != bits_hash(&narrowed));
                    narrowed
                }
                _ => level,
            };
            assert_eq!(
                bits_hash(&outs),
                bits_hash(&want),
                "{name} on {n} devices: the pool is not its device level"
            );
            if registered && n == 4 && report.shards > 1 {
                partitioned += 1;
            }
        }
    }
    assert!(
        partitioned >= apps.len() / 2,
        "only {partitioned}/{} registry apps partitioned — the shard \
         chooser regressed",
        apps.len()
    );
    assert!(
        narrowing_shows > 0,
        "no f32 pw split rounds apart from its unnarrowed level: the \
         narrowing rule is untested"
    );
}

/// A crash on four devices, recovered on the same rotation, keeps the
/// fault-free launch's bits: the lost shard of a reduction split runs
/// whole on the first survivor, not re-split along its reduction dim —
/// an f32 Dot, an f64 scan, and MatVecs whose one-row shards would
/// re-split `k` (one output element each, so whether a re-split rounds
/// apart is a coin flip per width: at 257 columns it does).
#[test]
fn a_recovered_launch_keeps_the_fault_free_bits() {
    let n = 1 << 20;
    let mut recovered = vec![
        (
            "dot_f32_2^20".to_string(),
            dot(n),
            vec![
                f32_buffer("pin_x32", vec![n]),
                f32_buffer("pin_y32", vec![n]),
            ],
        ),
        (
            "scan_f64_add".to_string(),
            scan("psum", 1001, BuiltinReduce::Add),
            vec![f64_buffer("pin_x", vec![1001])],
        ),
    ];
    for k in [53, 257, 4099] {
        recovered.push((
            format!("matvec_row_per_shard_k{k}"),
            matvec_into("matvec", 4, k, IndexFn::select(2, &[0]), 4),
            vec![
                f32_buffer("pin_M", vec![4, k]),
                f32_buffer("pin_v", vec![k]),
            ],
        ));
    }
    for (name, prog, inputs) in recovered {
        let plan = FaultPlan::parse("crash=1@0").expect("fault spec");
        let dist = DistExecutor::with_faults(DevicePool::gpus(4), plan).unwrap();
        let (outs, report) = dist.run(&prog, &inputs).unwrap();
        assert_eq!(report.faults.repartitions, 1, "{name}: shard 1 recovered");
        assert_eq!(
            bits_hash(&outs),
            bits_hash(&clean_run(&prog, &inputs, 4)),
            "{name}: the recovered launch moved off the fault-free bits"
        );
    }
}

#[test]
fn pool_outputs_on_non_integer_inputs_keep_their_bits() {
    let mut got = Vec::new();
    for (name, prog, inputs) in cases() {
        for devices in [2usize, 3, 4] {
            let dist = DistExecutor::new(DevicePool::gpus(devices)).unwrap();
            let (outs, report) = dist
                .run(&prog, &inputs)
                .unwrap_or_else(|e| panic!("{name} on {devices} devices: {e}"));
            assert!(
                report.shards > 1,
                "{name} on {devices} devices did not split"
            );
            // a warm relaunch keeps the first launch's bits
            assert_eq!(
                bits_hash(&dist.run(&prog, &inputs).unwrap().0),
                bits_hash(&outs)
            );
            got.push((name, devices, bits_hash(&outs)));
        }
    }
    got.push(("chaos_crash_hang_hedged", 4, chaos_hash()));
    let mut table = String::new();
    for (name, devices, hash) in &got {
        writeln!(table, "    (\"{name}\", {devices}, {hash:#018x}),").unwrap();
    }
    let pinned: Vec<(&str, usize, u64)> = PINNED.to_vec();
    assert!(
        pinned == got,
        "pool output bits moved; the table at this tree is:\n{table}"
    );
}
