//! Indexed-reduction (`rbi`) determinism properties: scatter-add outputs
//! are bit-identical
//!
//! * across device counts (1/2/4 and arbitrary), because shard partials
//!   fold in shard-index order over full-shape buffers,
//! * across pool widths on a single device, because the CPU scatter path
//!   cuts the indexed dimension into a *fixed* number of chunks,
//! * under permutations of the input index order, because the fills are
//!   integer-valued (exact addition makes every summation order agree
//!   bitwise), and
//! * under seeded `FaultPlan` chaos with a scheduled crash — failure
//!   messages carry the replay spec, mirroring `fault_props.rs`,
//!
//! for f32 / f64 / i32 / i64 histograms, one or two per program (the
//! whole-buffer fold of the shard partials is typed per buffer).

mod common;

use common::filled;
use mdh_apps::{train, Scale};
use mdh_core::buffer::{bits_hash, Buffer};
use mdh_core::combine::CombineOp;
use mdh_core::dsl::{DslBuilder, DslProgram};
use mdh_core::expr::{Expr, ScalarFunction, Stmt};
use mdh_core::index_fn::IndexFn;
use mdh_core::shape::Shape;
use mdh_core::types::ScalarKind;
use mdh_dist::{DevicePool, DistExecutor, FaultPlan};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Zero-fault single-device reference.
fn reference_run(prog: &DslProgram, inputs: &[Buffer]) -> Vec<Buffer> {
    let dist = DistExecutor::new(DevicePool::gpus(1)).expect("pool");
    let (outs, _) = dist.run(prog, inputs).expect("reference run");
    outs
}

/// Output element kinds the extra generator input `v` cycles through
/// (`v / 4` odd: a second histogram of doubled weights is written too).
const KINDS: [ScalarKind; 4] = [
    ScalarKind::F32,
    ScalarKind::F64,
    ScalarKind::I32,
    ScalarKind::I64,
];

/// Histogram over an explicit key stream, weights int-filled.
fn histogram(keys: Vec<usize>, buckets: usize, salt: usize, v: usize) -> (DslProgram, Vec<Buffer>) {
    let n = keys.len();
    let kind = KINDS[v % 4];
    let keys = std::sync::Arc::new(keys);
    let by_key = || IndexFn::General {
        out_rank: 1,
        f: {
            let keys = std::sync::Arc::clone(&keys);
            std::sync::Arc::new(move |i: &[usize], out: &mut [usize]| out[0] = keys[i[0]])
        },
        label: "key".into(),
    };
    let mut sf = ScalarFunction::identity("f_id", kind);
    let mut b = DslBuilder::new("hist", vec![n])
        .out_buffer_with_shape("hist", kind.into(), vec![buckets])
        .out_access("hist", by_key());
    if v / 4 % 2 == 1 {
        sf.results.push(("twice".into(), kind.into()));
        sf.body.push(Stmt::Assign {
            name: "twice".into(),
            value: Expr::add(Expr::Param(0), Expr::Param(0)),
        });
        b = b
            .out_buffer_with_shape("hist2", kind.into(), vec![buckets])
            .out_access("hist2", by_key());
    }
    let prog = b
        .inp_buffer("w", kind.into())
        .inp_access("w", IndexFn::identity(1, 1))
        .scalar_function(sf)
        .combine_ops(vec![CombineOp::rbi_add()])
        .build()
        .expect("histogram");
    (prog, vec![filled("w", kind, vec![n], salt)])
}

#[test]
fn registry_histogram_hashes_identical_at_1_2_4_devices() {
    // the ISSUE's acceptance shape: the Histogram study (uniform and
    // skewed key streams) through mdh-dist, FNV-1a hashes equal across
    // device counts
    for input_no in [1, 2] {
        let app = train::histogram(Scale::Small, input_no).expect("app");
        let reference = reference_run(&app.program, &app.inputs);
        let ref_hash = bits_hash(&reference);
        for devices in [2usize, 4] {
            let dist = DistExecutor::new(DevicePool::gpus(devices)).expect("pool");
            let (outs, report) = dist.run(&app.program, &app.inputs).expect("run");
            assert_eq!(
                bits_hash(&outs),
                ref_hash,
                "Histogram/{input_no} hash diverged at {devices} devices"
            );
            assert_eq!(report.devices_alive, devices);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Permuting the scatter stream (same multiset of (key, weight)
    /// pairs, different index order) leaves the output bit-identical:
    /// integer-valued weights make addition exact, so determinism cannot
    /// hide behind floating-point noise.
    #[test]
    fn rbi_bit_identical_under_permuted_index_order(
        n in 64usize..512,
        buckets in 2usize..32,
        stride_pick in 0usize..8,
        offset in 0usize..512,
        devices in 1usize..5,
        v in 0usize..8,
    ) {
        // odd stride, coprime check against n → a true permutation
        let stride = [1usize, 3, 5, 7, 11, 13, 17, 19][stride_pick];
        prop_assume!(gcd(stride, n) == 1);
        let keys: Vec<usize> = (0..n).map(|i| (i * 131 + 7) % buckets).collect();
        let perm: Vec<usize> = (0..n).map(|i| (i * stride + offset) % n).collect();
        let pkeys: Vec<usize> = perm.iter().map(|&p| keys[p]).collect();

        let (prog, inputs) = histogram(keys, buckets, 21, v);
        let (pprog, _) = histogram(pkeys, buckets, 0, v);
        let mut pw = Buffer::zeros("w", KINDS[v % 4].into(), Shape::new(vec![n]));
        for (i, &p) in perm.iter().enumerate() {
            let v = inputs[0].get_flat(p);
            pw.set_flat(i, &v).unwrap();
        }

        let dist = DistExecutor::new(DevicePool::gpus(devices)).expect("pool");
        let (a, _) = dist.run(&prog, &inputs).expect("original");
        let (b, _) = dist.run(&pprog, &[pw]).expect("permuted");
        prop_assert_eq!(bits_hash(&a), bits_hash(&b),
            "permutation changed the output (stride {}, offset {}, {} devices)",
            stride, offset, devices);
    }

    /// Device counts 1/2/4 (and any other) agree bitwise with the
    /// single-device reference — including under seeded transient chaos
    /// with one scheduled crash.
    #[test]
    fn rbi_survives_seeded_chaos_and_a_crash(
        n in 64usize..512,
        buckets in 2usize..32,
        devices in 2usize..7,
        seed in 0u64..(1 << 32),
        rate in 0u16..600,
        v in 0usize..8,
    ) {
        let keys: Vec<usize> = (0..n).map(|i| (i * 37 + seed as usize) % buckets).collect();
        let (prog, inputs) = histogram(keys, buckets, seed as usize % 64, v);
        let reference = reference_run(&prog, &inputs);

        let plan = FaultPlan::seeded(seed, rate.min(600)).crash((seed as usize) % devices, seed % 3);
        let spec = plan.to_string();
        let dist = DistExecutor::with_faults(DevicePool::gpus(devices), plan).expect("pool");
        for launch in 0..4 {
            let (outs, report) = dist.run(&prog, &inputs).unwrap_or_else(
                |e| panic!("launch {launch} failed (replay: --faults '{spec}'): {e}"));
            prop_assert_eq!(&outs[..], &reference[..],
                "launch {} diverged (replay: --faults '{}')", launch, spec);
            prop_assert!(report.devices_alive >= 1,
                "pool emptied (replay: --faults '{}')", spec);
        }
        run_widths_agree(&prog, &inputs, &reference)?;
    }
}

/// CPU pool widths 1/2/4 produce the same bits as the dist reference.
fn run_widths_agree(
    prog: &DslProgram,
    inputs: &[Buffer],
    reference: &[Buffer],
) -> std::result::Result<(), TestCaseError> {
    use mdh_backend::cpu::CpuExecutor;
    use mdh_lowering::asm::DeviceKind;
    use mdh_lowering::heuristics::mdh_default_schedule;
    for width in [1usize, 2, 4] {
        let ex = CpuExecutor::new(width).expect("executor");
        let sched = mdh_default_schedule(prog, DeviceKind::Cpu, width);
        let outs = ex.run(prog, &sched, inputs).expect("cpu run");
        prop_assert_eq!(
            bits_hash(&outs),
            bits_hash(reference),
            "pool width {} diverged from the device reference",
            width
        );
    }
    Ok(())
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}
