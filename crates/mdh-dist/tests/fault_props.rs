//! Fault-injection property tests: for arbitrary shapes, partition
//! counts, and seeded `FaultPlan`s, the recovered multi-device output is
//! bit-identical to the zero-fault single-device run — for all three
//! pre-implemented combine operators (`cc`, `pw(+)`, `ps(max)`) and a
//! custom tuple combiner, over every output element kind and layout of
//! [`common::Variant`].
//!
//! Inputs are integer-valued (exact in every kind), so every legal
//! reassociation of the fold — including the re-decomposition a crash
//! recovery performs over the surviving devices, whose sub-partials are
//! recombined into the partial the dead device owed before that partial
//! enters the outer fold — agrees *bitwise*.
//!
//! Every assertion message carries the fault plan's canonical spec
//! (`FaultPlan` displays as its replay grammar), so a failure prints the
//! exact seed/schedule needed to replay it under `mdhc serve --faults`.

mod common;

use common::{argmax, grid, reference, row_sums, running_max, variant, VARIANTS};
use mdh_core::buffer::Buffer;
use mdh_core::dsl::DslProgram;
use mdh_dist::{DevicePool, DistExecutor, FaultPlan, HealPolicy};
use mdh_mem::MemPool;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::Arc;

/// Run `launches` consecutive fault-injected launches on a pool of
/// `devices` and assert each one is bit-identical to `reference`. The
/// replay spec is included in every failure message.
fn assert_chaos_identical(
    prog: &DslProgram,
    inputs: &[Buffer],
    reference: &[Buffer],
    devices: usize,
    plan: FaultPlan,
    launches: usize,
) -> std::result::Result<(), TestCaseError> {
    let spec = plan.to_string();
    let dist = DistExecutor::with_faults(DevicePool::gpus(devices), plan).expect("pool");
    for launch in 0..launches {
        let (outs, report) = dist
            .run(prog, inputs)
            .unwrap_or_else(|e| panic!("launch {launch} failed (replay: --faults '{spec}'): {e}"));
        prop_assert_eq!(
            &outs[..],
            reference,
            "launch {} diverged (replay: --faults '{}')",
            launch,
            spec
        );
        prop_assert!(
            report.devices_alive >= 1,
            "pool emptied (replay: --faults '{}')",
            spec
        );
    }
    Ok(())
}

/// A chaos schedule for a pool of `devices`: a seeded transient channel
/// plus (when the pool can lose one) an explicit crash mid-stream.
/// Seeded transients fail only the first attempt, so they never exhaust
/// the retry budget — at most the one scheduled crash evicts, and the
/// pool never empties.
fn chaos_plan(seed: u64, rate: u16, devices: usize, with_crash: bool) -> FaultPlan {
    let plan = FaultPlan::seeded(seed, rate.min(600));
    if with_crash && devices >= 2 {
        let victim = (seed as usize) % devices;
        let at = seed % 3; // dies at launch 0, 1, or 2
        plan.crash(victim, at)
    } else {
        plan
    }
}

/// A self-healing chaos schedule for a pool of `devices`: seeded
/// transients plus — when the pool is wide enough — a flapping crash at
/// launch 1 (down for 2 launches), a resident-buffer corruption at
/// launch 2, and a shard hang at launch 6, by which point the flapped
/// device has been probed back into the rotation (probe cadence 2,
/// reinstate after 1 pass: down 1–2, probe 4 passes, healthy at 6), so
/// the hedge always has a spare.
fn healing_chaos_plan(seed: u64, rate: u16, devices: usize) -> FaultPlan {
    let plan = FaultPlan::seeded(seed, rate.min(400));
    if devices >= 2 {
        let flapper = (seed as usize) % devices;
        let hanger = (seed as usize + 1) % devices;
        plan.flap(flapper, 1, 2)
            .corrupt((seed as usize + 1) % devices, 2)
            .hang(hanger, 6)
    } else {
        plan.corrupt(0, 2)
    }
}

/// Executor with the full self-healing stack armed: hedged watchdog,
/// probe cadence 2, one passing probe to reinstate, and a residency pool
/// so corruption schedules have resident bytes to corrupt.
fn healing_executor(devices: usize, plan: FaultPlan) -> DistExecutor {
    DistExecutor::with_faults(DevicePool::gpus(devices), plan)
        .expect("pool")
        .with_mem(Arc::new(MemPool::new(devices, 1 << 30)))
        .with_healing(HealPolicy {
            hedge_ms: 0.05,
            probe_every: 2,
            reinstate_after: 1,
        })
}

/// Run 8 healing-enabled launches across widths 1/2/4 and assert each is
/// bit-identical to the fault-free reference. Failure messages carry the
/// replay spec.
fn assert_healing_identical(
    prog: &DslProgram,
    inputs: &[Buffer],
    reference: &[Buffer],
    seed: u64,
    rate: u16,
) -> std::result::Result<(), TestCaseError> {
    for devices in [1usize, 2, 4] {
        let plan = healing_chaos_plan(seed, rate, devices);
        let spec = plan.to_string();
        let dist = healing_executor(devices, plan);
        for launch in 0..8 {
            let (outs, report) = dist.run(prog, inputs).unwrap_or_else(|e| {
                panic!("launch {launch} @ {devices} failed (replay: --faults '{spec}'): {e}")
            });
            prop_assert_eq!(
                &outs[..],
                reference,
                "launch {} @ {} devices diverged under healing (replay: --faults '{}')",
                launch,
                devices,
                spec
            );
            prop_assert!(
                report.devices_alive >= 1,
                "pool emptied (replay: --faults '{}')",
                spec
            );
        }
    }
    Ok(())
}

/// The `pw` suites' program: scanned row sums, or — the extra variant —
/// the custom argmax tuple reduced to one point.
fn pw_program(j: usize, n: usize, v: usize) -> (DslProgram, Vec<Buffer>) {
    if v == VARIANTS {
        argmax(n, false)
    } else {
        row_sums(j, n, variant(v))
    }
}

/// The `ps` suites' program: a running maximum, or the running argmax.
fn ps_program(n: usize, v: usize) -> (DslProgram, Vec<Buffer>) {
    if v == VARIANTS {
        argmax(n, true)
    } else {
        running_max(n, variant(v))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cc_survives_seeded_chaos_and_a_crash(
        i in 1usize..32,
        j in 1usize..6,
        k in 1usize..32,
        devices in 2usize..7,
        seed in 0u64..1 << 32,
        rate in 0u16..600,
        v in 0usize..VARIANTS,
    ) {
        let (prog, inputs) = grid(i, j, k, variant(v));
        let reference = reference(&prog, &inputs);
        let plan = chaos_plan(seed, rate, devices, true);
        assert_chaos_identical(&prog, &inputs, &reference, devices, plan, 4)?;
    }

    #[test]
    fn pw_add_survives_seeded_chaos_and_a_crash(
        n in 1usize..300,
        devices in 2usize..7,
        seed in 0u64..1 << 32,
        rate in 0u16..600,
        j in 1usize..6,
        v in 0usize..=VARIANTS,
    ) {
        let (prog, inputs) = pw_program(j, n, v);
        let reference = reference(&prog, &inputs);
        let plan = chaos_plan(seed, rate, devices, true);
        assert_chaos_identical(&prog, &inputs, &reference, devices, plan, 4)?;
    }

    #[test]
    fn ps_max_survives_seeded_chaos_and_a_crash(
        n in 1usize..160,
        devices in 2usize..7,
        seed in 0u64..1 << 32,
        rate in 0u16..600,
        v in 0usize..=VARIANTS,
    ) {
        let (prog, inputs) = ps_program(n, v);
        let reference = reference(&prog, &inputs);
        let plan = chaos_plan(seed, rate, devices, true);
        assert_chaos_identical(&prog, &inputs, &reference, devices, plan, 4)?;
    }

    /// Pure seeded chaos (no scheduled crash): every transient is
    /// retried on its own device and nothing is ever evicted.
    #[test]
    fn seeded_transients_never_evict(
        n in 1usize..200,
        devices in 1usize..9,
        seed in 0u64..1 << 32,
        rate in 1u16..600,
        v in 0usize..=VARIANTS,
    ) {
        let (prog, inputs) = pw_program(1, n, v);
        let reference = reference(&prog, &inputs);
        let plan = chaos_plan(seed, rate, devices, false);
        let spec = plan.to_string();
        let dist = DistExecutor::with_faults(DevicePool::gpus(devices), plan).expect("pool");
        for _ in 0..4 {
            let (outs, report) = dist.run(&prog, &inputs).expect("run");
            prop_assert_eq!(
                &outs[..],
                &reference[..],
                "diverged (replay: --faults '{}')",
                spec
            );
            prop_assert_eq!(
                report.faults.evictions, 0,
                "transient must not evict (replay: --faults '{}')",
                spec
            );
        }
        prop_assert_eq!(dist.healthy_count(), devices);
    }

    /// The cumulative executor stats reconcile with the sum of the
    /// per-launch reports, and a scheduled crash is counted exactly once
    /// (evictions are permanent, not re-counted per launch).
    #[test]
    fn crash_counters_match_the_schedule(
        i in 2usize..24,
        k in 1usize..24,
        devices in 2usize..7,
        seed in 0u64..1 << 32,
        v in 0usize..VARIANTS,
    ) {
        let (prog, inputs) = grid(i, 1, k, variant(v));
        // a crash only fires when the device is *used*: with fewer
        // shards than devices (i < devices) the tail of the pool sits
        // idle, so pick a victim that is guaranteed to receive a shard
        let victim = (seed as usize) % devices.min(i);
        let plan = FaultPlan::none().crash(victim, 1);
        let spec = plan.to_string();
        let dist = DistExecutor::with_faults(DevicePool::gpus(devices), plan).expect("pool");
        let mut summed = mdh_dist::FaultStats::default();
        for _ in 0..4 {
            let (_, report) = dist.run(&prog, &inputs).expect("run");
            summed.absorb(&report.faults);
        }
        let cum = dist.fault_stats();
        prop_assert_eq!(cum, summed, "cumulative != sum of per-launch (replay: --faults '{}')", spec);
        prop_assert_eq!(cum.evictions, 1, "one scheduled crash, one eviction (replay: --faults '{}')", spec);
        prop_assert!(cum.repartitions >= 1, "eviction mid-launch re-plans (replay: --faults '{}')", spec);
        prop_assert_eq!(dist.healthy_count(), devices - 1);
    }

    /// Self-healing chaos (flap + corrupt + hang, hedged watchdog and
    /// probe reinstatement armed) stays bit-identical for the `cc`
    /// operator across widths 1/2/4.
    #[test]
    fn cc_survives_hang_corrupt_flap_with_healing(
        i in 1usize..32,
        j in 1usize..6,
        k in 1usize..32,
        seed in 0u64..1 << 32,
        rate in 0u16..400,
        v in 0usize..VARIANTS,
    ) {
        let (prog, inputs) = grid(i, j, k, variant(v));
        let reference = reference(&prog, &inputs);
        assert_healing_identical(&prog, &inputs, &reference, seed, rate)?;
    }

    /// Same schedule, `pw(+)`: a hedged shard's partial must slot into
    /// the same fold position as the victim's would have.
    #[test]
    fn pw_add_survives_hang_corrupt_flap_with_healing(
        n in 1usize..300,
        seed in 0u64..1 << 32,
        rate in 0u16..400,
        j in 1usize..6,
        v in 0usize..=VARIANTS,
    ) {
        let (prog, inputs) = pw_program(j, n, v);
        let reference = reference(&prog, &inputs);
        assert_healing_identical(&prog, &inputs, &reference, seed, rate)?;
    }

    /// Same schedule, `ps(max)`: the ordered cross-shard carry chain —
    /// most sensitive to a hedge or reinstatement reordering shards.
    #[test]
    fn ps_max_survives_hang_corrupt_flap_with_healing(
        n in 1usize..160,
        seed in 0u64..1 << 32,
        rate in 0u16..400,
        v in 0usize..=VARIANTS,
    ) {
        let (prog, inputs) = ps_program(n, v);
        let reference = reference(&prog, &inputs);
        assert_healing_identical(&prog, &inputs, &reference, seed, rate)?;
    }

    /// Reinstatement is deterministic: a device flapping down for 2
    /// launches under probe cadence 2 / quota 2 follows one fixed
    /// timeline for any seed, victim, and width — evicted at launch 1,
    /// probed (fail, pass, pass) at 2/4/6, reinstated once, back in the
    /// rotation by launch 8 — and the cumulative healing counters
    /// reconcile with the sum of the per-launch reports.
    #[test]
    fn flap_reinstatement_timeline_is_deterministic(
        i in 2usize..24,
        k in 1usize..24,
        devices in 2usize..7,
        seed in 0u64..1 << 32,
        v in 0usize..VARIANTS,
    ) {
        let (prog, inputs) = grid(i, 1, k, variant(v));
        // the crash only fires when the victim is used (see above)
        let victim = (seed as usize) % devices.min(i);
        let plan = FaultPlan::none().flap(victim, 1, 2);
        let spec = plan.to_string();
        let dist = DistExecutor::with_faults(DevicePool::gpus(devices), plan)
            .expect("pool")
            .with_healing(HealPolicy {
                hedge_ms: 0.0,
                probe_every: 2,
                reinstate_after: 2,
            });
        let reference = reference(&prog, &inputs);
        let mut summed = mdh_dist::FaultStats::default();
        for launch in 0..9 {
            let (outs, report) = dist.run(&prog, &inputs).expect("run");
            prop_assert_eq!(
                &outs[..], &reference[..],
                "launch {} diverged (replay: --faults '{}')", launch, spec
            );
            summed.absorb(&report.faults);
        }
        let cum = dist.fault_stats();
        prop_assert_eq!(&cum, &summed, "cumulative != sum of per-launch (replay: --faults '{}')", spec);
        prop_assert_eq!(cum.evictions, 1, "one flap, one eviction (replay: --faults '{}')", spec);
        prop_assert_eq!(cum.reinstatements, 1, "one reinstatement (replay: --faults '{}')", spec);
        prop_assert_eq!(cum.probes, 3, "probes at 2 (fail), 4, 6 (replay: --faults '{}')", spec);
        prop_assert_eq!(dist.healthy_count(), devices, "flapped device must be back in rotation");
    }
}
