//! Self-healing execution: the full five-kind fault grammar — transient,
//! slow link, shard hang, resident-buffer corruption, and a flapping
//! plus a permanent crash — thrown at a 4-GPU pool running every Fig. 3
//! registry app twice, with the healing layer armed:
//!
//! * the shard watchdog hedges the hung shard onto a healthy spare and
//!   demotes the victim to probation;
//! * the health state machine probes out-of-rotation devices on a
//!   deterministic cadence and reinstates them (invalidating their
//!   residency first) once they pass the policy's quota — the flapping
//!   device comes back, the permanently crashed one never does;
//! * the memory pool revalidates block fingerprints on hit, catches the
//!   injected corruption, and falls back to a fresh upload.
//!
//! Every one of the 40 launches is asserted bit-identical to its
//! fault-free single-device reference — the acceptance invariant for
//! the combined hang+crash+corrupt+flap schedule.
//!
//! A second part drives the same machinery through the serving runtime:
//! a flapping device is evicted, probed, and reinstated across nine
//! requests while the `STATS json` healing counters stay monotone.
//!
//! Lines prefixed `output-hash` and `heal-` are fully deterministic
//! (seeded faults, integer inputs, analytic timing): CI runs this
//! example twice and diffs them.
//!
//! Run with `cargo run --release --example self_healing`.

use mdh::apps::registry::{instantiate, FIG3_STUDIES};
use mdh::apps::spec::Scale;
use mdh::core::buffer::{bits_hash, Buffer, BufferData};
use mdh::dist::{DevicePool, DistExecutor, FaultPlan, HealPolicy};
use mdh::lowering::asm::DeviceKind;
use mdh::mem::MemPool;
use mdh::runtime::{Request, Runtime, RuntimeConfig, TunePolicy};
use std::sync::Arc;

/// Integer-valued refill: exact in f32/f64, so partial-result
/// reassociation across devices — and across hedges, recoveries, and
/// reinstatements — cannot introduce rounding.
fn exactify(inputs: &mut [Buffer]) {
    for (salt, buf) in inputs.iter_mut().enumerate() {
        if matches!(buf.data, BufferData::Record(_)) {
            continue;
        }
        buf.fill_with(move |i| ((i.wrapping_add(salt).wrapping_mul(2654435761)) % 16) as f64 - 8.0);
    }
}

/// Part 1: the combined schedule over the whole Fig. 3 registry.
fn registry_under_combined_chaos() {
    // all five kinds in one plan: a transient hiccup, a ×6 slow link
    // (stragglers get hedged, not demoted), a hang at launch 3, gpu0
    // flapping down for launches 8–9, gpu1's resident blocks corrupted
    // on a warm pass-2 launch, and gpu3 dying for good at launch 30
    let faults = FaultPlan::none()
        .transient(1, 1, 2)
        .slow(3, 2, 6)
        .hang(2, 3)
        .flap(0, 8, 2)
        .corrupt(1, 26)
        .crash(3, 30);
    let heal = HealPolicy {
        hedge_ms: 0.25,
        probe_every: 2,
        reinstate_after: 2,
    };
    println!("fault plan (replay with `mdhc serve --faults '{faults}'`):");
    println!("  {faults}");
    println!(
        "healing: hedge {} ms, probe every {} launches, reinstate after {} passes\n",
        heal.hedge_ms, heal.probe_every, heal.reinstate_after
    );

    let dist = DistExecutor::with_faults(DevicePool::gpus(4), faults)
        .expect("pool")
        .with_mem(Arc::new(MemPool::new(4, 1 << 30)))
        .with_healing(heal);

    let mut wrong = 0usize;
    let mut launches = 0usize;
    for pass in 0..2 {
        for id in FIG3_STUDIES {
            let mut app = instantiate(*id, Scale::Small).expect("instantiate");
            exactify(&mut app.inputs);

            let single = DistExecutor::new(DevicePool::gpus(1)).expect("pool");
            let (reference, _) = single.run(&app.program, &app.inputs).expect("reference");

            let (outs, report) = dist
                .run(&app.program, &app.inputs)
                .expect("healed launch must still succeed");
            launches += 1;
            if outs != reference {
                wrong += 1;
            }
            if !report.faults.is_zero() {
                println!(
                    "!! launch {:>2} {:<11}/{} alive={}/{} [{}]",
                    launches - 1,
                    id.name,
                    id.input_no,
                    report.devices_alive,
                    report.devices,
                    report.faults,
                );
            }
        }
        println!(
            "   pass {pass}: all {} registry apps served",
            FIG3_STUDIES.len()
        );
    }

    let stats = dist.fault_stats();
    println!("\nworkload: {launches} launches, {wrong} wrong results");
    println!("cumulative: {stats}");
    println!(
        "pool: started with 4 devices, finished with {} (healthy: {:?})\n",
        dist.healthy_count(),
        dist.alive_devices()
    );

    assert_eq!(wrong, 0, "every healed launch must be bit-identical");
    assert_eq!(stats.injected_hangs, 1, "the scheduled hang must fire");
    assert!(stats.hedges >= 1, "the hung shard must have been hedged");
    assert_eq!(stats.probations, 1, "the hang victim goes to probation");
    assert_eq!(
        stats.evictions, 2,
        "the flap and the permanent crash each evict once"
    );
    assert_eq!(
        stats.reinstatements, 2,
        "the hang victim and the flapper both earn reinstatement"
    );
    assert!(
        stats.injected_corruptions >= 1,
        "the warm-launch corruption must be detected"
    );
    assert_eq!(
        dist.healthy_count(),
        3,
        "only the permanent crash stays out: its probes never pass"
    );
    println!(
        "heal-dist hangs={} hedges={} probations={} evictions={} probes={} \
         reinstatements={} corruptions={} healthy={}/4",
        stats.injected_hangs,
        stats.hedges,
        stats.probations,
        stats.evictions,
        stats.probes,
        stats.reinstatements,
        stats.injected_corruptions,
        dist.healthy_count()
    );

    // deterministic output hashes for the CI run-twice diff
    for name in ["MatMul", "Gaussian_2D", "Jacobi_3D"] {
        let mut app = instantiate(
            mdh::apps::registry::StudyId { name, input_no: 1 },
            Scale::Small,
        )
        .expect("instantiate");
        exactify(&mut app.inputs);
        let (outs, _) = dist
            .run(&app.program, &app.inputs)
            .expect("degraded launch");
        println!("output-hash {name} {:#018x}", bits_hash(&outs));
    }
}

/// Part 2: the same flap→probe→reinstate cycle observed from the serving
/// runtime's `STATS json` healing counters.
fn runtime_stats_see_the_flap() {
    println!("\n=== serving runtime: flap, probation, reinstatement ===\n");
    let runtime = Runtime::new(RuntimeConfig {
        workers: 1, // serialise: one launch per request, in order
        exec_threads: 2,
        devices: 4,
        faults: Some(FaultPlan::none().flap(1, 1, 2)),
        hedge_ms: 0.25,
        probe_every: 2,
        reinstate_after: 2,
        tune: TunePolicy {
            enabled: false,
            ..TunePolicy::default()
        },
        ..RuntimeConfig::default()
    })
    .expect("runtime");

    let mut app = instantiate(
        mdh::apps::registry::StudyId {
            name: "MatVec",
            input_no: 1,
        },
        Scale::Small,
    )
    .expect("instantiate");
    exactify(&mut app.inputs);

    let mut last = runtime.stats();
    for launch in 0..9 {
        runtime
            .submit(Request::new(
                app.program.clone(),
                DeviceKind::Gpu,
                app.inputs.clone(),
            ))
            .wait()
            .expect("request through the flap must still be served");
        let now = runtime.stats();
        // the healing counters are monotone across the whole cycle
        assert!(now.health_probes >= last.health_probes, "launch {launch}");
        assert!(
            now.health_reinstatements >= last.health_reinstatements,
            "launch {launch}"
        );
        assert!(
            now.device_evictions >= last.device_evictions,
            "launch {launch}"
        );
        last = now;
    }

    let stats = runtime.stats();
    println!("stats: {stats}");
    println!("stats-json: {}", stats.to_json());
    println!("stats-keys: {}", mdh::runtime::RuntimeStats::KEYS.len());
    assert_eq!(stats.device_evictions, 1, "the flap evicts gpu1 once");
    assert_eq!(stats.health_probes, 3, "probes at launches 2 (fail), 4, 6");
    assert_eq!(stats.health_reinstatements, 1, "two passes earn rejoin");
    assert!(
        stats
            .device_health
            .iter()
            .all(|(_, state)| state == "healthy"),
        "the flapper must be back in rotation: {:?}",
        stats.device_health
    );
    assert!(
        stats.to_json().contains("\"health_reinstatements\":1"),
        "STATS json must carry the healing counters"
    );
    println!(
        "heal-serve evictions={} probes={} reinstatements={} health={}",
        stats.device_evictions,
        stats.health_probes,
        stats.health_reinstatements,
        stats
            .device_health
            .iter()
            .map(|(label, state)| format!("{label}:{state}"))
            .collect::<Vec<_>>()
            .join(",")
    );
}

fn main() {
    println!("=== self-healing execution ===\n");
    registry_under_combined_chaos();
    runtime_stats_see_the_flap();
}
