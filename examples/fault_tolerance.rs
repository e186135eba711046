//! Fault-injected multi-device execution: a 4-GPU pool loses two
//! devices mid-workload and finishes with zero wrong results.
//!
//! A deterministic `FaultPlan` (printed below — it doubles as the replay
//! spec for `mdhc serve --faults`) schedules transient shard errors
//! early, a slow H2D link, and two device crashes at different points of
//! a 12-launch workload over three Fig. 3 case studies. The executor
//! retries transients on-device with capped modelled backoff, evicts
//! each crashed device from its health view, and runs the lost shard
//! whole, with *its* program, on a survivor. The device level is cut for
//! the configured 4 devices whichever are healthy, so every launch —
//! recovered or degraded — is bit-identical to the fault-free 4-device
//! pool on the apps' own non-integer inputs, which this example asserts
//! on every launch.
//!
//! The `output-hash` lines are FNV-1a over the result bit patterns and
//! are fully deterministic (seeded faults, instantiated inputs, analytic
//! timing): CI runs this example twice and diffs them as a chaos
//! determinism smoke test.
//!
//! Run with `cargo run --release --example fault_tolerance`.
//!
//! With the `hang-corrupt` argument the schedule switches to the
//! self-healing fault kinds: a resident-buffer corruption (detected by
//! fingerprint revalidation and repaired with a fresh upload), a shard
//! hang (caught by the hedged watchdog, the victim demoted to probation
//! and probed back), and one permanent crash — same bit-identity
//! invariant, same deterministic `output-hash` lines.

use mdh::apps::registry::{instantiate, StudyId};
use mdh::apps::spec::Scale;
use mdh::core::buffer::bits_hash;
use mdh::dist::{DevicePool, DistExecutor, FaultPlan, HealPolicy};
use mdh::mem::MemPool;
use std::sync::Arc;

fn main() {
    let hang_corrupt = std::env::args().nth(1).as_deref() == Some("hang-corrupt");
    if hang_corrupt {
        println!("=== fault-injected multi-device execution (hang+corrupt) ===\n");
    } else {
        println!("=== fault-injected multi-device execution ===\n");
    }

    let faults = if hang_corrupt {
        // the self-healing schedule: transient hiccups on gpu1 at launch
        // 1, gpu1's resident blocks corrupted at launch 3 (a warm launch,
        // so fingerprint revalidation has bytes to catch), gpu3 hangs at
        // launch 5 (hedged, demoted, probed back at launch 6), gpu2 dies
        // for good at launch 8
        FaultPlan::none()
            .transient(1, 1, 2)
            .corrupt(1, 3)
            .hang(3, 5)
            .crash(2, 8)
    } else {
        // the crash schedule: transient hiccups on gpu1 at launch 1, a ×8
        // slow link into gpu3 at launch 2, gpu2 dies at launch 4, gpu1
        // dies at launch 8 — a 4-device pool ends the workload on 2
        // survivors
        FaultPlan::none()
            .transient(1, 1, 2)
            .slow(3, 2, 8)
            .crash(2, 4)
            .crash(1, 8)
    };
    println!("fault plan (replay with `mdhc serve --faults '{faults}'`):");
    println!("  {faults}\n");

    let mut dist = DistExecutor::with_faults(DevicePool::gpus(4), faults).expect("pool");
    if hang_corrupt {
        // corruption detection needs resident bytes; hedging and probing
        // need a HealPolicy
        dist = dist
            .with_mem(Arc::new(MemPool::new(4, 1 << 30)))
            .with_healing(HealPolicy {
                hedge_ms: 0.25,
                probe_every: 3,
                reinstate_after: 2,
            });
    }

    let mut wrong = 0usize;
    let mut launches = 0usize;
    for round in 0..4 {
        for name in ["MatMul", "Dot", "Jacobi_3D"] {
            let app =
                instantiate(StudyId { name, input_no: 1 }, Scale::Small).expect("instantiate");

            // the fault-free 4-device pool's outputs for this launch
            let clean = DistExecutor::new(DevicePool::gpus(4)).expect("pool");
            let (reference, _) = clean.run(&app.program, &app.inputs).expect("reference");

            let (outs, report) = dist
                .run(&app.program, &app.inputs)
                .expect("faulted launch must still succeed");
            launches += 1;
            if outs != reference {
                wrong += 1;
            }
            let marker = if report.faults.is_zero() { "  " } else { "!!" };
            println!(
                "{marker} launch {:>2} {name:<9} alive={}/{} shards={} [{}]",
                launches - 1,
                report.devices_alive,
                report.devices,
                report.shards,
                report.faults,
            );
            if round == 3 && name == "Jacobi_3D" {
                println!();
            }
        }
    }

    let stats = dist.fault_stats();
    println!("workload: {launches} launches, {wrong} wrong results");
    println!("cumulative: {stats}");
    println!(
        "pool: started with 4 devices, finished with {} (healthy: {:?})\n",
        dist.healthy_count(),
        dist.alive_devices()
    );

    assert_eq!(
        wrong, 0,
        "every launch must keep the fault-free 4-device bits"
    );
    assert!(stats.retries > 0, "transient retries must have fired");
    if hang_corrupt {
        assert_eq!(
            dist.healthy_count(),
            3,
            "one permanent crash; the hang victim was probed back"
        );
        assert_eq!(stats.injected_hangs, 1, "the scheduled hang must fire");
        assert!(stats.hedges >= 1, "the hung shard must have been hedged");
        assert_eq!(stats.probations, 1, "the hang victim goes to probation");
        assert_eq!(stats.reinstatements, 1, "one passing probe reinstates it");
        assert!(
            stats.injected_corruptions >= 1,
            "the scheduled corruption must be detected on the warm launch"
        );
        assert_eq!(stats.evictions, 1, "only the permanent crash evicts");
    } else {
        assert_eq!(
            dist.healthy_count(),
            2,
            "two scheduled crashes, two evictions"
        );
        assert_eq!(stats.evictions, 2, "both crash victims evicted");
        assert!(stats.repartitions >= 2, "each lost shard re-homed");
        assert!(stats.slow_links > 0, "the slow-link event must have fired");
    }

    // deterministic output hashes for the CI chaos determinism diff:
    // the same seed must replay the same degradation and the same bits
    for name in ["MatMul", "Dot", "Jacobi_3D"] {
        let app = instantiate(StudyId { name, input_no: 1 }, Scale::Small).expect("instantiate");
        let (outs, _) = dist
            .run(&app.program, &app.inputs)
            .expect("degraded launch");
        println!("output-hash {name} {:#018x}", bits_hash(&outs));
    }
}
