//! The full `mdh-apps` Fig. 3 registry under crash schedules on a
//! four-device pool, against single-device execution.
//!
//! Scalar float inputs are re-filled with small integer values so that
//! reduction-partitioned dimensions (whose partials are reassociated
//! across pool widths as devices drop out) stay exact; record inputs are
//! left as instantiated — record apps combine by *selection* (e.g.
//! argmax), which involves no arithmetic and is exact for any values.
//! Apps with no shardable dimension degrade to one shard and must still
//! match trivially. Fault-free launches on the apps' own inputs are held
//! to the device level's oracle in `pool_pins.rs`.

use mdh_apps::{all_fig3, Scale};
use mdh_core::buffer::{Buffer, BufferData};
use mdh_dist::{DevicePool, DistExecutor, FaultPlan};

fn exactify(inputs: &mut [Buffer]) {
    for (salt, buf) in inputs.iter_mut().enumerate() {
        if matches!(buf.data, BufferData::Record(_)) {
            continue;
        }
        buf.fill_with(move |i| ((i.wrapping_add(salt).wrapping_mul(2654435761)) % 16) as f64 - 8.0);
    }
}

/// Chaos sweep: every Fig. 3 app runs at 4 devices under a
/// one-crash and a two-crash schedule. Identity must hold through the
/// recovery, and the eviction/repartition counters must match the
/// schedule — exactly when the app fills the pool (4 shards, so every
/// scheduled victim is actually used), and bounded by it otherwise
/// (a victim the plan never dispatches to cannot crash).
#[test]
fn registry_apps_survive_crash_schedules_at_4_devices() {
    let apps = all_fig3(Scale::Small).expect("registry instantiates");
    assert!(!apps.is_empty());
    let mut full_pool_apps = 0usize;
    for app in &apps {
        let mut inputs = app.inputs.clone();
        exactify(&mut inputs);
        let single = DistExecutor::new(DevicePool::gpus(1)).unwrap();
        let (reference, _) = single
            .run(&app.program, &inputs)
            .unwrap_or_else(|e| panic!("{} single-device run: {e}", app.name));
        let fault_free = DistExecutor::new(DevicePool::gpus(4)).unwrap();
        let (_, base) = fault_free
            .run(&app.program, &inputs)
            .unwrap_or_else(|e| panic!("{} 4-device run: {e}", app.name));
        let shards = base.shards;
        if shards == 4 {
            full_pool_apps += 1;
        }

        for schedule in [&[1usize][..], &[1usize, 3][..]] {
            let mut plan = FaultPlan::none();
            for &d in schedule {
                plan = plan.crash(d, 0);
            }
            let spec = plan.to_string();
            let dist = DistExecutor::with_faults(DevicePool::gpus(4), plan).unwrap();
            let (outs, _) = dist.run(&app.program, &inputs).unwrap_or_else(|e| {
                panic!(
                    "{} crashed run failed (replay: --faults '{spec}'): {e}",
                    app.name
                )
            });
            assert_eq!(
                outs, reference,
                "{} (input {}) diverged under --faults '{spec}'",
                app.name, app.input_no
            );
            let cum = dist.fault_stats();
            // every eviction re-plans exactly one lost shard
            assert_eq!(
                cum.evictions, cum.repartitions,
                "{}: evictions/repartitions out of step under '{spec}'",
                app.name
            );
            let scheduled = schedule.len() as u64;
            // victims the top-level plan dispatches to must crash;
            // others can only be hit if recovery re-plans onto them
            let top_level_hits = schedule.iter().filter(|&&d| d < shards).count() as u64;
            assert!(
                cum.evictions >= top_level_hits && cum.evictions <= scheduled,
                "{}: {} evictions for schedule '{spec}' ({} shards)",
                app.name,
                cum.evictions,
                shards
            );
            if shards == 4 {
                assert_eq!(
                    cum.evictions, scheduled,
                    "{}: full-pool app must lose every scheduled victim under '{spec}'",
                    app.name
                );
            }

            // relaunches on the shrunken pool stay identical. Crashes
            // are permanent, so a scheduled victim the first plan left
            // idle can still die when a later (smaller) plan dispatches
            // to it — within a couple of relaunches every scheduled
            // victim is either dead or provably never used, and launches
            // turn fault-free.
            let mut settled = false;
            for _ in 0..=schedule.len() {
                let (outs2, report2) = dist.run(&app.program, &inputs).unwrap_or_else(|e| {
                    panic!(
                        "{} degraded relaunch failed (replay: --faults '{spec}'): {e}",
                        app.name
                    )
                });
                assert_eq!(
                    outs2, reference,
                    "{} degraded relaunch diverged under '{spec}'",
                    app.name
                );
                if report2.faults.is_zero() {
                    settled = true;
                    break;
                }
            }
            assert!(
                settled,
                "{}: pool never settled under '{spec}' — more faults than victims",
                app.name
            );
            let cum = dist.fault_stats();
            assert_eq!(
                cum.evictions, cum.repartitions,
                "{}: evictions/repartitions out of step after settling under '{spec}'",
                app.name
            );
            assert!(
                cum.evictions <= scheduled,
                "{}: {} evictions for a {}-crash schedule '{spec}'",
                app.name,
                cum.evictions,
                scheduled
            );
        }
    }
    assert!(
        full_pool_apps >= 1,
        "no registry app fills a 4-device pool — the exact-counter \
         branch of this sweep never ran"
    );
}
