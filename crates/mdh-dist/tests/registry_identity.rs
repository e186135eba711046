//! The full `mdh-apps` Fig. 3 registry under crash, hang and flap
//! schedules on a four-device pool, against the fault-free 4-device pool.
//!
//! Every app runs on its own, non-integer inputs, so a launch that
//! regrouped a reduction — a level cut for the devices that happen to be
//! healthy, or a lost shard re-split over the survivors — rounds apart
//! and fails here. Apps with no shardable dimension degrade to one shard
//! and must still match trivially. Fault-free launches on the same inputs
//! are held to the device level's oracle in `pool_pins.rs`.

use mdh_apps::{all_fig3, Scale};
use mdh_core::buffer::bits_hash;
use mdh_dist::{DevicePool, DistExecutor, FaultPlan, HealPolicy};

/// `(fault spec, healing armed, scheduled victims, shards re-homed beyond
/// one per eviction for an app that fills the pool)`: one crash, two
/// crashes, a hang escalated to a crash (no watchdog), a hang hedged into
/// probation and reinstated, a flap — device 1 down for launches 1–2 —
/// evicted and reinstated, and a crash that doubles shards 0 and 3 up on
/// device 0 before device 0 itself dies, losing both at once.
const SCHEDULES: [(&str, bool, &[usize], u64); 6] = [
    ("crash=1@0", false, &[1], 0),
    ("crash=1@0,crash=3@0", false, &[1, 3], 0),
    ("hang=1@0", false, &[1], 0),
    ("hang=1@0", true, &[1], 0),
    ("crash=1@1x2", true, &[1], 0),
    ("crash=2@0,crash=0@1", false, &[2, 0], 1),
];

/// Enough launches for every schedule to evict, probe, reinstate (a
/// probe every 2 launches) and run fault-free on the healed pool.
const LAUNCHES: usize = 8;

/// Chaos sweep: every Fig. 3 app runs [`LAUNCHES`] launches at 4 devices
/// under each of [`SCHEDULES`]. Every launch — after an eviction, on a
/// degraded rotation, after a reinstatement — must have the fault-free
/// 4-device bits, and the counters must match the schedule: exactly when
/// the app fills the pool (4 shards, so every scheduled victim is
/// actually used), and bounded by it otherwise: a victim below the app's
/// shard count holds a shard when its fault is due and must be taken out,
/// one the placement never dispatches to cannot fail.
#[test]
fn registry_apps_survive_crash_schedules_at_4_devices() {
    let apps = all_fig3(Scale::Small).expect("registry instantiates");
    assert!(!apps.is_empty());
    let healing = HealPolicy {
        hedge_ms: 0.05,
        probe_every: 2,
        reinstate_after: 1,
    };
    let mut full_pool_apps = 0usize;
    for app in &apps {
        let fault_free = DistExecutor::new(DevicePool::gpus(4)).unwrap();
        let (reference, base) = fault_free
            .run(&app.program, &app.inputs)
            .unwrap_or_else(|e| panic!("{} 4-device run: {e}", app.name));
        let reference = bits_hash(&reference);
        let full_pool = base.shards == 4;
        full_pool_apps += usize::from(full_pool);

        for (spec, heal, victims, doubled) in SCHEDULES {
            let plan = FaultPlan::parse(spec).expect("fault spec");
            let mut dist = DistExecutor::with_faults(DevicePool::gpus(4), plan).unwrap();
            if heal {
                dist = dist.with_healing(healing.clone());
            }
            let mut last = None;
            for launch in 0..LAUNCHES {
                let (outs, report) = dist.run(&app.program, &app.inputs).unwrap_or_else(|e| {
                    panic!(
                        "{} launch {launch} failed (replay: --faults '{spec}'): {e}",
                        app.name
                    )
                });
                assert_eq!(
                    bits_hash(&outs),
                    reference,
                    "{} (input {}) launch {launch} on {} alive devices left the \
                     fault-free bits under --faults '{spec}'",
                    app.name,
                    app.input_no,
                    report.devices_alive
                );
                assert_eq!(report.shards, base.shards, "{}: the level moved", app.name);
                last = Some(report);
            }
            let last = last.expect("launched");
            assert!(
                last.faults.is_zero(),
                "{}: pool never settled under '{spec}': {}",
                app.name,
                last.faults
            );
            let cum = dist.fault_stats();
            // an eviction re-homes the shards its device held: one each,
            // unless a degraded rotation had doubled two up on the victim
            let doubled = if full_pool { doubled } else { 0 };
            assert_eq!(
                cum.repartitions,
                cum.evictions + doubled,
                "{}: evictions/repartitions out of step under '{spec}'",
                app.name
            );
            let out = victims.len() as u64;
            let hit = victims.iter().filter(|&&d| d < base.shards).count() as u64;
            let taken_out = cum.evictions + cum.probations;
            assert!(
                hit <= taken_out && taken_out <= out,
                "{}: {taken_out} devices out under '{spec}' ({} shards)",
                app.name,
                base.shards
            );
            if full_pool {
                assert_eq!(
                    taken_out, out,
                    "{}: full-pool app must lose every scheduled victim under '{spec}'",
                    app.name
                );
            }
            if heal {
                // the hang victim and the flapper both come back
                assert_eq!(
                    cum.reinstatements, taken_out,
                    "{}: a device stayed out under '{spec}'",
                    app.name
                );
                assert_eq!(dist.healthy_count(), 4, "{}: '{spec}'", app.name);
            }
        }
    }
    assert!(
        full_pool_apps >= 1,
        "no registry app fills a 4-device pool — the exact-counter \
         branch of this sweep never ran"
    );
}
