//! Stage 2 — **settle**: turn each shard's [`Attempt`] into its partial
//! and its [`ShardReport`]s, and keep the per-device health state machine.
//!
//! A device crash (injected, or escalation after retries are exhausted)
//! evicts the device from the executor's health view; the launch then
//! runs the lost shard's *program* whole on a survivor, keeping every
//! other partial, so the recovered launch is bit-identical to the
//! fault-free one. Slow-link events stretch the modelled H2D; past the
//! policy timeout the transfer is charged at the timeout and retried once.
//!
//! A [`HealPolicy`](crate::fault::HealPolicy) upgrades fail-and-forget to
//! a health *state machine* per device ([`DeviceHealth`]):
//!
//! * **watchdog + hedge**: every attempt has a modelled completion
//!   deadline — its fault-free time plus `hedge_ms`. A hang, or a
//!   slow-link straggler stretched past the deadline, is hedged on a
//!   healthy spare and the first modelled completion wins. Every device
//!   is the same model, so the spare would compute the victim's bytes in
//!   the victim's time: the hedge reuses those bytes and is charged, not
//!   run again. Hang victims go to `Probation`.
//! * **probation & reinstatement**: every `probe_every` launches each
//!   out-of-rotation device gets a deterministic health check against the
//!   fault schedule. After `reinstate_after` consecutive passes (one for
//!   `Probation`) it moves to `Reinstating` — its residency invalidated,
//!   so no block that went stale during the outage is ever served — and
//!   rejoins as `Healthy` on the next cycle. The default policy disables
//!   both: evictions are permanent and hangs escalate to crashes.

use crate::account::{Ledger, ShardReport};
use crate::device::DeviceHealth;
use crate::dispatch::Attempt;
use crate::exec::{plock, DistExecutor};
use crate::fault::FaultStats;
use mdh_core::buffer::Buffer;
use mdh_lowering::partition::Shard;

/// Per-device entry of the executor's health state machine.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HealthSlot {
    pub state: DeviceHealth,
    /// Consecutive passing probes since the device left the rotation.
    passes: u32,
}

impl HealthSlot {
    pub const HEALTHY: HealthSlot = HealthSlot::at(DeviceHealth::Healthy);

    /// A device entering `state`, with no passing probe yet.
    const fn at(state: DeviceHealth) -> HealthSlot {
        HealthSlot { state, passes: 0 }
    }
}

impl DistExecutor {
    /// Marks `device` dead. Returns whether this call removed the device
    /// from the rotation: concurrent launches that dispatched to the
    /// same dying device race to evict it, and only the winner may count
    /// the eviction.
    pub(crate) fn evict(&self, device: usize) -> bool {
        let mut health = plock(&self.health);
        let was_in_rotation = health[device].state.in_rotation();
        health[device] = HealthSlot::at(DeviceHealth::Evicted);
        was_in_rotation
    }

    /// Evict `device` and drop its residency: the device's memory is gone
    /// with it, so a later launch can never hit a stale block on a
    /// replacement (idempotent under racing launches).
    fn lose(&self, device: usize, faults: &mut FaultStats) {
        if self.evict(device) {
            faults.evictions += 1;
        }
        if let Some(mem) = &self.mem {
            mem.invalidate_device(device);
        }
    }

    /// Demotes a hang victim to probation. Returns whether this call
    /// performed the Healthy→Probation transition.
    fn demote(&self, device: usize) -> bool {
        let mut health = plock(&self.health);
        let healthy = health[device].state == DeviceHealth::Healthy;
        if healthy {
            health[device] = HealthSlot::at(DeviceHealth::Probation);
        }
        healthy
    }

    /// One probe cycle over the out-of-rotation devices, run every
    /// `probe_every` launches. A probe is a deterministic health check
    /// against the fault schedule at this launch: it passes iff the
    /// device is neither crashed (its flap window cleared) nor hanging.
    /// `Probation` rejoins after one pass, `Evicted` after the policy's
    /// consecutive-pass quota; both pass through `Reinstating`, where the
    /// device's residency is invalidated so no block that went stale
    /// during the outage can ever be served, and rejoin as `Healthy` on
    /// the next cycle.
    pub(crate) fn run_probe_cycle(&self, launch: u64, faults: &mut FaultStats) {
        if !self.heal.probing() || launch == 0 || !launch.is_multiple_of(self.heal.probe_every) {
            return;
        }
        let mut health = plock(&self.health);
        for (dev, slot) in health.iter_mut().enumerate() {
            let quota = match slot.state {
                DeviceHealth::Healthy => continue,
                DeviceHealth::Reinstating => {
                    *slot = HealthSlot::HEALTHY;
                    continue;
                }
                DeviceHealth::Probation => 1,
                DeviceHealth::Evicted => self.heal.reinstate_after.max(1),
            };
            faults.probes += 1;
            let passed = !self.faults.crash_due(dev, launch) && !self.faults.hang_due(dev, launch);
            slot.passes = if passed { slot.passes + 1 } else { 0 };
            if passed && slot.passes >= quota {
                *slot = HealthSlot::at(DeviceHealth::Reinstating);
                faults.reinstatements += 1;
                if let Some(mem) = &self.mem {
                    mem.invalidate_device(dev);
                }
            }
        }
    }

    /// Settle one shard's attempt on `dev`: count its faults, charge its
    /// transfers, hedge it when the watchdog fires, and push its
    /// report(s). Returns the shard's partial, or `None` when the device
    /// was lost and the shard must run again on a survivor.
    pub(crate) fn settle(
        &self,
        ledger: &mut Ledger,
        dev: usize,
        shard: &Shard,
        attempt: Attempt,
    ) -> Option<Vec<Buffer>> {
        let hedge_ms = self.heal.hedge_ms;
        let Attempt {
            retries,
            hung,
            backoff_ms,
            ..
        } = attempt;
        ledger.faults.retries += u64::from(retries);
        ledger.faults.injected_transients += u64::from(attempt.transients);
        if hung {
            ledger.faults.injected_hangs += 1;
        }
        let Some((outs, exec_ms)) = attempt.ran else {
            if !hung {
                ledger.faults.injected_crashes += 1;
            }
            self.lose(dev, &mut ledger.faults);
            return None;
        };
        // the device's charge: its run after the retries' backoff
        let charged_ms = exec_ms + backoff_ms;
        if hung {
            // the victim uploaded (or hit residency), then hung in the
            // kernel: charge it up to the watchdog deadline, then abandon
            // it to probation
            let victim = self.shard_report(ledger, dev, shard, charged_ms + hedge_ms, retries);
            let deadline_ms = victim.h2d_ms + charged_ms + hedge_ms;
            if self.demote(dev) {
                ledger.faults.probations += 1;
            }
            ledger.per_shard.push(victim);
            // a hung attempt never completes, so a hedge that ran has won
            let Some(hedge) = self.hedge(ledger, dev, shard, exec_ms, deadline_ms, f64::INFINITY)
            else {
                // no in-rotation spare to hedge on: the hang degenerates
                // to a crash so recovery (or the all-devices-failed
                // error) takes over
                self.lose(dev, &mut ledger.faults);
                return None;
            };
            ledger.per_shard.push(hedge);
            return Some(outs);
        }
        let mut report = self.shard_report(ledger, dev, shard, charged_ms, retries);
        let fair_h2d = report.h2d_ms;
        // slow-link injection on the modelled transfer: a stretch past
        // the timeout is charged at the timeout and the transfer retried
        // once at normal speed — unless the watchdog is armed, which
        // charges the full stretch and hedges past-deadline stragglers
        let slow = ledger.launch.and_then(|l| self.faults.slow_factor(dev, l));
        if let (true, Some(factor)) = (fair_h2d > 0.0, slow) {
            ledger.faults.slow_links += 1;
            let stretched = fair_h2d * f64::from(factor);
            if !self.heal.hedging() && stretched > self.retry.link_timeout_ms {
                ledger.faults.retries += 1;
                report.h2d_ms += self.retry.link_timeout_ms;
            } else {
                report.h2d_ms = stretched;
            }
        }
        // straggler watchdog: the shard's completion deadline is its
        // fault-free span plus the hedge slack; a transfer stretched past
        // it is hedged on a healthy spare and the first modelled
        // completion wins (both deliver the same bytes)
        if self.heal.hedging() && report.h2d_ms > fair_h2d + hedge_ms {
            let deadline_ms = fair_h2d + charged_ms + hedge_ms;
            let straggler_done = report.h2d_ms + charged_ms;
            // hedge wins: the straggler's abandoned transfer frees the
            // link, and the hedge's report replaces the straggler's
            if let Some(hedge) =
                self.hedge(ledger, dev, shard, exec_ms, deadline_ms, straggler_done)
            {
                report = hedge;
            }
        }
        ledger.per_shard.push(report);
        Some(outs)
    }

    /// Hedge `shard` on the first in-rotation device other than `victim`.
    /// The spare is the victim's model, so it delivers the victim's bytes
    /// after the same modelled `exec_ms` — without the victim's retry
    /// backoff — and is charged, not run. The hedge starts when the
    /// watchdog fires, so its completion is `deadline_ms` plus its own
    /// (possibly residency-shortened) upload and `exec_ms`, and its exec
    /// charge carries the watchdog wait. Returns the hedge's report if a
    /// spare exists and finishes before `victim_done_ms`; `None` if there
    /// is no spare or the victim wins.
    fn hedge(
        &self,
        ledger: &mut Ledger,
        victim: usize,
        shard: &Shard,
        exec_ms: f64,
        deadline_ms: f64,
        victim_done_ms: f64,
    ) -> Option<ShardReport> {
        let spare = plock(&self.health)
            .iter()
            .enumerate()
            .position(|(i, s)| i != victim && s.state.in_rotation())?;
        ledger.faults.hedges += 1;
        let mut report = self.shard_report(ledger, spare, shard, deadline_ms + exec_ms, 0);
        report.hedge = true;
        let hedge_done = deadline_ms + report.h2d_ms + exec_ms;
        (hedge_done < victim_done_ms).then_some(report)
    }
}

#[cfg(test)]
mod tests {
    use crate::device::{DeviceHealth, DevicePool};
    use crate::exec::DistExecutor;
    use crate::fault::{FaultPlan, FaultStats, HealPolicy, RetryPolicy};
    use crate::testutil::{matvec, matvec_inputs, single_device};
    use mdh_mem::MemPool;
    use std::sync::Arc;

    #[test]
    fn device_crash_evicts_repartitions_and_stays_bit_identical() {
        let prog = matvec(13, 37);
        let inputs = matvec_inputs(13, 37);
        let reference = single_device(&prog, &inputs);
        let faults = FaultPlan::none().crash(2, 0);
        let dist = DistExecutor::with_faults(DevicePool::gpus(4), faults).unwrap();
        let (outs, report) = dist.run(&prog, &inputs).unwrap();
        assert_eq!(outs, reference, "recovered launch must be bit-identical");
        assert_eq!(report.faults.evictions, 1);
        assert_eq!(report.faults.repartitions, 1);
        assert!(report.degraded);
        assert_eq!(report.devices_alive, 3);
        assert_eq!(dist.alive_devices(), vec![0, 1, 3]);
        // the crashed shard ran whole on a survivor: one report for
        // shard 2, on device 3 (index 2 of the rotation [0, 1, 3])
        let recovered: Vec<_> = report
            .per_shard
            .iter()
            .filter(|s| s.shard == 2)
            .map(|s| s.device_index)
            .collect();
        assert_eq!(recovered, vec![3], "shard 2 re-homed whole");

        // the *next* launch keeps the 4-device level, on 3 survivors
        let (outs2, report2) = dist.run(&prog, &inputs).unwrap();
        assert_eq!(outs2, reference);
        assert_eq!(report2.shards, 4);
        assert!(
            report2.per_shard.iter().all(|s| s.device_index != 2),
            "no shard placed on the evicted device"
        );
        assert!(report2.faults.is_zero(), "no new faults on launch 1");
        assert!(report2.degraded, "still on a shrunken pool");
        // cumulative stats carry the launch-0 recovery
        let cum = dist.fault_stats();
        assert_eq!(cum.evictions, 1);
        assert_eq!(cum.repartitions, 1);
    }

    #[test]
    fn losing_every_device_is_an_error_with_replay_plan() {
        let prog = matvec(8, 8);
        let inputs = matvec_inputs(8, 8);
        let faults = FaultPlan::none().crash(0, 0).crash(1, 0);
        let dist = DistExecutor::with_faults(DevicePool::gpus(2), faults).unwrap();
        let err = dist.run(&prog, &inputs).unwrap_err().to_string();
        assert!(err.contains("all pool devices failed"), "{err}");
        assert!(err.contains("crash=0@0"), "replay plan printed: {err}");
    }

    #[test]
    fn double_crash_cascades_through_recovery() {
        let prog = matvec(16, 24);
        let inputs = matvec_inputs(16, 24);
        let reference = single_device(&prog, &inputs);
        // devices 1 and 3 both die at launch 0: shards 1 and 3 are lost
        // and both run whole on the remaining healthy devices
        let faults = FaultPlan::none().crash(1, 0).crash(3, 0);
        let dist = DistExecutor::with_faults(DevicePool::gpus(4), faults).unwrap();
        let (outs, report) = dist.run(&prog, &inputs).unwrap();
        assert_eq!(outs, reference);
        assert_eq!(report.faults.evictions, 2);
        assert_eq!(report.faults.repartitions, 2);
        assert_eq!(dist.alive_devices(), vec![0, 2]);
        assert_eq!(report.devices_alive, 2);
    }

    #[test]
    fn slow_link_stretches_or_times_out_the_transfer() {
        let prog = matvec(16, 2048);
        let inputs = matvec_inputs(16, 2048);
        // mild stretch: ×2 stays under the timeout
        let dist = DistExecutor::with_faults(DevicePool::gpus(2), FaultPlan::none().slow(1, 0, 2))
            .unwrap();
        let baseline = DistExecutor::new(DevicePool::gpus(2)).unwrap();
        let (_, slow) = dist.run(&prog, &inputs).unwrap();
        let (_, base) = baseline.run(&prog, &inputs).unwrap();
        assert_eq!(slow.faults.slow_links, 1);
        let b1 = base.per_shard.iter().find(|s| s.device_index == 1).unwrap();
        let s1 = slow.per_shard.iter().find(|s| s.device_index == 1).unwrap();
        assert!(s1.h2d_ms > b1.h2d_ms, "stretched transfer is slower");

        // brutal stretch: past the 50 ms timeout → charged at timeout
        // and retried once
        let policy = RetryPolicy {
            link_timeout_ms: 1e-6,
            ..RetryPolicy::default()
        };
        let host = rayon::ThreadPoolBuilder::new().build().unwrap();
        let dist = DistExecutor::with_faults_policy_and_pool(
            DevicePool::gpus(2),
            FaultPlan::none().slow(1, 0, 1000),
            policy,
            &host,
        )
        .unwrap();
        let (outs, timed_out) = dist.run(&prog, &inputs).unwrap();
        assert_eq!(timed_out.faults.retries, 1, "timed-out transfer retried");
        assert_eq!(outs.len(), 1);
    }

    #[test]
    fn crash_invalidates_residency_and_stays_bit_identical() {
        let prog = matvec(13, 37);
        let inputs = matvec_inputs(13, 37);
        let reference = single_device(&prog, &inputs);
        // warm everything on launch 0, crash device 2 on launch 1
        let faults = FaultPlan::none().crash(2, 1);
        let mem = Arc::new(MemPool::new(4, 1 << 30));
        let dist = DistExecutor::with_faults(DevicePool::gpus(4), faults)
            .unwrap()
            .with_mem(Arc::clone(&mem));
        let (out0, _) = dist.run(&prog, &inputs).unwrap();
        assert_eq!(out0, reference);
        assert!(mem.device_stats(2).bytes_resident > 0, "warmed up");
        let (out1, report) = dist.run(&prog, &inputs).unwrap();
        assert_eq!(out1, reference, "recovered launch bit-identical");
        assert_eq!(report.faults.evictions, 1);
        assert_eq!(
            mem.device_stats(2).bytes_resident,
            0,
            "crashed device must never serve a stale resident buffer"
        );
        assert!(mem.device_stats(2).invalidations > 0);
        // launch 2 places shard 2 on device 3, and device 2 holds nothing
        let (out2, _) = dist.run(&prog, &inputs).unwrap();
        assert_eq!(out2, reference);
        assert_eq!(mem.device_stats(2).bytes_resident, 0, "stays cold");
    }

    fn healing(hedge_ms: f64, probe_every: u64, reinstate_after: u32) -> HealPolicy {
        HealPolicy {
            hedge_ms,
            probe_every,
            reinstate_after,
        }
    }

    #[test]
    fn hang_escalates_to_crash_without_healing() {
        let prog = matvec(13, 37);
        let inputs = matvec_inputs(13, 37);
        let reference = single_device(&prog, &inputs);
        let faults = FaultPlan::none().hang(1, 0);
        let dist = DistExecutor::with_faults(DevicePool::gpus(4), faults).unwrap();
        let (outs, report) = dist.run(&prog, &inputs).unwrap();
        assert_eq!(outs, reference, "escalated hang recovers bit-identically");
        assert_eq!(report.faults.injected_hangs, 1);
        assert_eq!(report.faults.injected_crashes, 0, "a hang is not a crash");
        assert_eq!(report.faults.evictions, 1, "no watchdog ⇒ permanent loss");
        assert_eq!(report.faults.repartitions, 1);
        assert_eq!(report.faults.hedges, 0);
        assert_eq!(dist.healthy_count(), 3);
        assert_eq!(dist.device_health()[1], DeviceHealth::Evicted);
    }

    #[test]
    fn hang_is_hedged_and_victim_goes_to_probation() {
        let prog = matvec(13, 37);
        let inputs = matvec_inputs(13, 37);
        let reference = single_device(&prog, &inputs);
        let faults = FaultPlan::none().hang(1, 0);
        let dist = DistExecutor::with_faults(DevicePool::gpus(4), faults)
            .unwrap()
            .with_healing(healing(5.0, 0, 3));
        let (outs, report) = dist.run(&prog, &inputs).unwrap();
        assert_eq!(outs, reference, "hedged result is bit-identical");
        assert_eq!(report.faults.injected_hangs, 1);
        assert_eq!(report.faults.hedges, 1);
        assert_eq!(report.faults.probations, 1);
        assert_eq!(report.faults.evictions, 0, "the watchdog saved the device");
        assert_eq!(report.faults.repartitions, 0, "no shard re-homed");
        assert_eq!(dist.device_health()[1], DeviceHealth::Probation);
        assert_eq!(dist.healthy_count(), 3);
        // the hung shard has two reports: the abandoned victim attempt
        // (charged up to the watchdog deadline) and the winning hedge
        let shard1: Vec<_> = report.per_shard.iter().filter(|s| s.shard == 1).collect();
        assert_eq!(shard1.len(), 2, "victim + hedge");
        assert!(shard1.iter().any(|s| s.device_index == 1));
        assert!(shard1.iter().any(|s| s.device_index != 1));
        let line = report.to_string();
        assert!(line.contains("dev1=probation"), "{line}");
        assert!(line.contains("hangs=1 hedges=1"), "{line}");
    }

    /// A hedge is charged the watchdog deadline plus one fault-free run
    /// of the shard: the victim's retry backoff sits inside the deadline
    /// once and is not charged again on the spare.
    #[test]
    fn hedge_charges_the_deadline_plus_one_fault_free_run() {
        let prog = matvec(13, 37);
        let inputs = matvec_inputs(13, 37);
        // device 1 retries twice (0.5 + 1.0 ms of backoff), then hangs
        let faults = FaultPlan::none().transient(1, 0, 2).hang(1, 0);
        let dist = DistExecutor::with_faults(DevicePool::gpus(4), faults)
            .unwrap()
            .with_healing(healing(5.0, 0, 3));
        let (outs, report) = dist.run(&prog, &inputs).unwrap();
        assert_eq!(outs, single_device(&prog, &inputs));
        assert_eq!(report.faults.hedges, 1);
        let clean = DistExecutor::new(DevicePool::gpus(4)).unwrap();
        let (_, clean) = clean.run(&prog, &inputs).unwrap();
        let base = clean.per_shard.iter().find(|s| s.shard == 1).unwrap();
        let shard1 = |on_victim: bool| {
            let mut reports = report.per_shard.iter().filter(|s| s.shard == 1);
            reports
                .find(|s| (s.device_index == 1) == on_victim)
                .unwrap()
        };
        let (victim, hedge) = (shard1(true), shard1(false));
        assert_eq!(victim.retries, 2);
        let want = victim.h2d_ms + victim.exec_ms + base.exec_ms;
        assert!(
            (hedge.exec_ms - want).abs() < 1e-9,
            "hedge charged {} ms, want {want} ms",
            hedge.exec_ms
        );
    }

    #[test]
    fn hang_with_no_spare_degenerates_to_crash() {
        let prog = matvec(8, 8);
        let inputs = matvec_inputs(8, 8);
        let faults = FaultPlan::none().hang(0, 0);
        let dist = DistExecutor::with_faults(DevicePool::gpus(1), faults)
            .unwrap()
            .with_healing(healing(5.0, 0, 3));
        let err = dist.run(&prog, &inputs).unwrap_err().to_string();
        assert!(err.contains("all pool devices failed"), "{err}");
        assert_eq!(dist.device_health()[0], DeviceHealth::Evicted);
    }

    #[test]
    fn probation_rejoins_after_one_passing_probe() {
        let prog = matvec(13, 37);
        let inputs = matvec_inputs(13, 37);
        let reference = single_device(&prog, &inputs);
        let faults = FaultPlan::none().hang(1, 0);
        let dist = DistExecutor::with_faults(DevicePool::gpus(4), faults)
            .unwrap()
            .with_healing(healing(5.0, 2, 3));
        // launch 0: hang → probation. launch 2's probe passes (no fault
        // due) → Reinstating. launch 4's cycle completes the rejoin.
        for launch in 0..5u64 {
            let (outs, report) = dist.run(&prog, &inputs).unwrap();
            assert_eq!(outs, reference, "launch {launch}");
            assert_eq!(report.shards, 4, "the level never follows the rotation");
            let on_1 = report.per_shard.iter().any(|s| s.device_index == 1);
            // launch 0 holds the hung victim's report; launch 4 the
            // reinstated device's own shard
            assert_eq!(on_1, launch == 0 || launch == 4, "launch {launch}");
            if launch == 4 {
                assert!(!report.degraded);
            }
        }
        assert_eq!(dist.healthy_count(), 4);
        assert_eq!(dist.device_health()[1], DeviceHealth::Healthy);
        let cum = dist.fault_stats();
        assert_eq!(cum.probations, 1);
        assert_eq!(cum.probes, 1, "one probe sufficed for probation");
        assert_eq!(cum.reinstatements, 1);
        assert_eq!(cum.evictions, 0);
    }

    #[test]
    fn flapping_device_is_evicted_probed_and_reinstated() {
        let prog = matvec(13, 37);
        let inputs = matvec_inputs(13, 37);
        let reference = single_device(&prog, &inputs);
        // device 1 is down for launches 1–2, then recovers
        let faults = FaultPlan::none().flap(1, 1, 2);
        let dist = DistExecutor::with_faults(DevicePool::gpus(4), faults)
            .unwrap()
            .with_healing(healing(5.0, 2, 2));
        // launch 1: crash → Evicted. probe@2 fails (still down), probe@4
        // passes (1/2), probe@6 passes (2/2) → Reinstating, cycle@8 →
        // Healthy. Health counters grow monotonically throughout.
        let mut last = FaultStats::default();
        for launch in 0..9u64 {
            let (outs, _) = dist.run(&prog, &inputs).unwrap();
            assert_eq!(outs, reference, "launch {launch}");
            let cum = dist.fault_stats();
            assert!(cum.probes >= last.probes, "monotone probe counter");
            assert!(cum.reinstatements >= last.reinstatements);
            last = cum;
        }
        assert_eq!(dist.healthy_count(), 4, "flapping device rejoined");
        assert_eq!(dist.device_health()[1], DeviceHealth::Healthy);
        let cum = dist.fault_stats();
        assert_eq!(cum.evictions, 1);
        assert_eq!(cum.probes, 3, "one failing + two passing probes");
        assert_eq!(cum.reinstatements, 1);
        assert_eq!(cum.injected_crashes, 1);
    }

    #[test]
    fn corruption_is_detected_reuploaded_and_bit_identical() {
        let prog = matvec(16, 512);
        let inputs = matvec_inputs(16, 512);
        let reference = single_device(&prog, &inputs);
        // warm on launch 0; every resident block on device 2 fails its
        // fingerprint revalidation at launch 1
        let faults = FaultPlan::none().corrupt(2, 1);
        let mem = Arc::new(MemPool::new(4, 1 << 30));
        let dist = DistExecutor::with_faults(DevicePool::gpus(4), faults)
            .unwrap()
            .with_mem(Arc::clone(&mem));
        let (out0, warm) = dist.run(&prog, &inputs).unwrap();
        assert_eq!(out0, reference);
        assert_eq!(warm.mem.unwrap().misses, 8);
        let (out1, report) = dist.run(&prog, &inputs).unwrap();
        assert_eq!(out1, reference, "corruption never reaches the values");
        let m = report.mem.unwrap();
        // device 2's two blocks (M slice + v) re-upload; the rest hit
        assert_eq!(m.corruptions, 2, "{m}");
        assert_eq!((m.hits, m.misses), (6, 2), "{m}");
        assert_eq!(report.faults.injected_corruptions, 2);
        assert_eq!(mem.stats().corruptions_detected, 2);
        assert!(mem.device_stats(2).invalidations >= 2);
        // the fresh copies are resident again: launch 2 is all hits
        let (out2, report2) = dist.run(&prog, &inputs).unwrap();
        assert_eq!(out2, reference);
        assert_eq!(report2.mem.unwrap().hits, 8);
        assert_eq!(report2.faults.injected_corruptions, 0);
    }

    #[test]
    fn straggler_hedge_beats_the_stretched_transfer() {
        let prog = matvec(16, 2048);
        let inputs = matvec_inputs(16, 2048);
        let reference = single_device(&prog, &inputs);
        let faults = FaultPlan::none().slow(1, 0, 1000);
        let hedged = DistExecutor::with_faults(DevicePool::gpus(2), faults.clone())
            .unwrap()
            .with_healing(healing(0.1, 0, 3));
        let unhedged = DistExecutor::with_faults(DevicePool::gpus(2), faults).unwrap();
        let (outs, h) = hedged.run(&prog, &inputs).unwrap();
        let (outs_u, u) = unhedged.run(&prog, &inputs).unwrap();
        assert_eq!(outs, reference);
        assert_eq!(outs_u, reference);
        assert_eq!(h.faults.slow_links, 1);
        assert_eq!(h.faults.hedges, 1, "watchdog fired on the straggler");
        assert_eq!(h.faults.retries, 0, "hedging supersedes the timeout retry");
        // the winning hedge ran shard 1 on device 0
        let s1 = h.per_shard.iter().find(|s| s.shard == 1).unwrap();
        assert_eq!(s1.device_index, 0, "hedge result replaced the straggler");
        assert!(
            h.total_ms < u.total_ms,
            "hedged launch must beat the straggler: {} vs {}",
            h.total_ms,
            u.total_ms
        );
        // a straggler hedge is not a health event: the link was slow,
        // not the device sick
        assert_eq!(hedged.healthy_count(), 2);
    }

    #[test]
    fn eviction_is_a_single_transition_under_racing_launches() {
        // concurrent launches that both dispatched to the same dying
        // device race to evict it; only the winner counts the eviction,
        // so pool-level eviction totals equal devices actually lost
        let dist = DistExecutor::new(DevicePool::gpus(3)).unwrap();
        assert!(dist.evict(1), "first eviction performs the transition");
        assert!(!dist.evict(1), "racing second eviction must not re-count");
        assert_eq!(dist.healthy_count(), 2);
        assert_eq!(dist.alive_devices(), vec![0, 2]);
    }
}
