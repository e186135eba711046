//! Stage 1 — **dispatch**: run every shard of a level on its device.
//!
//! Every device of the pool is the same simulated A100, so one simulator
//! runs every shard: its bytes are computed on the host and its time is
//! the analytic GPU model, whichever device the shard landed on. The
//! shards of one partitioning level are one parallel region on the
//! executor's single thread pool; each shard's own execution is a nested
//! region on a width-scoped handle of the *same* pool. No thread is
//! spawned per launch. Nesting cannot deadlock: the thread that opens a
//! region always claims chunks of it itself and only ever waits for
//! helpers that are already inside it, so a region completes even when no
//! pool worker is free to help.
//!
//! A [`FaultPlan`](crate::fault::FaultPlan) threads a deterministic
//! injector through every attempt. Transient shard failures are retried
//! on the same device with the capped exponential backoff of
//! [`RetryPolicy`](crate::fault::RetryPolicy); crashes, exhausted retries
//! and hangs are reported as the [`Attempt`] the settle stage
//! ([`crate::heal`]) acts on. All of it is modelled time, never slept:
//! faults are pure functions of `(plan, device, launch)`, so chaos runs
//! replay bit-for-bit.

use crate::exec::DistExecutor;
use mdh_core::buffer::Buffer;
use mdh_core::dsl::DslProgram;
use mdh_core::error::Result;
use mdh_lowering::asm::DeviceKind;
use mdh_lowering::heuristics::mdh_default_schedule;
use mdh_lowering::partition::Shard;
use mdh_lowering::schedule::Schedule;
use rayon::prelude::*;

/// One shard attempt's outcome after the retry loop.
pub(crate) struct Attempt {
    /// Transient retries the shard needed on its device.
    pub retries: u32,
    /// Transient failures injected (one more than `retries` when they
    /// exhausted the budget).
    pub transients: u32,
    /// A hang fault was due. With a result (hedging enabled) the attempt
    /// would never complete on its device, so the watchdog fires at the
    /// modelled deadline; without one the hang escalated to a crash
    /// (counted in `injected_hangs`, not `injected_crashes`).
    pub hung: bool,
    /// Modelled backoff of the transient retries before the attempt ran.
    pub backoff_ms: f64,
    /// Outputs and modelled execution time; `None` when the device died —
    /// injected crash, retries exhausted, or a hang with no watchdog
    /// armed. A hung attempt keeps the outputs it *would* have produced:
    /// its hedge delivers them.
    pub ran: Option<(Vec<Buffer>, f64)>,
}

impl DistExecutor {
    /// Attempt every placed `(device, shard)` as one parallel region
    /// (transient retries stay on-device).
    pub(crate) fn attempt_all(
        &self,
        placement: &[(usize, &Shard)],
        launch: u64,
        inputs: &[Buffer],
    ) -> Vec<Result<Attempt>> {
        let mut attempts = Vec::new();
        self.exec_pool.install(|| {
            placement
                .par_iter()
                .map(|&(dev, shard)| self.attempt_shard(dev, launch, &shard.prog, inputs))
                .collect_into_vec(&mut attempts)
        });
        attempts
    }

    /// Run one shard on its device under the transient-fault retry loop.
    fn attempt_shard(
        &self,
        device: usize,
        launch: u64,
        prog: &DslProgram,
        inputs: &[Buffer],
    ) -> Result<Attempt> {
        let crashed = self.faults.crash_due(device, launch);
        let hung = self.faults.hang_due(device, launch);
        let (mut retries, mut backoff_ms) = (0u32, 0.0);
        let died = |retries, transients, hung| Attempt {
            retries,
            transients,
            hung,
            backoff_ms: 0.0,
            ran: None,
        };
        if crashed || (hung && !self.heal.hedging()) {
            // no watchdog armed: a hang is indistinguishable from a dead
            // device, so it escalates to a crash and the work moves on
            return Ok(died(0, 0, !crashed));
        }
        while self.faults.transient_fails(device, launch, retries) {
            if retries >= self.retry.max_retries {
                // retries exhausted: escalate to a device crash so the
                // work moves to a healthy device
                return Ok(died(retries, retries + 1, false));
            }
            backoff_ms += self.retry.backoff_ms(retries);
            retries += 1;
        }
        let (outs, report) = self.sim.run(prog, &self.shard_schedule(prog), inputs)?;
        Ok(Attempt {
            retries,
            transients: retries,
            hung,
            backoff_ms,
            ran: Some((outs, report.time_ms)),
        })
    }

    /// Default schedule for a shard program on the pool's GPU model.
    /// General (non-affine) input accesses have no computable footprint,
    /// so staging — which must validate the staged block footprint
    /// against shared memory — is disabled for them.
    pub(crate) fn shard_schedule(&self, prog: &DslProgram) -> Schedule {
        let units = self.sim.params.num_sms * 32;
        let mut s = mdh_default_schedule(prog, DeviceKind::Gpu, units);
        if prog
            .inp_view
            .accesses
            .iter()
            .any(|a| a.index_fn.as_affine().is_none())
        {
            s.stage_inputs = false;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use crate::device::DevicePool;
    use crate::exec::DistExecutor;
    use crate::fault::{FaultPlan, RetryPolicy};
    use crate::testutil::{matvec, matvec_inputs, single_device};

    /// No thread per launch: the shards of a level are one region on the
    /// pool the executor was handed.
    #[test]
    fn launches_are_regions_on_the_supplied_pool_and_spawn_nothing() {
        let host = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let dist = DistExecutor::with_faults_policy_and_pool(
            DevicePool::gpus(4),
            FaultPlan::none(),
            RetryPolicy::default(),
            &host,
        )
        .unwrap();
        let (prog, inputs) = (matvec(64, 32), matvec_inputs(64, 32));
        let reference = single_device(&prog, &inputs);
        assert_eq!(dist.run(&prog, &inputs).unwrap().0, reference, "warm-up");
        let (regions, spawned) = (host.regions_executed(), host.spawned_threads());
        for _ in 0..200 {
            assert_eq!(dist.run(&prog, &inputs).unwrap().0, reference);
        }
        assert!(host.regions_executed() >= regions + 200);
        assert_eq!(host.spawned_threads(), spawned);
    }

    #[test]
    fn transient_faults_retry_on_device_and_stay_bit_identical() {
        let prog = matvec(13, 37);
        let inputs = matvec_inputs(13, 37);
        let reference = single_device(&prog, &inputs);
        // device 1 fails its first two attempts of launch 0
        let faults = FaultPlan::none().transient(1, 0, 2);
        let dist = DistExecutor::with_faults(DevicePool::gpus(4), faults).unwrap();
        let (outs, report) = dist.run(&prog, &inputs).unwrap();
        assert_eq!(outs, reference);
        assert_eq!(report.faults.retries, 2);
        assert_eq!(report.faults.injected_transients, 2);
        assert_eq!(report.faults.evictions, 0, "transients never evict");
        assert!(!report.degraded);
        let s1 = report
            .per_shard
            .iter()
            .find(|s| s.device_index == 1)
            .unwrap();
        assert_eq!(s1.retries, 2);
        // modelled backoff (0.5 + 1.0 ms) is charged to the shard: the
        // GPU exec model is analytic, so the same shard in a fault-free
        // run is exactly 1.5 ms faster
        let base = DistExecutor::new(DevicePool::gpus(4)).unwrap();
        let (_, base_report) = base.run(&prog, &inputs).unwrap();
        let b1 = base_report
            .per_shard
            .iter()
            .find(|s| s.device_index == 1)
            .unwrap();
        assert!((s1.exec_ms - (b1.exec_ms + 1.5)).abs() < 1e-9);
        assert_eq!(dist.healthy_count(), 4);
    }

    #[test]
    fn exhausted_retries_escalate_to_eviction() {
        let prog = matvec(13, 37);
        let inputs = matvec_inputs(13, 37);
        let reference = single_device(&prog, &inputs);
        // 10 failing attempts > max_retries 3 → escalation
        let faults = FaultPlan::none().transient(1, 0, 10);
        let dist = DistExecutor::with_faults(DevicePool::gpus(4), faults).unwrap();
        let (outs, report) = dist.run(&prog, &inputs).unwrap();
        assert_eq!(outs, reference);
        assert_eq!(report.faults.evictions, 1);
        assert_eq!(report.faults.repartitions, 1);
        assert_eq!(report.faults.retries, 3, "policy cap");
        assert_eq!(dist.healthy_count(), 3);
    }

    #[test]
    fn seeded_chaos_is_replayable() {
        let prog = matvec(12, 20);
        let inputs = matvec_inputs(12, 20);
        let reference = single_device(&prog, &inputs);
        let run_with_seed = |seed: u64| {
            let dist = DistExecutor::with_faults(DevicePool::gpus(3), FaultPlan::seeded(seed, 400))
                .unwrap();
            let mut counters = Vec::new();
            for _ in 0..8 {
                let (outs, report) = dist.run(&prog, &inputs).unwrap();
                assert_eq!(outs, reference, "seed={seed}");
                counters.push(report.faults);
            }
            counters
        };
        let a = run_with_seed(7);
        let b = run_with_seed(7);
        assert_eq!(a, b, "same seed must replay the exact same fault history");
        assert!(
            a.iter().any(|f| f.retries > 0),
            "40% chaos must actually fire over 8 launches × 3 devices"
        );
    }
}
