//! The distributed executor: one launch in four stages.
//!
//! [`DistExecutor::run`] cuts a program's device level once, for the
//! configured pool size (`mdh_lowering::partition::PartitionPlan`), places
//! shard `i` on the `i % alive`-th device of the rotation, and then
//!
//! 1. **dispatches** every shard to its device as one parallel region on
//!    the executor's thread pool ([`crate::dispatch`]),
//! 2. **settles** each attempt — fault counters, transfer charges, the
//!    watchdog's hedge, eviction ([`crate::heal`]) — and re-homes every
//!    lost shard, whole, onto the rotation left after the evictions,
//! 3. **recombines** the partials in the level's group order through the
//!    split dimension's combine operator ([`crate::recombine`]), and
//! 4. **accounts** for the launch with the analytic pool timing model
//!    ([`crate::account`]).
//!
//! Values and time are separate: the outputs come from really running
//! every shard program, and a launch's bits are those of the fault-free
//! launch on the configured pool whatever faults fired; the reported
//! times are modelled.

use crate::account::{output_bytes, Ledger};
pub use crate::account::{DistReport, MemLaunchStats, ShardReport};
use crate::device::{DeviceHealth, DevicePool};
use crate::fault::{FaultPlan, FaultStats, HealPolicy, RetryPolicy};
use crate::heal::HealthSlot;
use crate::recombine::recombine;
use mdh_backend::gpu::GpuSim;
use mdh_core::buffer::Buffer;
use mdh_core::dsl::DslProgram;
use mdh_core::error::{MdhError, Result};
use mdh_lowering::partition::{PartitionPlan, Shard};
use mdh_mem::MemPool;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Poison-tolerant lock: the executor's shared state (health view,
/// cumulative fault counters) is valid after each completed mutation, so
/// a panicking launch thread must not brick every later launch.
pub(crate) fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Executes programs across a [`DevicePool`], injecting the faults of an
/// optional [`FaultPlan`] and surviving them.
pub struct DistExecutor {
    pub(crate) pool: DevicePool,
    /// The one thread pool shards execute on.
    pub(crate) exec_pool: rayon::ThreadPool,
    /// The one A100 simulator every device of the pool shares; its host
    /// half is a width-1 handle of `exec_pool`.
    pub(crate) sim: GpuSim,
    pub(crate) faults: FaultPlan,
    pub(crate) retry: RetryPolicy,
    /// Self-healing knobs. The default policy disables hedging and
    /// probing, making evictions permanent and hangs escalate to crashes.
    pub(crate) heal: HealPolicy,
    /// Device-resident buffer pool. `None` (the default): every launch
    /// re-ships every input.
    pub(crate) mem: Option<Arc<MemPool>>,
    /// Per-device health state machine (see [`DeviceHealth`]). Without a
    /// probing [`HealPolicy`], devices only ever move Healthy→Evicted
    /// and stay there for the executor's lifetime.
    pub(crate) health: Mutex<Vec<HealthSlot>>,
    /// Monotone launch counter driving the deterministic fault schedule.
    launches: AtomicU64,
    /// Cumulative fault/recovery counters across all launches.
    cumulative: Mutex<FaultStats>,
}

impl DistExecutor {
    pub fn new(pool: DevicePool) -> Result<DistExecutor> {
        DistExecutor::with_faults(pool, FaultPlan::none())
    }

    /// An executor whose launches are subjected to `faults` under the
    /// default [`RetryPolicy`], on a thread pool of its own.
    pub fn with_faults(pool: DevicePool, faults: FaultPlan) -> Result<DistExecutor> {
        DistExecutor::build(pool, faults, RetryPolicy::default(), None)
    }

    /// Like [`DistExecutor::with_faults`] under an explicit
    /// [`RetryPolicy`], with every shard running on `exec_pool`'s OS
    /// threads — the process-shareable-pool mode the runtime uses to
    /// avoid oversubscription.
    pub fn with_faults_policy_and_pool(
        pool: DevicePool,
        faults: FaultPlan,
        retry: RetryPolicy,
        exec_pool: &rayon::ThreadPool,
    ) -> Result<DistExecutor> {
        DistExecutor::build(pool, faults, retry, Some(exec_pool))
    }

    fn build(
        pool: DevicePool,
        faults: FaultPlan,
        retry: RetryPolicy,
        exec_pool: Option<&rayon::ThreadPool>,
    ) -> Result<DistExecutor> {
        // without a caller's pool, build one once with one participant
        // per simulated device, so every device of a level can compute
        // at once
        let exec_pool = match exec_pool {
            Some(p) => p.clone(),
            None => rayon::ThreadPoolBuilder::new()
                .num_threads(pool.len())
                .build()
                .map_err(|e| MdhError::Validation(format!("thread pool: {e}")))?,
        };
        let sim = GpuSim::a100_with_pool(&exec_pool, 1);
        let health = Mutex::new(vec![HealthSlot::HEALTHY; pool.len()]);
        Ok(DistExecutor {
            pool,
            exec_pool,
            sim,
            faults,
            retry,
            heal: HealPolicy::default(),
            mem: None,
            health,
            launches: AtomicU64::new(0),
            cumulative: Mutex::new(FaultStats::default()),
        })
    }

    /// Enable the self-healing layer: hedged re-execution of hung or
    /// straggling shards (`hedge_ms` slack over the modelled completion
    /// deadline) and probation/reinstatement probing of out-of-rotation
    /// devices every `probe_every` launches.
    pub fn with_healing(mut self, heal: HealPolicy) -> DistExecutor {
        self.heal = heal;
        self
    }

    /// Attach a device-resident buffer pool: shard inputs whose
    /// content/version/region key is already resident skip H2D entirely,
    /// and misses are double-buffered so the upload overlaps compute.
    /// Values are unaffected — shards always compute from the host
    /// operands — so results stay bit-identical with or without a pool.
    pub fn with_mem(mut self, mem: Arc<MemPool>) -> DistExecutor {
        self.mem = Some(mem);
        self
    }

    pub fn pool(&self) -> &DevicePool {
        &self.pool
    }

    /// Cumulative fault/recovery counters across all launches so far.
    pub fn fault_stats(&self) -> FaultStats {
        *plock(&self.cumulative)
    }

    /// Pool indices of the devices in the shard rotation.
    pub fn alive_devices(&self) -> Vec<usize> {
        plock(&self.health)
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.state.in_rotation().then_some(i))
            .collect()
    }

    pub fn healthy_count(&self) -> usize {
        self.alive_devices().len()
    }

    /// Health state of every pool device, indexed by pool position.
    pub fn device_health(&self) -> Vec<DeviceHealth> {
        plock(&self.health).iter().map(|s| s.state).collect()
    }

    /// Partition `prog` across the configured pool, execute with fault
    /// injection and recovery, recombine, and model the launch time.
    /// Shard `i` runs on the `i % alive`-th healthy device.
    pub fn run(&self, prog: &DslProgram, inputs: &[Buffer]) -> Result<(Vec<Buffer>, DistReport)> {
        self.run_with_deadline(prog, inputs, None)
    }

    /// [`DistExecutor::run`] with a serve-by deadline: the launch is
    /// refused up front if the deadline already passed, and recovery
    /// gives up (instead of re-homing crashed shards onto the survivors)
    /// once it expires mid-launch — an expired caller has no use for the
    /// recovered partial, so the recompute work is saved. Shards already
    /// executing are not aborted.
    pub fn run_with_deadline(
        &self,
        prog: &DslProgram,
        inputs: &[Buffer],
        deadline: Option<Instant>,
    ) -> Result<(Vec<Buffer>, DistReport)> {
        let launch = self.launches.fetch_add(1, Ordering::SeqCst);
        let mut ledger = Ledger::new(inputs, Some(launch));
        // heal before placing: a device reinstated by this cycle joins
        // this launch's rotation
        self.run_probe_cycle(launch, &mut ledger.faults);
        let (plan, outputs) = self.run_level(prog, launch, deadline, &mut ledger)?;
        plock(&self.cumulative).absorb(&ledger.faults);
        let report = self.assemble_report(&plan, ledger, output_bytes(&outputs));
        Ok((outputs, report))
    }

    /// Model a launch without executing it: the same partition plan,
    /// placement and timing pipeline as [`DistExecutor::run`], with
    /// per-shard execution taken from the analytic GPU cost model instead
    /// of a real run. No values are produced, so arbitrarily large problem
    /// sizes cost nothing to sweep; faults are not injected (the model is
    /// the fault-free launch on the current rotation).
    pub fn estimate(&self, prog: &DslProgram, inputs: &[Buffer]) -> Result<DistReport> {
        let alive = self.rotation()?;
        let plan = PartitionPlan::build(prog, self.pool.len())?;
        // the estimate models the fault-free launch, so injected faults
        // are never charged — the ledger's stats stay zero. With a pool
        // attached, estimates charge residency like real launches: a
        // second estimate of the same workload models the warm relaunch
        // (the regime serving cares about)
        let mut ledger = Ledger::new(inputs, None);
        for shard in &plan.shards {
            let schedule = self.shard_schedule(&shard.prog);
            let exec_ms = self.sim.estimate(&shard.prog, &schedule)?.time_ms;
            let report = self.shard_report(&mut ledger, placed(&alive, shard), shard, exec_ms, 0);
            ledger.per_shard.push(report);
        }
        let out_bytes = output_bytes(&mdh_core::eval::alloc_outputs(prog)?);
        Ok(self.assemble_report(&plan, ledger, out_bytes))
    }

    /// The devices in the rotation, or the replayable error when none is
    /// left. The report carries every device's health, so a skipped
    /// device is explained (probation vs evicted), not silently absent.
    fn rotation(&self) -> Result<Vec<usize>> {
        let alive = self.alive_devices();
        if alive.is_empty() {
            return Err(MdhError::Eval(format!(
                "all pool devices failed; replay with fault plan '{}'",
                self.faults
            )));
        }
        Ok(alive)
    }

    /// Execute the device level, cut for the configured pool: dispatch and
    /// settle every shard on the rotation, re-dispatching the lost ones
    /// whole onto the rotation left after the evictions until none is
    /// lost, and recombine. A partial never depends on where it ran.
    fn run_level(
        &self,
        prog: &DslProgram,
        launch: u64,
        deadline: Option<Instant>,
        ledger: &mut Ledger,
    ) -> Result<(PartitionPlan, Vec<Buffer>)> {
        let expired = |what: &str| match deadline {
            Some(d) if Instant::now() >= d => Err(MdhError::DeadlineExceeded(what.into())),
            _ => Ok(()),
        };
        expired("deadline expired before pool dispatch; launch not started")?;
        let plan = PartitionPlan::build(prog, self.pool.len())?;
        let mut partials: Vec<Option<Vec<Buffer>>> = plan.shards.iter().map(|_| None).collect();
        let mut pending: Vec<&Shard> = plan.shards.iter().collect();
        while !pending.is_empty() {
            let alive = self.rotation()?;
            let placement: Vec<_> = pending.iter().map(|s| (placed(&alive, s), *s)).collect();
            let attempts = self.attempt_all(&placement, launch, ledger.inputs);
            pending.clear();
            for ((dev, shard), attempt) in placement.into_iter().zip(attempts) {
                match self.settle(ledger, dev, shard, attempt?) {
                    Some(outs) => partials[shard.index] = Some(outs),
                    None => pending.push(shard),
                }
            }
            if !pending.is_empty() {
                expired("deadline expired before crashed-shard recovery; recompute abandoned")?;
                ledger.faults.repartitions += pending.len() as u64;
            }
        }
        let outputs = recombine(prog, &plan, partials.into_iter().flatten().collect())?;
        Ok((plan, outputs))
    }
}

/// Shard `i` runs on `alive[i % alive.len()]`: device `i` if all are healthy.
fn placed(alive: &[usize], shard: &Shard) -> usize {
    alive[shard.index % alive.len()]
}
