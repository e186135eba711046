//! Background tune-and-swap.
//!
//! A plan-cache miss must not block on tuning — the paper's searches run
//! for hours; a serving runtime answers in milliseconds. So a miss is
//! served immediately from the heuristic schedule and a [`TuneJob`] is
//! queued. The tuner thread runs an `mdh-tuner` search on a bounded
//! budget (measured executions on CPU, the analytic simulator on GPU),
//! and if the result beats the incumbent it is atomically hot-swapped
//! into the [`PlanCache`] and persisted into the process's
//! [`TuningCache`] so later *processes* start warm too.

use crate::plan_cache::{CompiledPlan, PlanCache, PlanKey, PlanSource};
use crate::request::{Operands, Request};
use crate::sync::lock;
use mdh_backend::cpu::CpuExecutor;
use mdh_backend::gpu::GpuSim;
use mdh_core::dsl::DslProgram;
use mdh_lowering::asm::DeviceKind;
use mdh_lowering::plan::ExecutionPlan;
use mdh_tuner::{tune_cpu, tune_gpu, Budget, Technique, TunedSchedule, TuningCache};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Mutex};

/// When and how hard to tune in the background.
#[derive(Debug, Clone, Copy)]
pub struct TunePolicy {
    pub enabled: bool,
    pub technique: Technique,
    /// Maximum cost evaluations per search.
    pub budget_evals: usize,
}

impl Default for TunePolicy {
    fn default() -> TunePolicy {
        TunePolicy {
            enabled: true,
            technique: Technique::HillClimb,
            budget_evals: 24,
        }
    }
}

/// One queued background search, created on a plan-cache miss.
pub(crate) struct TuneJob {
    pub key: PlanKey,
    pub prog: DslProgram,
    /// The operands of the request that missed (CPU tuning measures real
    /// executions), shared with it rather than copied.
    pub inputs: Operands,
}

/// The submitting side of the tuner thread: at most one search per plan
/// key is queued or running at a time.
pub(crate) struct Tuner {
    pub(crate) tx: Mutex<Option<mpsc::Sender<TuneJob>>>,
    pub(crate) in_flight: Mutex<HashSet<PlanKey>>,
}

impl Tuner {
    /// Queue a search for `key`, measured on `req`'s program and operands,
    /// unless one is already queued or running.
    pub(crate) fn queue(&self, key: &PlanKey, req: &Request) {
        if !lock(&self.in_flight).insert(key.clone()) {
            return;
        }
        let job = TuneJob {
            key: key.clone(),
            prog: req.prog.clone(),
            inputs: Arc::clone(&req.inputs),
        };
        let sent = lock(&self.tx)
            .as_ref()
            .is_some_and(|tx| tx.send(job).is_ok());
        if !sent {
            self.done(key);
        }
    }

    /// The search for `key` is over (or was never sent).
    pub(crate) fn done(&self, key: &PlanKey) {
        lock(&self.in_flight).remove(key);
    }

    /// No search queued or running.
    pub(crate) fn is_quiet(&self) -> bool {
        lock(&self.in_flight).is_empty()
    }

    /// Stop taking jobs: the thread ends once it has run the queued ones.
    pub(crate) fn close(&self) {
        *lock(&self.tx) = None;
    }
}

/// Run one search and hot-swap the cached plan if the result wins.
/// Returns `true` if a swap happened.
pub(crate) fn run_tune_job(
    job: TuneJob,
    policy: &TunePolicy,
    exec: &CpuExecutor,
    sim: &GpuSim,
    plan_cache: &Mutex<PlanCache>,
    tuning_cache: &Mutex<TuningCache>,
    persist_path: Option<&PathBuf>,
) -> bool {
    let budget = Budget::evals(policy.budget_evals);
    let tuned: TunedSchedule = match job.key.device {
        DeviceKind::Cpu => tune_cpu(exec, &job.prog, &job.inputs, policy.technique, budget),
        DeviceKind::Gpu => tune_gpu(sim, &job.prog, policy.technique, budget),
    };
    if !tuned.cost.is_finite() {
        return false;
    }
    let plan = match ExecutionPlan::build(&job.prog, &tuned.schedule) {
        Ok(p) => p,
        Err(_) => return false,
    };
    let candidate = CompiledPlan {
        prog: job.prog.clone(),
        schedule: tuned.schedule.clone(),
        plan,
        source: PlanSource::Tuned,
        cost: Some(tuned.cost),
        epoch: 0, // set by swap_if_better
    };
    let swapped = lock(plan_cache).swap_if_better(&job.key, candidate);
    if swapped {
        let mut tc = lock(tuning_cache);
        if tc.record(&job.prog, job.key.device, tuned.schedule, tuned.cost) {
            if let Some(path) = persist_path {
                if let Err(e) = tc.save(path) {
                    eprintln!(
                        "mdh-runtime: could not persist tuning cache to {}: {e}",
                        path.display()
                    );
                }
            }
        }
    }
    swapped
}

/// Seed a [`CompiledPlan`] from a persistent tuning-cache entry, if one
/// matches this program/device. Lets a fresh runtime skip straight to a
/// tuned schedule a previous process discovered.
pub(crate) fn plan_from_tuning_cache(
    prog: &DslProgram,
    device: DeviceKind,
    tuning_cache: &Arc<Mutex<TuningCache>>,
) -> Option<CompiledPlan> {
    let tc = lock(tuning_cache);
    let entry = tc.lookup(prog, device)?;
    let plan = ExecutionPlan::build(prog, &entry.schedule).ok()?;
    Some(CompiledPlan {
        prog: prog.clone(),
        schedule: entry.schedule.clone(),
        plan,
        source: PlanSource::Persistent,
        cost: Some(entry.cost),
        epoch: 0,
    })
}
