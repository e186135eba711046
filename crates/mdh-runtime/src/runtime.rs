//! The runtime proper: request queue and batching worker pool.
//!
//! Life of a request ([`Runtime::submit`]):
//!
//! 1. **admission**: the queue is bounded ([`RuntimeConfig::max_queue_depth`]);
//!    a full queue sheds the request immediately with a retryable
//!    [`MdhError::Overloaded`], and a draining runtime answers
//!    [`MdhError::Draining`]. Accepted requests are keyed by [`PlanKey`]
//!    (structural signature × shape class × device) and enqueued;
//! 2. a worker pops it and *drains every queued request with the same
//!    key* (up to `max_batch`) into one batch, so the plan lookup and —
//!    on GPU — the operand upload ([`launch_cost_ms`]) are paid once.
//!    Requests whose [`Request::deadline`] expired while queued are
//!    answered [`MdhError::DeadlineExceeded`] during the drain, without
//!    executing;
//! 3. the per-key **circuit breaker** is consulted: a key with
//!    [`RuntimeConfig::breaker_threshold`] consecutive failures fails
//!    fast ([`MdhError::BreakerOpen`]) until a cooldown elapses, after
//!    which a single half-open probe decides whether to close it again;
//! 4. the plan comes from the cache (hit), or a miss lowers and routes it
//!    once: from the schedule `mdhc tune` stored for the program in the
//!    tuning-cache file (warm start), else from the heuristic. A cached
//!    plan never changes, and it is what runs;
//! 5. the batch executes (the cached route on the cached host plan, on
//!    real threads; a GPU launch adds its simulated time and transfer
//!    cost) under `catch_unwind`: a panic becomes
//!    a per-request [`MdhError::WorkerPanic`] (and a breaker failure),
//!    never a dead worker or a wedged queue, and each caller's
//!    [`Handle`] resolves.

use crate::breaker::{Admit, Breakers};
use crate::plan_cache::{CachedPlan, CompiledPlan, PlanCache, PlanKey, PlanSource};
use crate::queue::{fail, note_tenant_dispatch, Job, Outcome, Queue};
use crate::stats::RuntimeStats;
use crate::sync::{cv_wait, lock};
use mdh_backend::cpu::CpuExecutor;
use mdh_backend::gpu::GpuSim;
use mdh_backend::transfer::{launch_cost_ms, LinkParams};
use mdh_core::error::{MdhError, Result};
use mdh_dist::{DevicePool, DistExecutor, FaultPlan};
use mdh_lowering::asm::DeviceKind;
use mdh_lowering::heuristics::mdh_default_schedule;
use mdh_lowering::plan::ExecutionPlan;
use mdh_mem::MemPool;
use mdh_tuner::TuningCache;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use crate::queue::DEFAULT_TENANT;
pub use crate::request::{GradHandle, GradResponse, Handle, Operands, Request, Response};

/// A switch with no effect: the runtime does not tune online. A cached
/// plan never changes; tuned schedules come from the file
/// `mdhc tune --cache` writes ([`RuntimeConfig::tuning_cache_path`]).
/// Kept, with [`RuntimeConfig::tune`], because the benchmark sets it; a
/// benchmark change can drop both.
#[derive(Debug, Clone, Copy, Default)]
pub struct TunePolicy {
    pub enabled: bool,
}

/// Construction-time knobs.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Request-serving worker threads.
    pub workers: usize,
    /// Threads of the shared CPU executor (and the GPU simulator's host
    /// execution).
    pub exec_threads: usize,
    /// Max resident compiled plans (LRU beyond this).
    pub plan_cache_capacity: usize,
    /// Max same-key requests drained into one batch.
    pub max_batch: usize,
    /// Admission control: requests arriving while this many are already
    /// queued are shed with a retryable `err overloaded` instead of
    /// growing the queue without bound (minimum 1).
    pub max_queue_depth: usize,
    /// Consecutive failures on one [`PlanKey`] that trip its circuit
    /// breaker (minimum 1).
    pub breaker_threshold: u32,
    /// How long a tripped breaker fails fast before admitting a single
    /// half-open probe.
    pub breaker_cooldown: Duration,
    /// Serving-edge chaos hook (the [`FaultPlan`] philosophy applied one
    /// layer up): any request whose program name equals this marker
    /// panics inside the worker at execution time. Exercised by
    /// `examples/overload.rs` and the overload tests to prove panic
    /// isolation and the breaker; `None` (the default) in production.
    pub panic_marker: Option<String>,
    /// Max concurrent socket connections (`server` layer only; the
    /// library API is not connection-oriented).
    pub max_connections: usize,
    /// Per-connection socket read timeout (`server` layer only): an idle
    /// or half-written client is answered with an error and disconnected
    /// instead of holding its connection thread forever.
    pub read_timeout: Duration,
    /// No effect (see [`TunePolicy`]).
    pub tune: TunePolicy,
    /// A tuning-cache file written by `mdhc tune --cache`: read once at
    /// construction, never written. A program with an entry there is
    /// served its stored schedule instead of the heuristic's.
    pub tuning_cache_path: Option<PathBuf>,
    /// Simulated devices serving GPU requests. With `devices > 1`, GPU
    /// launches are partitioned across an `mdh-dist` pool of identical
    /// A100s and recombined through the program's combine operators;
    /// with 1 (the default) they run on the single simulator.
    pub devices: usize,
    /// Deterministic fault schedule injected into pool launches
    /// (`devices > 1` only). The runtime keeps serving through crashes:
    /// evicted devices shrink the pool and requests degrade gracefully.
    pub faults: Option<FaultPlan>,
    /// Per-device residency budget for the `mdh-mem` buffer pool
    /// (`devices > 1` only). Shard inputs already resident on their
    /// device skip H2D; misses are double-buffered so the upload
    /// overlaps compute. `0` disables the pool (every launch pays full
    /// transfer, matching the pre-pool time model). Results are
    /// bit-identical either way — residency only affects timing.
    pub mem_budget_bytes: u64,
    /// Shard watchdog hedge margin in modelled milliseconds
    /// (`devices > 1` only): a shard exceeding its fault-free modelled
    /// completion by this much is speculatively re-executed on a healthy
    /// spare, first completion wins. `0.0` (the default) disables
    /// hedging — hangs escalate to crashes.
    pub hedge_ms: f64,
    /// Probe out-of-rotation devices every this many launches
    /// (`devices > 1` only). `0` (the default) disables probing —
    /// evictions stay permanent.
    pub probe_every: u64,
    /// Consecutive passing probes an evicted device needs to earn
    /// reinstatement (probation devices always need exactly one).
    pub reinstate_after: u32,
    /// Per-tenant admission quota: a tenant with this many requests
    /// already queued has further submissions shed with a retryable
    /// `err overloaded` (counted as [`RuntimeStats::tenant_shed`]) while
    /// other tenants keep flowing. `0` (the default) disables the
    /// per-tenant cap — only the global `max_queue_depth` applies.
    pub tenant_quota: usize,
    /// Deficit-round-robin weights per tenant name; unlisted tenants
    /// (including the [`DEFAULT_TENANT`]) weigh 1. A tenant with weight
    /// `w` earns `w` times the dispatch quantum per scheduler round.
    pub tenant_weights: Vec<(String, u32)>,
    /// Per-connection cap on pipelined frames in flight (server layer
    /// only): a pipelined client submitting faster than the runtime
    /// drains is backpressured at this depth rather than ballooning
    /// server memory (minimum 1).
    pub pipeline_depth: usize,
}

impl Default for RuntimeConfig {
    fn default() -> RuntimeConfig {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        RuntimeConfig {
            workers: 2,
            exec_threads: hw.clamp(1, 8),
            plan_cache_capacity: 64,
            max_batch: 16,
            max_queue_depth: 256,
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(250),
            panic_marker: None,
            max_connections: 64,
            read_timeout: Duration::from_secs(5),
            tune: TunePolicy::default(),
            tuning_cache_path: None,
            devices: 1,
            faults: None,
            mem_budget_bytes: 2 << 30,
            hedge_ms: 0.0,
            probe_every: 0,
            reinstate_after: 3,
            tenant_quota: 0,
            tenant_weights: Vec::new(),
            pipeline_depth: 32,
        }
    }
}

pub(crate) struct Shared {
    config: RuntimeConfig,
    queue: Queue,
    pub(crate) plans: Mutex<PlanCache>,
    /// Signalled when a worker stops building a plan (see [`Claim`]).
    plan_built: Condvar,
    /// The tuning-cache file's entries, loaded once.
    tuning: TuningCache,
    /// The counters this runtime bumps itself; [`Runtime::stats`] overlays
    /// what the plan cache, the pool and the kernel registry count.
    pub(crate) counters: Mutex<RuntimeStats>,
    breakers: Breakers,
    exec: CpuExecutor,
    sim: GpuSim,
    /// Multi-device pool serving GPU requests when `config.devices > 1`.
    dist: Option<DistExecutor>,
    /// Device-resident buffer pool shared with `dist` (None when the
    /// pool is disabled or single-device).
    mem: Option<Arc<MemPool>>,
}

/// The persistent execution runtime. Dropping it shuts it down cleanly
/// (pending requests are still served).
pub struct Runtime {
    pub(crate) shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Runtime {
    pub fn new(config: RuntimeConfig) -> Result<Runtime> {
        // one physical pool of exec_threads for the whole runtime: the
        // CPU executor and the GPU simulator's host execution (which every
        // mdh-dist device runs on) share its OS threads through
        // width-scoped handles instead of spawning a pool each (which
        // oversubscribed the machine once pool threads became persistent)
        let exec = CpuExecutor::new(config.exec_threads.max(1))?;
        let pool = exec.pool().clone();
        let sim = GpuSim::a100_with_pool(&pool, config.exec_threads.max(1));
        let mem = if config.devices > 1 && config.mem_budget_bytes > 0 {
            Some(Arc::new(MemPool::new(
                config.devices,
                config.mem_budget_bytes,
            )))
        } else {
            None
        };
        let dist = if config.devices > 1 {
            let faults = config.faults.clone().unwrap_or_else(FaultPlan::none);
            let mut d = DistExecutor::with_faults_policy_and_pool(
                DevicePool::gpus(config.devices),
                faults,
                mdh_dist::fault::RetryPolicy::default(),
                &pool,
            )?;
            if let Some(m) = &mem {
                d = d.with_mem(Arc::clone(m));
            }
            d = d.with_healing(mdh_dist::HealPolicy {
                hedge_ms: config.hedge_ms,
                probe_every: config.probe_every,
                reinstate_after: config.reinstate_after,
            });
            Some(d)
        } else {
            None
        };
        let tuning = match &config.tuning_cache_path {
            Some(p) => TuningCache::load_or_rebuild(p),
            None => TuningCache::new(),
        };
        let counters = RuntimeStats {
            device_dispatches: dist
                .iter()
                .flat_map(device_labels)
                .map(|label| (label, 0))
                .collect(),
            ..RuntimeStats::default()
        };
        let shared = Arc::new(Shared {
            plans: Mutex::new(PlanCache::new(config.plan_cache_capacity)),
            plan_built: Condvar::new(),
            queue: Queue::default(),
            tuning,
            counters: Mutex::new(counters),
            breakers: Breakers::default(),
            exec,
            sim,
            dist,
            mem,
            config,
        });

        // a thread that cannot be spawned is an error of the runtime
        // being built; dropping it stops and joins whatever did start
        let mut rt = Runtime {
            shared,
            workers: Vec::new(),
        };
        for i in 0..rt.shared.config.workers.max(1) {
            let sh = Arc::clone(&rt.shared);
            rt.workers.push(
                std::thread::Builder::new()
                    .name(format!("mdh-runtime-worker-{i}"))
                    .spawn(move || worker_loop(&sh))
                    .map_err(|e| MdhError::Validation(format!("runtime thread: {e}")))?,
            );
        }
        Ok(rt)
    }

    /// Enqueue a launch; returns immediately with an awaitable [`Handle`].
    ///
    /// Admission control happens here: a full queue or a draining
    /// runtime resolves the handle immediately with a retryable
    /// [`MdhError::Overloaded`] / [`MdhError::Draining`] — the caller
    /// always gets exactly one terminal answer.
    pub fn submit(&self, req: Request) -> Handle {
        let (tx, rx) = mpsc::channel();
        let is_rbi = req.prog.md_hom.has_rbi();
        let job = Job {
            key: PlanKey::of(&req.prog, req.device),
            req,
            reply: tx,
            submitted: Instant::now(),
        };
        let sh = &self.shared;
        if sh.queue.admit(job, &sh.config, &sh.counters) && is_rbi {
            lock(&sh.counters).rbi_requests += 1;
        }
        Handle { rx }
    }

    /// Snapshot of the counters and latency histograms: the runtime's own
    /// plus what the plan cache, the device pool, the memory pool, the
    /// fast-kernel registry and the host block list count themselves.
    pub fn stats(&self) -> RuntimeStats {
        let mut s = lock(&self.shared.counters).clone();
        {
            let plans = lock(&self.shared.plans);
            s.plan_hits = plans.hits();
            s.plan_misses = plans.misses();
            s.plan_evictions = plans.evictions();
            s.plans_resident = plans.len();
            s.plan_routes = plans.routes();
        }
        if let Some(d) = &self.shared.dist {
            let faults = d.fault_stats();
            s.fault_retries = faults.retries;
            s.device_evictions = faults.evictions;
            s.repartitions = faults.repartitions;
            s.fault_hangs = faults.injected_hangs;
            s.fault_hedges = faults.hedges;
            s.health_probes = faults.probes;
            s.health_probations = faults.probations;
            s.health_reinstatements = faults.reinstatements;
            s.device_health = device_labels(d)
                .zip(d.device_health())
                .map(|(label, h)| (label, h.label().to_string()))
                .collect();
        }
        if let Some(m) = &self.shared.mem {
            let mem = m.stats();
            s.mem_hits = mem.hits;
            s.mem_misses = mem.misses;
            s.mem_evictions = mem.evictions;
            s.mem_bytes_resident = mem.bytes_resident;
            s.mem_bytes_avoided = mem.bytes_avoided;
            s.corruptions_detected = mem.corruptions_detected;
        }
        (s.kernel_hits, s.kernel_fallbacks) = mdh_backend::fast::registry().counters();
        (s.host_reuses, s.host_fresh, s.host_bytes_held) =
            mdh_core::buffer::host_blocks().counters();
        s.minor_faults = crate::stats::minor_faults();
        s
    }

    /// The CPU executor whose pool every execution in this runtime
    /// shares (see [`Runtime::new`]).
    pub fn executor(&self) -> &CpuExecutor {
        &self.shared.exec
    }

    /// Declare that the host contents of the named buffer changed.
    /// Device-resident copies keyed under the old version stop matching,
    /// so the next launch re-uploads instead of reusing stale bytes.
    /// Returns the new version (0 when no pool is active — without a
    /// pool nothing is cached, so there is nothing to invalidate).
    pub fn bump_operand_version(&self, name: &str) -> u64 {
        self.shared
            .mem
            .as_ref()
            .map(|m| m.bump_version(name))
            .unwrap_or(0)
    }

    /// Worker threads still alive. Equals `config.workers` unless a panic
    /// escaped isolation (it must not — see the overload tests).
    pub fn live_workers(&self) -> usize {
        self.workers.iter().filter(|w| !w.is_finished()).count()
    }

    /// Block until the request queue is drained and no worker is mid-batch.
    pub fn wait_idle(&self) {
        while !self.shared.queue.is_idle() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Serve everything queued, stop the workers, and join them. New
    /// submissions are rejected with `err draining` from the moment this
    /// is called. Called automatically on drop.
    pub fn shutdown(&mut self) {
        if !self.shared.queue.close() {
            return;
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// worker side
// ---------------------------------------------------------------------------

/// The pool's device labels (`gpu0`, `gpu1`, ...), in pool order.
fn device_labels(dist: &DistExecutor) -> impl Iterator<Item = String> {
    (0..dist.pool().len()).map(DevicePool::label)
}

fn worker_loop(shared: &Shared) {
    while let Some((batch, lapsed, tenant)) = shared.queue.pop(&shared.config) {
        fail(
            &shared.counters,
            lapsed,
            &Outcome::Expired("expired while queued"),
        );
        if batch.is_empty() {
            continue;
        }
        let n = batch.len();
        note_tenant_dispatch(&mut lock(&shared.counters), &tenant, n as u64);
        // Backstop: serve_batch already isolates execution panics
        // per-request; if a panic ever escapes it anyway (a plan-cache or
        // accounting bug), the worker must still survive and keep
        // serving. Replies dropped here resolve the callers' handles
        // with a terminal channel-closed error.
        if catch_unwind(AssertUnwindSafe(|| serve_batch(shared, batch))).is_err() {
            lock(&shared.counters).worker_panics += 1;
        }
        shared.queue.finished(n);
    }
}

/// Look up / build the plan for `key`, then execute every request in the
/// batch against it.
fn serve_batch(shared: &Shared, batch: Vec<Job>) {
    let key = batch[0].key.clone();
    let fast_fail = Outcome::BreakerOpen(shared.config.breaker_threshold.max(1));
    // one request's outcome against the key's breaker; `true` if it tripped
    let strike = |ok: bool| {
        let tripped = shared.breakers.record(&key, ok, &shared.config);
        if tripped {
            lock(&shared.counters).breaker_trips += 1;
        }
        tripped
    };

    // ---- deadline check at the drain → execute boundary ---------------
    let now = Instant::now();
    let (lapsed, mut live): (Vec<Job>, Vec<Job>) = batch.into_iter().partition(|j| j.expired(now));
    fail(
        &shared.counters,
        lapsed,
        &Outcome::Expired("expired before execution"),
    );
    if live.is_empty() {
        return;
    }

    // ---- circuit breaker ----------------------------------------------
    match shared.breakers.admit(&key, now) {
        Admit::Execute => {}
        Admit::Probe => {
            // exactly one request probes the half-open breaker; the rest
            // of the batch fails fast rather than pile onto a key that is
            // most likely still broken
            let rest = live.split_off(1);
            fail(&shared.counters, rest, &fast_fail);
        }
        Admit::FastFail => return fail(&shared.counters, live, &fast_fail),
    }
    let n = live.len();

    // ---- plan lookup (once per batch; followers count as hits) --------
    // a key is lowered and routed once: a worker that finds another one
    // building it waits for that plan instead of building its own
    let looked_up = {
        let mut plans = lock(&shared.plans);
        while plans.building.contains(&key) {
            plans = cv_wait(&shared.plan_built, plans);
        }
        let found = plans.get(&key);
        if found.is_none() {
            plans.building.insert(key.clone());
        }
        found
    };
    let (plan, first_was_hit) = match looked_up {
        Some(p) => (Ok(p), true),
        None => {
            let _claim = Claim { shared, key: &key };
            let built = build_plan(shared, &live[0].req).map(CachedPlan::from);
            (
                built.map(|p| lock(&shared.plans).insert(key.clone(), p)),
                false,
            )
        }
    };
    let plan = match plan {
        Ok(p) => p,
        Err(e) => {
            // a plan that cannot be built is a failure of the key, too:
            // enough consecutive ones trip the breaker
            for _ in 0..n {
                strike(false);
            }
            return fail(&shared.counters, live, &Outcome::PlanFailed(&e));
        }
    };
    if n > 1 {
        // batched followers reuse the plan we just looked up/inserted:
        // they are cache hits by construction
        let mut plans = lock(&shared.plans);
        for _ in 1..n {
            let _ = plans.get(&key);
        }
    }

    // ---- execute ------------------------------------------------------
    {
        let mut c = lock(&shared.counters);
        c.batches += 1;
        c.batched_requests += n as u64;
        c.max_batch = c.max_batch.max(n);
    }
    let mut live = live.into_iter().enumerate();
    for (i, job) in live.by_ref() {
        if job.expired(Instant::now()) {
            // earlier batch members took long enough to lapse this one
            fail(
                &shared.counters,
                vec![job],
                &Outcome::Expired("expired mid-batch"),
            );
            continue;
        }
        let hit = first_was_hit || i > 0;
        // Panic isolation: a panicking plan (or executor bug) becomes a
        // per-request error and a breaker failure — never a dead worker.
        let result = match catch_unwind(AssertUnwindSafe(|| {
            execute_one(shared, &plan, &job, n, hit)
        })) {
            Ok(r) => r,
            Err(payload) => {
                lock(&shared.counters).worker_panics += 1;
                Err(MdhError::WorkerPanic(format!(
                    "execution panicked: {}; the panic was isolated to this request",
                    panic_message(payload.as_ref())
                )))
            }
        };
        let tripped = strike(result.is_ok());
        // counters update strictly before the reply: a caller that
        // observed its response must also observe it in the stats
        {
            let mut c = lock(&shared.counters);
            c.completed += 1;
            if let Ok(resp) = &result {
                c.latency
                    .record_ms(job.submitted.elapsed().as_secs_f64() * 1e3);
                c.exec_latency.record_ms(resp.exec_ms);
            }
        }
        let _ = job.reply.send(result);
        if tripped {
            // the breaker tripped in this very batch: stop feeding it the
            // same key
            break;
        }
    }
    fail(
        &shared.counters,
        live.map(|(_, job)| job).collect(),
        &fast_fail,
    );
}

/// Best-effort rendering of a panic payload (`&str` / `String` payloads
/// cover `panic!` with a message; anything else is opaque).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// A key one worker is building a plan for, outside the cache lock; the
/// claim ends however the build does, a panic included.
struct Claim<'a> {
    shared: &'a Shared,
    key: &'a PlanKey,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        lock(&self.shared.plans).building.remove(self.key);
        self.shared.plan_built.notify_all();
    }
}

/// Lower `req`'s program: from the schedule `mdhc tune` stored for it,
/// else the heuristic's.
fn build_plan(shared: &Shared, req: &Request) -> Result<CompiledPlan> {
    req.prog.validate()?;
    // warm start from the schedule `mdhc tune` stored for this program,
    // unless it no longer lowers
    let stored = shared.tuning.lookup(&req.prog, req.device).and_then(|e| {
        let plan = ExecutionPlan::build(&req.prog, &e.schedule).ok()?;
        Some((
            e.schedule.clone(),
            plan,
            PlanSource::Persistent,
            Some(e.cost),
        ))
    });
    let (schedule, plan, source, cost) = match stored {
        Some(s) => s,
        None => {
            let units = match req.device {
                DeviceKind::Cpu => shared.exec.threads,
                DeviceKind::Gpu => shared.sim.params.num_sms * 32,
            };
            let schedule = mdh_default_schedule(&req.prog, req.device, units);
            let plan = ExecutionPlan::build(&req.prog, &schedule)?;
            (schedule, plan, PlanSource::Heuristic, None)
        }
    };
    // the simulator computes a single-device GPU launch on the host, under
    // the host's default schedule; a pool partitions each launch itself
    let plan = match (req.device, &shared.dist) {
        (DeviceKind::Gpu, None) => {
            let host = mdh_default_schedule(&req.prog, DeviceKind::Cpu, shared.exec.threads);
            host.validate(&req.prog, 1 << 24)?;
            ExecutionPlan::build(&req.prog, &host)?
        }
        _ => plan,
    };
    Ok(CompiledPlan {
        prog: req.prog.clone(),
        schedule,
        plan,
        source,
        cost,
        epoch: 0,
    })
}

fn execute_one(
    shared: &Shared,
    cached: &CachedPlan,
    job: &Job,
    batch_size: usize,
    cache_hit: bool,
) -> Result<Response> {
    let plan = &cached.plan;
    if shared.config.panic_marker.as_deref() == Some(job.req.prog.name.as_str()) {
        panic!(
            "injected execution panic for program '{}' (RuntimeConfig::panic_marker)",
            job.req.prog.name
        );
    }
    let (outputs, exec_ms, transfer_ms) = match (job.key.device, &shared.dist) {
        // `devices > 1`: the cached plan keyed the lookup, but execution
        // goes through the pool, which re-partitions and schedules each
        // shard on its own device
        (DeviceKind::Gpu, Some(dist)) => {
            let (out, report) =
                dist.run_with_deadline(&job.req.prog, &job.req.inputs, job.req.deadline)?;
            {
                let mut c = lock(&shared.counters);
                // after an eviction, shard index no longer equals device
                // index: count where the work actually ran
                for s in &report.per_shard {
                    c.device_dispatches[s.device_index].1 += 1;
                }
                if report.degraded {
                    c.degraded_requests += 1;
                }
            }
            // steady-state per-launch time (exec + combine + D2H); the
            // one-time upload is reported as transfer, matching the
            // single-device residency convention on a cold key
            (out, report.hot_ms, report.h2d_ms)
        }
        // the CPU and the simulated GPU run the cached route on the
        // cached host plan; the GPU prices the launch by its own schedule
        (device, _) => {
            let priced = match device {
                DeviceKind::Cpu => None,
                DeviceKind::Gpu => Some(shared.sim.estimate(&job.req.prog, &plan.schedule)?),
            };
            let t0 = Instant::now();
            let out = shared.exec.run_routed(
                &job.req.prog,
                &cached.route,
                &plan.plan,
                &job.req.inputs,
            )?;
            match priced {
                None => (out, t0.elapsed().as_secs_f64() * 1e3, 0.0),
                // a key's operands are device-resident exactly as long as
                // its plan is cached: the launch that builds the plan
                // (again, after an eviction) uploads them, every hit pays
                // the copy-out alone — no residency state to grow per key
                Some(report) => {
                    let link = LinkParams::pcie4_x16();
                    let transfer_ms =
                        launch_cost_ms(&link, &job.req.prog, &job.req.inputs, cache_hit);
                    (out, report.time_ms, transfer_ms)
                }
            }
        }
    };
    Ok(Response {
        outputs,
        cache_hit,
        plan_source: plan.source,
        plan_epoch: plan.epoch,
        batch_size,
        exec_ms,
        transfer_ms,
        total_ms: job.submitted.elapsed().as_secs_f64() * 1e3,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::deterministic_inputs;
    use crate::testing::DOT;
    use mdh_core::dsl::DslProgram;
    use mdh_directive::{compile_any, DirectiveEnv};

    /// Sizes come from clients: single-device GPU residency must not
    /// outlive the plan it belongs to. 10 000 requests cycling 200 sizes
    /// (reuse distance 200, plan cache 64) leave nothing behind but the
    /// plan cache — every one re-pays its operands' upload — and a repeat
    /// of a still-cached key pays the copy-out alone.
    #[test]
    fn gpu_residency_lives_and_dies_with_the_cached_plan() {
        let sized: Vec<(DslProgram, Operands)> = (0..200)
            .map(|i| {
                let prog = compile_any(DOT, &DirectiveEnv::new().size("N", 8 + i)).unwrap();
                let inputs = deterministic_inputs(&prog).unwrap();
                (prog, Arc::new(inputs))
            })
            .collect();
        let mut rt = Runtime::new(RuntimeConfig::default()).unwrap();
        assert_eq!(rt.shared.config.devices, 1);
        let link = LinkParams::pcie4_x16();
        let launch = |rt: &Runtime, (prog, inputs): &(DslProgram, Operands)| {
            let req = Request::new(prog.clone(), DeviceKind::Gpu, Arc::clone(inputs));
            let resp = rt.submit(req).wait().unwrap();
            let want = launch_cost_ms(&link, prog, inputs, resp.cache_hit);
            assert_eq!(resp.transfer_ms, want, "hit={}", resp.cache_hit);
            resp.cache_hit
        };
        for _ in 0..50 {
            for req in &sized {
                assert!(!launch(&rt, req), "evicted 136 requests ago");
            }
        }
        assert!(launch(&rt, &sized[199]), "still cached");
        rt.shutdown();
        let stats = rt.stats();
        assert_eq!(stats.completed, 10_001);
        assert_eq!(stats.plans_resident, rt.shared.config.plan_cache_capacity);
    }
}
