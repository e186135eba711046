//! The runtime proper: request queue, batching worker pool, and the
//! background tuner thread.
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
//! 4. the plan comes from the cache (hit), the persistent tuning cache
//!    (warm start), or a fresh heuristic lowering (cold miss). A cold
//!    miss additionally queues a background tune job — the caller is
//!    *never* blocked on tuning;
//! 5. the batch executes (real threads on CPU via the lowered plan, the
//!    functional simulator on GPU) under `catch_unwind`: a panic becomes
//!    a per-request [`MdhError::WorkerPanic`] (and a breaker failure),
//!    never a dead worker or a wedged queue, and each caller's
//!    [`Handle`] resolves.

use crate::plan_cache::{CompiledPlan, PlanCache, PlanKey, PlanSource};
use crate::stats::{add_label, RuntimeStats};
use crate::sync::{cv_wait, lock};
use crate::tune::{plan_from_tuning_cache, run_tune_job, TuneJob, TunePolicy};
use mdh_backend::cpu::CpuExecutor;
use mdh_backend::gpu::GpuSim;
use mdh_backend::transfer::{launch_cost_ms, LinkParams};
use mdh_core::buffer::Buffer;
use mdh_core::dsl::DslProgram;
use mdh_core::error::{MdhError, Result};
use mdh_dist::{DevicePool, DistExecutor, FaultPlan};
use mdh_lowering::asm::DeviceKind;
use mdh_lowering::heuristics::mdh_default_schedule;
use mdh_lowering::plan::ExecutionPlan;
use mdh_mem::MemPool;
use mdh_tuner::TuningCache;
use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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
    pub tune: TunePolicy,
    /// Load/persist tuned schedules here (shared with `mdhc tune`).
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

/// A request's operand set: one immutable allocation, shared by every
/// launch that reads it. Operands are never written after submission
/// (every executor takes `&[Buffer]`), so a launch acquires them by
/// cloning this handle, never the buffers.
pub type Operands = Arc<Vec<Buffer>>;

/// One kernel launch.
#[derive(Debug, Clone)]
pub struct Request {
    pub prog: DslProgram,
    pub device: DeviceKind,
    pub inputs: Operands,
    /// Serve-by deadline. A request that expires while queued is
    /// answered `err deadline exceeded` without executing; an expired
    /// deadline is also checked immediately before execution. Execution
    /// itself is not aborted mid-flight.
    pub deadline: Option<Instant>,
    /// Fair-queueing tenant this request is billed to. `None` joins the
    /// [`DEFAULT_TENANT`]. Each tenant has its own FIFO under the
    /// deficit-round-robin scheduler and its own admission quota
    /// ([`RuntimeConfig::tenant_quota`]), so one flooding tenant sheds
    /// while the others keep their dispatch share.
    pub tenant: Option<String>,
}

impl Request {
    /// `inputs` is a `Vec<Buffer>` (wrapped, not copied) or an
    /// [`Operands`] handle another launch already holds.
    pub fn new(prog: DslProgram, device: DeviceKind, inputs: impl Into<Operands>) -> Request {
        Request {
            prog,
            device,
            inputs: inputs.into(),
            deadline: None,
            tenant: None,
        }
    }

    /// Attach an absolute serve-by deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Request {
        self.deadline = Some(deadline);
        self
    }

    /// Attach a deadline `ms` milliseconds from now.
    pub fn with_deadline_ms(self, ms: u64) -> Request {
        self.with_deadline(Instant::now() + Duration::from_millis(ms))
    }

    /// Bill this request to the named fair-queueing tenant.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Request {
        self.tenant = Some(tenant.into());
        self
    }
}

/// What the runtime answers.
#[derive(Debug, Clone)]
pub struct Response {
    pub outputs: Vec<Buffer>,
    /// Whether this request's plan lookup hit the cache.
    pub cache_hit: bool,
    pub plan_source: PlanSource,
    /// Swap generation of the plan that served this request (0 until a
    /// background tune wins).
    pub plan_epoch: u64,
    /// Requests served together with this one (≥ 1).
    pub batch_size: usize,
    /// Execution time: wall-clock ms on CPU, simulated ms on GPU.
    pub exec_ms: f64,
    /// GPU host↔device transfer ms for this launch (0 when the region
    /// was already resident, and always 0 on CPU).
    pub transfer_ms: f64,
    /// End-to-end latency (submit → reply), ms.
    pub total_ms: f64,
}

/// Awaitable reply to one submitted request.
pub struct Handle {
    rx: mpsc::Receiver<Result<Response>>,
}

impl Handle {
    /// Block until the runtime answers.
    pub fn wait(self) -> Result<Response> {
        self.rx.recv().map_err(|_| {
            MdhError::Validation("runtime shut down before the request was served".into())
        })?
    }
}

/// Reply to a gradient round trip: the forward value plus one gradient
/// buffer per differentiated input.
#[derive(Debug, Clone)]
pub struct GradResponse {
    pub forward: Response,
    /// `(forward input index, accumulated gradient)` in `wrt` order.
    pub gradients: Vec<(usize, Buffer)>,
    /// Adjoint programs executed for this round trip.
    pub parts: usize,
}

/// Awaitable reply to [`Runtime::submit_grad`]: the forward request and
/// every adjoint part are in flight concurrently (the adjoints need only
/// the cotangent, not the forward value).
pub struct GradHandle {
    forward: Handle,
    parts: Vec<(usize, Handle)>,
    accs: Vec<(usize, Buffer)>,
}

impl GradHandle {
    /// Block until the forward value and every gradient arrived. Any
    /// sub-request error (deadline, shed, breaker, panic) fails the whole
    /// round trip with that error.
    pub fn wait(self) -> Result<GradResponse> {
        let forward = self.forward.wait()?;
        let mut gradients = self.accs;
        let parts = self.parts.len();
        for (w, h) in self.parts {
            let resp = h.wait()?;
            let acc = gradients
                .iter_mut()
                .find(|(gw, _)| *gw == w)
                .expect("adjoint part for unrequested input");
            mdh_ad::accumulate(&mut acc.1, &resp.outputs[0])?;
        }
        Ok(GradResponse {
            forward,
            gradients,
            parts,
        })
    }
}

struct Job {
    key: PlanKey,
    req: Request,
    reply: mpsc::Sender<Result<Response>>,
    submitted: Instant,
}

impl Job {
    fn expired(&self, now: Instant) -> bool {
        self.req.deadline.is_some_and(|d| now >= d)
    }
}

/// Tenant name a request without an explicit tenant is billed to. On
/// the wire, `tenant=default` and omitting `tenant=` are the same
/// tenant — one FIFO, one quota, one dispatch counter.
pub const DEFAULT_TENANT: &str = "default";

/// Named tenants that get their own `tenant_dispatches` entry.
pub(crate) const MAX_TRACKED_TENANTS: usize = 64;

/// The `tenant_dispatches` label every further tenant is counted under.
/// Not a name a wire client can send (`server::valid_tenant` rejects it).
pub(crate) const TENANT_OVERFLOW: &str = "(other)";

/// Base deficit-round-robin quantum: requests a weight-1 tenant earns
/// per scheduler round. Small relative to `max_batch` so weights bite
/// (a weight-`w` tenant banks `w`× this per visit), large enough that
/// batching still amortises plan lookups.
const DRR_QUANTUM: u64 = 4;

/// A tenant may bank at most this many rounds of unused deficit —
/// bounded banking keeps a long-idle tenant from bursting unboundedly
/// when it returns.
const DRR_MAX_BANKED_ROUNDS: u64 = 8;

/// One tenant's FIFO plus its deficit-round-robin credit.
#[derive(Default)]
struct TenantQueue {
    jobs: VecDeque<Job>,
    /// Requests this tenant may dispatch before the scheduler rotates
    /// on. Replenished by `DRR_QUANTUM × weight` per visit; reset when
    /// the FIFO drains (classic DRR: an empty tenant banks nothing).
    deficit: u64,
}

/// The admission queue: per-tenant FIFOs scheduled by deficit round
/// robin. The ring holds each tenant with queued work exactly once, in
/// round-robin order; `queued` is the cross-tenant total the global
/// `max_queue_depth` bounds.
#[derive(Default)]
struct QueueState {
    tenants: HashMap<String, TenantQueue>,
    ring: VecDeque<String>,
    queued: usize,
    /// Jobs popped but not yet replied to (for `wait_idle`).
    active: usize,
    shutdown: bool,
}

/// Per-[`PlanKey`] circuit-breaker state.
#[derive(Debug, Clone, Copy, PartialEq)]
enum BreakerState {
    /// Requests flow; consecutive failures are counted.
    Closed,
    /// Failing fast until `until`, then a single probe is admitted.
    Open { until: Instant },
    /// One probe is in flight; everything else fails fast.
    HalfOpen,
}

#[derive(Debug)]
struct Breaker {
    consecutive: u32,
    state: BreakerState,
}

impl Default for Breaker {
    fn default() -> Breaker {
        Breaker {
            consecutive: 0,
            state: BreakerState::Closed,
        }
    }
}

/// What the breaker allows for a batch about to execute.
enum Admit {
    /// Closed: execute the whole batch.
    Execute,
    /// Half-open after cooldown: execute exactly one probe request.
    Probe,
    /// Open (or a probe already in flight): fail everything fast.
    FastFail,
}

struct Shared {
    config: RuntimeConfig,
    state: Mutex<QueueState>,
    cv: Condvar,
    plans: Mutex<PlanCache>,
    tuning: Arc<Mutex<TuningCache>>,
    /// The counters this runtime bumps itself; [`Runtime::stats`] overlays
    /// what the plan cache, the pool and the kernel registry count.
    counters: Mutex<RuntimeStats>,
    breakers: Mutex<HashMap<PlanKey, Breaker>>,
    exec: CpuExecutor,
    sim: GpuSim,
    /// Multi-device pool serving GPU requests when `config.devices > 1`.
    dist: Option<DistExecutor>,
    /// Device-resident buffer pool shared with `dist` (None when the
    /// pool is disabled or single-device).
    mem: Option<Arc<MemPool>>,
    tune_tx: Mutex<Option<mpsc::Sender<TuneJob>>>,
    tunes_in_flight: Mutex<HashSet<PlanKey>>,
}

/// The persistent execution runtime. Dropping it shuts it down cleanly
/// (pending requests are still served).
pub struct Runtime {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    tuner: Option<JoinHandle<()>>,
}

impl Runtime {
    pub fn new(config: RuntimeConfig) -> Result<Runtime> {
        // one physical pool of exec_threads for the whole runtime: the
        // CPU executor, the GPU simulator's host execution, and every
        // mdh-dist CPU device share its OS threads through width-scoped
        // handles instead of spawning a pool each (which oversubscribed
        // the machine once pool threads became persistent)
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
        let tuning = Arc::new(Mutex::new(match &config.tuning_cache_path {
            Some(p) => TuningCache::load_or_rebuild(p),
            None => TuningCache::new(),
        }));
        let (tune_tx, tune_rx) = mpsc::channel::<TuneJob>();
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
            state: Mutex::new(QueueState::default()),
            cv: Condvar::new(),
            tuning,
            counters: Mutex::new(counters),
            breakers: Mutex::new(HashMap::new()),
            exec,
            sim,
            dist,
            mem,
            tune_tx: Mutex::new(Some(tune_tx)),
            tunes_in_flight: Mutex::new(HashSet::new()),
            config,
        });

        let workers = (0..shared.config.workers.max(1))
            .map(|i| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mdh-runtime-worker-{i}"))
                    .spawn(move || worker_loop(&sh))
                    .expect("spawn worker")
            })
            .collect();

        let tuner = {
            let sh = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("mdh-runtime-tuner".into())
                    .spawn(move || tuner_loop(&sh, tune_rx))
                    .expect("spawn tuner"),
            )
        };

        Ok(Runtime {
            shared,
            workers,
            tuner,
        })
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
        let key = PlanKey::of(&req.prog, req.device);
        let tenant = req
            .tenant
            .clone()
            .unwrap_or_else(|| DEFAULT_TENANT.to_string());
        let job = Job {
            key,
            req,
            reply: tx,
            submitted: Instant::now(),
        };
        let cap = self.shared.config.max_queue_depth.max(1);
        let quota = self.shared.config.tenant_quota;
        /// Why admission turned a request away.
        enum Reject {
            Draining,
            Global,
            Tenant,
        }
        let rejected = {
            let mut st = lock(&self.shared.state);
            if st.shutdown {
                Some((
                    job,
                    MdhError::Draining("runtime is shutting down".into()),
                    Reject::Draining,
                ))
            } else if st.queued >= cap {
                let depth = st.queued;
                Some((
                    job,
                    MdhError::Overloaded(format!(
                        "queue depth {depth} at capacity {cap}; retry later"
                    )),
                    Reject::Global,
                ))
            } else {
                let tq = st.tenants.entry(tenant.clone()).or_default();
                if quota > 0 && tq.jobs.len() >= quota {
                    let depth = tq.jobs.len();
                    Some((
                        job,
                        MdhError::Overloaded(format!(
                            "tenant '{tenant}' queue depth {depth} at quota {quota}; \
                             other tenants unaffected; retry later"
                        )),
                        Reject::Tenant,
                    ))
                } else {
                    let was_empty = tq.jobs.is_empty();
                    tq.jobs.push_back(job);
                    st.queued += 1;
                    if was_empty {
                        st.ring.push_back(tenant);
                    }
                    None
                }
            }
        };
        match rejected {
            None => {
                if is_rbi {
                    lock(&self.shared.counters).rbi_requests += 1;
                }
                self.shared.cv.notify_one();
            }
            Some((job, err, why)) => {
                {
                    let mut c = lock(&self.shared.counters);
                    match why {
                        Reject::Draining => c.draining_rejects += 1,
                        Reject::Global => c.shed_requests += 1,
                        Reject::Tenant => {
                            c.shed_requests += 1;
                            c.tenant_shed += 1;
                        }
                    }
                }
                let _ = job.reply.send(Err(err));
            }
        }
        Handle { rx }
    }

    /// Submit a gradient round trip: the forward launch plus one launch
    /// per AD-emitted adjoint part, all through the ordinary [`submit`]
    /// path — so every sub-request individually passes admission control,
    /// carries the same serve-by deadline, shares the plan cache, and
    /// counts against its plan key's circuit breaker. Gradients are taken
    /// with respect to `wrt` (default: every float-typed input); the
    /// cotangent defaults to all-ones (`∂Σy/∂y`).
    ///
    /// [`submit`]: Runtime::submit
    pub fn submit_grad(
        &self,
        req: Request,
        wrt: Option<&[usize]>,
        cotangent: Option<Buffer>,
    ) -> Result<GradHandle> {
        let gp = match wrt {
            Some(w) => mdh_ad::grad(&req.prog, w)?,
            None => mdh_ad::grad_all(&req.prog)?,
        };
        let cot = match cotangent {
            Some(c) => c,
            None => {
                let shape = req.prog.output_shapes()?.remove(0);
                let decl = &req.prog.out_view.buffers[0];
                let mut ones = Buffer::zeros(
                    format!("{}_bar", decl.name),
                    decl.ty.clone(),
                    mdh_core::shape::Shape::new(shape),
                );
                ones.fill_with(|_| 1.0);
                ones
            }
        };
        let accs: Vec<(usize, Buffer)> = gp
            .wrt
            .iter()
            .map(|&w| Ok((w, mdh_ad::zero_grad(&gp.forward, w)?)))
            .collect::<Result<_>>()?;
        lock(&self.shared.counters).grad_requests += 1;
        // the forward launch takes the caller's request as it is and runs
        // while the parts' inputs are built from the operands it shares
        let (device, deadline) = (req.device, req.deadline);
        let operands = Arc::clone(&req.inputs);
        let forward = self.submit(req);
        let mut parts = Vec::with_capacity(gp.parts.len());
        for part in &gp.parts {
            let inputs = mdh_ad::part_inputs(part, &cot, &operands);
            let mut sub = Request::new(part.program.clone(), device, inputs);
            sub.deadline = deadline;
            parts.push((part.wrt, self.submit(sub)));
        }
        Ok(GradHandle {
            forward,
            parts,
            accs,
        })
    }

    /// Snapshot of the counters and latency histograms: the runtime's own
    /// plus what the plan cache, the device pool, the memory pool and the
    /// fast-kernel registry count themselves.
    pub fn stats(&self) -> RuntimeStats {
        let mut s = lock(&self.shared.counters).clone();
        {
            let plans = lock(&self.shared.plans);
            s.plan_hits = plans.hits();
            s.plan_misses = plans.misses();
            s.plan_evictions = plans.evictions();
            s.plan_swaps = plans.swaps();
            s.plans_resident = plans.len();
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
        s
    }

    /// The CPU executor whose pool every execution in this runtime
    /// shares (see [`Runtime::new`]).
    pub fn executor(&self) -> &CpuExecutor {
        &self.shared.exec
    }

    /// Handle to the device-resident buffer pool, when one is active
    /// (`devices > 1` and `mem_budget_bytes > 0`).
    pub fn mem_pool(&self) -> Option<&Arc<MemPool>> {
        self.shared.mem.as_ref()
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

    /// Record a pipelined (`PIPE`) connection opened against this
    /// runtime (server layer).
    pub fn note_pipelined_connection(&self) {
        lock(&self.shared.counters).pipelined_connections += 1;
    }

    /// Record one frame served through a pipelined connection (server
    /// layer; counted on the runtime the frame was routed to).
    pub fn note_pipelined_frame(&self) {
        lock(&self.shared.counters).pipelined_frames += 1;
    }

    /// Worker threads still alive. Equals `config.workers` unless a panic
    /// escaped isolation (it must not — see the overload tests).
    pub fn live_workers(&self) -> usize {
        self.workers.iter().filter(|w| !w.is_finished()).count()
    }

    /// Block until the request queue is drained and no worker is mid-batch.
    /// (Background tuning may still be running; see [`Runtime::wait_for_tunes`].)
    pub fn wait_idle(&self) {
        loop {
            {
                let st = lock(&self.shared.state);
                if st.queued == 0 && st.active == 0 {
                    return;
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Block until no background tune search is queued or running, or the
    /// timeout elapses. Returns `true` when quiescent.
    pub fn wait_for_tunes(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if lock(&self.shared.tunes_in_flight).is_empty() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Serve everything queued, stop the workers and the tuner, and join
    /// them. New submissions are rejected with `err draining` from the
    /// moment this is called. Called automatically on drop.
    pub fn shutdown(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            if st.shutdown {
                return;
            }
            st.shutdown = true;
        }
        self.shared.cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // closing the channel ends the tuner loop once drained
        *lock(&self.shared.tune_tx) = None;
        if let Some(t) = self.tuner.take() {
            let _ = t.join();
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

/// Weight of a tenant under the DRR scheduler (unlisted tenants weigh 1).
fn tenant_weight(config: &RuntimeConfig, tenant: &str) -> u64 {
    config
        .tenant_weights
        .iter()
        .find(|(t, _)| t == tenant)
        .map(|(_, w)| (*w).max(1) as u64)
        .unwrap_or(1)
}

/// The pool's device labels (`gpu0`, `cpu1`, ...), in pool order.
fn device_labels(dist: &DistExecutor) -> impl Iterator<Item = String> + '_ {
    let devices = dist.pool().devices.iter().enumerate();
    devices.map(|(i, dev)| dev.label(i))
}

/// Count `n` dispatches for `tenant`. Tenant names come from clients, so
/// only the first [`MAX_TRACKED_TENANTS`] named ones (and the default
/// tenant) get an entry of their own; the rest add up under
/// [`TENANT_OVERFLOW`] and the map stays bounded.
fn note_tenant_dispatch(c: &mut RuntimeStats, tenant: &str, n: u64) {
    let counts = &mut c.tenant_dispatches;
    let own_entry = |t: &str| t != DEFAULT_TENANT && t != TENANT_OVERFLOW;
    let tracked = !own_entry(tenant)
        || counts.iter().any(|(t, _)| t == tenant)
        || counts.iter().filter(|(t, _)| own_entry(t)).count() < MAX_TRACKED_TENANTS;
    add_label(counts, if tracked { tenant } else { TENANT_OVERFLOW }, n);
}

/// One deficit-round-robin scheduling decision, under the state lock.
///
/// Visits tenants in ring order: each visited tenant first has its
/// expired jobs diverted (answered without executing), then — if live
/// work remains — earns `DRR_QUANTUM × weight` deficit and dispatches
/// one batch anchored on its head job's [`PlanKey`], coalescing same-key
/// followers up to `min(deficit, max_batch)`. A drained tenant leaves
/// the ring (and banks nothing); one with work left rotates to the back,
/// so a flooding tenant cannot lock out the ring. Returns the batch, the
/// diverted jobs, and the dispatching tenant's name.
fn drr_pop(st: &mut QueueState, config: &RuntimeConfig) -> (Vec<Job>, Vec<Job>, String) {
    let now = Instant::now();
    let mut lapsed: Vec<Job> = Vec::new();
    while let Some(tenant) = st.ring.pop_front() {
        let Some(tq) = st.tenants.get_mut(&tenant) else {
            continue;
        };
        // divert expired jobs first — they must not consume deficit
        let mut live = VecDeque::with_capacity(tq.jobs.len());
        while let Some(j) = tq.jobs.pop_front() {
            if j.expired(now) {
                lapsed.push(j);
            } else {
                live.push_back(j);
            }
        }
        tq.jobs = live;
        if tq.jobs.is_empty() {
            // all expired; accounted for on whichever return path fires
            st.tenants.remove(&tenant);
            continue;
        }
        let weight = tenant_weight(config, &tenant);
        let quantum = DRR_QUANTUM * weight;
        tq.deficit = (tq.deficit + quantum).min(quantum * DRR_MAX_BANKED_ROUNDS);
        let cap = (tq.deficit as usize).min(config.max_batch.max(1)).max(1);
        let anchor = tq.jobs[0].key.clone();
        let mut batch: Vec<Job> = Vec::new();
        let mut rest = VecDeque::with_capacity(tq.jobs.len());
        while let Some(j) = tq.jobs.pop_front() {
            if batch.len() < cap && j.key == anchor {
                batch.push(j);
            } else {
                rest.push_back(j);
            }
        }
        tq.jobs = rest;
        tq.deficit -= batch.len() as u64;
        if tq.jobs.is_empty() {
            st.tenants.remove(&tenant);
        } else {
            st.ring.push_back(tenant.clone());
        }
        st.queued -= batch.len() + lapsed.len();
        return (batch, lapsed, tenant);
    }
    // ring exhausted: only expired (or no) work anywhere
    st.queued -= lapsed.len();
    (Vec::new(), lapsed, String::new())
}

fn worker_loop(shared: &Shared) {
    loop {
        let (batch, lapsed, tenant) = {
            let mut st = lock(&shared.state);
            loop {
                let (batch, lapsed, tenant) = drr_pop(&mut st, &shared.config);
                if !batch.is_empty() || !lapsed.is_empty() {
                    st.active += batch.len();
                    break (batch, lapsed, tenant);
                }
                if st.shutdown {
                    return;
                }
                st = cv_wait(&shared.cv, st);
            }
        };
        answer_deadline_exceeded(shared, lapsed, "expired while queued");
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
        lock(&shared.state).active -= n;
    }
}

/// Answer `jobs` with `deadline exceeded` without executing them.
fn answer_deadline_exceeded(shared: &Shared, jobs: Vec<Job>, why: &str) {
    if jobs.is_empty() {
        return;
    }
    {
        let mut c = lock(&shared.counters);
        c.completed += jobs.len() as u64;
        c.deadline_exceeded += jobs.len() as u64;
    }
    for job in jobs {
        let waited_ms = job.submitted.elapsed().as_secs_f64() * 1e3;
        let _ = job.reply.send(Err(MdhError::DeadlineExceeded(format!(
            "{why} ({waited_ms:.1} ms after submit); not executed"
        ))));
    }
}

/// Fail `jobs` fast because their key's breaker is open.
fn fail_fast(shared: &Shared, jobs: Vec<Job>) {
    if jobs.is_empty() {
        return;
    }
    {
        let mut c = lock(&shared.counters);
        c.completed += jobs.len() as u64;
        c.breaker_fast_fails += jobs.len() as u64;
    }
    for job in jobs {
        let _ = job.reply.send(Err(MdhError::BreakerOpen(format!(
            "circuit breaker open for this plan key after {} consecutive failures; \
             retry after the cooldown",
            shared.config.breaker_threshold.max(1)
        ))));
    }
}

/// Consult the breaker for `key`. Called once per batch.
fn breaker_admit(shared: &Shared, key: &PlanKey, now: Instant) -> Admit {
    let mut breakers = lock(&shared.breakers);
    let b = breakers.entry(key.clone()).or_default();
    match b.state {
        BreakerState::Closed => Admit::Execute,
        BreakerState::Open { until } if now < until => Admit::FastFail,
        BreakerState::Open { .. } => {
            b.state = BreakerState::HalfOpen;
            Admit::Probe
        }
        BreakerState::HalfOpen => Admit::FastFail,
    }
}

/// Record one request outcome for `key`'s breaker. Returns `true` when
/// this outcome tripped the breaker open (the caller fails the rest of
/// its batch fast).
fn breaker_record(shared: &Shared, key: &PlanKey, ok: bool, now: Instant) -> bool {
    let mut breakers = lock(&shared.breakers);
    let b = breakers.entry(key.clone()).or_default();
    if ok {
        // success closes a half-open breaker and resets the failure run
        b.consecutive = 0;
        b.state = BreakerState::Closed;
        return false;
    }
    b.consecutive += 1;
    let trip = match b.state {
        // a failed half-open probe re-opens immediately
        BreakerState::HalfOpen => true,
        BreakerState::Closed => b.consecutive >= shared.config.breaker_threshold.max(1),
        BreakerState::Open { .. } => false,
    };
    if trip {
        b.state = BreakerState::Open {
            until: now + shared.config.breaker_cooldown,
        };
        drop(breakers);
        lock(&shared.counters).breaker_trips += 1;
    }
    trip
}

/// Look up / build the plan for `key`, then execute every request in the
/// batch against it.
fn serve_batch(shared: &Shared, batch: Vec<Job>) {
    let key = batch[0].key.clone();

    // ---- deadline check at the drain → execute boundary ---------------
    let now = Instant::now();
    let (lapsed, mut live): (Vec<Job>, Vec<Job>) = batch.into_iter().partition(|j| j.expired(now));
    answer_deadline_exceeded(shared, lapsed, "expired before execution");
    if live.is_empty() {
        return;
    }

    // ---- circuit breaker ----------------------------------------------
    match breaker_admit(shared, &key, now) {
        Admit::Execute => {}
        Admit::Probe => {
            // exactly one request probes the half-open breaker; the rest
            // of the batch fails fast rather than pile onto a key that is
            // most likely still broken
            let rest = live.split_off(1);
            fail_fast(shared, rest);
        }
        Admit::FastFail => {
            fail_fast(shared, live);
            return;
        }
    }
    let n = live.len();

    // ---- plan lookup (once per batch; followers count as hits) --------
    let looked_up = lock(&shared.plans).get(&key);
    let (plan, first_was_hit) = match looked_up {
        Some(p) => (Ok(p), true),
        None => (build_and_insert(shared, &key, &live[0].req), false),
    };
    let plan = match plan {
        Ok(p) => p,
        Err(e) => {
            // a plan that cannot be built is a failure of the key, too:
            // enough consecutive ones trip the breaker
            for _ in 0..n {
                breaker_record(shared, &key, false, Instant::now());
            }
            {
                let mut c = lock(&shared.counters);
                c.completed += n as u64;
                c.batches += 1;
                c.batched_requests += n as u64;
                c.max_batch = c.max_batch.max(n);
            }
            for job in live {
                let _ = job.reply.send(Err(clone_err(&e)));
            }
            return;
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

    // a cold heuristic miss kicks off a background search
    if !first_was_hit && plan.source == PlanSource::Heuristic && shared.config.tune.enabled {
        maybe_queue_tune(shared, &key, &live[0].req);
    }

    // ---- execute ------------------------------------------------------
    {
        let mut c = lock(&shared.counters);
        c.batches += 1;
        c.batched_requests += n as u64;
        c.max_batch = c.max_batch.max(n);
    }
    let mut tripped = false;
    let mut remaining: Vec<Job> = Vec::new();
    for (i, job) in live.into_iter().enumerate() {
        if tripped {
            // the breaker tripped earlier in this very batch: stop
            // feeding it the same key
            remaining.push(job);
            continue;
        }
        let now = Instant::now();
        if job.expired(now) {
            // earlier batch members took long enough to lapse this one
            answer_deadline_exceeded(shared, vec![job], "expired mid-batch");
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
        let ok = result.is_ok();
        tripped = breaker_record(shared, &key, ok, Instant::now());
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
    }
    fail_fast(shared, remaining);
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

fn build_and_insert(shared: &Shared, key: &PlanKey, req: &Request) -> Result<Arc<CompiledPlan>> {
    req.prog.validate()?;
    // warm start from the persistent tuning cache if a prior process
    // (or `mdhc tune`) already solved this problem
    let compiled = match plan_from_tuning_cache(&req.prog, req.device, &shared.tuning) {
        Some(c) => c,
        None => {
            let units = match req.device {
                DeviceKind::Cpu => shared.exec.threads,
                DeviceKind::Gpu => shared.sim.params.num_sms * 32,
            };
            let schedule = mdh_default_schedule(&req.prog, req.device, units);
            let plan = ExecutionPlan::build(&req.prog, &schedule)?;
            CompiledPlan {
                prog: req.prog.clone(),
                schedule,
                plan,
                source: PlanSource::Heuristic,
                cost: None,
                epoch: 0,
            }
        }
    };
    Ok(lock(&shared.plans).insert(key.clone(), compiled))
}

fn execute_one(
    shared: &Shared,
    plan: &CompiledPlan,
    job: &Job,
    batch_size: usize,
    cache_hit: bool,
) -> Result<Response> {
    if shared.config.panic_marker.as_deref() == Some(job.req.prog.name.as_str()) {
        panic!(
            "injected execution panic for program '{}' (RuntimeConfig::panic_marker)",
            job.req.prog.name
        );
    }
    let (outputs, exec_ms, transfer_ms) = match (job.key.device, &shared.dist) {
        (DeviceKind::Cpu, _) => {
            let t0 = Instant::now();
            let out = shared.exec.run_planned(
                &job.req.prog,
                &plan.schedule,
                &plan.plan,
                &job.req.inputs,
            )?;
            (out, t0.elapsed().as_secs_f64() * 1e3, 0.0)
        }
        // `devices > 1`: the cached plan keyed the lookup (and drives
        // background tuning), but execution goes through the pool, which
        // re-partitions and schedules each shard on its own device
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
        (DeviceKind::Gpu, None) => {
            // a key's operands are device-resident exactly as long as its
            // plan is cached: the launch that builds the plan (again,
            // after an eviction) uploads them, every hit pays the
            // copy-out alone — no residency state to grow per key
            let link = LinkParams::pcie4_x16();
            let transfer_ms = launch_cost_ms(&link, &job.req.prog, &job.req.inputs, cache_hit);
            let (out, report) = shared
                .sim
                .run(&job.req.prog, &plan.schedule, &job.req.inputs)?;
            (out, report.time_ms, transfer_ms)
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

fn maybe_queue_tune(shared: &Shared, key: &PlanKey, req: &Request) {
    {
        let mut in_flight = lock(&shared.tunes_in_flight);
        if !in_flight.insert(key.clone()) {
            return; // a search for this key is already queued/running
        }
    }
    let sent = {
        let tx = lock(&shared.tune_tx);
        match tx.as_ref() {
            Some(tx) => tx
                .send(TuneJob {
                    key: key.clone(),
                    prog: req.prog.clone(),
                    inputs: Arc::clone(&req.inputs),
                })
                .is_ok(),
            None => false,
        }
    };
    if !sent {
        lock(&shared.tunes_in_flight).remove(key);
    }
}

fn tuner_loop(shared: &Shared, rx: mpsc::Receiver<TuneJob>) {
    while let Ok(job) = rx.recv() {
        let key = job.key.clone();
        let _swapped = run_tune_job(
            job,
            &shared.config.tune,
            &shared.exec,
            &shared.sim,
            &shared.plans,
            &shared.tuning,
            shared.config.tuning_cache_path.as_ref(),
        );
        lock(&shared.counters).tunes_done += 1;
        lock(&shared.tunes_in_flight).remove(&key);
    }
}

/// `MdhError` has no `Clone`; reconstruct an equivalent for fan-out to a
/// whole failed batch. Load-shedding classifications survive the trip so
/// clients still see the retryable error grammar.
fn clone_err(e: &MdhError) -> MdhError {
    match e {
        MdhError::Overloaded(m) => MdhError::Overloaded(m.clone()),
        MdhError::DeadlineExceeded(m) => MdhError::DeadlineExceeded(m.clone()),
        MdhError::WorkerPanic(m) => MdhError::WorkerPanic(m.clone()),
        MdhError::BreakerOpen(m) => MdhError::BreakerOpen(m.clone()),
        MdhError::Draining(m) => MdhError::Draining(m.clone()),
        other => MdhError::Validation(other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{compile_any, deterministic_inputs};
    use mdh_directive::DirectiveEnv;

    const DOT: &str = "\
@mdh( out( res = Buffer[fp32] ),
      inp( x = Buffer[fp32], y = Buffer[fp32] ),
      combine_ops( pw(add) ) )
def dot(res, x, y):
    for k in range(N):
        res[0] = x[k] * y[k]
";

    fn dot() -> (DslProgram, Vec<Buffer>) {
        let prog = compile_any(DOT, &DirectiveEnv::new().size("N", 64)).unwrap();
        let inputs = deterministic_inputs(&prog).unwrap();
        (prog, inputs)
    }

    #[test]
    fn request_new_wraps_a_vec_and_shares_a_handle() {
        let (prog, inputs) = dot();
        let data = inputs[0].as_f32().unwrap().as_ptr();
        // a Vec is moved into the handle: same buffers, nobody else holds it
        let req = Request::new(prog.clone(), DeviceKind::Cpu, inputs);
        assert_eq!(req.inputs[0].as_f32().unwrap().as_ptr(), data);
        assert_eq!(Arc::strong_count(&req.inputs), 1);
        // a handle is shared, not copied
        let again = Request::new(prog, DeviceKind::Cpu, Arc::clone(&req.inputs));
        assert!(Arc::ptr_eq(&again.inputs, &req.inputs));
        assert!(Arc::ptr_eq(&again.clone().inputs, &req.inputs));
    }

    /// A tenant with work left rotates to the back of the ring, so a
    /// flooder's backlog never keeps another tenant from the next dispatch.
    #[test]
    fn drr_pop_rotates_a_backlogged_tenant_behind_the_others() {
        let (prog, inputs) = dot();
        let operands: Operands = Arc::new(inputs);
        let mut st = QueueState::default();
        for (tenant, jobs) in [("noisy", 3 * DRR_QUANTUM), ("polite", 1)] {
            for _ in 0..jobs {
                st.tenants
                    .entry(tenant.into())
                    .or_default()
                    .jobs
                    .push_back(Job {
                        key: PlanKey::of(&prog, DeviceKind::Cpu),
                        req: Request::new(prog.clone(), DeviceKind::Cpu, Arc::clone(&operands)),
                        reply: mpsc::channel().0,
                        submitted: Instant::now(),
                    });
                st.queued += 1;
            }
            st.ring.push_back(tenant.into());
        }
        let config = RuntimeConfig::default();
        let order: Vec<_> = std::iter::from_fn(|| {
            let (batch, _, tenant) = drr_pop(&mut st, &config);
            (!batch.is_empty()).then_some((tenant, batch.len() as u64))
        })
        .collect();
        let turn = |tenant: &str, n| (tenant.to_string(), n);
        assert_eq!(
            order,
            [
                turn("noisy", DRR_QUANTUM),
                turn("polite", 1),
                turn("noisy", DRR_QUANTUM),
                turn("noisy", DRR_QUANTUM),
            ]
        );
        assert_eq!(st.queued, 0);
    }

    /// Tenant names come from clients: ten thousand of them must not grow
    /// the per-tenant counters (and so every stats snapshot) without bound.
    #[test]
    fn tenant_dispatch_counters_stay_bounded_under_distinct_names() {
        let (prog, inputs) = dot();
        let operands: Operands = Arc::new(inputs);
        let mut rt = Runtime::new(RuntimeConfig {
            tune: TunePolicy {
                enabled: false,
                ..TunePolicy::default()
            },
            max_queue_depth: 20_000,
            ..RuntimeConfig::default()
        })
        .unwrap();
        let handles: Vec<_> = (0..10_000)
            .map(|i| {
                let mut req = Request::new(prog.clone(), DeviceKind::Cpu, Arc::clone(&operands));
                // every fifth request carries no tenant
                req.tenant = (i % 5 != 0).then(|| format!("client-{i}"));
                rt.submit(req)
            })
            .collect();
        handles.into_iter().for_each(|h| drop(h.wait().unwrap()));
        rt.shutdown();
        let counts = rt.stats().tenant_dispatches;
        assert_eq!(counts.len(), MAX_TRACKED_TENANTS + 2, "{counts:?}");
        assert_eq!(counts.iter().map(|(_, n)| n).sum::<u64>(), 10_000);
        let of = |t: &str| counts.iter().find(|(l, _)| l == t).map(|(_, n)| *n);
        assert_eq!(of(DEFAULT_TENANT), Some(2_000));
        assert_eq!(
            of(TENANT_OVERFLOW),
            Some(8_000 - MAX_TRACKED_TENANTS as u64)
        );
    }

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
        let mut rt = Runtime::new(RuntimeConfig {
            tune: TunePolicy {
                enabled: false,
                ..TunePolicy::default()
            },
            ..RuntimeConfig::default()
        })
        .unwrap();
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

    #[test]
    fn submit_grad_forward_launch_shares_the_callers_operands() {
        let (prog, inputs) = dot();
        let mut rt = Runtime::new(RuntimeConfig {
            workers: 2,
            exec_threads: 2,
            // a cold miss would hand the tuner a third holder of the handle
            tune: TunePolicy {
                enabled: false,
                ..TunePolicy::default()
            },
            ..RuntimeConfig::default()
        })
        .unwrap();
        let operands: Operands = Arc::new(inputs);
        let req = Request::new(prog, DeviceKind::Cpu, Arc::clone(&operands));
        let handle = {
            // every job looks its plan up before it executes, so while this
            // guard is held none can finish and drop its request
            let _no_lookups = lock(&rt.shared.plans);
            let handle = rt.submit_grad(req, None, None).unwrap();
            // ours and the forward job's; the two adjoint parts carry
            // vectors of their own (`mdh_ad::part_inputs`)
            assert_eq!(Arc::strong_count(&operands), 2);
            handle
        };
        let resp = handle.wait().unwrap();
        assert_eq!(resp.parts, 2);
        rt.shutdown();
        assert_eq!(Arc::strong_count(&operands), 1);
    }
}
