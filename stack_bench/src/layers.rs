//! Per-layer numbers measured from outside, for the traced run only.
//!
//! Each layer's public functions are called in this process in the order
//! the server calls them on a request (`compile_any` ->
//! `deterministic_inputs` -> `clone` -> `PlanKey::of` ->
//! `mdh_default_schedule` -> `ExecutionPlan::build` -> `PlanCache` ->
//! `CpuExecutor::run_planned` / `DistExecutor::run` -> `checksum`) on one
//! round of the workload's own mix, and timed around the call. Nothing here
//! feeds an end-to-end metric, so a refactor of these interfaces can break
//! the traced run but never the end-to-end numbers.

use crate::harness::{exec_threads, median, sut_config};
use crate::workloads::{env_of, pool_mix, Req, Source, Workload};
use crate::workloads::{JACOBI1D_F90, MATMUL_C, MATVEC_DSL, MATVEC_PY};
use mdh_backend::cpu::CpuExecutor;
use mdh_core::buffer::Buffer;
use mdh_core::dsl::DslProgram;
use mdh_directive::DirectiveEnv;
use mdh_dist::{DevicePool, DistExecutor, FaultPlan, HealPolicy, RetryPolicy};
use mdh_lowering::{mdh_default_schedule, DeviceKind, ExecutionPlan, PartitionPlan};
use mdh_mem::MemPool;
use mdh_runtime::server::{checksum, compile_any, deterministic_inputs};
use mdh_runtime::{CompiledPlan, PlanCache, PlanKey, PlanSource, Request, Runtime};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The one fault schedule the chaos replay runs under.
pub const CHAOS_SPEC: &str = "crash=1@2x3,hang=2@9,transient=3@5x2";

/// Median seconds of `reps` calls.
fn timed<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// One request of the replayed round.
pub struct Built {
    pub req: Req,
    pub prog: DslProgram,
    pub inputs: Vec<Buffer>,
}

/// What the server does per request around the runtime, measured on one
/// built request. Times in seconds.
#[derive(Debug, Clone, Default)]
pub struct EdgeCost {
    pub compile: f64,
    pub gen_inputs: f64,
    pub clone_inputs: f64,
    pub checksum: f64,
    pub key: f64,
    pub schedule: f64,
    pub plan_build: f64,
    pub partition: f64,
    pub lookup: f64,
    pub kernel: f64,
    pub flops: f64,
    pub bytes: f64,
}

/// Flops and compulsory bytes of one launch, computed from sizes: one op
/// per scalar-function operation per point, plus one combine per point if
/// any dimension reduces; bytes are every input and output once.
fn computed_work(prog: &DslProgram, inputs: &[Buffer], outs: &[Buffer]) -> (f64, f64) {
    let per_point =
        prog.md_hom.sf.flops_estimate() + usize::from(!prog.md_hom.reduction_dims().is_empty());
    let flops = prog.md_hom.points() as f64 * per_point.max(1) as f64;
    let bytes: usize = inputs.iter().chain(outs).map(|b| b.size_bytes()).sum();
    (flops, bytes as f64)
}

fn edge_cost(b: &Built, exec: &CpuExecutor) -> Result<EdgeCost, String> {
    let e = |e: mdh_core::error::MdhError| format!("{}: {e}", b.req.tag);
    let mut c = EdgeCost::default();
    if let Source::Text(src) = b.req.source {
        let env = env_of(&b.req.bindings);
        c.compile = timed(5, || compile_any(src, &env));
        c.gen_inputs = timed(1, || deterministic_inputs(&b.prog));
    }
    c.clone_inputs = timed(3, || b.inputs.clone());
    c.key = timed(25, || PlanKey::of(&b.prog, DeviceKind::Cpu));
    c.schedule = timed(9, || {
        mdh_default_schedule(&b.prog, DeviceKind::Cpu, exec.threads)
    });
    let schedule = mdh_default_schedule(&b.prog, DeviceKind::Cpu, exec.threads);
    c.plan_build = timed(9, || ExecutionPlan::build(&b.prog, &schedule));
    c.partition = timed(9, || PartitionPlan::build(&b.prog, 4));
    let plan = ExecutionPlan::build(&b.prog, &schedule).map_err(e)?;

    let key = PlanKey::of(&b.prog, DeviceKind::Cpu);
    let mut cache = PlanCache::new(64);
    cache.insert(
        key.clone(),
        compiled(&b.prog, DeviceKind::Cpu, exec.threads)?,
    );
    c.lookup = timed(25, || cache.get(&key));

    // the kernel on a pinned heuristic plan: one warm run, then up to
    // three timed ones within half a second
    let outs = exec
        .run_planned(&b.prog, &schedule, &plan, &b.inputs)
        .map_err(e)?;
    let mut runs = Vec::new();
    let budget = Instant::now();
    while runs.len() < 3 && (runs.is_empty() || budget.elapsed().as_secs_f64() < 0.5) {
        runs.push(timed(1, || {
            exec.run_planned(&b.prog, &schedule, &plan, &b.inputs)
        }));
    }
    c.kernel = median(&runs);
    c.checksum = timed(3, || outs.iter().map(checksum).sum::<f64>());
    (c.flops, c.bytes) = computed_work(&b.prog, &b.inputs, &outs);
    Ok(c)
}

fn compiled(prog: &DslProgram, device: DeviceKind, units: usize) -> Result<CompiledPlan, String> {
    let schedule = mdh_default_schedule(prog, device, units);
    let plan = ExecutionPlan::build(prog, &schedule).map_err(|e| e.to_string())?;
    Ok(CompiledPlan {
        prog: prog.clone(),
        schedule,
        plan,
        source: PlanSource::Heuristic,
        cost: None,
        epoch: 0,
    })
}

/// `PlanCache::insert` into a full cache: 128 distinct toy plans through a
/// cache of 64, timing only the evicting half. Seconds per insert.
fn insert_evict_cost() -> Result<f64, String> {
    let plans: Vec<(PlanKey, CompiledPlan)> = (16..144)
        .map(|n| {
            let env = DirectiveEnv::new().size("I", n).size("K", n);
            let prog = compile_any(MATVEC_PY, &env).map_err(|e| e.to_string())?;
            Ok((
                PlanKey::of(&prog, DeviceKind::Cpu),
                compiled(&prog, DeviceKind::Cpu, 2)?,
            ))
        })
        .collect::<Result<_, String>>()?;
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            let mut cache = PlanCache::new(64);
            let mut fresh = plans.clone();
            let evicting = fresh.split_off(64);
            for (k, p) in fresh {
                cache.insert(k, p);
            }
            let n = evicting.len() as f64;
            let t = Instant::now();
            for (k, p) in evicting {
                black_box(cache.insert(k, p));
            }
            t.elapsed().as_secs_f64() / n
        })
        .collect();
    Ok(median(&passes))
}

/// `compile_any` per front end on the four toy sources. Seconds.
fn frontend_costs() -> [(&'static str, f64); 4] {
    let case = |src: &'static str, b: &[(&str, i64)]| {
        let env = env_of(b);
        timed(25, || compile_any(src, &env))
    };
    [
        ("python", case(MATVEC_PY, &[("I", 64), ("K", 64)])),
        ("c", case(MATMUL_C, &[("I", 32), ("J", 32), ("K", 32)])),
        ("fortran", case(JACOBI1D_F90, &[("N", 4096)])),
        ("dsl", case(MATVEC_DSL, &[("I", 96), ("K", 48)])),
    ]
}

// ---------------------------------------------------------------------------
// host roofline
// ---------------------------------------------------------------------------

/// Largest cache any level reports for cpu0, bytes.
fn llc_bytes() -> usize {
    (0..8)
        .filter_map(|i| {
            let s = std::fs::read_to_string(format!(
                "/sys/devices/system/cpu/cpu0/cache/index{i}/size"
            ))
            .ok()?;
            let s = s.trim();
            let (num, mult) = match s.as_bytes().last()? {
                b'K' => (&s[..s.len() - 1], 1 << 10),
                b'M' => (&s[..s.len() - 1], 1 << 20),
                _ => (s, 1),
            };
            Some(num.parse::<usize>().ok()? * mult)
        })
        .max()
        .unwrap_or(32 << 20)
}

fn triad_pass(a: &mut [f64], b: &[f64], c: &[f64]) {
    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
        *a = *b + 3.0 * *c;
    }
}

/// The three STREAM arrays. Each should be at least four times the
/// last-level cache; this host class reports a 260 MiB shared L3, so the
/// size is capped at 128 MiB per array (384 MiB streamed per pass, still
/// past the cache) and both sizes are printed.
struct Triad {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
}

impl Triad {
    fn new() -> Triad {
        let n = (4 * llc_bytes() / 8).clamp(1 << 22, 1 << 24);
        Triad {
            a: vec![0.0; n],
            b: vec![1.5; n],
            c: vec![0.25; n],
        }
    }

    /// GB/s (24 bytes per element), best of three passes over `threads`
    /// equal chunks.
    fn gbps(&mut self, threads: usize) -> f64 {
        let n = self.a.len();
        let chunk = n.div_ceil(threads);
        let best = (0..3)
            .map(|_| {
                let t = Instant::now();
                std::thread::scope(|s| {
                    let parts = (self.a.chunks_mut(chunk))
                        .zip(self.b.chunks(chunk))
                        .zip(self.c.chunks(chunk));
                    for ((a, b), c) in parts {
                        s.spawn(move || triad_pass(a, b, c));
                    }
                });
                t.elapsed().as_secs_f64()
            })
            .fold(f64::MAX, f64::min);
        black_box(&self.a);
        24.0 * n as f64 / best / 1e9
    }
}

/// Peak fused-multiply-add GFLOP/s: 128 independent f32 accumulators in
/// one flat array, on `threads` threads at once. Built like the product
/// (`-C target-cpu=native`), so `mul_add` is one instruction and the loop
/// gets the vector width the kernels get.
fn fma_gflops(threads: usize) -> f64 {
    const ACCS: usize = 128;
    const ITERS: usize = 20_000_000;
    fn spin() -> f32 {
        let (x, y) = (black_box(0.999_999f32), black_box(1e-7f32));
        let mut acc = [0.5f32; ACCS];
        for _ in 0..ITERS {
            for a in acc.iter_mut() {
                *a = a.mul_add(x, y);
            }
        }
        acc.iter().sum()
    }
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| black_box(spin()));
        }
    });
    let flops = 2.0 * (ACCS * ITERS * threads) as f64;
    flops / t.elapsed().as_secs_f64() / 1e9
}

// ---------------------------------------------------------------------------
// the suite
// ---------------------------------------------------------------------------

/// One row of the kernel table: a request tag with its measured time and
/// computed work.
pub struct KernelRow {
    pub tag: String,
    pub ms: f64,
    pub gflops: f64,
    pub gbps: f64,
    pub roofline_frac: f64,
}

pub struct LayerReport {
    pub metrics: BTreeMap<String, f64>,
    /// Per-request cost of the replayed round, by tag.
    pub edge: BTreeMap<String, EdgeCost>,
    pub kernels: Vec<KernelRow>,
    pub notes: Vec<String>,
    /// False when a replay produced a wrong result.
    pub correct: bool,
}

/// The round to replay: the whole mix, or an even sample of a long one.
fn replay_round(wl: &Workload) -> Result<Vec<Built>, String> {
    let step = wl.mix.len().div_ceil(16).max(1);
    wl.mix
        .iter()
        .step_by(step)
        .map(|req| {
            let (prog, inputs) = req.build()?;
            Ok(Built {
                req: req.clone(),
                prog,
                inputs,
            })
        })
        .collect()
}

pub fn measure(wl: &Workload) -> Result<LayerReport, String> {
    let mut m = BTreeMap::new();
    let mut notes = Vec::new();
    let mut correct = true;
    let threads = exec_threads();
    let exec = CpuExecutor::new(threads).map_err(|e| e.to_string())?;

    // ---- host roofline ------------------------------------------------
    let mut triad = Triad::new();
    let array_bytes = triad.a.len() * 8;
    let (triad_1t, triad_mt) = (triad.gbps(1), triad.gbps(threads));
    drop(triad);
    let (fma_1t, fma_mt) = (fma_gflops(1), fma_gflops(threads));
    notes.push(format!(
        "host roofline: triad arrays {} MiB each, last-level cache {} MiB, {threads} threads",
        array_bytes >> 20,
        llc_bytes() >> 20
    ));
    m.insert("host.triad_gbps_1t".into(), triad_1t);
    m.insert("host.triad_gbps_mt".into(), triad_mt);
    m.insert("host.fma_gflops_1t".into(), fma_1t);
    m.insert("host.fma_gflops_mt".into(), fma_mt);

    // ---- this workload's mix through every layer ----------------------
    let round = replay_round(wl)?;
    let mut edge = BTreeMap::new();
    let mut kernels = Vec::new();
    let (mut bound_s, mut kernel_s, mut flops, mut bytes) = (0.0, 0.0, 0.0, 0.0);
    for b in &round {
        let c = edge_cost(b, &exec)?;
        // a kernel cannot beat the slower of its compute and memory bounds
        let bound = (c.flops / (fma_mt * 1e9)).max(c.bytes / (triad_mt * 1e9));
        kernels.push(KernelRow {
            tag: b.req.tag.clone(),
            ms: c.kernel * 1e3,
            gflops: c.flops / c.kernel / 1e9,
            gbps: c.bytes / c.kernel / 1e9,
            roofline_frac: bound / c.kernel,
        });
        bound_s += bound;
        kernel_s += c.kernel;
        flops += c.flops;
        bytes += c.bytes;
        edge.insert(b.req.tag.clone(), c);
    }
    let costs: Vec<&EdgeCost> = edge.values().collect();
    let sum_ms = |f: fn(&EdgeCost) -> f64| costs.iter().map(|c| f(c)).sum::<f64>() * 1e3;
    let mean_us =
        |f: fn(&EdgeCost) -> f64| mean(&costs.iter().map(|c| f(c)).collect::<Vec<_>>()) * 1e6;
    m.insert("server.gen_inputs_ms".into(), sum_ms(|c| c.gen_inputs));
    m.insert("server.clone_inputs_ms".into(), sum_ms(|c| c.clone_inputs));
    m.insert("server.checksum_ms".into(), sum_ms(|c| c.checksum));
    m.insert("lowering.schedule_us".into(), mean_us(|c| c.schedule));
    m.insert("lowering.plan_build_us".into(), mean_us(|c| c.plan_build));
    m.insert("lowering.partition_us".into(), mean_us(|c| c.partition));
    m.insert("plan_cache.key_us".into(), mean_us(|c| c.key));
    m.insert("plan_cache.lookup_us".into(), mean_us(|c| c.lookup));
    m.insert(
        "plan_cache.insert_evict_us".into(),
        insert_evict_cost()? * 1e6,
    );
    m.insert("kernel.gflops".into(), flops / kernel_s / 1e9);
    m.insert("kernel.gbps".into(), bytes / kernel_s / 1e9);
    m.insert("kernel.roofline_frac".into(), bound_s / kernel_s);
    for (name, s) in frontend_costs() {
        m.insert(format!("frontend.compile_us.{name}"), s * 1e6);
    }

    // ---- the runtime's library entry ----------------------------------
    let rt = Runtime::new(sut_config(1)).map_err(|e| e.to_string())?;
    let toy = pool_mix().pop().expect("matvec_64 closes the pool mix");
    let (prog, inputs) = toy.build()?;
    let overheads: Vec<f64> = (0..2000)
        .map(|_| {
            let req = Request::new(prog.clone(), DeviceKind::Cpu, inputs.clone());
            let t = Instant::now();
            let resp = rt.submit(req).wait();
            let wall_us = t.elapsed().as_secs_f64() * 1e6;
            resp.map(|r| wall_us - r.exec_ms * 1e3)
        })
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    m.insert("runtime.submit_overhead_us".into(), median(&overheads));
    m.insert(
        "runtime.stats_snapshot_us".into(),
        timed(200, || rt.stats().to_json()) * 1e6,
    );

    // ---- AD round trip ------------------------------------------------
    let env = DirectiveEnv::new().size("I", 1024).size("K", 1024);
    let gprog = compile_any(MATVEC_PY, &env).map_err(|e| e.to_string())?;
    let ginputs = deterministic_inputs(&gprog).map_err(|e| e.to_string())?;
    let mut parts = 0;
    let mut trips = Vec::new();
    for _ in 0..5 {
        let req = Request::new(gprog.clone(), DeviceKind::Cpu, ginputs.clone());
        let t = Instant::now();
        let g = rt
            .submit_grad(req, None, None)
            .and_then(|h| h.wait())
            .map_err(|e| e.to_string())?;
        trips.push(t.elapsed().as_secs_f64() * 1e3);
        parts = g.parts;
    }
    m.insert("ad.parts".into(), parts as f64);
    m.insert("ad.grad_roundtrip_ms".into(), median(&trips));
    drop(rt);

    // ---- the device pool: fault-free, then under the chaos schedule ----
    let pool_round: Vec<(DslProgram, Vec<Buffer>)> = pool_mix()
        .iter()
        .map(|r| r.build())
        .collect::<Result<_, _>>()?;
    let dist_err = |e: mdh_core::error::MdhError| format!("dist replay: {e}");
    let dist = DistExecutor::with_faults_policy_and_pool(
        DevicePool::gpus(4),
        FaultPlan::none(),
        RetryPolicy::default(),
        exec.pool(),
    )
    .map_err(dist_err)?
    .with_mem(Arc::new(MemPool::new(4, sut_config(4).mem_budget_bytes)));
    let (mut host_ms, mut dispatches) = (0.0, 0.0);
    let mut model = [0.0f64; 4];
    let mut clean_sums = Vec::new();
    for (prog, inputs) in &pool_round {
        dist.run(prog, inputs).map_err(dist_err)?;
        let mut walls = Vec::new();
        let mut last = None;
        for _ in 0..3 {
            let t = Instant::now();
            let r = dist.run(prog, inputs).map_err(dist_err)?;
            walls.push(t.elapsed().as_secs_f64() * 1e3);
            last = Some(r);
        }
        let (outs, report) = last.expect("three runs");
        host_ms += median(&walls);
        dispatches += report.per_shard.len() as f64;
        model[0] += report.exec_ms;
        model[1] += report.h2d_ms;
        model[2] += report.combine.total_ms();
        model[3] += report.d2h_ms;
        clean_sums.push(outs.iter().map(checksum).collect::<Vec<_>>());
    }
    m.insert("dist.run_host_ms".into(), host_ms);
    m.insert("dist.device_dispatches".into(), dispatches);
    for (name, v) in ["exec", "h2d", "combine", "d2h"].iter().zip(model) {
        m.insert(format!("dist.model_{name}_ms"), v);
    }

    let chaos = DistExecutor::with_faults_policy_and_pool(
        DevicePool::gpus(4),
        FaultPlan::parse(CHAOS_SPEC)?,
        RetryPolicy::default(),
        exec.pool(),
    )
    .map_err(dist_err)?
    .with_healing(HealPolicy {
        hedge_ms: 0.25,
        probe_every: 2,
        reinstate_after: 2,
    });
    let t = Instant::now();
    for _ in 0..4 {
        for ((prog, inputs), want) in pool_round.iter().zip(&clean_sums) {
            let (outs, _) = chaos.run(prog, inputs).map_err(dist_err)?;
            let got: Vec<f64> = outs.iter().map(checksum).collect();
            if got != *want {
                correct = false;
                notes.push(format!(
                    "chaos replay of {} gave {got:?}, fault-free gave {want:?}",
                    prog.name
                ));
            }
        }
    }
    m.insert(
        "dist.chaos_host_ms".into(),
        t.elapsed().as_secs_f64() * 1e3 / 4.0,
    );
    let faults = chaos.fault_stats();
    m.insert("dist.chaos_retries".into(), faults.retries as f64);
    m.insert("dist.chaos_hedges".into(), faults.hedges as f64);
    m.insert("dist.repartitions".into(), faults.repartitions as f64);
    notes.push(format!(
        "chaos replay: 4 rounds of the pool mix under '{CHAOS_SPEC}', hedge 0.25 ms, probe every 2"
    ));

    Ok(LayerReport {
        metrics: m,
        edge,
        kernels,
        notes,
        correct,
    })
}
