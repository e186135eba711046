//! One benchmark run of one workload: set-up, the timed closed loop, and
//! either the end-to-end metrics (tracing off) or the per-layer metrics
//! (the traced run). End-to-end metrics are never taken from a traced run.

use crate::harness::{
    blocked_rate, cpu_seconds, exec_threads, frames_for, hw_threads, median, peak_rss_mib,
    percentile, Loop, RunLog, Sample, Span, Stop, SutProcess,
};
use crate::json::Json;
use crate::layers::{self, EdgeCost, KernelRow};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::oracle::{expected, Expect};
use crate::workloads::{Sequence, Workload};
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups per untraced run, `setup_s` being their median: at least
/// three, and more while they are cheap, until they add up to
/// `SETUP_BUDGET_S`.
const SETUP_REPS: std::ops::RangeInclusive<usize> = 3..=15;
const SETUP_BUDGET_S: f64 = 1.5;

/// Share of `--seconds` (at most one second) the loop runs before the
/// clock starts: a freshly spawned child on an idle host speeds up over
/// its first second, whatever the code under test does.
const SETTLE_SHARE: f64 = 0.1;

/// Slices the traced run alternates between tracing off and on.
const TRACE_SLICES: usize = 10;

pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Per-request rows of one run, by tag.
pub struct ProgRow {
    pub tag: String,
    pub samples: usize,
    pub latency_p50_ms: f64,
    pub exec_p50_ms: f64,
    /// Median of the reply's `total_ms` (queue + execution).
    pub total_p50_ms: f64,
}

#[derive(Default)]
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// In the order of `END_TO_END` or `PER_LAYER`.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    pub rounds: usize,
    pub wall_s: f64,
    pub progs: Vec<ProgRow>,
    pub kernels: Vec<KernelRow>,
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
}

impl RunResult {
    /// Count a stretch of the run's requests and keep its failure reasons.
    fn count(&mut self, log: &RunLog, what: &str) {
        self.attempted += log.attempted;
        self.failed += log.failed;
        for f in &log.failures {
            self.notes.push(format!("FAILED in {what}: {f}"));
        }
    }
}

fn oracle(wl: &Workload) -> Result<Vec<Vec<Expect>>, String> {
    wl.mix
        .iter()
        .map(|req| {
            let (prog, inputs) = req.build()?;
            expected(req, &prog, &inputs)
        })
        .collect()
}

/// Spawn the child, wait until it serves, and send every distinct request
/// once: cold compile, server-side input generation, first execution and
/// kernel compilation all happen here, not in the timed section.
fn set_up(lp: &Loop) -> Result<(SutProcess, RunLog), String> {
    let mut sut = SutProcess::start(lp.wl)?;
    let mut once = Sequence::new(lp.wl.mix.len(), 0, false);
    let warm = lp.drive(
        &mut sut.client,
        &mut once,
        Stop::Rounds(1),
        Instant::now(),
        None,
    )?;
    Ok((sut, warm))
}

fn prog_rows(wl: &Workload, samples: &[Sample]) -> Vec<ProgRow> {
    let mut by_req: BTreeMap<usize, Vec<&Sample>> = BTreeMap::new();
    for s in samples {
        by_req.entry(s.req).or_default().push(s);
    }
    by_req
        .into_iter()
        .map(|(req, ss)| {
            let p50 = |f: fn(&Sample) -> f64| median(&ss.iter().map(|s| f(s)).collect::<Vec<_>>());
            ProgRow {
                tag: wl.mix[req].tag.clone(),
                samples: ss.len(),
                latency_p50_ms: p50(Sample::latency_ms),
                exec_p50_ms: p50(|s| s.reply.exec_ms),
                total_p50_ms: p50(|s| s.reply.total_ms),
            }
        })
        .collect()
}

fn geomean(v: impl Iterator<Item = f64>) -> f64 {
    let logs: Vec<f64> = v.filter(|x| *x > 0.0).map(f64::ln).collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

pub fn run(wl: &Workload, args: &RunArgs) -> Result<RunResult, String> {
    let lp = Loop {
        wl,
        frames: frames_for(wl)?,
        expects: oracle(wl)?,
    };
    let mut res = RunResult {
        workload: wl.name,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        correct: true,
        ..RunResult::default()
    };
    res.notes.push(format!("why: {}", wl.why));
    res.notes.push(format!(
        "config: hw_threads={} workers=2 exec_threads={} window={} tuning off; closed loop, one thread, one connection",
        hw_threads(),
        exec_threads(),
        wl.window
    ));

    // ---- set-up: the last child serves the rest of the run ----------------
    let mut setups: Vec<f64> = Vec::new();
    let mut sut = loop {
        let t = Instant::now();
        let (sut, warm) = set_up(&lp)?;
        setups.push(t.elapsed().as_secs_f64());
        res.count(&warm, "warm-up");
        let n = setups.len();
        let spent: f64 = setups.iter().sum();
        if args.trace
            || n >= *SETUP_REPS.end()
            || (n >= *SETUP_REPS.start() && spent >= SETUP_BUDGET_S)
        {
            break sut;
        }
        sut.stop();
    };
    let setup_s = median(&setups);
    let mut seq = Sequence::new(wl.mix.len(), args.seed, wl.reshuffle);
    let settle = Stop::Seconds((args.seconds * SETTLE_SHARE).min(1.0));
    let settled = lp.drive(&mut sut.client, &mut seq, settle, Instant::now(), None)?;
    res.count(&settled, "the settling loop");

    if args.trace {
        traced(&lp, sut, &mut seq, args, &mut res)?;
        res.notes.push(format!("set-up {setup_s:.3} s"));
    } else {
        end_to_end(&lp, sut, &mut seq, args, setup_s, &mut res)?;
        res.notes.push(format!("set-ups {setups:?} s"));
    }
    res.correct &= res.failed == 0 && res.samples > 0;
    Ok(res)
}

/// The timed section with tracing off, and the six end-to-end metrics.
fn end_to_end(
    lp: &Loop,
    mut sut: SutProcess,
    seq: &mut Sequence,
    args: &RunArgs,
    setup_s: f64,
    res: &mut RunResult,
) -> Result<(), String> {
    let pid = sut.pid();
    let cpu0 = cpu_seconds(pid);
    let stop = Stop::Seconds(args.seconds);
    let log = lp.drive(&mut sut.client, seq, stop, Instant::now(), None)?;
    let cpu1 = cpu_seconds(pid);
    let peak = peak_rss_mib(pid);
    sut.stop();
    res.count(&log, "the timed section");
    let ok = log.samples.len();
    let lat: Vec<f64> = log.samples.iter().map(Sample::latency_ms).collect();
    let (Some(cpu0), Some(cpu1), Some(peak)) = (cpu0, cpu1, peak) else {
        return Err(format!("could not read /proc/{pid} of the child"));
    };
    let values = [
        blocked_rate(&log.samples, lp.wl.mix.len(), 0.0),
        percentile(&lat, 50.0),
        percentile(&lat, 90.0),
        (cpu1 - cpu0) * 1e3 / ok.max(1) as f64,
        peak,
        setup_s,
    ];
    res.metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit, _, _), v)| (*name, *unit, v))
        .collect();
    res.notes.push(format!(
        "{ok} latency samples over {} rounds in {:.2} s; {:.1} req/s over the whole section",
        log.rounds,
        log.wall_s,
        ok as f64 / log.wall_s
    ));
    res.samples = ok;
    res.rounds = log.rounds;
    res.wall_s = log.wall_s;
    res.progs = prog_rows(lp.wl, &log.samples);
    Ok(())
}

/// `STATS json` keys behind the per-layer counters: `(metric, key)`.
const STAT_KEYS: [(&str, &str); 15] = [
    ("plan_cache.hits", "plan_hits"),
    ("plan_cache.misses", "plan_misses"),
    ("plan_cache.evictions", "plan_evictions"),
    ("runtime.batches", "batches"),
    ("runtime.completed", "completed"),
    ("runtime.shed", "shed_requests"),
    ("runtime.deadline_exceeded", "deadline_exceeded"),
    ("runtime.worker_panics", "worker_panics"),
    ("runtime.breaker_fast_fails", "breaker_fast_fails"),
    ("backend.kernel_hits", "kernel_hits"),
    ("backend.kernel_fallbacks", "kernel_fallbacks"),
    ("mem.hits", "mem_hits"),
    ("mem.misses", "mem_misses"),
    ("mem.evictions", "mem_evictions"),
    ("mem.bytes_avoided", "mem_bytes_avoided"),
];

/// The traced run: the loop in slices alternating span recording off and
/// on, the runtime's own counters before and after, then every layer
/// in-process; gives the per-layer metrics.
fn traced(
    lp: &Loop,
    mut sut: SutProcess,
    seq: &mut Sequence,
    args: &RunArgs,
    res: &mut RunResult,
) -> Result<(), String> {
    let wl = lp.wl;
    let stats0 = sut.stats();
    let origin = Instant::now();
    let mut all = RunLog::default();
    let mut rates = [Vec::new(), Vec::new()]; // tracing off, on
    let mut counts = [0usize; 2];
    let mut spans = Vec::new();
    for slice in 0..TRACE_SLICES {
        let on = slice % 2;
        let t0 = origin.elapsed().as_secs_f64();
        let stop = Stop::Seconds(args.seconds / TRACE_SLICES as f64);
        let log = lp.drive(
            &mut sut.client,
            seq,
            stop,
            origin,
            (on == 1).then_some(&mut spans),
        )?;
        rates[on].push(blocked_rate(&log.samples, wl.mix.len(), t0));
        counts[on] += log.samples.len();
        all.absorb(log);
    }
    let stats1 = sut.stats();
    sut.stop();
    res.count(&all, "the traced run");

    let report = layers::measure(wl)?;
    res.correct &= report.correct;
    res.notes.extend(report.notes);
    let mut m = report.metrics;

    let pct = |f: &dyn Fn(&Sample) -> f64, p: f64| {
        percentile(&all.samples.iter().map(f).collect::<Vec<_>>(), p)
    };
    let edge = |s: &Sample| s.latency_ms() - s.reply.total_ms;
    let queue = |s: &Sample| s.reply.total_ms - s.reply.exec_ms;
    let exec = |s: &Sample| s.reply.exec_ms;
    let n = all.samples.len().max(1) as f64;
    let hit_ratio = all.samples.iter().filter(|s| s.reply.hit).count() as f64 / n;
    let batch_max = all.samples.iter().map(|s| s.reply.batch).max().unwrap_or(0);
    for (name, v) in [
        ("client.latency_p99_ms", pct(&Sample::latency_ms, 99.0)),
        ("server.edge_ms_p50", pct(&edge, 50.0)),
        ("server.edge_ms_p99", pct(&edge, 99.0)),
        ("runtime.queue_ms_p50", pct(&queue, 50.0)),
        ("runtime.queue_ms_p90", pct(&queue, 90.0)),
        ("backend.exec_ms_p50", pct(&exec, 50.0)),
        ("plan_cache.reply_hit_ratio", hit_ratio),
        ("runtime.batch_max", batch_max as f64),
    ] {
        m.insert(name.into(), v);
    }

    // counters: what the runtime itself counted over the whole loop
    for (name, key) in STAT_KEYS {
        let read = |j: &Option<Json>| j.as_ref()?.get(key)?.num();
        let delta = match (read(&stats0), read(&stats1)) {
            (Some(a), Some(b)) => b - a,
            _ => {
                res.notes.push(format!(
                    "STATS json has no '{key}': the metrics derived from it read 0"
                ));
                0.0
            }
        };
        m.insert(name.into(), delta);
    }
    let share = |a: f64, b: f64| if a + b > 0.0 { a / (a + b) } else { 0.0 };
    for (name, v) in [
        (
            "runtime.batch_mean",
            m["runtime.completed"] / m["runtime.batches"].max(1.0),
        ),
        (
            "backend.fast_hit_ratio",
            share(m["backend.kernel_hits"], m["backend.kernel_fallbacks"]),
        ),
        ("mem.hit_ratio", share(m["mem.hits"], m["mem.misses"])),
    ] {
        m.insert(name.into(), v);
    }

    res.progs = prog_rows(wl, &all.samples);
    // tracing overhead: the same loop with and without span recording
    let (rate_off, rate_on) = (median(&rates[0]), median(&rates[1]));
    for (name, v) in [
        (
            "prog.latency_p50_geomean_ms",
            geomean(res.progs.iter().map(|p| p.latency_p50_ms)),
        ),
        (
            "prog.exec_p50_geomean_ms",
            geomean(res.progs.iter().map(|p| p.exec_p50_ms)),
        ),
        ("trace.untraced_req_per_s", rate_off),
        ("trace.traced_req_per_s", rate_on),
        (
            "trace.overhead_pct",
            100.0 * (rate_off - rate_on) / rate_off.max(f64::MIN_POSITIVE),
        ),
        ("trace.spans", spans.len() as f64),
        (
            "trace.residual_pct",
            residual_pct(&res.progs, &report.edge, hit_ratio),
        ),
    ] {
        m.insert(name.into(), v);
    }

    res.metrics = PER_LAYER
        .iter()
        .map(|(name, unit, _)| {
            let v = m.get(*name).copied().unwrap_or_else(|| {
                res.notes.push(format!(
                    "per-layer metric '{name}' was not measured; reads 0"
                ));
                0.0
            });
            (*name, *unit, v)
        })
        .collect();
    res.samples = all.samples.len();
    res.rounds = all.rounds;
    res.wall_s = all.wall_s;
    res.kernels = report.kernels;
    res.spans = spans;
    res.notes.push(format!(
        "traced run: {} untraced and {} traced requests in {TRACE_SLICES} alternating slices",
        counts[0], counts[1]
    ));
    Ok(())
}

/// The share of the median request latency that the layers measured from
/// outside do not account for. Per replayed request: client latency minus
/// the reply's `total_ms` (queue and execution, as the runtime reports
/// them) minus the server-edge work timed in-process (operand clone,
/// checksum, plan key; on a front-end memo miss also compile and input
/// generation — schedule and plan build on a plan-cache miss are already
/// inside `total_ms`). What is left is the wire, header parsing, thread
/// hand-offs and the reply write.
fn residual_pct(progs: &[ProgRow], edge: &BTreeMap<String, EdgeCost>, hit_ratio: f64) -> f64 {
    let (mut latency, mut attributed) = (0.0, 0.0);
    for p in progs {
        let Some(c) = edge.get(&p.tag) else { continue };
        let warm = c.clone_inputs + c.checksum + 2.0 * c.key;
        let cold = c.compile + c.gen_inputs;
        latency += p.latency_p50_ms;
        attributed += p.total_p50_ms + (warm + (1.0 - hit_ratio) * cold) * 1e3;
    }
    if latency > 0.0 {
        100.0 * (latency - attributed) / latency
    } else {
        0.0
    }
}
