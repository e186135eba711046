//! `mdhc` — the MDH directive compiler/driver CLI.
//!
//! ```text
//! mdhc compile  <file> [-D NAME=VAL]...            summarise the compiled program
//! mdhc run      <file> [-D ...] [--threads N]      execute with generated data
//! mdhc estimate <file> [-D ...] [--device gpu|cpu] cost-model estimates
//! mdhc tune     <file> [-D ...] [--device gpu|cpu] [--budget N] [--cache FILE]
//! mdhc explain  <file> [-D ...] [--device gpu|cpu] what the lowering does
//! mdhc serve    <socket> [--threads N] [--workers N] [--batch N]
//!               [--cache FILE] [--devices N] [--faults SPEC]
//!               [--mem-budget BYTES[k|m|g]]
//!               [--hedge-ms MS] [--probe-every N] [--reinstate-after N]
//!               [--max-queue-depth N] [--max-connections N]
//!               [--tcp HOST:PORT] [--tenant-quota N]
//!               [--tenant-weight NAME=W]... [--pipeline-depth N]
//!                                                  persistent execution service
//!                                                  (--devices N > 1 partitions GPU
//!                                                  launches across a device pool;
//!                                                  --faults injects a deterministic
//!                                                  chaos schedule, e.g.
//!                                                  "crash=1@3,transient=2@1x2,
//!                                                  hang=0@5,corrupt=1@2,
//!                                                  rate=25,seed=42";
//!                                                  --mem-budget caps the per-device
//!                                                  resident buffer pool — repeated
//!                                                  operands skip H2D; 0 disables;
//!                                                  --hedge-ms arms the shard
//!                                                  watchdog: hung/straggling shards
//!                                                  are hedged onto a healthy spare;
//!                                                  --probe-every probes evicted
//!                                                  devices every N launches and
//!                                                  reinstates them after
//!                                                  --reinstate-after passing probes;
//!                                                  --max-queue-depth bounds the
//!                                                  request queue — beyond it,
//!                                                  submissions shed with a
//!                                                  retryable `err overloaded`;
//!                                                  --tcp binds a TCP listener
//!                                                  alongside the unix socket;
//!                                                  --tenant-quota caps each
//!                                                  tenant's queued requests;
//!                                                  --tenant-weight skews the
//!                                                  fair scheduler's shares)
//! mdhc submit   <file> --socket PATH [--tcp HOST:PORT] [-D ...]
//!               [--device gpu|cpu] [--count N] [--deadline-ms N] [--grad]
//!               [--tenant NAME] [--sequential]     send launches to a server
//!                                                  (expired launches answer
//!                                                  `err deadline exceeded`;
//!                                                  --grad makes each launch a
//!                                                  gradient round trip: forward
//!                                                  checksum plus per-input
//!                                                  gradient checksums;
//!                                                  --count N > 1 uses one
//!                                                  pipelined connection with N
//!                                                  in-flight frames unless
//!                                                  --sequential forces N
//!                                                  one-command connections)
//! mdhc stats    <socket> [--tcp HOST:PORT] [--json] runtime counters from a
//!                                                  server (--json emits one
//!                                                  machine-readable line)
//! ```
//!
//! The front end is auto-detected (`mdh::directive::compile_any`): files
//! with a `#pragma mdh` line go through the C front end, files with a
//! `!$mdh` line through the Fortran front end, files starting with
//! `out_view` through the textual DSL (Listing 7), everything else through
//! the Python-like directive (Listing 8).

use mdh::backend::cpu::CpuExecutor;
use mdh::backend::cpu_model::{estimate_cpu, CpuParams};
use mdh::backend::gpu::GpuSim;
use mdh::core::buffer::Buffer;
use mdh::core::dsl::DslProgram;
use mdh::core::shape::Shape;
use mdh::directive::{compile_any, DirectiveEnv};
use mdh::lowering::asm::DeviceKind;
use mdh::lowering::heuristics::mdh_default_schedule;
use mdh::runtime::server::checksum;
use mdh::runtime::RuntimeConfig;
use mdh::tuner::{tune_cpu_model, tune_gpu, Budget, Technique, TuningCache};
use std::path::PathBuf;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: mdhc <compile|run|estimate|tune|explain|serve|submit|stats> <file|socket> \
         [-D NAME=VAL]... [--device gpu|cpu] [--threads N] [--budget N] [--cache FILE] \
         [--workers N] [--batch N] [--socket PATH] [--count N] [--devices N] \
         [--faults SPEC] [--mem-budget BYTES[k|m|g]] [--hedge-ms MS] \
         [--probe-every N] [--reinstate-after N] [--max-queue-depth N] \
         [--max-connections N] [--deadline-ms N] [--grad] [--json] \
         [--tcp HOST:PORT] [--tenant NAME] [--tenant-quota N] [--tenant-weight NAME=W] \
         [--pipeline-depth N] [--sequential]"
    );
    exit(2);
}

struct Cli {
    cmd: String,
    file: PathBuf,
    env: DirectiveEnv,
    bindings: Vec<(String, i64)>,
    device: DeviceKind,
    threads: usize,
    budget: usize,
    cache: Option<PathBuf>,
    workers: usize,
    batch: usize,
    socket: Option<PathBuf>,
    count: usize,
    devices: usize,
    faults: Option<mdh::dist::FaultPlan>,
    mem_budget: Option<u64>,
    hedge_ms: f64,
    probe_every: u64,
    reinstate_after: u32,
    max_queue_depth: usize,
    max_connections: usize,
    deadline_ms: Option<u64>,
    grad: bool,
    json: bool,
    tcp: Option<String>,
    tenant: Option<String>,
    tenant_quota: usize,
    tenant_weights: Vec<(String, u32)>,
    pipeline_depth: usize,
    sequential: bool,
}

fn parse_cli() -> Cli {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        usage();
    }
    let cmd = args[0].clone();
    // the positional (file or socket path) is optional for invocations
    // that name their target by flag instead: `serve --tcp HOST:PORT`,
    // `stats --tcp HOST:PORT --json`
    let (file, flags_start) = if args[1].starts_with('-') {
        (PathBuf::new(), 1)
    } else {
        (PathBuf::from(&args[1]), 2)
    };
    let mut env = DirectiveEnv::new();
    let mut device = DeviceKind::Gpu;
    let mut threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut budget = 100;
    let mut cache = None;
    let mut bindings = Vec::new();
    let mut workers = 2;
    let mut batch = 16;
    let mut socket = None;
    let mut count = 1;
    let mut devices = 1;
    let mut faults = None;
    let mut mem_budget = None;
    let defaults = RuntimeConfig::default();
    let mut hedge_ms = defaults.hedge_ms;
    let mut probe_every = defaults.probe_every;
    let mut reinstate_after = defaults.reinstate_after;
    let mut max_queue_depth = defaults.max_queue_depth;
    let mut max_connections = defaults.max_connections;
    let mut deadline_ms = None;
    let mut grad = false;
    let mut json = false;
    let mut tcp = None;
    let mut tenant = None;
    let mut tenant_quota = defaults.tenant_quota;
    let mut tenant_weights = Vec::new();
    let mut pipeline_depth = defaults.pipeline_depth;
    let mut sequential = false;
    let mut i = flags_start;
    while i < args.len() {
        match args[i].as_str() {
            "-D" => {
                let Some(bind) = args.get(i + 1) else { usage() };
                let Some((name, val)) = bind.split_once('=') else {
                    eprintln!("bad binding '{bind}' (expected NAME=VAL)");
                    exit(2);
                };
                let Ok(v) = val.parse::<i64>() else {
                    eprintln!("bad value in '{bind}'");
                    exit(2);
                };
                env = env.size(name, v);
                bindings.push((name.to_string(), v));
                i += 2;
            }
            "--device" => {
                device = match args.get(i + 1).map(String::as_str) {
                    Some("gpu") => DeviceKind::Gpu,
                    Some("cpu") => DeviceKind::Cpu,
                    _ => usage(),
                };
                i += 2;
            }
            "--threads" => {
                threads = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--budget" => {
                budget = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--cache" => {
                cache = Some(PathBuf::from(args.get(i + 1).unwrap_or_else(|| usage())));
                i += 2;
            }
            "--workers" => {
                workers = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--batch" => {
                batch = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--socket" => {
                socket = Some(PathBuf::from(args.get(i + 1).unwrap_or_else(|| usage())));
                i += 2;
            }
            "--count" => {
                count = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--devices" => {
                devices = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--faults" => {
                let spec = args.get(i + 1).unwrap_or_else(|| usage());
                match mdh::dist::FaultPlan::parse(spec) {
                    Ok(p) => faults = Some(p),
                    Err(e) => {
                        eprintln!("bad --faults spec: {e}");
                        exit(2);
                    }
                }
                i += 2;
            }
            "--mem-budget" => {
                let spec = args.get(i + 1).unwrap_or_else(|| usage());
                match parse_bytes(spec) {
                    Some(b) => mem_budget = Some(b),
                    None => {
                        eprintln!("bad --mem-budget '{spec}' (expected BYTES with optional k/m/g suffix, 0 disables)");
                        exit(2);
                    }
                }
                i += 2;
            }
            "--hedge-ms" => {
                hedge_ms = args
                    .get(i + 1)
                    .and_then(|s| s.parse::<f64>().ok())
                    .filter(|v| v.is_finite() && *v >= 0.0)
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--probe-every" => {
                probe_every = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--reinstate-after" => {
                reinstate_after = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--max-queue-depth" => {
                max_queue_depth = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--max-connections" => {
                max_connections = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--deadline-ms" => {
                deadline_ms = Some(
                    args.get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
                i += 2;
            }
            "--grad" => {
                grad = true;
                i += 1;
            }
            "--json" => {
                json = true;
                i += 1;
            }
            "--tcp" => {
                tcp = Some(args.get(i + 1).unwrap_or_else(|| usage()).clone());
                i += 2;
            }
            "--tenant" => {
                tenant = Some(args.get(i + 1).unwrap_or_else(|| usage()).clone());
                i += 2;
            }
            "--tenant-quota" => {
                tenant_quota = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--tenant-weight" => {
                let spec = args.get(i + 1).unwrap_or_else(|| usage());
                let parsed = spec
                    .split_once('=')
                    .and_then(|(n, w)| Some((n.to_string(), w.parse::<u32>().ok()?)));
                match parsed {
                    Some(pair) => tenant_weights.push(pair),
                    None => {
                        eprintln!("bad --tenant-weight '{spec}' (expected NAME=WEIGHT)");
                        exit(2);
                    }
                }
                i += 2;
            }
            "--pipeline-depth" => {
                pipeline_depth = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--sequential" => {
                sequential = true;
                i += 1;
            }
            other => {
                eprintln!("unknown argument '{other}'");
                usage();
            }
        }
    }
    Cli {
        cmd,
        file,
        env,
        bindings,
        device,
        threads,
        budget,
        cache,
        workers,
        batch,
        socket,
        count,
        devices,
        faults,
        mem_budget,
        hedge_ms,
        probe_every,
        reinstate_after,
        max_queue_depth,
        max_connections,
        deadline_ms,
        grad,
        json,
        tcp,
        tenant,
        tenant_quota,
        tenant_weights,
        pipeline_depth,
        sequential,
    }
}

fn load_program(cli: &Cli) -> DslProgram {
    let src = match std::fs::read_to_string(&cli.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {}: {e}", cli.file.display());
            exit(1);
        }
    };
    match compile_any(&src, &cli.env) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{}: {e}", cli.file.display());
            exit(1);
        }
    }
}

fn summarize(prog: &DslProgram) {
    let stats = prog.stats();
    println!("program       : {}", prog.name);
    println!("iteration     : {}D {:?}", stats.rank, prog.md_hom.sizes);
    println!(
        "combine ops   : {}",
        prog.md_hom
            .combine_ops
            .iter()
            .map(|o| o.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("reduction dims: {:?}", prog.md_hom.reduction_dims());
    match prog.input_shapes() {
        Ok(shapes) => {
            for (decl, shape) in prog.inp_view.buffers.iter().zip(shapes) {
                println!("input  {:<10} {} {:?}", decl.name, decl.ty, shape);
            }
        }
        Err(e) => println!("inputs        : (shape inference failed: {e})"),
    }
    if let Ok(shapes) = prog.output_shapes() {
        for (decl, shape) in prog.out_view.buffers.iter().zip(shapes) {
            println!("output {:<10} {} {:?}", decl.name, decl.ty, shape);
        }
    }
    println!(
        "points        : {}  (~{} scalar ops)",
        stats.points, stats.flops
    );
    println!(
        "data accesses : {}",
        match stats.injective_accesses {
            Some(true) => "injective",
            Some(false) => "non-injective",
            None => "undetermined",
        }
    );
}

/// Generate deterministic inputs matching the program's declarations
/// (scalar buffers only — record-typed programs need the library API).
fn generate_inputs(prog: &DslProgram) -> Vec<Buffer> {
    let shapes = prog.input_shapes().unwrap_or_else(|e| {
        eprintln!("cannot infer input shapes: {e}");
        exit(1);
    });
    prog.inp_view
        .buffers
        .iter()
        .zip(shapes)
        .map(|(decl, shape)| {
            if decl.ty.as_scalar().is_none() {
                eprintln!(
                    "buffer '{}' has a record type; `mdhc run` supports scalar \
                     buffers only — use the library API",
                    decl.name
                );
                exit(1);
            }
            let mut b = Buffer::zeros(decl.name.clone(), decl.ty.clone(), Shape::new(shape));
            b.fill_with(|i| ((i * 2654435761) % 1000) as f64 / 1000.0 - 0.5);
            b
        })
        .collect()
}

fn format_bytes(b: u64) -> String {
    if b >= 1 << 30 && b.is_multiple_of(1 << 30) {
        format!("{}GiB", b >> 30)
    } else if b >= 1 << 20 && b.is_multiple_of(1 << 20) {
        format!("{}MiB", b >> 20)
    } else {
        format!("{b}B")
    }
}

/// Byte count with optional k/m/g (KiB/MiB/GiB) suffix: `512m`, `2g`, `0`.
fn parse_bytes(spec: &str) -> Option<u64> {
    let s = spec.trim().to_ascii_lowercase();
    let (digits, shift) = match s.strip_suffix(['k', 'm', 'g']) {
        Some(d) => match s.as_bytes()[s.len() - 1] {
            b'k' => (d, 10),
            b'm' => (d, 20),
            _ => (d, 30),
        },
        None => (s.as_str(), 0),
    };
    digits.parse::<u64>().ok()?.checked_shl(shift)
}

/// `mdhc serve <socket>`: run the persistent execution runtime until a
/// client sends SHUTDOWN. The socket path is `cli.file`; `--tcp` binds a
/// TCP listener alongside it.
fn cmd_serve(cli: &Cli) {
    let config = RuntimeConfig {
        workers: cli.workers.max(1),
        exec_threads: cli.threads,
        max_batch: cli.batch.max(1),
        tuning_cache_path: cli.cache.clone(),
        devices: cli.devices.max(1),
        faults: cli.faults.clone(),
        mem_budget_bytes: cli
            .mem_budget
            .unwrap_or(RuntimeConfig::default().mem_budget_bytes),
        hedge_ms: cli.hedge_ms,
        probe_every: cli.probe_every,
        reinstate_after: cli.reinstate_after,
        max_queue_depth: cli.max_queue_depth.max(1),
        max_connections: cli.max_connections.max(1),
        tenant_quota: cli.tenant_quota,
        tenant_weights: cli.tenant_weights.clone(),
        pipeline_depth: cli.pipeline_depth.max(1),
        ..RuntimeConfig::default()
    };
    if config.devices > 1 && config.mem_budget_bytes > 0 {
        println!(
            "mem pool: {} per device across {} devices",
            format_bytes(config.mem_budget_bytes),
            config.devices
        );
    }
    if let Some(plan) = &cli.faults {
        if cli.devices <= 1 {
            eprintln!("--faults requires --devices N > 1 (faults are injected into pool launches)");
            exit(2);
        }
        println!("fault plan: {plan}");
    }
    if config.devices > 1 && (config.hedge_ms > 0.0 || config.probe_every > 0) {
        println!(
            "healing: hedge {:.3} ms, probe every {} launches, reinstate after {} passes",
            config.hedge_ms, config.probe_every, config.reinstate_after
        );
    }
    if config.tenant_quota > 0 || !config.tenant_weights.is_empty() {
        let weights = config
            .tenant_weights
            .iter()
            .map(|(n, w)| format!("{n}={w}"))
            .collect::<Vec<_>>()
            .join(",");
        println!(
            "tenants: quota {} per tenant, weights [{}]",
            config.tenant_quota, weights
        );
    }
    let unix = (cli.file.as_os_str() != "").then(|| cli.file.clone());
    if unix.is_none() && cli.tcp.is_none() {
        eprintln!("serve needs a socket path and/or --tcp HOST:PORT");
        exit(2);
    }
    let opts = mdh::runtime::ServeOptions {
        unix,
        tcp: cli.tcp.clone(),
    };
    if let Err(e) = mdh::runtime::server::serve_opts(opts, config) {
        eprintln!("serve failed: {e}");
        exit(1);
    }
}

/// The submit/stats target: `--tcp HOST:PORT` wins over `--socket PATH`
/// (or the positional socket path for `stats`).
fn target_addr(cli: &Cli, positional: bool) -> mdh::runtime::ServerAddr {
    if let Some(tcp) = &cli.tcp {
        return mdh::runtime::ServerAddr::Tcp(tcp.clone());
    }
    if positional && cli.file.as_os_str() != "" {
        return mdh::runtime::ServerAddr::Unix(cli.file.clone());
    }
    match &cli.socket {
        Some(p) => mdh::runtime::ServerAddr::Unix(p.clone()),
        None => {
            eprintln!("need a socket path, --socket PATH, or --tcp HOST:PORT");
            exit(2);
        }
    }
}

/// `mdhc submit <file> --socket PATH | --tcp HOST:PORT`: send the
/// directive source to a running server `--count` times and print the
/// replies. With `--count N > 1` the requests ride one pipelined (PIPE)
/// connection by default; `--sequential` restores one-frame-at-a-time
/// submission over a plain connection.
fn cmd_submit(cli: &Cli) {
    let addr = target_addr(cli, false);
    let src = match std::fs::read_to_string(&cli.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {}: {e}", cli.file.display());
            exit(1);
        }
    };
    let opts = mdh::runtime::SubmitClientOpts {
        bindings: cli.bindings.clone(),
        deadline_ms: cli.deadline_ms,
        grad: cli.grad,
        tenant: cli.tenant.clone(),
    };
    let count = cli.count.max(1);
    let client = mdh::runtime::Client::new(addr.clone());
    let reply = if count > 1 && !cli.sequential {
        client.submit_pipelined(&src, cli.device, count, &opts)
    } else {
        client.submit(&src, cli.device, count, &opts)
    };
    match reply {
        Ok(lines) => {
            let mut failed = false;
            for line in lines {
                println!("{line}");
                failed |= line.starts_with("err ");
            }
            if failed {
                exit(1);
            }
        }
        Err(e) => {
            eprintln!("cannot reach server at {addr}: {e}");
            exit(1);
        }
    }
}

/// `mdhc stats <socket> [--json] [--tcp HOST:PORT]`: print the server's
/// runtime counters, human-formatted or as one machine-readable JSON
/// line.
fn cmd_stats(cli: &Cli) {
    let addr = target_addr(cli, true);
    let client = mdh::runtime::Client::new(addr.clone());
    let reply = if cli.json {
        client.stats_json()
    } else {
        client.stats()
    };
    match reply {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
        }
        Err(e) => {
            eprintln!("cannot reach server at {addr}: {e}");
            exit(1);
        }
    }
}

fn main() {
    let cli = parse_cli();
    match cli.cmd.as_str() {
        "serve" => return cmd_serve(&cli),
        "submit" => return cmd_submit(&cli),
        "stats" => return cmd_stats(&cli),
        "compile" | "explain" | "run" | "estimate" | "tune" => {}
        other => {
            eprintln!("unknown command '{other}'");
            usage();
        }
    }
    let prog = load_program(&cli);
    match cli.cmd.as_str() {
        "compile" => summarize(&prog),
        "explain" => {
            summarize(&prog);
            println!("---");
            let units = match cli.device {
                DeviceKind::Gpu => 108 * 32,
                DeviceKind::Cpu => cli.threads,
            };
            let schedule = mdh_default_schedule(&prog, cli.device, units);
            match mdh::lowering::explain::explain(&prog, &schedule) {
                Ok(text) => print!("{text}"),
                Err(e) => {
                    eprintln!("cannot explain: {e}");
                    exit(1);
                }
            }
        }
        "run" => {
            summarize(&prog);
            let inputs = generate_inputs(&prog);
            let exec = match CpuExecutor::new(cli.threads) {
                Ok(e) => e,
                Err(e) => {
                    eprintln!("executor: {e}");
                    exit(1);
                }
            };
            let schedule = mdh_default_schedule(&prog, DeviceKind::Cpu, cli.threads);
            match exec.run_timed(&prog, &schedule, &inputs) {
                Ok((out, took)) => {
                    println!("---");
                    println!(
                        "executed in {:.3} ms on {} threads (schedule: {})",
                        took.as_secs_f64() * 1e3,
                        cli.threads,
                        schedule.summary()
                    );
                    for b in &out {
                        println!("checksum {:<10} = {:.6}", b.name, checksum(b));
                    }
                }
                Err(e) => {
                    eprintln!("execution failed: {e}");
                    exit(1);
                }
            }
        }
        "estimate" => {
            summarize(&prog);
            println!("---");
            match cli.device {
                DeviceKind::Gpu => {
                    let sim = GpuSim::a100(2).expect("sim");
                    let s = mdh_default_schedule(&prog, DeviceKind::Gpu, 108 * 32);
                    match sim.estimate(&prog, &s) {
                        Ok(r) => println!(
                            "A100 model, heuristic schedule: {:.4} ms \
                             (compute {:.4}, memory {:.4}, occupancy {:.2})",
                            r.time_ms, r.compute_ms, r.mem_ms, r.occupancy
                        ),
                        Err(e) => println!("A100 model: FAIL — {e}"),
                    }
                }
                DeviceKind::Cpu => {
                    let params = CpuParams::xeon_gold_6140();
                    let s = mdh_default_schedule(&prog, DeviceKind::Cpu, params.smt_threads);
                    match estimate_cpu(&prog, &s, &params) {
                        Ok(r) => println!(
                            "Xeon model, heuristic schedule: {:.4} ms \
                             (compute {:.4}, memory {:.4}, simd {:.2})",
                            r.time_ms, r.compute_ms, r.mem_ms, r.simd_eff
                        ),
                        Err(e) => println!("Xeon model: FAIL — {e}"),
                    }
                }
            }
        }
        "tune" => {
            summarize(&prog);
            println!("---");
            let mut cache = match &cli.cache {
                // tolerate corrupt/truncated files: salvage what parses,
                // treat the rest as misses and re-tune
                Some(p) => TuningCache::load_or_rebuild(p),
                None => TuningCache::new(),
            };
            if let Some(hit) = cache.lookup(&prog, cli.device) {
                println!("cache hit: {:.4} ms — {}", hit.cost, hit.schedule.summary());
                return;
            }
            let tuned = match cli.device {
                DeviceKind::Gpu => {
                    let sim = GpuSim::a100(2).expect("sim");
                    tune_gpu(&sim, &prog, Technique::Annealing, Budget::evals(cli.budget))
                }
                DeviceKind::Cpu => tune_cpu_model(
                    &prog,
                    &CpuParams::xeon_gold_6140(),
                    Technique::Annealing,
                    Budget::evals(cli.budget),
                ),
            };
            println!(
                "tuned ({} evals): {:.4} ms — {}",
                tuned.result.evals,
                tuned.cost,
                tuned.schedule.summary()
            );
            cache.record(&prog, cli.device, tuned.schedule, tuned.cost);
            if let Some(p) = &cli.cache {
                if let Err(e) = cache.save(p) {
                    eprintln!("cannot save cache {}: {e}", p.display());
                    exit(1);
                }
                println!("cached to {}", p.display());
            }
        }
        _ => unreachable!("the command was checked before the program loaded"),
    }
}
