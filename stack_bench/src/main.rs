//! `stack_bench`: the repo's benchmark. See README.md in this directory.
//!
//! ```text
//! stack_bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//! stack_bench run [--seed <n>] [--seconds <s>] [--smoke] [--trace <0|1>] [--out <file>]
//! stack_bench compare <base.json> <new.json> [--benchmark <BENCHMARK.json>]
//! stack_bench serve <socket> <devices>      (child process: the server)
//! stack_bench lib <workload>                (child process: the library API)
//! ```
//!
//! The first form is what the pipeline runs: one workload, one run, and as
//! the last line of standard output one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod child;
mod harness;
mod json;
mod layers;
mod metrics;
mod oracle;
mod report;
mod run;
mod workloads;

use run::{RunArgs, RunResult};
use std::process::ExitCode;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value for {name}: {v}")),
    }
}

fn run_args(args: &[String], default_seconds: f64) -> Result<RunArgs, String> {
    Ok(RunArgs {
        seed: parse(args, "--seed", 1)?,
        seconds: parse(args, "--seconds", default_seconds)?,
        trace: parse(args, "--trace", 0u8)? != 0,
    })
}

fn run_one(name: &str, args: &RunArgs) -> Result<RunResult, String> {
    let wl = workloads::workload(name)
        .ok_or_else(|| format!("unknown workload '{name}'; one of {:?}", workloads::NAMES))?;
    let r = run::run(&wl, args)?;
    print!("{}", report::table(&r));
    Ok(r)
}

fn write_out(out: Option<String>, results: &[RunResult], smoke: bool) -> Result<(), String> {
    let Some(out) = out else { return Ok(()) };
    let objs: Vec<String> = results
        .iter()
        .map(|r| report::result_json(r, smoke))
        .collect();
    std::fs::write(&out, report::results_file(&objs)).map_err(|e| format!("{out}: {e}"))?;
    for r in results.iter().filter(|r| r.trace) {
        let path = format!("{out}.{}.trace.json", r.workload);
        std::fs::write(&path, report::trace_json(r)).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

fn real_main(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("serve") => child::serve_main(&args[1..]).map(|()| true),
        Some("lib") => child::lib_main(&args[1..]).map(|()| true),
        Some("compare") => {
            let [_, a, b, ..] = args else {
                return Err("usage: stack_bench compare <base.json> <new.json>".into());
            };
            let bench = flag(args, "--benchmark").unwrap_or_else(|| "BENCHMARK.json".into());
            report::compare_files(a, b, &bench)
        }
        Some("run") => {
            let smoke = args.iter().any(|a| a == "--smoke");
            let run_args = run_args(args, if smoke { 0.2 } else { 15.0 })?;
            let mut results = Vec::new();
            for name in workloads::NAMES {
                results.push(run_one(name, &run_args)?);
            }
            write_out(flag(args, "--out"), &results, smoke)?;
            Ok(results.iter().all(|r| r.correct))
        }
        _ => {
            let name = flag(args, "--workload").ok_or(
                "usage: stack_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>",
            )?;
            let r = run_one(&name, &run_args(args, 15.0)?)?;
            let line = report::contract_line(&r);
            let correct = r.correct;
            write_out(flag(args, "--out"), &[r], false)?;
            println!("{line}");
            Ok(correct)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("stack_bench: {e}");
            ExitCode::from(2)
        }
    }
}
