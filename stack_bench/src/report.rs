//! What a run prints and writes, and `compare` of two result files.

use crate::harness::{exec_threads, hw_threads};
use crate::json::{escape, Json};
use crate::run::RunResult;
use std::fmt::Write as _;

/// `"name": {"value": v, "unit": "u"}, ...` for every metric of the run.
fn metrics_json(r: &RunResult) -> String {
    let items: Vec<String> = (r.metrics.iter())
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*v)
            )
        })
        .collect();
    items.join(", ")
}

/// The contract line: the last line of standard output.
pub fn contract_line(r: &RunResult) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics_json(r)
    )
}

/// Every digit of a finite number; JSON has no NaN or infinity.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Every metric by name with its unit, and the rows behind them.
pub fn table(r: &RunResult) -> String {
    let mut t = String::new();
    let kind = if r.trace {
        "per-layer (traced run)"
    } else {
        "end-to-end (tracing off)"
    };
    let _ = writeln!(
        t,
        "== {} seed={} seconds={} — {kind} ==",
        r.workload, r.seed, r.seconds
    );
    for (name, unit, v) in &r.metrics {
        let _ = writeln!(t, "  {name:<34} {v:>16.4} {unit}");
    }
    let _ = writeln!(
        t,
        "  ops_attempted={} ops_failed={} latency_samples={} rounds={} correct={}",
        r.attempted, r.failed, r.samples, r.rounds, r.correct
    );
    if !r.progs.is_empty() && r.progs.len() <= 16 {
        let _ = writeln!(
            t,
            "  per program:          samples  latency_p50_ms  exec_p50_ms"
        );
        for p in &r.progs {
            let _ = writeln!(
                t,
                "    {:<20} {:>6} {:>15.4} {:>12.4}",
                p.tag, p.samples, p.latency_p50_ms, p.exec_p50_ms
            );
        }
    }
    if !r.kernels.is_empty() {
        let metric = |n: &str| r.metrics.iter().find(|m| m.0 == n).map_or(0.0, |m| m.2);
        let _ = writeln!(
            t,
            "  kernels on a pinned heuristic plan (flops and bytes computed from sizes), beside the \
             measured host roofline: triad {:.2} GB/s, fma {:.2} GFLOP/s at {} threads",
            metric("host.triad_gbps_mt"),
            metric("host.fma_gflops_mt"),
            exec_threads()
        );
        let _ = writeln!(
            t,
            "    tag                        ms   GFLOP/s      GB/s  roofline_frac"
        );
        for k in &r.kernels {
            let _ = writeln!(
                t,
                "    {:<20} {:>9.3} {:>9.3} {:>9.3} {:>14.4}",
                k.tag, k.ms, k.gflops, k.gbps, k.roofline_frac
            );
        }
    }
    for n in &r.notes {
        let _ = writeln!(t, "  note: {n}");
    }
    t
}

/// One run as a JSON object for a result file.
pub fn result_json(r: &RunResult, smoke: bool) -> String {
    let progs: Vec<String> = r
        .progs
        .iter()
        .map(|p| {
            format!(
                "{{\"tag\": \"{}\", \"samples\": {}, \"latency_p50_ms\": {}, \"exec_p50_ms\": {}}}",
                escape(&p.tag),
                p.samples,
                num(p.latency_p50_ms),
                num(p.exec_p50_ms)
            )
        })
        .collect();
    let kernels: Vec<String> = r
        .kernels
        .iter()
        .map(|k| {
            format!(
                "{{\"tag\": \"{}\", \"ms\": {}, \"gflops_computed\": {}, \"gbps_computed\": {}, \"roofline_frac\": {}}}",
                escape(&k.tag),
                num(k.ms),
                num(k.gflops),
                num(k.gbps),
                num(k.roofline_frac)
            )
        })
        .collect();
    let notes: Vec<String> = r
        .notes
        .iter()
        .map(|n| format!("\"{}\"", escape(n)))
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {smoke}, \
         \"hw_threads\": {}, \"workers\": 2, \"exec_threads\": {}, \"correct\": {}, \
         \"ops_attempted\": {}, \"ops_failed\": {}, \"latency_samples\": {}, \"rounds\": {}, \
         \"wall_s\": {}, \"metrics\": {{{}}}, \"programs\": [{}], \"kernels\": [{}], \"notes\": [{}]}}",
        r.workload,
        r.seed,
        num(r.seconds),
        r.trace,
        hw_threads(),
        exec_threads(),
        r.correct,
        r.attempted,
        r.failed,
        r.samples,
        r.rounds,
        num(r.wall_s),
        metrics_json(r),
        progs.join(", "),
        kernels.join(", "),
        notes.join(", ")
    )
}

pub fn results_file(results: &[String]) -> String {
    format!("{{\"results\": [\n{}\n]}}\n", results.join(",\n"))
}

/// The spans of a traced run: `parent` indexes into the same list.
pub fn trace_json(r: &RunResult) -> String {
    let mut t = String::with_capacity(r.spans.len() * 96 + 64);
    let _ = write!(
        t,
        "{{\"workload\": \"{}\", \"seed\": {}, \"spans\": [",
        r.workload, r.seed
    );
    for (i, s) in r.spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            t,
            "{}\n{{\"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \"start_s\": {}, \"end_s\": {}}}",
            if i == 0 { "" } else { "," },
            s.name,
            s.request,
            num(s.start_s),
            num(s.end_s)
        );
    }
    t.push_str("\n]}\n");
    t
}

// ---------------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------------

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn compare_files(a: &str, b: &str, benchmark: &str) -> Result<bool, String> {
    compare(&load(a)?, &load(b)?, &load(benchmark)?)
}

/// Print one row per (workload, end-to-end metric) of results `a` (the
/// base) and `b`; `Ok(false)` when `b` is worse than `a` by more than a
/// metric's bound, or either run had failures.
pub fn compare(a: &Json, b: &Json, bench: &Json) -> Result<bool, String> {
    let (a_path, b_path) = ("the base", "the new result");
    let runs = |j: &Json, path: &str| -> Result<Vec<Json>, String> {
        let runs: Vec<Json> = j
            .get("results")
            .map(|r| r.arr().to_vec())
            .unwrap_or_default();
        for r in &runs {
            if r.get("smoke") == Some(&Json::Bool(true)) {
                return Err(format!(
                    "{path} holds a smoke run; smoke runs are not comparable"
                ));
            }
            if r.get("trace") == Some(&Json::Bool(true)) {
                return Err(format!(
                    "{path} holds a traced run; end-to-end metrics come from untraced runs only"
                ));
            }
        }
        Ok(runs)
    };
    let (a_runs, b_runs) = (runs(a, a_path)?, runs(b, b_path)?);
    let mut pass = true;
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "base", "new", "worse by", "bound"
    );
    for ra in &a_runs {
        let name = ra.get("workload").and_then(Json::str).unwrap_or("?");
        let Some(rb) = b_runs
            .iter()
            .find(|r| r.get("workload").and_then(Json::str) == Some(name))
        else {
            println!("{name:<16} missing from {b_path}");
            pass = false;
            continue;
        };
        for r in [ra, rb] {
            let failed = r.get("ops_failed").and_then(Json::num).unwrap_or(1.0);
            if failed != 0.0 || r.get("correct") != Some(&Json::Bool(true)) {
                println!("{name:<16} a run has ops_failed={failed} or correct=false");
                pass = false;
            }
        }
        for m in bench.get("end_to_end").map(Json::arr).unwrap_or_default() {
            let field = |k: &str| m.get(k).and_then(Json::str).unwrap_or("");
            let (metric, better) = (field("name"), field("better"));
            let bound = m.get("bound").and_then(Json::num).unwrap_or(0.0);
            let value = |r: &Json| r.get("metrics")?.get(metric)?.get("value")?.num();
            let (Some(va), Some(vb)) = (value(ra), value(rb)) else {
                println!("{name:<16} {metric:<16} missing");
                pass = false;
                continue;
            };
            let worse = if better == "higher" {
                (va - vb) / va
            } else {
                (vb - va) / va
            };
            let verdict = if worse > bound {
                pass = false;
                "REGRESSION"
            } else if worse < -bound {
                "better"
            } else {
                "same"
            };
            println!(
                "{name:<16} {metric:<16} {va:>14.4} {vb:>14.4} {:>8.2}% {:>6.1}%  {verdict}",
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(rps: f64) -> RunResult {
        RunResult {
            workload: "wire_toy_warm",
            seed: 1,
            seconds: 1.0,
            trace: false,
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![("req_per_s", "1/s", rps), ("latency_p50_ms", "ms", 1.0)],
            samples: 10,
            rounds: 2,
            wall_s: 1.0,
            progs: Vec::new(),
            kernels: Vec::new(),
            notes: vec!["a \"quoted\" note".into()],
            spans: Vec::new(),
        }
    }

    #[test]
    fn contract_line_and_result_file_are_valid_json() {
        let r = result(1234.5678);
        let line = Json::parse(&contract_line(&r)).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.get("attempted").unwrap().num(), Some(10.0));
        let m = line.get("metrics").unwrap().get("req_per_s").unwrap();
        assert_eq!(m.get("value").unwrap().num(), Some(1234.5678));
        assert_eq!(m.get("unit").unwrap().str(), Some("1/s"));
        let file = Json::parse(&results_file(&[result_json(&r, true)])).unwrap();
        let run = &file.get("results").unwrap().arr()[0];
        assert_eq!(run.get("smoke"), Some(&Json::Bool(true)));
        assert_eq!(
            run.get("notes").unwrap().arr()[0].str(),
            Some("a \"quoted\" note")
        );
        Json::parse(&trace_json(&r)).unwrap();
    }

    #[test]
    fn compare_flags_a_regression_beyond_the_bound_and_refuses_smoke() {
        let file = |rps: f64, smoke: bool| {
            Json::parse(&results_file(&[result_json(&result(rps), smoke)])).unwrap()
        };
        let bench = Json::parse(
            r#"{"end_to_end": [{"name": "req_per_s", "unit": "1/s", "better": "higher", "bound": 0.08},
                {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let base = file(1000.0, false);
        assert_eq!(compare(&base, &file(950.0, false), &bench), Ok(true));
        assert_eq!(compare(&base, &file(900.0, false), &bench), Ok(false));
        assert_eq!(compare(&base, &file(1200.0, false), &bench), Ok(true));
        assert!(compare(&base, &file(1000.0, true), &bench).is_err());
    }
}
