//! The metric names, units and directions: the single list that the
//! reports are checked against, and that `BENCHMARK.json` repeats.

/// `(name, unit, better, bound)`: what a user of the serving stack sees.
/// `bound` is the share of the parent's median by which the metric may
/// worsen before it counts as a regression: the contract's ceiling, because
/// on the 2-core VM this was built on ten runs of unchanged code spread by
/// 6 to 17 % (README, "On the bounds").
pub const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("req_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("cpu_ms_per_req", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
];

/// `(name, unit, better)`: single layers, from the traced run. Modelled
/// milliseconds carry their own unit so they never share a column with
/// measured time.
pub const PER_LAYER: [(&str, &str, &str); 67] = [
    ("client.latency_p99_ms", "ms", "lower"),
    ("server.edge_ms_p50", "ms", "lower"),
    ("server.edge_ms_p99", "ms", "lower"),
    ("server.clone_inputs_ms", "ms", "lower"),
    ("server.gen_inputs_ms", "ms", "lower"),
    ("server.checksum_ms", "ms", "lower"),
    ("frontend.compile_us.python", "us", "lower"),
    ("frontend.compile_us.c", "us", "lower"),
    ("frontend.compile_us.fortran", "us", "lower"),
    ("frontend.compile_us.dsl", "us", "lower"),
    ("lowering.schedule_us", "us", "lower"),
    ("lowering.plan_build_us", "us", "lower"),
    ("lowering.partition_us", "us", "lower"),
    ("plan_cache.key_us", "us", "lower"),
    ("plan_cache.lookup_us", "us", "lower"),
    ("plan_cache.insert_evict_us", "us", "lower"),
    ("plan_cache.hits", "count", "higher"),
    ("plan_cache.misses", "count", "lower"),
    ("plan_cache.evictions", "count", "lower"),
    ("plan_cache.reply_hit_ratio", "ratio", "higher"),
    ("runtime.queue_ms_p50", "ms", "lower"),
    ("runtime.queue_ms_p90", "ms", "lower"),
    ("runtime.batches", "count", "higher"),
    ("runtime.batch_mean", "count", "higher"),
    ("runtime.batch_max", "count", "higher"),
    ("runtime.completed", "count", "higher"),
    ("runtime.submit_overhead_us", "us", "lower"),
    ("runtime.stats_snapshot_us", "us", "lower"),
    ("runtime.shed", "count", "lower"),
    ("runtime.deadline_exceeded", "count", "lower"),
    ("runtime.worker_panics", "count", "lower"),
    ("runtime.breaker_fast_fails", "count", "lower"),
    ("backend.exec_ms_p50", "ms", "lower"),
    ("backend.kernel_hits", "count", "higher"),
    ("backend.kernel_fallbacks", "count", "lower"),
    ("backend.fast_hit_ratio", "ratio", "higher"),
    ("prog.latency_p50_geomean_ms", "ms", "lower"),
    ("prog.exec_p50_geomean_ms", "ms", "lower"),
    ("kernel.gflops", "GFLOP/s", "higher"),
    ("kernel.gbps", "GB/s", "higher"),
    ("kernel.roofline_frac", "ratio", "higher"),
    ("host.triad_gbps_1t", "GB/s", "higher"),
    ("host.triad_gbps_mt", "GB/s", "higher"),
    ("host.fma_gflops_1t", "GFLOP/s", "higher"),
    ("host.fma_gflops_mt", "GFLOP/s", "higher"),
    ("dist.run_host_ms", "ms", "lower"),
    ("dist.device_dispatches", "count", "higher"),
    ("dist.model_exec_ms", "model_ms", "lower"),
    ("dist.model_h2d_ms", "model_ms", "lower"),
    ("dist.model_combine_ms", "model_ms", "lower"),
    ("dist.model_d2h_ms", "model_ms", "lower"),
    ("dist.chaos_host_ms", "ms", "lower"),
    ("dist.chaos_retries", "count", "lower"),
    ("dist.chaos_hedges", "count", "lower"),
    ("dist.repartitions", "count", "lower"),
    ("mem.hits", "count", "higher"),
    ("mem.misses", "count", "lower"),
    ("mem.evictions", "count", "lower"),
    ("mem.hit_ratio", "ratio", "higher"),
    ("mem.bytes_avoided", "B", "higher"),
    ("ad.parts", "count", "lower"),
    ("ad.grad_roundtrip_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.residual_pct", "%", "lower"),
    ("trace.spans", "count", "higher"),
    ("trace.untraced_req_per_s", "1/s", "higher"),
    ("trace.traced_req_per_s", "1/s", "higher"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::{workload, NAMES};

    /// `BENCHMARK.json` is what the pipeline reads; this list is what the
    /// binary prints. They must say the same thing.
    #[test]
    fn benchmark_json_repeats_these_lists() {
        let text =
            std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at the root");
        let b = Json::parse(&text).unwrap();
        let field = |j: &Json, k: &str| j.get(k).and_then(Json::str).unwrap().to_string();

        let e2e: Vec<_> = b.get("end_to_end").unwrap().arr().iter().collect();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, (name, unit, better, bound)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(j, "name"), name);
            assert_eq!(field(j, "unit"), unit);
            assert_eq!(field(j, "better"), better);
            assert_eq!(j.get("bound").unwrap().num(), Some(bound));
            assert!(bound <= 0.25);
        }
        let layers: Vec<_> = b.get("per_layer").unwrap().arr().iter().collect();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(j, "name"), name);
            assert_eq!(field(j, "unit"), unit);
            assert_eq!(field(j, "better"), better);
        }
        let wls: Vec<_> = b.get("workloads").unwrap().arr().iter().collect();
        assert_eq!(wls.len(), NAMES.len());
        for (j, name) in wls.iter().zip(NAMES) {
            assert_eq!(field(j, "name"), name);
            assert_eq!(field(j, "why"), workload(name).unwrap().why);
        }
        assert_eq!(
            b.get("paths").unwrap().arr(),
            [Json::Str("stack_bench".into())]
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
