//! Runtime statistics: cache counters and latency percentiles.

/// Bounded window of per-request latencies, in the caller's unit: the
/// runtime keeps one for end-to-end latency (submit → response, ms) and
/// one for *execution* latency (inside the executor proper, excluding
/// queueing, batching and response plumbing, µs).
///
/// Memory is bounded by `capacity` no matter how long the runtime
/// serves: once full, new samples overwrite the oldest (ring buffer),
/// so percentiles describe the most recent `capacity` requests — the
/// useful window for a long-lived server — and recording stays O(1) and
/// deterministic (no sampling RNG). The count and the mean run over
/// every sample ever recorded.
#[derive(Debug, Clone)]
pub struct LatencyWindow {
    samples: Vec<f64>,
    capacity: usize,
    next: usize,
    total: u64,
    sum: f64,
}

impl Default for LatencyWindow {
    fn default() -> LatencyWindow {
        LatencyWindow::new(4096)
    }
}

impl LatencyWindow {
    pub fn new(capacity: usize) -> LatencyWindow {
        LatencyWindow {
            samples: Vec::new(),
            capacity: capacity.max(1),
            next: 0,
            total: 0,
            sum: 0.0,
        }
    }

    pub fn record(&mut self, x: f64) {
        if !x.is_finite() || x < 0.0 {
            return;
        }
        if self.samples.len() < self.capacity {
            self.samples.push(x);
        } else {
            self.samples[self.next] = x;
        }
        self.next = (self.next + 1) % self.capacity;
        self.total += 1;
        self.sum += x;
    }

    /// Total samples ever recorded (not capped by the window).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean over every sample ever recorded; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.sum / self.total as f64
    }

    /// Nearest-rank p50 and p99 over the retained window, from one sorted
    /// copy (the caller holds the counters lock); zeros when empty.
    pub fn p50_p99(&self) -> (f64, f64) {
        if self.samples.is_empty() {
            return (0.0, 0.0);
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = |p: f64| {
            let r = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
            sorted[r.clamp(1, sorted.len()) - 1]
        };
        (rank(50.0), rank(99.0))
    }
}

/// A point-in-time snapshot of the runtime's counters.
#[derive(Debug, Clone, Default)]
pub struct RuntimeStats {
    /// Plan-cache lookups served from cache.
    pub plan_hits: u64,
    /// Plan-cache lookups that had to lower a fresh plan.
    pub plan_misses: u64,
    /// Plans dropped by LRU eviction.
    pub plan_evictions: u64,
    /// Background tune results hot-swapped over an incumbent plan.
    pub plan_swaps: u64,
    /// Plans currently resident.
    pub plans_resident: usize,
    /// Requests completed (successfully or with an error response).
    pub completed: u64,
    /// Batches executed (a batch = 1..=max_batch same-key requests).
    pub batches: u64,
    /// Largest batch executed so far.
    pub max_batch: usize,
    /// Background tune searches finished.
    pub tunes_done: u64,
    /// End-to-end latency (submit → response) in ms.
    pub latency_p50_ms: f64,
    pub latency_p99_ms: f64,
    pub latency_mean_ms: f64,
    /// Per-request *execution* latency (inside the executor, excluding
    /// queueing/batching) in microseconds, over the bounded reservoir of
    /// [`LatencyWindow`]. Zero until a request has executed.
    pub exec_p50_us: f64,
    pub exec_p99_us: f64,
    /// Requests whose execution latency was sampled (monotone).
    pub exec_samples: u64,
    /// Shard executions dispatched to each device of the pool, labelled
    /// (`gpu0`, `cpu1`, ...). Empty when the runtime serves GPU requests
    /// on a single device; CPU-device requests run on the shared host
    /// executor and are not pool dispatches.
    pub device_dispatches: Vec<(String, u64)>,
    /// Shard attempts re-run after an injected transient fault or a
    /// timed-out transfer (monotone; pool runtimes only).
    pub fault_retries: u64,
    /// Devices evicted from the pool health view after a crash.
    pub device_evictions: u64,
    /// Partitions re-planned over a shrunken pool after an eviction.
    pub repartitions: u64,
    /// Requests served while the pool was degraded (at least one device
    /// evicted, or lost during the request itself).
    pub degraded_requests: u64,
    /// Requests shed at admission because the bounded queue was full.
    pub shed_requests: u64,
    /// Requests answered `deadline exceeded` without executing.
    pub deadline_exceeded: u64,
    /// Worker panics isolated into per-request errors.
    pub worker_panics: u64,
    /// Plan-key circuit breakers tripped open.
    pub breaker_trips: u64,
    /// Requests failed fast by an open breaker.
    pub breaker_fast_fails: u64,
    /// Requests rejected because the runtime (or server) was draining.
    pub draining_rejects: u64,
    /// Gradient round trips (`submit_grad` / `SUBMIT ... grad=1`): one
    /// counted per round trip, however many adjoint parts it spawned.
    pub grad_requests: u64,
    /// Accepted requests whose program contains an indexed reduction
    /// (`rbi`): histogram-style apps and AD-emitted scatter adjoints.
    pub rbi_requests: u64,
    /// Memory-pool residency hits — pool launches that skipped an operand
    /// upload because the device already held the current bytes (monotone;
    /// `devices > 1` with a nonzero `mem_budget_bytes` only).
    pub mem_hits: u64,
    /// Memory-pool residency misses — operand blocks uploaded (monotone).
    pub mem_misses: u64,
    /// Resident blocks evicted under capacity pressure (monotone).
    pub mem_evictions: u64,
    /// Bytes currently resident across every device of the pool (gauge).
    pub mem_bytes_resident: u64,
    /// Upload bytes skipped thanks to residency (monotone).
    pub mem_bytes_avoided: u64,
    /// CPU executions served by a registry-compiled fast-path kernel
    /// (monotone; process-wide, shared with any co-resident executors).
    pub kernel_hits: u64,
    /// CPU executions that were fast-path candidates but fell back to the
    /// VM or legacy kernels, with a recorded reason (monotone).
    pub kernel_fallbacks: u64,
    /// Injected shard hangs caught by the watchdog (monotone).
    pub fault_hangs: u64,
    /// Hung or straggling shards hedged onto a healthy spare (monotone).
    pub fault_hedges: u64,
    /// Health probes run against out-of-rotation devices (monotone).
    pub health_probes: u64,
    /// Devices demoted to probation after a hang (monotone).
    pub health_probations: u64,
    /// Devices reinstated into the rotation after passing their probe
    /// quota (monotone).
    pub health_reinstatements: u64,
    /// Resident-buffer corruptions detected by fingerprint revalidation
    /// and repaired with a fresh upload (monotone).
    pub corruptions_detected: u64,
    /// Current health state of each pool device, labelled
    /// (`gpu0`, ...) → `healthy`/`probation`/`evicted`/`reinstating`
    /// (gauge; empty for single-device runtimes).
    pub device_health: Vec<(String, String)>,
    /// Requests shed at admission because their tenant's queue was at its
    /// per-tenant quota (a subset of `shed_requests`).
    pub tenant_shed: u64,
    /// Requests dispatched to workers, per tenant (`default` for requests
    /// submitted without a tenant). Sorted by tenant name.
    pub tenant_dispatches: Vec<(String, u64)>,
    /// Connections that negotiated pipelined (`PIPE`) framing (monotone).
    pub pipelined_connections: u64,
    /// Frames served over pipelined connections (monotone).
    pub pipelined_frames: u64,
    /// Requests routed to each runtime shard by a front, labelled
    /// (`shard0`, ...). Empty unless the snapshot came from a front's
    /// shard merge.
    pub shard_routes: Vec<(String, u64)>,
}

impl RuntimeStats {
    pub fn hit_rate(&self) -> f64 {
        let total = self.plan_hits + self.plan_misses;
        if total == 0 {
            0.0
        } else {
            self.plan_hits as f64 / total as f64
        }
    }

    /// Mean number of requests per executed batch.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.completed as f64 / self.batches as f64
        }
    }

    /// Whether any fault/recovery activity has been recorded.
    pub fn has_faults(&self) -> bool {
        self.fault_retries > 0
            || self.device_evictions > 0
            || self.repartitions > 0
            || self.degraded_requests > 0
    }

    /// Whether any training-shaped traffic (gradient round trips or
    /// indexed-reduction programs) has been served.
    pub fn has_training(&self) -> bool {
        self.grad_requests > 0 || self.rbi_requests > 0
    }

    /// Whether the self-healing layer has recorded any activity (hangs,
    /// hedges, probes, transitions, corruption repairs) or any device is
    /// currently out of the rotation.
    pub fn has_healing(&self) -> bool {
        self.fault_hangs > 0
            || self.fault_hedges > 0
            || self.health_probes > 0
            || self.health_probations > 0
            || self.health_reinstatements > 0
            || self.corruptions_detected > 0
            || self.device_health.iter().any(|(_, h)| h != "healthy")
    }

    /// Whether tenant-aware scheduling has recorded anything beyond the
    /// default tenant's traffic (a shed, or a named tenant dispatching).
    pub fn has_tenants(&self) -> bool {
        self.tenant_shed > 0 || self.tenant_dispatches.iter().any(|(t, _)| t != "default")
    }

    /// Whether any connection has negotiated pipelined framing.
    pub fn has_pipeline(&self) -> bool {
        self.pipelined_connections > 0 || self.pipelined_frames > 0
    }

    /// Merge per-shard snapshots into one front-level view.
    ///
    /// Counters sum across shards; latency percentiles take the max (an
    /// upper bound — exact cross-shard percentiles would need the raw
    /// reservoirs); per-device labels are prefixed `sN-` so shards stay
    /// tellable apart; per-tenant dispatches merge by tenant name. The
    /// fast-kernel counters are process-wide (every shard sees the same
    /// registry), so they take the max rather than summing.
    /// `shard_routes` is left empty — the front fills it from its own
    /// routing table.
    pub fn merge_shards(shards: &[RuntimeStats]) -> RuntimeStats {
        let mut m = RuntimeStats::default();
        let mut tenants: std::collections::BTreeMap<String, u64> = Default::default();
        for (i, s) in shards.iter().enumerate() {
            m.plan_hits += s.plan_hits;
            m.plan_misses += s.plan_misses;
            m.plan_evictions += s.plan_evictions;
            m.plan_swaps += s.plan_swaps;
            m.plans_resident += s.plans_resident;
            m.completed += s.completed;
            m.batches += s.batches;
            m.max_batch = m.max_batch.max(s.max_batch);
            m.tunes_done += s.tunes_done;
            m.latency_p50_ms = m.latency_p50_ms.max(s.latency_p50_ms);
            m.latency_p99_ms = m.latency_p99_ms.max(s.latency_p99_ms);
            m.latency_mean_ms = m.latency_mean_ms.max(s.latency_mean_ms);
            m.exec_p50_us = m.exec_p50_us.max(s.exec_p50_us);
            m.exec_p99_us = m.exec_p99_us.max(s.exec_p99_us);
            m.exec_samples += s.exec_samples;
            for (label, n) in &s.device_dispatches {
                m.device_dispatches.push((format!("s{i}-{label}"), *n));
            }
            m.fault_retries += s.fault_retries;
            m.device_evictions += s.device_evictions;
            m.repartitions += s.repartitions;
            m.degraded_requests += s.degraded_requests;
            m.shed_requests += s.shed_requests;
            m.deadline_exceeded += s.deadline_exceeded;
            m.worker_panics += s.worker_panics;
            m.breaker_trips += s.breaker_trips;
            m.breaker_fast_fails += s.breaker_fast_fails;
            m.draining_rejects += s.draining_rejects;
            m.grad_requests += s.grad_requests;
            m.rbi_requests += s.rbi_requests;
            m.mem_hits += s.mem_hits;
            m.mem_misses += s.mem_misses;
            m.mem_evictions += s.mem_evictions;
            m.mem_bytes_resident += s.mem_bytes_resident;
            m.mem_bytes_avoided += s.mem_bytes_avoided;
            m.kernel_hits = m.kernel_hits.max(s.kernel_hits);
            m.kernel_fallbacks = m.kernel_fallbacks.max(s.kernel_fallbacks);
            m.fault_hangs += s.fault_hangs;
            m.fault_hedges += s.fault_hedges;
            m.health_probes += s.health_probes;
            m.health_probations += s.health_probations;
            m.health_reinstatements += s.health_reinstatements;
            m.corruptions_detected += s.corruptions_detected;
            for (label, state) in &s.device_health {
                m.device_health
                    .push((format!("s{i}-{label}"), state.clone()));
            }
            m.tenant_shed += s.tenant_shed;
            for (t, n) in &s.tenant_dispatches {
                *tenants.entry(t.clone()).or_default() += *n;
            }
            m.pipelined_connections += s.pipelined_connections;
            m.pipelined_frames += s.pipelined_frames;
        }
        m.tenant_dispatches = tenants.into_iter().collect();
        m
    }

    /// The whole snapshot as one machine-readable JSON object (a single
    /// line, keys in declaration order). Hand-rolled: every value is a
    /// number, a string, or an object of numbers, so no escaping beyond
    /// device labels (alphanumeric by construction) is needed.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(768);
        s.push('{');
        let field = |s: &mut String, k: &str, v: String| {
            if s.len() > 1 {
                s.push(',');
            }
            s.push('"');
            s.push_str(k);
            s.push_str("\":");
            s.push_str(&v);
        };
        let num = |v: f64| {
            if v.is_finite() {
                format!("{v:.4}")
            } else {
                "null".into()
            }
        };
        field(&mut s, "plan_hits", self.plan_hits.to_string());
        field(&mut s, "plan_misses", self.plan_misses.to_string());
        field(&mut s, "plan_evictions", self.plan_evictions.to_string());
        field(&mut s, "plan_swaps", self.plan_swaps.to_string());
        field(&mut s, "plans_resident", self.plans_resident.to_string());
        field(&mut s, "hit_rate", num(self.hit_rate()));
        field(&mut s, "completed", self.completed.to_string());
        field(&mut s, "batches", self.batches.to_string());
        field(&mut s, "max_batch", self.max_batch.to_string());
        field(&mut s, "mean_batch", num(self.mean_batch()));
        field(&mut s, "tunes_done", self.tunes_done.to_string());
        field(&mut s, "latency_p50_ms", num(self.latency_p50_ms));
        field(&mut s, "latency_p99_ms", num(self.latency_p99_ms));
        field(&mut s, "latency_mean_ms", num(self.latency_mean_ms));
        field(&mut s, "exec_p50_us", num(self.exec_p50_us));
        field(&mut s, "exec_p99_us", num(self.exec_p99_us));
        field(&mut s, "exec_samples", self.exec_samples.to_string());
        let dispatches = self
            .device_dispatches
            .iter()
            .map(|(label, n)| format!("\"{label}\":{n}"))
            .collect::<Vec<_>>()
            .join(",");
        field(&mut s, "device_dispatches", format!("{{{dispatches}}}"));
        field(&mut s, "fault_retries", self.fault_retries.to_string());
        field(
            &mut s,
            "device_evictions",
            self.device_evictions.to_string(),
        );
        field(&mut s, "repartitions", self.repartitions.to_string());
        field(
            &mut s,
            "degraded_requests",
            self.degraded_requests.to_string(),
        );
        field(&mut s, "shed_requests", self.shed_requests.to_string());
        field(
            &mut s,
            "deadline_exceeded",
            self.deadline_exceeded.to_string(),
        );
        field(&mut s, "worker_panics", self.worker_panics.to_string());
        field(&mut s, "breaker_trips", self.breaker_trips.to_string());
        field(
            &mut s,
            "breaker_fast_fails",
            self.breaker_fast_fails.to_string(),
        );
        field(
            &mut s,
            "draining_rejects",
            self.draining_rejects.to_string(),
        );
        field(&mut s, "grad_requests", self.grad_requests.to_string());
        field(&mut s, "rbi_requests", self.rbi_requests.to_string());
        field(&mut s, "mem_hits", self.mem_hits.to_string());
        field(&mut s, "mem_misses", self.mem_misses.to_string());
        field(&mut s, "mem_evictions", self.mem_evictions.to_string());
        field(
            &mut s,
            "mem_bytes_resident",
            self.mem_bytes_resident.to_string(),
        );
        field(
            &mut s,
            "mem_bytes_avoided",
            self.mem_bytes_avoided.to_string(),
        );
        field(&mut s, "kernel_hits", self.kernel_hits.to_string());
        field(
            &mut s,
            "kernel_fallbacks",
            self.kernel_fallbacks.to_string(),
        );
        field(&mut s, "fault_hangs", self.fault_hangs.to_string());
        field(&mut s, "fault_hedges", self.fault_hedges.to_string());
        field(&mut s, "health_probes", self.health_probes.to_string());
        field(
            &mut s,
            "health_probations",
            self.health_probations.to_string(),
        );
        field(
            &mut s,
            "health_reinstatements",
            self.health_reinstatements.to_string(),
        );
        field(
            &mut s,
            "corruptions_detected",
            self.corruptions_detected.to_string(),
        );
        let health = self
            .device_health
            .iter()
            .map(|(label, state)| format!("\"{label}\":\"{state}\""))
            .collect::<Vec<_>>()
            .join(",");
        field(&mut s, "device_health", format!("{{{health}}}"));
        // tenant names come from the wire (validated charset) or the
        // library API (arbitrary) — escape the two JSON-breaking bytes
        let esc = |t: &str| t.replace('\\', "\\\\").replace('"', "\\\"");
        field(&mut s, "tenant_shed", self.tenant_shed.to_string());
        let tenants = self
            .tenant_dispatches
            .iter()
            .map(|(t, n)| format!("\"{}\":{n}", esc(t)))
            .collect::<Vec<_>>()
            .join(",");
        field(&mut s, "tenant_dispatches", format!("{{{tenants}}}"));
        field(
            &mut s,
            "pipelined_connections",
            self.pipelined_connections.to_string(),
        );
        field(
            &mut s,
            "pipelined_frames",
            self.pipelined_frames.to_string(),
        );
        let routes = self
            .shard_routes
            .iter()
            .map(|(label, n)| format!("\"{label}\":{n}"))
            .collect::<Vec<_>>()
            .join(",");
        field(&mut s, "shard_routes", format!("{{{routes}}}"));
        s.push('}');
        s
    }

    /// Whether the memory pool has seen any traffic (or holds any bytes).
    pub fn has_mem(&self) -> bool {
        self.mem_hits > 0
            || self.mem_misses > 0
            || self.mem_evictions > 0
            || self.mem_bytes_resident > 0
            || self.mem_bytes_avoided > 0
    }

    /// Whether the fast-path kernel registry has seen any traffic.
    pub fn has_fast(&self) -> bool {
        self.kernel_hits > 0 || self.kernel_fallbacks > 0
    }

    /// Whether any serving-edge protection (shedding, deadlines, panic
    /// isolation, breakers, draining) has fired.
    pub fn has_edge_events(&self) -> bool {
        self.shed_requests > 0
            || self.deadline_exceeded > 0
            || self.worker_panics > 0
            || self.breaker_trips > 0
            || self.breaker_fast_fails > 0
            || self.draining_rejects > 0
    }
}

impl std::fmt::Display for RuntimeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "requests={} batches={} (mean batch {:.2}, max {}) \
             plan cache: {} resident, {} hits / {} misses (rate {:.3}), \
             {} evictions, {} swaps, {} tunes; \
             latency ms: p50 {:.3} p99 {:.3} mean {:.3}",
            self.completed,
            self.batches,
            self.mean_batch(),
            self.max_batch,
            self.plans_resident,
            self.plan_hits,
            self.plan_misses,
            self.hit_rate(),
            self.plan_evictions,
            self.plan_swaps,
            self.tunes_done,
            self.latency_p50_ms,
            self.latency_p99_ms,
            self.latency_mean_ms,
        )?;
        if self.exec_samples > 0 {
            write!(
                f,
                "; exec us: p50 {:.1} p99 {:.1} ({} samples)",
                self.exec_p50_us, self.exec_p99_us, self.exec_samples
            )?;
        }
        if !self.device_dispatches.is_empty() {
            write!(f, "; dispatch:")?;
            for (label, n) in &self.device_dispatches {
                write!(f, " {label}={n}")?;
            }
        }
        if self.has_faults() {
            write!(
                f,
                "; faults: retries={} evictions={} repartitions={} degraded-requests={}",
                self.fault_retries,
                self.device_evictions,
                self.repartitions,
                self.degraded_requests
            )?;
        }
        if self.has_healing() {
            write!(
                f,
                "; healing: hangs={} hedges={} probes={} probations={} \
                 reinstatements={} corruptions={}",
                self.fault_hangs,
                self.fault_hedges,
                self.health_probes,
                self.health_probations,
                self.health_reinstatements,
                self.corruptions_detected
            )?;
            for (label, state) in &self.device_health {
                if state != "healthy" {
                    write!(f, " {label}={state}")?;
                }
            }
        }
        if self.has_training() {
            write!(
                f,
                "; training: grad-requests={} rbi-requests={}",
                self.grad_requests, self.rbi_requests
            )?;
        }
        if self.has_mem() {
            write!(
                f,
                "; mem: hits={} misses={} evictions={} resident={}B avoided={}B",
                self.mem_hits,
                self.mem_misses,
                self.mem_evictions,
                self.mem_bytes_resident,
                self.mem_bytes_avoided
            )?;
        }
        if self.has_fast() {
            write!(
                f,
                "; fast: kernel-hits={} kernel-fallbacks={}",
                self.kernel_hits, self.kernel_fallbacks
            )?;
        }
        if self.has_edge_events() {
            write!(
                f,
                "; edge: shed={} deadline-exceeded={} worker-panics={} \
                 breaker-trips={} breaker-fast-fails={} draining-rejects={}",
                self.shed_requests,
                self.deadline_exceeded,
                self.worker_panics,
                self.breaker_trips,
                self.breaker_fast_fails,
                self.draining_rejects
            )?;
        }
        if self.has_tenants() {
            write!(f, "; tenants: shed={}", self.tenant_shed)?;
            for (t, n) in &self.tenant_dispatches {
                write!(f, " {t}={n}")?;
            }
        }
        if self.has_pipeline() {
            write!(
                f,
                "; pipeline: connections={} frames={}",
                self.pipelined_connections, self.pipelined_frames
            )?;
        }
        if !self.shard_routes.is_empty() {
            write!(f, "; shards:")?;
            for (label, n) in &self.shard_routes {
                write!(f, " {label}={n}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let mut r = LatencyWindow::default();
        assert_eq!((r.p50_p99(), r.mean(), r.total()), ((0.0, 0.0), 0.0, 0));
        for i in 1..=100 {
            r.record(i as f64);
        }
        assert_eq!(r.p50_p99(), (50.0, 99.0));
        assert!((r.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn latency_window_is_bounded_and_counts_everything() {
        let mut r = LatencyWindow::new(100);
        for i in 1..=1000 {
            r.record(i as f64);
        }
        // ten times the capacity went in: the window holds the last 100
        // samples (901..=1000), the count and the mean cover all 1000
        assert_eq!(r.samples.len(), 100);
        assert_eq!(r.total(), 1000);
        assert_eq!(r.p50_p99(), (950.0, 999.0));
        assert!((r.mean() - 500.5).abs() < 1e-9);
        // non-finite and negative samples are dropped
        r.record(f64::NAN);
        r.record(-1.0);
        assert_eq!(r.total(), 1000);
    }

    #[test]
    fn exec_line_printed_only_when_sampled() {
        let mut s = RuntimeStats::default();
        assert!(!s.to_string().contains("exec us:"));
        s.exec_p50_us = 120.0;
        s.exec_p99_us = 450.5;
        s.exec_samples = 42;
        let line = s.to_string();
        assert!(
            line.contains("exec us: p50 120.0 p99 450.5 (42 samples)"),
            "{line}"
        );
    }

    #[test]
    fn display_includes_device_dispatches() {
        let mut s = RuntimeStats::default();
        assert!(!s.to_string().contains("dispatch:"));
        s.device_dispatches = vec![("gpu0".into(), 7), ("gpu1".into(), 7)];
        let line = s.to_string();
        assert!(line.contains("dispatch: gpu0=7 gpu1=7"), "{line}");
    }

    #[test]
    fn display_includes_fault_counters_only_when_nonzero() {
        let mut s = RuntimeStats::default();
        assert!(!s.has_faults());
        assert!(!s.to_string().contains("faults:"));
        s.fault_retries = 3;
        s.device_evictions = 1;
        s.repartitions = 1;
        s.degraded_requests = 40;
        assert!(s.has_faults());
        let line = s.to_string();
        assert!(
            line.contains("faults: retries=3 evictions=1 repartitions=1 degraded-requests=40"),
            "{line}"
        );
    }

    #[test]
    fn display_includes_edge_counters_only_when_nonzero() {
        let mut s = RuntimeStats::default();
        assert!(!s.has_edge_events());
        assert!(!s.to_string().contains("edge:"));
        s.shed_requests = 12;
        s.deadline_exceeded = 4;
        s.worker_panics = 3;
        s.breaker_trips = 1;
        s.breaker_fast_fails = 9;
        s.draining_rejects = 2;
        assert!(s.has_edge_events());
        let line = s.to_string();
        assert!(
            line.contains(
                "edge: shed=12 deadline-exceeded=4 worker-panics=3 \
                 breaker-trips=1 breaker-fast-fails=9 draining-rejects=2"
            ),
            "{line}"
        );
    }

    #[test]
    fn display_includes_mem_counters_only_when_nonzero() {
        let mut s = RuntimeStats::default();
        assert!(!s.has_mem());
        assert!(!s.to_string().contains("mem:"));
        s.mem_hits = 96;
        s.mem_misses = 8;
        s.mem_evictions = 2;
        s.mem_bytes_resident = 4096;
        s.mem_bytes_avoided = 1 << 20;
        assert!(s.has_mem());
        let line = s.to_string();
        assert!(
            line.contains("mem: hits=96 misses=8 evictions=2 resident=4096B avoided=1048576B"),
            "{line}"
        );
    }

    #[test]
    fn display_includes_fast_counters_only_when_nonzero() {
        let mut s = RuntimeStats::default();
        assert!(!s.has_fast());
        assert!(!s.to_string().contains("fast:"));
        s.kernel_hits = 17;
        s.kernel_fallbacks = 3;
        assert!(s.has_fast());
        let line = s.to_string();
        assert!(
            line.contains("fast: kernel-hits=17 kernel-fallbacks=3"),
            "{line}"
        );
    }

    /// Top-level keys of a one-line JSON object, in order. Tracks brace
    /// depth so nested objects (device_dispatches) don't leak labels in.
    fn top_level_keys(json: &str) -> Vec<String> {
        let mut keys = Vec::new();
        let mut depth = 0i32;
        let mut chars = json.char_indices().peekable();
        let mut expecting_key = false;
        while let Some((i, c)) = chars.next() {
            match c {
                '{' => {
                    depth += 1;
                    expecting_key = depth == 1;
                }
                '}' => depth -= 1,
                ',' if depth == 1 => expecting_key = true,
                '"' if depth == 1 && expecting_key => {
                    let rest = &json[i + 1..];
                    let end = rest.find('"').expect("closing quote");
                    keys.push(rest[..end].to_string());
                    expecting_key = false;
                    for _ in 0..end + 1 {
                        chars.next();
                    }
                }
                _ => {}
            }
        }
        keys
    }

    #[test]
    fn json_schema_is_stable_between_idle_and_busy_snapshots() {
        // the regression this guards: counters must NOT disappear from the
        // JSON form when zero — machine consumers key on a fixed schema
        let idle = RuntimeStats::default();
        let busy = RuntimeStats {
            plan_hits: 10,
            plan_misses: 2,
            plan_evictions: 1,
            plan_swaps: 1,
            plans_resident: 4,
            completed: 12,
            batches: 6,
            max_batch: 3,
            tunes_done: 2,
            latency_p50_ms: 0.4,
            latency_p99_ms: 1.9,
            latency_mean_ms: 0.6,
            exec_p50_us: 55.0,
            exec_p99_us: 410.0,
            exec_samples: 12,
            device_dispatches: vec![("gpu0".into(), 9), ("gpu1".into(), 3)],
            fault_retries: 1,
            device_evictions: 1,
            repartitions: 1,
            degraded_requests: 2,
            shed_requests: 3,
            deadline_exceeded: 1,
            worker_panics: 1,
            breaker_trips: 1,
            breaker_fast_fails: 2,
            draining_rejects: 1,
            grad_requests: 2,
            rbi_requests: 1,
            mem_hits: 96,
            mem_misses: 8,
            mem_evictions: 2,
            mem_bytes_resident: 4096,
            mem_bytes_avoided: 1 << 20,
            kernel_hits: 42,
            kernel_fallbacks: 7,
            fault_hangs: 2,
            fault_hedges: 2,
            health_probes: 5,
            health_probations: 2,
            health_reinstatements: 1,
            corruptions_detected: 3,
            device_health: vec![
                ("gpu0".into(), "healthy".into()),
                ("gpu1".into(), "probation".into()),
            ],
            tenant_shed: 4,
            tenant_dispatches: vec![("default".into(), 5), ("tenant-a".into(), 7)],
            pipelined_connections: 2,
            pipelined_frames: 64,
            shard_routes: vec![("shard0".into(), 30), ("shard1".into(), 34)],
        };
        let idle_keys = top_level_keys(&idle.to_json());
        let busy_keys = top_level_keys(&busy.to_json());
        assert_eq!(
            idle_keys, busy_keys,
            "JSON key set must not depend on which counters are nonzero"
        );
        for k in [
            "mem_hits",
            "mem_misses",
            "mem_evictions",
            "mem_bytes_resident",
            "mem_bytes_avoided",
            "kernel_hits",
            "kernel_fallbacks",
            "fault_hangs",
            "fault_hedges",
            "health_probes",
            "health_probations",
            "health_reinstatements",
            "corruptions_detected",
            "device_health",
            "tenant_shed",
            "tenant_dispatches",
            "pipelined_connections",
            "pipelined_frames",
            "shard_routes",
        ] {
            assert!(idle_keys.iter().any(|x| x == k), "missing {k}");
        }
        assert!(
            !idle_keys.iter().any(|k| k == "gpu0"),
            "nested labels are not top-level keys"
        );
        assert!(
            busy.to_json().contains("\"gpu1\":\"probation\""),
            "device health states are nested string values"
        );
        assert!(
            !idle_keys.iter().any(|k| k == "tenant-a" || k == "shard0"),
            "tenant and shard labels are not top-level keys"
        );
        assert!(
            busy.to_json().contains("\"tenant-a\":7"),
            "per-tenant dispatches are nested values"
        );
        assert!(
            busy.to_json().contains("\"shard0\":30"),
            "per-shard routes are nested values"
        );
    }

    #[test]
    fn display_includes_tenant_and_pipeline_sections_only_when_active() {
        let mut s = RuntimeStats::default();
        assert!(!s.has_tenants());
        assert!(!s.has_pipeline());
        // default-tenant-only traffic does not print a tenant section
        s.tenant_dispatches = vec![("default".into(), 10)];
        assert!(!s.has_tenants());
        s.tenant_shed = 3;
        s.tenant_dispatches.push(("noisy".into(), 90));
        s.pipelined_connections = 2;
        s.pipelined_frames = 40;
        s.shard_routes = vec![("shard0".into(), 25), ("shard1".into(), 75)];
        assert!(s.has_tenants());
        assert!(s.has_pipeline());
        let line = s.to_string();
        assert!(
            line.contains("tenants: shed=3 default=10 noisy=90"),
            "{line}"
        );
        assert!(line.contains("pipeline: connections=2 frames=40"), "{line}");
        assert!(line.contains("shards: shard0=25 shard1=75"), "{line}");
    }

    #[test]
    fn merge_shards_sums_counters_and_prefixes_labels() {
        let a = RuntimeStats {
            completed: 10,
            shed_requests: 1,
            latency_p99_ms: 2.0,
            max_batch: 3,
            device_dispatches: vec![("gpu0".into(), 4)],
            tenant_dispatches: vec![("default".into(), 6), ("t1".into(), 4)],
            tenant_shed: 1,
            pipelined_frames: 8,
            kernel_hits: 100,
            ..RuntimeStats::default()
        };
        let b = RuntimeStats {
            completed: 20,
            shed_requests: 2,
            latency_p99_ms: 5.0,
            max_batch: 2,
            device_dispatches: vec![("gpu0".into(), 9)],
            tenant_dispatches: vec![("t1".into(), 20)],
            pipelined_frames: 16,
            kernel_hits: 100,
            ..RuntimeStats::default()
        };
        let m = RuntimeStats::merge_shards(&[a, b]);
        assert_eq!(m.completed, 30);
        assert_eq!(m.shed_requests, 3);
        assert_eq!(m.tenant_shed, 1);
        assert_eq!(m.max_batch, 3);
        assert!(
            (m.latency_p99_ms - 5.0).abs() < 1e-12,
            "percentiles take max"
        );
        assert_eq!(
            m.device_dispatches,
            vec![("s0-gpu0".to_string(), 4), ("s1-gpu0".to_string(), 9)]
        );
        assert_eq!(
            m.tenant_dispatches,
            vec![("default".to_string(), 6), ("t1".to_string(), 24)]
        );
        assert_eq!(m.pipelined_frames, 24);
        assert_eq!(
            m.kernel_hits, 100,
            "process-wide counters take max, not sum"
        );
        assert!(m.shard_routes.is_empty(), "routes are filled by the front");
    }

    #[test]
    fn display_includes_healing_only_when_active() {
        let mut s = RuntimeStats::default();
        assert!(!s.has_healing());
        assert!(!s.to_string().contains("healing:"));
        // an all-healthy gauge alone does not make the section print
        s.device_health = vec![("gpu0".into(), "healthy".into())];
        assert!(!s.has_healing());
        s.fault_hangs = 1;
        s.fault_hedges = 1;
        s.health_probes = 2;
        s.health_probations = 1;
        s.health_reinstatements = 1;
        s.corruptions_detected = 4;
        s.device_health.push(("gpu1".into(), "evicted".into()));
        assert!(s.has_healing());
        let line = s.to_string();
        assert!(
            line.contains(
                "healing: hangs=1 hedges=1 probes=2 probations=1 \
                 reinstatements=1 corruptions=4 gpu1=evicted"
            ),
            "{line}"
        );
        assert!(!line.contains("gpu0=healthy"), "{line}");
    }

    #[test]
    fn hit_rate_and_mean_batch() {
        let s = RuntimeStats {
            plan_hits: 9,
            plan_misses: 1,
            completed: 20,
            batches: 5,
            ..RuntimeStats::default()
        };
        assert!((s.hit_rate() - 0.9).abs() < 1e-12);
        assert!((s.mean_batch() - 4.0).abs() < 1e-12);
    }
}
