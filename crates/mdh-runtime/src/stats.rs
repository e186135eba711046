//! Runtime statistics: one table of metrics and a fixed-size latency
//! histogram (DESIGN.md §6 "Stats").

pub use crate::histogram::Histogram;
use crate::runtime::DEFAULT_TENANT;
use std::fmt;

/// `n / d`, and 0 while `d` is still zero.
fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// The process's minor page faults so far, 0 where `/proc/self/stat`
/// cannot be read.
pub(crate) fn minor_faults() -> u64 {
    std::fs::read_to_string("/proc/self/stat").map_or(0, |stat| minor_faults_of(&stat))
}

/// Field 10 (`minflt`) of a `/proc/<pid>/stat` line, 0 if it has none.
/// The command name in field 2 may hold spaces and `)`, so the fields
/// resume after the last `)`: field 3 onwards.
fn minor_faults_of(stat: &str) -> u64 {
    let rest = stat.rfind(')').map_or("", |i| &stat[i + 1..]);
    let minflt = rest.split_whitespace().nth(10 - 3);
    minflt.and_then(|f| f.parse().ok()).unwrap_or(0)
}

/// The health state that does not count as healing activity.
const HEALTHY: &str = "healthy";

/// One metric's value, as the JSON and text emitters read it.
enum Val<'a> {
    /// A counter or a gauge.
    Count(u64),
    /// A derived ratio, percentile or mean.
    Ratio(f64),
    /// Counts by label.
    Counts(&'a [(String, u64)]),
    /// States by label.
    States(&'a [(String, String)]),
}

// A scalar is copied out, so a derived key's accessor result converts
// the same way a stored field does.
impl From<&u64> for Val<'static> {
    fn from(n: &u64) -> Self {
        Val::Count(*n)
    }
}
impl From<&usize> for Val<'static> {
    fn from(n: &usize) -> Self {
        Val::Count(*n as u64)
    }
}
impl From<&f64> for Val<'static> {
    fn from(x: &f64) -> Self {
        Val::Ratio(*x)
    }
}
impl<'a> From<&'a Vec<(String, u64)>> for Val<'a> {
    fn from(v: &'a Vec<(String, u64)>) -> Self {
        Val::Counts(v)
    }
}
impl<'a> From<&'a Vec<(String, String)>> for Val<'a> {
    fn from(v: &'a Vec<(String, String)>) -> Self {
        Val::States(v)
    }
}

impl Val<'_> {
    /// Whether this value makes its text section print: a nonzero
    /// count, a label other than the default tenant's, a device that is
    /// not healthy. Derived values never do.
    fn active(&self) -> bool {
        match self {
            Val::Count(n) => *n > 0,
            Val::Ratio(_) => false,
            Val::Counts(v) => v.iter().any(|(label, _)| label != DEFAULT_TENANT),
            Val::States(v) => v.iter().any(|(_, state)| state != HEALTHY),
        }
    }

    /// Write the value into the `{}` (or `{:.N}`) slot of `tpl`; a
    /// labelled value fills the template once per `label=value` entry,
    /// healthy devices left out.
    fn text(&self, tpl: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // proof: every row's template has one slot (`every_row_template_renders`)
        let (pre, rest) = tpl.split_once('{').expect("template has a slot");
        // proof: ... and it closes (the same test)
        let (spec, post) = rest.split_once('}').expect("template slot closes");
        match self {
            Val::Count(n) => write!(f, "{pre}{n}{post}"),
            Val::Ratio(x) => {
                let prec = spec.strip_prefix(":.").and_then(|p| p.parse().ok());
                write!(f, "{pre}{x:.*}{post}", prec.unwrap_or(3))
            }
            Val::Counts(v) => v
                .iter()
                .try_for_each(|(label, n)| write!(f, "{pre}{label}={n}{post}")),
            Val::States(v) => v
                .iter()
                .filter(|(_, state)| state != HEALTHY)
                .try_for_each(|(label, state)| write!(f, "{pre}{label}={state}{post}")),
        }
    }

    fn json(&self, out: &mut String) {
        match self {
            Val::Count(n) => out.push_str(&n.to_string()),
            Val::Ratio(x) if x.is_finite() => out.push_str(&format!("{x:.4}")),
            Val::Ratio(_) => out.push_str("null"),
            Val::Counts(v) => json_object(out, v, |out, n| out.push_str(&n.to_string())),
            Val::States(v) => json_object(out, v, |out, state| json_str(out, state)),
        }
    }
}

/// Append `t` as a JSON string. Labels reach here from the wire (a
/// validated charset) and from the library API (arbitrary), so quotes,
/// backslashes and control bytes are escaped: the object stays one line.
fn json_str(out: &mut String, t: &str) {
    out.push('"');
    for c in t.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn json_object<V>(out: &mut String, entries: &[(String, V)], value: impl Fn(&mut String, &V)) {
    out.push('{');
    for (i, (label, v)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_str(out, label);
        out.push(':');
        value(out, v);
    }
    out.push('}');
}

/// One JSON key of the snapshot and, when `section` is not empty, its
/// place in the text line.
struct Row {
    key: &'static str,
    get: for<'a> fn(&'a RuntimeStats) -> Val<'a>,
    section: &'static str,
    /// Print position within the section where it differs from table order.
    slot: u8,
    tpl: &'static str,
}

/// Text sections in print order: id, header, and whether the section
/// prints even when nothing in it is active.
const SECTIONS: &[(&str, &str, bool)] = &[
    ("head", "", true),
    ("latency", "; latency ms:", true),
    ("exec", "; exec us:", false),
    ("dispatch", "; dispatch:", false),
    ("faults", "; faults:", false),
    ("healing", "; healing:", false),
    ("training", "; training:", false),
    ("mem", "; mem:", false),
    ("fast", "; fast:", false),
    ("host", "; host:", false),
    ("edge", "; edge:", false),
    ("tenants", "; tenants:", false),
    ("pipeline", "; pipeline:", false),
];

/// Builds [`RuntimeStats`], its accessors, `KEYS` and `ROWS` from the
/// table at the bottom of this file, one row per metric:
///
/// * `name: Type` — a stored field and a JSON key of the same name;
/// * `name: Type, hidden` — a stored field read only through derived
///   keys;
/// * `name() -> Type = |s| expr` — a derived key and the public accessor
///   that computes it.
///
/// A row that also appears in the text line ends `, section "template"`,
/// or `, section[slot] "template"` where the line's order is not the
/// table's.
macro_rules! metrics {
    (@ [$($f:tt)*] $r:tt $d:tt
     $(#[$doc:meta])* $name:ident: $ty:ty, hidden; $($rest:tt)*) => {
        metrics!(@ [$($f)* {$(#[$doc])* $name: $ty}] $r $d $($rest)*);
    };
    (@ [$($f:tt)*] [$($r:tt)*] $d:tt $(#[$doc:meta])* $name:ident: $ty:ty
     $(, $sec:ident $([$slot:literal])? $tpl:literal)?; $($rest:tt)*) => {
        metrics!(@ [$($f)* {$(#[$doc])* $name: $ty}]
            [$($r)* {$name, |s| Val::from(&s.$name) $(, $sec $([$slot])? $tpl)?}] $d $($rest)*);
    };
    (@ $f:tt [$($r:tt)*] [$($d:tt)*]
     $(#[$doc:meta])* $name:ident() -> $ty:ty = |$s:ident| $body:expr
     $(, $sec:ident $([$slot:literal])? $tpl:literal)?; $($rest:tt)*) => {
        metrics!(@ $f [$($r)* {$name, |s| Val::from(&s.$name()) $(, $sec $([$slot])? $tpl)?}]
            [$($d)* {$(#[$doc])* $name -> $ty = |$s| $body}] $($rest)*);
    };
    (@ [$({$(#[$doc:meta])* $field:ident: $ty:ty})*]
       [$({$key:ident, $get:expr $(, $sec:ident $([$slot:literal])? $tpl:literal)?})*]
       [$({$(#[$ddoc:meta])* $derived:ident -> $dty:ty = |$s:ident| $body:expr})*]) => {
        /// A point-in-time snapshot of the runtime's counters.
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct RuntimeStats {
            $($(#[$doc])* pub $field: $ty,)*
        }

        impl RuntimeStats {
            /// Top-level keys of [`RuntimeStats::to_json`], in order.
            pub const KEYS: &'static [&'static str] = &[$(stringify!($key)),*];

            $($(#[$ddoc])* pub fn $derived(&self) -> $dty {
                let $s = self;
                $body
            })*
        }

        const ROWS: &[Row] = &[$(Row {
            key: stringify!($key),
            get: $get,
            section: concat!("" $(, stringify!($sec))?),
            slot: 0 $($(+ $slot)?)?,
            tpl: concat!("" $(, $tpl)?),
        }),*];
    };
    ($($table:tt)*) => { metrics!(@ [] [] [] $($table)*); };
}

impl RuntimeStats {
    /// The whole snapshot as one machine-readable JSON object: a single
    /// line, every key of [`RuntimeStats::KEYS`] present whether or not
    /// its value is zero.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        for (i, row) in ROWS.iter().enumerate() {
            out.push(if i == 0 { '{' } else { ',' });
            json_str(&mut out, row.key);
            out.push(':');
            (row.get)(self).json(&mut out);
        }
        out.push('}');
        out
    }

    /// Whether anything in the text section `id` is active.
    fn active(&self, id: &str) -> bool {
        let mut rows = ROWS.iter().filter(|r| r.section == id);
        rows.any(|r| (r.get)(self).active())
    }
}

impl fmt::Display for RuntimeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &(id, header, always) in SECTIONS {
            if !always && !self.active(id) {
                continue;
            }
            let mut rows: Vec<&Row> = ROWS.iter().filter(|r| r.section == id).collect();
            rows.sort_by_key(|r| r.slot);
            f.write_str(header)?;
            for row in rows {
                (row.get)(self).text(row.tpl, f)?;
            }
        }
        Ok(())
    }
}

metrics! {
    /// Plan-cache lookups served from cache.
    plan_hits: u64, head[5] " {} hits /";
    /// Plan-cache lookups that had to lower a fresh plan.
    plan_misses: u64, head[6] " {} misses";
    /// Plans dropped by LRU eviction.
    plan_evictions: u64, head[8] " {} evictions";
    /// Plans currently resident.
    plans_resident: usize, head[4] " plan cache: {} resident,";
    /// Each resident plan's route, labelled (device, representative
    /// program name, sizes, e.g. `cpu matvec 256x512`) → `fast`,
    /// `vm: <why not fast>` or `reference: <why not the VM>` (gauge;
    /// JSON only).
    plan_routes: Vec<(String, String)>;
    /// Share of plan-cache lookups served from the cache; 0 before any.
    hit_rate() -> f64 = |s| ratio(s.plan_hits, s.plan_hits + s.plan_misses),
        head[7] " (rate {:.3}),";
    /// Requests completed (successfully or with an error response).
    completed: u64, head[0] "requests={}";
    /// Batches executed (a batch = 1..=max_batch same-key requests).
    batches: u64, head[1] " batches={}";
    /// Requests that were part of an executed batch: `completed` less
    /// those answered `deadline exceeded` or failed fast by a breaker
    /// before joining one.
    batched_requests: u64;
    /// Largest batch executed so far.
    max_batch: usize, head[3] " max {})";
    /// Mean number of requests per executed batch.
    mean_batch() -> f64 = |s| ratio(s.batched_requests, s.batches),
        head[2] " (mean batch {:.2},";
    /// End-to-end latency (submit → response) of successful requests.
    latency: Histogram, hidden;
    /// Median end-to-end latency in ms, to within one [`Histogram`]
    /// bucket; zero until a request has succeeded.
    latency_p50_ms() -> f64 = |s| s.latency.percentile_ns(50.0) / 1e6, latency " p50 {:.3}";
    /// 99th percentile of end-to-end latency in ms.
    latency_p99_ms() -> f64 = |s| s.latency.percentile_ns(99.0) / 1e6, latency " p99 {:.3}";
    /// Mean end-to-end latency in ms (exact).
    latency_mean_ms() -> f64 = |s| s.latency.mean_ns() / 1e6, latency " mean {:.3}";
    /// Per-request *execution* latency (inside the executor, excluding
    /// queueing/batching) of successful requests.
    exec_latency: Histogram, hidden;
    /// Median execution latency in microseconds.
    exec_p50_us() -> f64 = |s| s.exec_latency.percentile_ns(50.0) / 1e3, exec " p50 {:.1}";
    /// 99th percentile of execution latency in microseconds.
    exec_p99_us() -> f64 = |s| s.exec_latency.percentile_ns(99.0) / 1e3, exec " p99 {:.1}";
    /// Requests whose execution latency was sampled (monotone).
    exec_samples() -> u64 = |s| s.exec_latency.count(), exec " ({} samples)";
    /// Shard executions dispatched to each device of the pool, labelled
    /// (`gpu0`, `cpu1`, ...). Empty when the runtime serves GPU requests
    /// on a single device; CPU-device requests run on the shared host
    /// executor and are not pool dispatches.
    device_dispatches: Vec<(String, u64)>, dispatch " {}";
    /// Shard attempts re-run after an injected transient fault or a
    /// timed-out transfer (monotone; pool runtimes only).
    fault_retries: u64, faults " retries={}";
    /// Devices evicted from the pool health view after a crash.
    device_evictions: u64, faults " evictions={}";
    /// Shards re-homed onto a survivor after their device was lost.
    repartitions: u64, faults " repartitions={}";
    /// Requests served while the pool was degraded (at least one device
    /// evicted, or lost during the request itself).
    degraded_requests: u64, faults " degraded-requests={}";
    /// Requests shed at admission because the bounded queue was full.
    shed_requests: u64, edge " shed={}";
    /// Requests answered `deadline exceeded` without executing.
    deadline_exceeded: u64, edge " deadline-exceeded={}";
    /// Worker panics isolated into per-request errors.
    worker_panics: u64, edge " worker-panics={}";
    /// Plan-key circuit breakers tripped open.
    breaker_trips: u64, edge " breaker-trips={}";
    /// Requests failed fast by an open breaker.
    breaker_fast_fails: u64, edge " breaker-fast-fails={}";
    /// Requests rejected because the runtime (or server) was draining.
    draining_rejects: u64, edge " draining-rejects={}";
    /// Gradient round trips (`submit_grad` / `SUBMIT ... grad=1`): one
    /// counted per round trip, however many adjoint parts it spawned.
    grad_requests: u64, training " grad-requests={}";
    /// Accepted requests whose program contains an indexed reduction
    /// (`rbi`): histogram-style apps and AD-emitted scatter adjoints.
    rbi_requests: u64, training " rbi-requests={}";
    /// Memory-pool residency hits — pool launches that skipped an operand
    /// upload because the device already held the current bytes (monotone;
    /// `devices > 1` with a nonzero `mem_budget_bytes` only).
    mem_hits: u64, mem " hits={}";
    /// Memory-pool residency misses — operand blocks uploaded (monotone).
    mem_misses: u64, mem " misses={}";
    /// Resident blocks evicted under capacity pressure (monotone).
    mem_evictions: u64, mem " evictions={}";
    /// Bytes currently resident across every device of the pool (gauge).
    mem_bytes_resident: u64, mem " resident={}B";
    /// Upload bytes skipped thanks to residency (monotone).
    mem_bytes_avoided: u64, mem " avoided={}B";
    /// CPU executions served by a registry-compiled fast-path kernel
    /// (monotone; process-wide, shared with any co-resident executors).
    kernel_hits: u64, fast " kernel-hits={}";
    /// CPU executions that were fast-path candidates but fell back to the
    /// VM or legacy kernels, with a recorded reason (monotone).
    kernel_fallbacks: u64, fast " kernel-fallbacks={}";
    /// Large host blocks (at least `HOST_BLOCK_MIN_BYTES`) handed out
    /// again from the free list instead of freshly allocated (monotone;
    /// process-wide, `mdh_core::buffer::host_blocks`).
    host_reuses: u64, host " reuses={}";
    /// Large host blocks that had to be freshly allocated (monotone).
    host_fresh: u64, host " fresh={}";
    /// Bytes the free list holds for reuse (gauge).
    host_bytes_held: u64, host " held={}B";
    /// Minor page faults the process has taken (monotone; process-wide,
    /// field 10 of `/proc/self/stat`, 0 where it cannot be read). Its
    /// change over `completed`'s between two snapshots is the faults per
    /// request.
    minor_faults: u64, host " minor-faults={}";
    /// Injected shard hangs caught by the watchdog (monotone).
    fault_hangs: u64, healing " hangs={}";
    /// Hung or straggling shards hedged onto a healthy spare (monotone).
    fault_hedges: u64, healing " hedges={}";
    /// Health probes run against out-of-rotation devices (monotone).
    health_probes: u64, healing " probes={}";
    /// Devices demoted to probation after a hang (monotone).
    health_probations: u64, healing " probations={}";
    /// Devices reinstated into the rotation after passing their probe
    /// quota (monotone).
    health_reinstatements: u64, healing " reinstatements={}";
    /// Resident-buffer corruptions detected by fingerprint revalidation
    /// and repaired with a fresh upload (monotone).
    corruptions_detected: u64, healing " corruptions={}";
    /// Current health state of each pool device, labelled
    /// (`gpu0`, ...) → `healthy`/`probation`/`evicted`/`reinstating`
    /// (gauge; empty for single-device runtimes).
    device_health: Vec<(String, String)>, healing " {}";
    /// Requests shed at admission because their tenant's queue was at its
    /// per-tenant quota (a subset of `shed_requests`).
    tenant_shed: u64, tenants " shed={}";
    /// Requests dispatched to workers, per tenant (`default` for requests
    /// submitted without a tenant). Sorted by tenant name; the number of
    /// names is bounded (see `runtime::MAX_TRACKED_TENANTS`).
    tenant_dispatches: Vec<(String, u64)>, tenants " {}";
    /// Connections that negotiated pipelined (`PIPE`) framing (monotone).
    pipelined_connections: u64, pipeline " connections={}";
    /// Frames served over pipelined connections (monotone).
    pipelined_frames: u64, pipeline " frames={}";
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every section active, the latency histograms empty.
    fn busy() -> RuntimeStats {
        RuntimeStats {
            plan_hits: 10,
            plan_misses: 2,
            plan_evictions: 1,
            plans_resident: 4,
            plan_routes: vec![
                ("cpu matvec 8x8".into(), "fast".into()),
                (
                    "cpu prl 8".into(),
                    "vm: reduction is not builtin pw(add)".into(),
                ),
            ],
            completed: 12,
            batches: 6,
            batched_requests: 12,
            max_batch: 3,
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
            host_reuses: 6,
            host_fresh: 2,
            host_bytes_held: 1 << 26,
            minor_faults: 1234,
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
            ..RuntimeStats::default()
        }
    }

    // Recorded at the parent of the commit that introduced the table
    // (e219a40), from this same literal with its latency fields zero.
    const GOLDEN_TEXT: &str = "requests=12 batches=6 (mean batch 2.00, max 3) plan cache: 4 resident, 10 hits / 2 misses (rate 0.833), 1 evictions, 1 swaps, 2 tunes; latency ms: p50 0.000 p99 0.000 mean 0.000; dispatch: gpu0=9 gpu1=3; faults: retries=1 evictions=1 repartitions=1 degraded-requests=2; healing: hangs=2 hedges=2 probes=5 probations=2 reinstatements=1 corruptions=3 gpu1=probation; training: grad-requests=2 rbi-requests=1; mem: hits=96 misses=8 evictions=2 resident=4096B avoided=1048576B; fast: kernel-hits=42 kernel-fallbacks=7; edge: shed=3 deadline-exceeded=1 worker-panics=1 breaker-trips=1 breaker-fast-fails=2 draining-rejects=1; tenants: shed=4 default=5 tenant-a=7; pipeline: connections=2 frames=64; shards: shard0=30 shard1=34";
    const GOLDEN_JSON: &str = r#"{"plan_hits":10,"plan_misses":2,"plan_evictions":1,"plan_swaps":1,"plans_resident":4,"hit_rate":0.8333,"completed":12,"batches":6,"max_batch":3,"mean_batch":2.0000,"tunes_done":2,"latency_p50_ms":0.0000,"latency_p99_ms":0.0000,"latency_mean_ms":0.0000,"exec_p50_us":0.0000,"exec_p99_us":0.0000,"exec_samples":0,"device_dispatches":{"gpu0":9,"gpu1":3},"fault_retries":1,"device_evictions":1,"repartitions":1,"degraded_requests":2,"shed_requests":3,"deadline_exceeded":1,"worker_panics":1,"breaker_trips":1,"breaker_fast_fails":2,"draining_rejects":1,"grad_requests":2,"rbi_requests":1,"mem_hits":96,"mem_misses":8,"mem_evictions":2,"mem_bytes_resident":4096,"mem_bytes_avoided":1048576,"kernel_hits":42,"kernel_fallbacks":7,"fault_hangs":2,"fault_hedges":2,"health_probes":5,"health_probations":2,"health_reinstatements":1,"corruptions_detected":3,"device_health":{"gpu0":"healthy","gpu1":"probation"},"tenant_shed":4,"tenant_dispatches":{"default":5,"tenant-a":7},"pipelined_connections":2,"pipelined_frames":64,"shard_routes":{"shard0":30,"shard1":34}}"#;

    #[test]
    fn text_and_json_match_the_strings_recorded_before_the_table() {
        // removed since: the shard routes (a section of the line and a
        // key), then the plan swap and tune counters (two fields, two keys)
        let strip = |golden: &str, removed: &[&str]| {
            removed.iter().fold(golden.to_string(), |s, part| {
                assert!(s.contains(part), "{part}");
                s.replacen(part, "", 1)
            })
        };
        let want = strip(
            GOLDEN_TEXT,
            &["; shards: shard0=30 shard1=34", ", 1 swaps, 2 tunes"],
        );
        let want_json = strip(
            GOLDEN_JSON,
            &[
                r#","shard_routes":{"shard0":30,"shard1":34}"#,
                r#","plan_swaps":1"#,
                r#","tunes_done":2"#,
            ],
        );
        // the host section added since, after the fast-path one
        let fast = "kernel-fallbacks=7";
        let host_text = "; host: reuses=6 fresh=2 held=67108864B minor-faults=1234";
        assert_eq!(
            busy().to_string(),
            want.replace(fast, &format!("{fast}{host_text}"))
        );
        // the keys added since, by the rows that declare them
        let added = [
            r#""plan_routes":{"cpu matvec 8x8":"fast","cpu prl 8":"vm: reduction is not builtin pw(add)"},"#,
            r#""batched_requests":12,"#,
            r#""host_reuses":6,"host_fresh":2,"host_bytes_held":67108864,"minor_faults":1234,"#,
        ];
        let mut json = busy().to_json();
        for key in added {
            assert!(json.contains(key), "{key} in {json}");
            json = json.replacen(key, "", 1);
        }
        assert_eq!(json, want_json);
    }

    /// Top-level keys of a one-line JSON object, in order: the strings at
    /// depth 1 that a `:` follows. Skips string contents, escapes included.
    fn top_level_keys(json: &str) -> Vec<String> {
        let (mut keys, mut depth, mut chars) = (Vec::new(), 0, json.chars().peekable());
        while let Some(c) = chars.next() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                '"' => {
                    let mut s = String::new();
                    while let Some(c) = chars.next().filter(|&c| c != '"') {
                        s.push(c);
                        if c == '\\' {
                            s.extend(chars.next());
                        }
                    }
                    if depth == 1 && chars.peek() == Some(&':') {
                        keys.push(s);
                    }
                }
                _ => {}
            }
        }
        keys
    }

    #[test]
    fn json_keys_are_the_table_whatever_the_values() {
        // machine consumers key on a fixed schema: no key may depend on
        // which counters are nonzero, and no label may become a key
        let mut sampled = busy();
        (1..=12).for_each(|i| sampled.latency.record_ms(0.1 * i as f64));
        sampled.exec_latency.record_ms(0.055);
        let mut hostile = busy();
        hostile.tenant_dispatches = vec![("a\n\"b\\\u{1}".into(), 1)];
        for s in [&RuntimeStats::default(), &busy(), &sampled, &hostile] {
            let json = s.to_json();
            assert_eq!(top_level_keys(&json), RuntimeStats::KEYS, "{json}");
            assert!(!json.contains(|c: char| c.is_control()), "one line: {json}");
        }
        let json = sampled.to_json();
        for nested in [
            r#""gpu1":"probation""#,
            r#""tenant-a":7"#,
            r#""mean_batch":2.0000,"latency_p50_ms":0.6062,"latency_p99_ms":1.2124,"latency_mean_ms":0.6500,"exec_p50_us":54.2720,"exec_p99_us":54.2720,"exec_samples":1,"device_dispatches""#,
        ] {
            assert!(json.contains(nested), "{nested} in {json}");
        }
        let escaped = r#""tenant_dispatches":{"a\n\"b\\\u0001":1}"#;
        assert!(hostile.to_json().contains(escaped), "{}", hostile.to_json());
    }

    #[test]
    fn a_section_prints_only_when_something_in_it_is_active() {
        // one metric per conditional section; the golden line above pins
        // every label of every section with all of them nonzero
        type Case = (&'static str, fn(&mut RuntimeStats), &'static str);
        let cases: &[Case] = &[
            (
                "exec",
                |s| (0..42).for_each(|_| s.exec_latency.record_ms(0.12)),
                "; exec us: p50 120.8 p99 120.8 (42 samples)",
            ),
            (
                "dispatch",
                |s| s.device_dispatches = vec![("gpu0".into(), 7), ("gpu1".into(), 0)],
                "; dispatch: gpu0=7 gpu1=0",
            ),
            (
                "faults",
                |s| s.repartitions = 1,
                "; faults: retries=0 evictions=0 repartitions=1 degraded-requests=0",
            ),
            (
                "healing",
                |s| s.device_health = vec![("gpu1".into(), "evicted".into())],
                "; healing: hangs=0 hedges=0 probes=0 probations=0 reinstatements=0 \
                 corruptions=0 gpu1=evicted",
            ),
            (
                "training",
                |s| s.rbi_requests = 2,
                "; training: grad-requests=0 rbi-requests=2",
            ),
            (
                "mem",
                |s| s.mem_bytes_resident = 4096,
                "; mem: hits=0 misses=0 evictions=0 resident=4096B avoided=0B",
            ),
            (
                "fast",
                |s| s.kernel_fallbacks = 3,
                "; fast: kernel-hits=0 kernel-fallbacks=3",
            ),
            (
                "host",
                |s| s.host_bytes_held = 4096,
                "; host: reuses=0 fresh=0 held=4096B minor-faults=0",
            ),
            (
                "edge",
                |s| s.worker_panics = 3,
                "; edge: shed=0 deadline-exceeded=0 worker-panics=3 breaker-trips=0 \
                 breaker-fast-fails=0 draining-rejects=0",
            ),
            (
                "tenants",
                |s| s.tenant_dispatches = vec![("default".into(), 10), ("noisy".into(), 90)],
                "; tenants: shed=0 default=10 noisy=90",
            ),
            (
                "pipeline",
                |s| s.pipelined_frames = 40,
                "; pipeline: connections=0 frames=40",
            ),
        ];
        let conditional = SECTIONS.iter().filter(|s| !s.2).map(|s| s.0);
        assert!(
            conditional.eq(cases.iter().map(|c| c.0)),
            "a case per section"
        );
        for row in ROWS.iter().filter(|r| !r.section.is_empty()) {
            assert!(SECTIONS.iter().any(|s| s.0 == row.section), "{}", row.key);
        }
        // the default tenant's traffic and an all-healthy pool are not activity
        let mut quiet = RuntimeStats {
            tenant_dispatches: vec![("default".into(), 10)],
            device_health: vec![("gpu0".into(), "healthy".into())],
            ..RuntimeStats::default()
        };
        quiet.latency.record_ms(1.0);
        assert_eq!(quiet.to_string().matches(';').count(), 1, "{quiet}");
        for &(id, set, want) in cases {
            assert!(!quiet.active(id), "{id} idle");
            let mut s = quiet.clone();
            set(&mut s);
            let line = s.to_string();
            assert!(s.active(id) && line.ends_with(want), "{id}: {line}");
            assert!(!line.contains("=healthy"), "{line}");
            let others = cases.iter().filter(|c| c.0 != id && s.active(c.0)).count();
            assert_eq!(others, 0, "{id} alone: {line}");
        }
    }

    /// With every section active, one rendering runs every row's template.
    #[test]
    fn every_row_template_renders() {
        let mut all = busy();
        all.exec_latency.record_ms(0.12);
        assert!(SECTIONS
            .iter()
            .all(|&(id, _, always)| always || all.active(id)));
        let line = all.to_string();
        for row in ROWS.iter().filter(|r| !r.section.is_empty()) {
            let (pre, _) = row.tpl.split_once('{').unwrap();
            assert!(line.contains(pre.trim()), "{}: {line}", row.key);
        }
    }

    #[test]
    fn minor_faults_are_field_ten_after_the_last_parenthesis() {
        let stat = "4242 (sut) 1 (x) y) S 1 4242 4242 0 -1 4194560 \
                    9876 0 3 0 12 7 0 0 20 0 9 0 1234 0";
        assert_eq!(minor_faults_of(stat), 9876);
        let garbage = [
            "",
            ")",
            "1 (a) S 1 2",
            "1 (a) S 1 2 3 4 5 6 -9",
            "((",
            "\u{0} )",
        ];
        for line in garbage {
            assert_eq!(minor_faults_of(line), 0, "{line:?}");
        }
        if cfg!(target_os = "linux") {
            assert!(minor_faults() > 0, "this process has touched its own pages");
        }
    }

    #[test]
    fn hit_rate_and_mean_batch() {
        let s = RuntimeStats {
            plan_hits: 9,
            plan_misses: 1,
            completed: 25,
            batched_requests: 20,
            batches: 5,
            ..RuntimeStats::default()
        };
        assert!((s.hit_rate() - 0.9).abs() < 1e-12);
        assert!((s.mean_batch() - 4.0).abs() < 1e-12);
        let idle = RuntimeStats::default();
        assert_eq!((idle.hit_rate(), idle.mean_batch()), (0.0, 0.0));
    }
}
