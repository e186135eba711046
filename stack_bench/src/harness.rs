//! The load generator and the system-under-test process.
//!
//! One thread, one connection, a closed loop with a fixed window of frames
//! in flight: the next frame is sent when a reply completes one, as callers
//! of `mdhc submit` do. Frames carry `id=` tags and replies are matched by
//! them, so out-of-order completion is measured, not assumed away. The
//! system under test is a child process of this binary, so its CPU time
//! and peak memory are read from `/proc/<pid>` for it alone.

use crate::json::Json;
use crate::oracle::Expect;
use crate::workloads::{Sequence, Sut, Workload};
use mdh_runtime::{RuntimeConfig, TunePolicy};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

pub fn hw_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn exec_threads() -> usize {
    hw_threads().min(4)
}

/// The one configuration every workload runs under: defaults, except
/// background tuning off (its search takes the exec pool for seconds and
/// nothing repeats), two workers, and `min(nproc, 4)` exec threads.
pub fn sut_config(devices: usize) -> RuntimeConfig {
    RuntimeConfig {
        workers: 2,
        exec_threads: exec_threads(),
        devices,
        tune: TunePolicy {
            enabled: false,
            ..TunePolicy::default()
        },
        ..RuntimeConfig::default()
    }
}

// ---------------------------------------------------------------------------
// replies
// ---------------------------------------------------------------------------

/// The fields of one `ok ...` reply line the benchmark reads.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Reply {
    pub hit: bool,
    pub batch: u32,
    pub exec_ms: f64,
    pub total_ms: f64,
    pub parts: u32,
    /// `checksum=` entries, then `grad_checksum=` entries, by buffer name.
    pub sums: Vec<(String, f64)>,
}

fn parse_sums(list: &str, into: &mut Vec<(String, f64)>) -> Option<()> {
    for item in list.split(',').filter(|s| !s.is_empty()) {
        let (name, val) = item.rsplit_once('=')?;
        into.push((name.to_string(), val.parse().ok()?));
    }
    Some(())
}

/// Parse the part of a reply line after `ok `.
pub fn parse_ok(body: &str) -> Option<Reply> {
    let mut r = Reply::default();
    for tok in body.split_whitespace() {
        let (k, v) = tok.split_once('=')?;
        match k {
            "hit" => r.hit = v.parse().ok()?,
            "batch" => r.batch = v.parse().ok()?,
            "exec_ms" => r.exec_ms = v.parse().ok()?,
            "total_ms" => r.total_ms = v.parse().ok()?,
            "parts" => r.parts = v.parse().ok()?,
            "checksum" | "grad_checksum" => parse_sums(v, &mut r.sums)?,
            _ => {}
        }
    }
    Some(r)
}

/// Why a reply fails verification, or `None` when every expected checksum
/// is present and within tolerance.
pub fn verify(reply: &Reply, expect: &[Expect]) -> Option<String> {
    for e in expect {
        match reply.sums.iter().find(|(n, _)| *n == e.name) {
            None => return Some(format!("no checksum for '{}'", e.name)),
            Some((_, got)) if !e.accepts(*got) => {
                return Some(format!(
                    "checksum {}={got} but the oracle says {} (L1 {})",
                    e.name, e.sum, e.l1
                ))
            }
            Some(_) => {}
        }
    }
    None
}

/// One verified request.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Index into the workload's mix.
    pub req: usize,
    pub id: u64,
    /// Seconds since the run's origin.
    pub sent_s: f64,
    pub done_s: f64,
    pub reply: Reply,
}

impl Sample {
    pub fn latency_ms(&self) -> f64 {
        (self.done_s - self.sent_s) * 1e3
    }
}

#[derive(Debug, PartialEq)]
pub enum Outcome {
    Ok(Sample),
    /// A failed request counts against attempts and gives no latency.
    Failed {
        req: usize,
        why: String,
    },
}

struct Pending {
    req: usize,
    sent_s: f64,
    reply: Option<Reply>,
}

/// Matches reply lines to frames in flight by `id=`.
#[derive(Default)]
pub struct Matcher {
    inflight: HashMap<u64, Pending>,
}

impl Matcher {
    pub fn sent(&mut self, id: u64, req: usize, sent_s: f64) {
        self.inflight.insert(
            id,
            Pending {
                req,
                sent_s,
                reply: None,
            },
        );
    }

    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Feed one reply line. `Ok(Some(_))` completes a frame; `Err` is a
    /// line without an id, which the server writes last before it closes
    /// the connection.
    pub fn line(
        &mut self,
        line: &str,
        now_s: f64,
        expects: &[Vec<Expect>],
    ) -> Result<Option<Outcome>, String> {
        let line = line.trim_end();
        let parsed = line.strip_prefix("id=").and_then(|rest| {
            let (id, body) = rest.split_once(' ')?;
            Some((id.parse::<u64>().ok()?, body))
        });
        let Some((id, body)) = parsed else {
            return Err(format!("connection-level reply: {line}"));
        };
        if let Some(ok) = body.strip_prefix("ok ") {
            if let Some(p) = self.inflight.get_mut(&id) {
                p.reply = parse_ok(ok);
            }
            return Ok(None);
        }
        // `err ...` ends a frame whether or not a `done 0` follows it; the
        // late `done` then finds no frame and is dropped here
        let Some(p) = self.inflight.remove(&id) else {
            return Ok(None);
        };
        let failed = |why: String| Outcome::Failed { req: p.req, why };
        if !body.starts_with("done") {
            return Ok(Some(failed(body.to_string())));
        }
        Ok(Some(match p.reply {
            None => failed(format!("frame ended with no ok line: {body}")),
            Some(mut reply) => match verify(&reply, &expects[p.req]) {
                Some(why) => failed(why),
                None => Outcome::Ok(Sample {
                    req: p.req,
                    id,
                    sent_s: p.sent_s,
                    done_s: now_s,
                    reply: {
                        reply.sums = Vec::new(); // verified; not kept per sample
                        reply
                    },
                }),
            },
        }))
    }
}

// ---------------------------------------------------------------------------
// the closed loop
// ---------------------------------------------------------------------------

/// When the loop stops starting new rounds.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    Rounds(usize),
    /// Stop at the first round boundary at or after this many seconds.
    Seconds(f64),
}

#[derive(Default)]
pub struct RunLog {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure reasons, for the report.
    pub failures: Vec<String>,
    pub rounds: usize,
    /// First send to last reply, seconds.
    pub wall_s: f64,
}

impl RunLog {
    /// Append a later stretch of the same run.
    pub fn absorb(&mut self, later: RunLog) {
        self.samples.extend(later.samples);
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.failures.extend(later.failures);
        self.rounds += later.rounds;
        self.wall_s += later.wall_s;
    }

    fn fail(&mut self, tag: &str, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(format!("{tag}: {why}"));
        }
    }
}

/// One connection to the system under test: frames out, reply lines in.
pub struct Client {
    w: BufWriter<Box<dyn Write + Send>>,
    r: BufReader<Box<dyn Read + Send>>,
    next_id: u64,
}

impl Client {
    fn send(&mut self, head: &str, body: &str) -> std::io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        writeln!(self.w, "{head} id={id}")?;
        self.w.write_all(body.as_bytes())?;
        Ok(id)
    }

    fn read_line(&mut self, line: &mut String) -> Result<(), String> {
        line.clear();
        match self.r.read_line(line) {
            Ok(0) => Err("the system under test closed the connection".into()),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("reading a reply: {e}")),
        }
    }
}

/// One interval of one request, as the client sees it. Children lie
/// inside their parent; a span's self time is its length minus its
/// children's.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The frame id: spans of one request share it.
    pub request: u64,
    /// Index of the parent span in the same list.
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

/// The spans of one completed frame: the client's send-to-reply interval,
/// and inside it what the reply says the runtime (`total_ms`) and the
/// executor (`exec_ms`) took. The reply gives lengths, not start times, so
/// the children are right-aligned to the reply.
fn record_spans(spans: &mut Vec<Span>, s: &Sample) {
    let root = spans.len();
    let span = |name, parent, len_ms: f64| Span {
        name,
        request: s.id,
        parent,
        start_s: (s.done_s - len_ms / 1e3).max(s.sent_s),
        end_s: s.done_s,
    };
    spans.push(span("client.request", None, s.latency_ms()));
    spans.push(span("runtime.total", Some(root), s.reply.total_ms));
    spans.push(span(
        "backend.exec",
        Some(root + 1),
        s.reply.exec_ms.min(s.reply.total_ms),
    ));
}

/// What every stretch of one run's closed loop is driven with.
pub struct Loop<'a> {
    pub wl: &'a Workload,
    /// The frame of every request in the mix, for the workload's transport.
    pub frames: Vec<(String, &'static str)>,
    /// The oracle's checksums for every request in the mix.
    pub expects: Vec<Vec<Expect>>,
}

impl Loop<'_> {
    /// Run the closed loop until `stop`; replies are verified as they
    /// arrive. `origin` is the zero of every timestamp in the returned
    /// samples. With `spans`, every completed frame is traced into it.
    pub fn drive(
        &self,
        client: &mut Client,
        seq: &mut Sequence,
        stop: Stop,
        origin: Instant,
        mut spans: Option<&mut Vec<Span>>,
    ) -> Result<RunLog, String> {
        let (wl, frames, expects) = (self.wl, &self.frames, &self.expects);
        let mut log = RunLog::default();
        let mut matcher = Matcher::default();
        let mut round: Vec<usize> = Vec::new();
        let mut pos = 0;
        let mut stopped = false;
        let mut line = String::new();
        let start = Instant::now();
        loop {
            while !stopped && matcher.in_flight() < wl.window {
                if pos == round.len() {
                    stopped = match stop {
                        Stop::Rounds(n) => log.rounds >= n,
                        Stop::Seconds(s) => log.rounds > 0 && start.elapsed().as_secs_f64() >= s,
                    };
                    if stopped {
                        break;
                    }
                    round = seq.next_round().to_vec();
                    pos = 0;
                    log.rounds += 1;
                }
                let req = round[pos];
                pos += 1;
                let sent_s = origin.elapsed().as_secs_f64();
                let id = client
                    .send(&frames[req].0, frames[req].1)
                    .map_err(|e| format!("sending {}: {e}", wl.mix[req].tag))?;
                matcher.sent(id, req, sent_s);
                log.attempted += 1;
            }
            client.w.flush().map_err(|e| format!("flush: {e}"))?;
            if matcher.in_flight() == 0 {
                break;
            }
            client.read_line(&mut line)?;
            let now_s = origin.elapsed().as_secs_f64();
            match matcher.line(&line, now_s, expects)? {
                None => {}
                Some(Outcome::Ok(s)) => {
                    if let Some(spans) = spans.as_deref_mut() {
                        record_spans(spans, &s);
                    }
                    log.samples.push(s);
                }
                Some(Outcome::Failed { req, why }) => log.fail(&wl.mix[req].tag, why),
            }
        }
        log.wall_s = start.elapsed().as_secs_f64();
        Ok(log)
    }
}

// ---------------------------------------------------------------------------
// the system under test
// ---------------------------------------------------------------------------

/// Scratch directory for sockets, inside the checkout. Relative, because a
/// unix socket path holds at most 108 bytes and a checkout may sit deep.
const TMP_DIR: &str = ".stack_bench_tmp";

pub struct SutProcess {
    child: std::process::Child,
    pub client: Client,
    /// The socket path and the pipelined connection (wire children only).
    wire: Option<(PathBuf, UnixStream)>,
}

fn wait_exit(child: &mut std::process::Child, patience: Duration) {
    let deadline = Instant::now() + patience;
    while Instant::now() < deadline {
        if matches!(child.try_wait(), Ok(Some(_))) {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let _ = child.kill();
    let _ = child.wait();
}

impl SutProcess {
    /// Spawn the child for `wl`, wait until it serves, and connect.
    pub fn start(wl: &Workload) -> Result<SutProcess, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        match wl.sut {
            Sut::Wire { devices } => {
                std::fs::create_dir_all(TMP_DIR).map_err(|e| format!("{TMP_DIR}: {e}"))?;
                let sock = Path::new(TMP_DIR).join(format!("{}.sock", std::process::id()));
                let _ = std::fs::remove_file(&sock);
                let mut child = Command::new(exe)
                    .arg("serve")
                    .arg(&sock)
                    .arg(devices.to_string())
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .spawn()
                    .map_err(|e| format!("spawn serve child: {e}"))?;
                let deadline = Instant::now() + Duration::from_secs(30);
                let stream = loop {
                    if let Ok(s) = UnixStream::connect(&sock) {
                        break s;
                    }
                    if !matches!(child.try_wait(), Ok(None)) || Instant::now() > deadline {
                        wait_exit(&mut child, Duration::ZERO);
                        return Err("the serve child did not come up".into());
                    }
                    std::thread::sleep(Duration::from_millis(1));
                };
                let mut sut = SutProcess {
                    child,
                    client: wire_client(&stream)?,
                    wire: Some((sock, stream)),
                };
                writeln!(sut.client.w, "PIPE").map_err(|e| e.to_string())?;
                sut.client.w.flush().map_err(|e| e.to_string())?;
                let mut banner = String::new();
                sut.client.read_line(&mut banner)?;
                if !banner.starts_with("ok pipelined") {
                    return Err(format!("PIPE was answered: {}", banner.trim_end()));
                }
                Ok(sut)
            }
            Sut::Lib => {
                let mut child = Command::new(exe)
                    .arg("lib")
                    .arg(wl.name)
                    .stdin(Stdio::piped())
                    .stdout(Stdio::piped())
                    .spawn()
                    .map_err(|e| format!("spawn lib child: {e}"))?;
                let (stdin, stdout) = (child.stdin.take(), child.stdout.take());
                let mut sut = SutProcess {
                    client: Client {
                        w: BufWriter::new(Box::new(stdin.expect("piped stdin"))),
                        r: BufReader::new(Box::new(stdout.expect("piped stdout"))),
                        next_id: 1,
                    },
                    child,
                    wire: None,
                };
                let mut ready = String::new();
                sut.client.read_line(&mut ready)?;
                if ready.trim_end() != "ready" {
                    return Err(format!("the lib child said: {}", ready.trim_end()));
                }
                Ok(sut)
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The runtime's stats snapshot, or `None` when it cannot be had; the
    /// end-to-end numbers never depend on it.
    pub fn stats(&mut self) -> Option<Json> {
        let line = match &self.wire {
            Some((sock, _)) => {
                let mut s = UnixStream::connect(sock).ok()?;
                s.write_all(b"STATS json\n").ok()?;
                let mut line = String::new();
                BufReader::new(s).read_line(&mut line).ok()?;
                line
            }
            None => {
                self.client.w.write_all(b"STATS\n").ok()?;
                self.client.w.flush().ok()?;
                let mut line = String::new();
                self.client.read_line(&mut line).ok()?;
                line
            }
        };
        Json::parse(line.trim_end().strip_prefix("stats-json ")?).ok()
    }

    /// Ask the child to exit and wait for it; kill it if it does not.
    pub fn stop(mut self) {
        match &self.wire {
            Some((sock, stream)) => {
                // end of frames first: the server drains open connections
                // before SHUTDOWN completes
                let _ = stream.shutdown(std::net::Shutdown::Both);
                if let Ok(mut s) = UnixStream::connect(sock) {
                    let _ = s.write_all(b"SHUTDOWN\n");
                    let mut reply = String::new();
                    let _ = BufReader::new(s).read_line(&mut reply);
                }
            }
            None => {
                let _ = self.client.w.write_all(b"QUIT\n");
                let _ = self.client.w.flush();
            }
        }
        wait_exit(&mut self.child, Duration::from_secs(20));
    }
}

impl Drop for SutProcess {
    /// An error path must not leave the child behind.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some((sock, _)) = &self.wire {
            let _ = std::fs::remove_file(sock);
            let _ = std::fs::remove_dir(TMP_DIR); // succeeds once it is empty
        }
    }
}

fn wire_client(stream: &UnixStream) -> Result<Client, String> {
    // a reply that takes this long is a hang, not a slow kernel
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| e.to_string())?;
    let half = || stream.try_clone().map_err(|e| e.to_string());
    Ok(Client {
        w: BufWriter::new(Box::new(half()?)),
        r: BufReader::new(Box::new(half()?)),
        next_id: 1,
    })
}

/// The frame of every request in the mix, for the workload's transport.
pub fn frames_for(wl: &Workload) -> Result<Vec<(String, &'static str)>, String> {
    wl.mix
        .iter()
        .enumerate()
        .map(|(i, req)| match wl.sut {
            Sut::Wire { .. } => req.wire_frame(wl.device),
            Sut::Lib => Ok((format!("REQ {i}"), "")),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// /proc
// ---------------------------------------------------------------------------

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. `USER_HZ`
/// is 100 on every Linux ABI; std offers no `sysconf` to ask.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds the process has used so far.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // the command name may hold spaces; fields resume after the last ')'
    let rest = &stat[stat.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?;
    Some(ticks as f64 / USER_HZ)
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

// ---------------------------------------------------------------------------
// statistics
// ---------------------------------------------------------------------------

/// Nearest-rank percentile of unsorted samples (`p` in 0..=100): the
/// smallest sample with at least `p` percent of the samples at or below it.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Requests per second as the median over blocks of whole rounds, from
/// completion times: one stall moves one block, not the result.
pub fn blocked_rate(samples: &[Sample], round_len: usize, t0_s: f64) -> f64 {
    const BLOCKS: usize = 15;
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    let rounds = (n / round_len).max(1);
    let per_block = rounds.div_ceil(BLOCKS) * round_len;
    let mut rates = Vec::new();
    let mut prev = t0_s;
    for block in samples.chunks(per_block) {
        if block.len() < per_block && !rates.is_empty() {
            break; // a short tail block would weigh a partial mix
        }
        let end = block.last().expect("nonempty chunk").done_s;
        if end > prev {
            rates.push(block.len() as f64 / (end - prev));
        }
        prev = end;
    }
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expect(name: &str, sum: f64) -> Vec<Expect> {
        vec![Expect {
            name: name.into(),
            sum,
            l1: sum.abs(),
        }]
    }

    #[test]
    fn percentile_on_known_samples() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn parse_ok_reads_forward_and_gradient_checksums() {
        let r = parse_ok(
            "hit=true source=heuristic epoch=0 batch=3 exec_ms=0.0150 total_ms=0.0920 \
             checksum=w=88064.000000 parts=2 grad_checksum=d_M=-2048.000000,d_v=12.500000",
        )
        .unwrap();
        assert!(r.hit);
        assert_eq!((r.batch, r.parts), (3, 2));
        assert_eq!((r.exec_ms, r.total_ms), (0.015, 0.092));
        assert_eq!(
            r.sums,
            vec![
                ("w".to_string(), 88064.0),
                ("d_M".to_string(), -2048.0),
                ("d_v".to_string(), 12.5)
            ]
        );
        assert_eq!(parse_ok("hit=maybe"), None);
    }

    #[test]
    fn matcher_pairs_out_of_order_replies_by_id() {
        let expects = vec![expect("a", 1.0), expect("b", 2.0)];
        let mut m = Matcher::default();
        m.sent(1, 0, 0.0);
        m.sent(2, 1, 0.1);
        let ok2 = "id=2 ok hit=true batch=1 exec_ms=1 total_ms=2 checksum=b=2.000000";
        assert_eq!(m.line(ok2, 0.5, &expects), Ok(None));
        let done2 = m.line("id=2 done 1\n", 0.6, &expects).unwrap().unwrap();
        let Outcome::Ok(s2) = done2 else {
            panic!("frame 2 must verify")
        };
        assert_eq!((s2.req, s2.id), (1, 2));
        assert!((s2.latency_ms() - 500.0).abs() < 1e-9);
        assert_eq!(m.in_flight(), 1);
        let ok1 = "id=1 ok hit=false batch=1 exec_ms=1 total_ms=2 checksum=a=1.000000";
        assert_eq!(m.line(ok1, 0.7, &expects), Ok(None));
        let Outcome::Ok(s1) = m.line("id=1 done 1", 0.9, &expects).unwrap().unwrap() else {
            panic!("frame 1 must verify")
        };
        assert_eq!((s1.req, s1.done_s), (0, 0.9));
        assert_eq!(m.in_flight(), 0);
        // a reply to a frame that is not in flight is dropped, and a line
        // with no id ends the run
        assert_eq!(m.line("id=9 done 1", 1.0, &expects), Ok(None));
        assert!(m.line("err read timed out", 1.0, &expects).is_err());
    }

    #[test]
    fn wrong_checksum_and_err_line_fail_without_a_latency_sample() {
        let expects = vec![expect("a", 1000.0)];
        let mut m = Matcher::default();
        let mut log = RunLog::default();
        let mut feed = |m: &mut Matcher, line: &str| {
            if let Some(o) = m.line(line, 1.0, &expects).unwrap() {
                log.attempted += 1;
                match o {
                    Outcome::Ok(s) => log.samples.push(s),
                    Outcome::Failed { why, .. } => log.fail("t", why),
                }
            }
        };
        m.sent(1, 0, 0.0);
        m.sent(2, 0, 0.0);
        m.sent(3, 0, 0.0);
        feed(
            &mut m,
            "id=1 ok hit=true batch=1 exec_ms=1 total_ms=2 checksum=a=1000.000000",
        );
        feed(&mut m, "id=1 done 1");
        // off by 1e-5 relative: beyond the 1e-6 tolerance
        feed(
            &mut m,
            "id=2 ok hit=true batch=1 exec_ms=1 total_ms=2 checksum=a=1000.010000",
        );
        feed(&mut m, "id=2 done 1");
        // a launch error is followed by `done 0`, which must not count twice
        feed(
            &mut m,
            "id=3 err overloaded: queue depth 256 at capacity 256",
        );
        feed(&mut m, "id=3 done 0");
        assert_eq!((log.attempted, log.failed, log.samples.len()), (3, 2, 1));
        assert!(log.failures[0].contains("oracle"), "{:?}", log.failures);
        assert!(log.failures[1].contains("overloaded"), "{:?}", log.failures);
    }

    #[test]
    fn blocked_rate_is_the_median_block_and_ignores_one_stall() {
        // 30 rounds of 2 at 100 req/s, with one 1 s stall in the middle
        let mut samples = Vec::new();
        let mut t = 0.0;
        for i in 0..60 {
            t += if i == 31 { 1.0 } else { 0.01 };
            samples.push(Sample {
                req: i % 2,
                id: i as u64,
                sent_s: t - 0.01,
                done_s: t,
                reply: Reply::default(),
            });
        }
        let r = blocked_rate(&samples, 2, 0.0);
        assert!((r - 100.0).abs() < 1e-6, "{r}");
    }

    #[test]
    fn proc_readers_see_this_process() {
        let pid = std::process::id();
        assert!(cpu_seconds(pid).is_some());
        assert!(peak_rss_mib(pid).unwrap() > 0.0);
    }
}
