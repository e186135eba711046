//! `mdhc serve` / `mdhc submit`: a line-oriented serving protocol over
//! Unix domain sockets and TCP.
//!
//! The protocol is deliberately tiny (no external dependencies, easy to
//! drive with `nc -U` or `nc`):
//!
//! ```text
//! client → server:
//!   SUBMIT <cpu|gpu> <count> <len> [NAME=VAL,NAME=VAL...] [deadline_ms=<n>]
//!          [grad=1] [tenant=<name>]\n
//!   <len bytes of directive source (any supported front end)>
//!   STATS [json]\n
//!   SHUTDOWN\n
//!   PIPE\n                        (switch this connection to pipelined framing)
//!
//! server → client (one line per launch, then a summary):
//!   ok hit=<bool> source=<heuristic|tuned|persistent> epoch=<n> batch=<n>
//!      exec_ms=<x> total_ms=<x> checksum=<buf>=<v>[,...]
//!      [parts=<n> grad_checksum=d_<buf>=<v>[,...]]
//!   done <count>
//!   stats <counters>            (or `stats-json {...}` for STATS json)
//!   err <message>
//! ```
//!
//! `count` submits the same compiled program that many times — the
//! demonstration of plan-cache amortisation: launch 1 is a cold miss
//! (heuristic plan, background tune queued), launches 2..count hit.
//! Inputs are generated deterministically server-side, so checksums are
//! reproducible across runs and clients stay tiny. `deadline_ms` applies
//! a serve-by deadline (relative to header parse time) to every launch
//! of the batch; expired launches answer `err deadline exceeded ...`.
//! `grad=1` turns each launch into a gradient round trip
//! ([`Runtime::submit_grad`]). `tenant=<name>` bills the launches to a
//! fair-queueing tenant ([`Request::with_tenant`]): each tenant has its
//! own FIFO, deficit-round-robin dispatch share, and admission quota, so
//! one flooding tenant sheds while the others keep flowing.
//!
//! ## Pipelined framing
//!
//! A connection that first sends `PIPE` (answered `ok pipelined
//! depth=<n>`) switches to multiplexed framing: it may then send many
//! `SUBMIT` frames with strictly increasing `id=<n>` tags without
//! waiting for replies. Reply lines come back prefixed `id=<n> `, each
//! frame's lines contiguous, but *frames may complete out of order* —
//! the id is the correlation key. At most `pipeline_depth` frames are in
//! flight per connection; past that the server stops reading and
//! backpressure reaches the client through the socket. Closing the write
//! side ends the frame stream; remaining frames drain, then the
//! connection closes. A malformed frame (non-increasing id, oversized
//! header, short body, a non-SUBMIT command mid-pipeline) is terminal:
//! in-flight frames finish, one unprefixed `err ...` line is written
//! last, and the connection closes.
//!
//! ## Transports and shards
//!
//! [`serve`] binds a unix socket; [`serve_opts`] can additionally (or
//! instead) bind a TCP listener — same wire grammar, same header cap,
//! read-timeout, connection cap (shared across both listeners), and
//! drain semantics — and can run N runtime shards, routing each request
//! by the consistent hash of its [`PlanKey`] ([`HashRing`]) so plan
//! caches, tuning caches, and `mdh-mem` residency stay warm per shard.
//! `STATS` on a sharded server answers the merged view
//! ([`RuntimeStats::merge_shards`]) plus per-shard route counters.
//!
//! Every request gets exactly one terminal reply. The load-shedding
//! grammar is the `err` prefix set from [`mdh_core::error::MdhError`]:
//! `err overloaded ...` (queue or tenant quota full, retryable), `err
//! deadline exceeded ...`, `err worker panic ...`, `err breaker open
//! ...` (retryable after cooldown), `err draining ...` (server shutting
//! down, retryable elsewhere), plus the socket layer's own `err header
//! too long ...`, `err read timed out ...`, and `err too many
//! connections ...`.
//!
//! Connections are served concurrently (one thread each, capped at
//! [`RuntimeConfig::max_connections`] via an atomic compare-and-swap, so
//! a burst cannot momentarily exceed the cap) with per-connection
//! read/write timeouts, so one stalled client cannot wedge the accept
//! loop. A failed connection-thread spawn (thread exhaustion) degrades
//! to answering `err overloaded` on that connection — the server keeps
//! accepting. `SHUTDOWN` drains gracefully: in-flight connections and
//! queued requests finish; new connections are answered `err draining`.
//!
//! [`RuntimeStats::merge_shards`]: crate::stats::RuntimeStats::merge_shards

use crate::plan_cache::PlanKey;
use crate::ring::{fnv1a, HashRing};
use crate::runtime::{
    GradHandle, GradResponse, Handle, Operands, Request, Response, Runtime, RuntimeConfig,
};
use crate::sync::{lock, Semaphore};
use mdh_core::buffer::{Buffer, BufferData};
use mdh_core::dsl::DslProgram;
use mdh_core::error::{MdhError, Result};
use mdh_core::shape::Shape;
/// The front-end dispatch (`#pragma mdh` → C, `!$mdh` → Fortran, a leading
/// `out_view` → textual DSL, otherwise the Python-like directive) lives
/// with the front ends; `mdhc` and this server share it.
pub use mdh_directive::compile_any;
use mdh_directive::DirectiveEnv;
use mdh_lowering::asm::DeviceKind;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Longest accepted command line, bytes (newline included). SUBMIT
/// headers are a handful of short fields; anything longer is a confused
/// or malicious client and must not be buffered without bound.
pub const MAX_HEADER_BYTES: usize = 4096;

/// Default virtual nodes per shard on the consistent-hash ring.
pub const DEFAULT_VNODES: usize = 64;

/// Deterministic inputs for a program's declared buffers (scalar element
/// types only). The fill is integer-valued and small (range −8..8) so
/// f32 reductions are exact and results bit-identical across schedules.
pub fn deterministic_inputs(prog: &DslProgram) -> Result<Vec<Buffer>> {
    let shapes = prog.input_shapes()?;
    prog.inp_view
        .buffers
        .iter()
        .zip(shapes)
        .map(|(decl, shape)| {
            if decl.ty.as_scalar().is_none() {
                return Err(MdhError::Validation(format!(
                    "buffer '{}' has a record type; the serving protocol \
                     generates scalar inputs only",
                    decl.name
                )));
            }
            let mut b = Buffer::zeros(decl.name.clone(), decl.ty.clone(), Shape::new(shape));
            b.fill_with(|i| ((i.wrapping_mul(2654435761)) % 16) as f64 - 8.0);
            Ok(b)
        })
        .collect()
}

/// Checksum of a scalar buffer: its elements, as f64, summed front to
/// back into one accumulator (the printed value depends on that order for
/// non-integer data). Record buffers have none.
pub fn checksum(buf: &Buffer) -> f64 {
    match &buf.data {
        BufferData::F32(v) => v.iter().map(|&x| x as f64).sum(),
        BufferData::F64(v) => v.iter().sum(),
        BufferData::I32(v) => v.iter().map(|&x| x as f64).sum(),
        BufferData::I64(v) => v.iter().map(|&x| x as f64).sum(),
        BufferData::Bool(v) => v.iter().map(|&x| x as i64 as f64).sum(),
        BufferData::Char(v) => v.iter().map(|&x| x as f64).sum(),
        BufferData::Record(_) => f64::NAN,
    }
}

fn format_response(resp: &Response) -> String {
    let sums: Vec<String> = resp
        .outputs
        .iter()
        .map(|b| format!("{}={:.6}", b.name, checksum(b)))
        .collect();
    format!(
        "ok hit={} source={} epoch={} batch={} exec_ms={:.4} total_ms={:.4} checksum={}",
        resp.cache_hit,
        resp.plan_source,
        resp.plan_epoch,
        resp.batch_size,
        resp.exec_ms,
        resp.total_ms,
        sums.join(",")
    )
}

fn format_grad_response(resp: &GradResponse) -> String {
    let sums: Vec<String> = resp
        .gradients
        .iter()
        .map(|(_, b)| format!("{}={:.6}", b.name, checksum(b)))
        .collect();
    format!(
        "{} parts={} grad_checksum={}",
        format_response(&resp.forward),
        resp.parts,
        sums.join(",")
    )
}

// ---------------------------------------------------------------------------
// transports
// ---------------------------------------------------------------------------

/// One accepted connection, whichever listener it arrived on. Both
/// transports speak the identical wire grammar with identical caps and
/// timeouts.
#[derive(Debug)]
pub enum AnyStream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl AnyStream {
    pub fn try_clone(&self) -> std::io::Result<AnyStream> {
        match self {
            AnyStream::Unix(s) => s.try_clone().map(AnyStream::Unix),
            AnyStream::Tcp(s) => s.try_clone().map(AnyStream::Tcp),
        }
    }

    pub fn set_read_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        match self {
            AnyStream::Unix(s) => s.set_read_timeout(d),
            AnyStream::Tcp(s) => s.set_read_timeout(d),
        }
    }

    pub fn set_write_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        match self {
            AnyStream::Unix(s) => s.set_write_timeout(d),
            AnyStream::Tcp(s) => s.set_write_timeout(d),
        }
    }

    /// Half-close the write side: the peer reads EOF (end of frames) but
    /// this end keeps reading replies.
    pub fn shutdown_write(&self) -> std::io::Result<()> {
        match self {
            AnyStream::Unix(s) => s.shutdown(Shutdown::Write),
            AnyStream::Tcp(s) => s.shutdown(Shutdown::Write),
        }
    }
}

impl Read for AnyStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            AnyStream::Unix(s) => s.read(buf),
            AnyStream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for AnyStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            AnyStream::Unix(s) => s.write(buf),
            AnyStream::Tcp(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            AnyStream::Unix(s) => s.flush(),
            AnyStream::Tcp(s) => s.flush(),
        }
    }
}

/// Where a client connects: a unix socket path or a TCP `host:port`.
#[derive(Debug, Clone)]
pub enum ServerAddr {
    Unix(PathBuf),
    Tcp(String),
}

impl ServerAddr {
    pub fn connect(&self) -> std::io::Result<AnyStream> {
        match self {
            ServerAddr::Unix(p) => UnixStream::connect(p).map(AnyStream::Unix),
            ServerAddr::Tcp(a) => {
                let s = TcpStream::connect(a)?;
                let _ = s.set_nodelay(true);
                Ok(AnyStream::Tcp(s))
            }
        }
    }
}

impl std::fmt::Display for ServerAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerAddr::Unix(p) => write!(f, "unix:{}", p.display()),
            ServerAddr::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

enum AnyListener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl AnyListener {
    fn accept(&self) -> std::io::Result<AnyStream> {
        match self {
            AnyListener::Unix(l) => l.accept().map(|(s, _)| AnyStream::Unix(s)),
            AnyListener::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nodelay(true);
                AnyStream::Tcp(s)
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// shard router
// ---------------------------------------------------------------------------

/// Most front-end memo entries a server retains. A serving fleet sees a
/// small working set of distinct (source, bindings) pairs; when the memo
/// overflows it is simply cleared — correctness never depends on a hit.
const FRONTEND_MEMO_CAP: usize = 64;

/// Bounded memo for front-end compilation on the serving edge. A
/// pipelined connection re-sends the same directive source on every
/// frame, and re-parsing and re-lowering it per frame would dominate
/// service time for small requests — the runtime's plan cache only
/// amortises *scheduling*, not the front end. Keyed by the FNV digest of
/// the source plus the sorted size bindings (which fully determine the
/// [`DirectiveEnv`] the wire protocol can express). An entry holds the
/// compiled program and its deterministic operands behind the one
/// [`Operands`] handle every launch of that (source, bindings) shares —
/// a `count=N` SUBMIT, a `PIPE` burst and every shard read the same
/// allocation — and the source text itself: 64-bit FNV-1a is not
/// collision-resistant, so a hit must compare the text before it may
/// answer with the entry's program.
type MemoKey = (u64, Vec<(String, i64)>);

struct Compiled {
    src: String,
    prog: DslProgram,
    inputs: Operands,
}

struct FrontendMemo {
    entries: Mutex<HashMap<MemoKey, Arc<Compiled>>>,
}

impl FrontendMemo {
    fn new() -> FrontendMemo {
        FrontendMemo {
            entries: Mutex::new(HashMap::new()),
        }
    }

    fn compile(&self, src: &str, spec: &SubmitSpec) -> std::result::Result<Arc<Compiled>, String> {
        self.compile_keyed(fnv1a(src.as_bytes()), src, spec)
    }

    /// [`compile`](Self::compile) with the source digest supplied by the
    /// caller, so a test can force two sources onto one key.
    fn compile_keyed(
        &self,
        digest: u64,
        src: &str,
        spec: &SubmitSpec,
    ) -> std::result::Result<Arc<Compiled>, String> {
        let mut bindings = spec.bindings.clone();
        bindings.sort();
        let key = (digest, bindings);
        if let Some(hit) = lock(&self.entries).get(&key) {
            if hit.src == src {
                return Ok(Arc::clone(hit));
            }
            // a digest collision is a miss; the insert below replaces it
        }
        // compile outside the lock: a miss is the slow path, and one
        // confused client must not serialise every other connection
        // ... and under `catch_unwind`: this is the code client bytes reach
        // first, on the connection's own thread — a front-end bug must cost
        // that client one `err` line, never the reply. The closure only
        // reads its captures and builds a fresh value, so observing them
        // after an unwind is sound.
        let front_end = std::panic::AssertUnwindSafe(|| {
            let prog = compile_any(src, &spec.env).map_err(|e| e.to_string())?;
            let inputs = deterministic_inputs(&prog).map_err(|e| e.to_string())?;
            Ok((prog, inputs))
        });
        let (prog, inputs) = std::panic::catch_unwind(front_end)
            .unwrap_or_else(|_| Err("internal: front end panicked".to_string()))?;
        let compiled = Arc::new(Compiled {
            src: src.to_string(),
            prog,
            inputs: Arc::new(inputs),
        });
        let mut entries = lock(&self.entries);
        if entries.len() >= FRONTEND_MEMO_CAP {
            entries.clear();
        }
        entries.insert(key, Arc::clone(&compiled));
        Ok(compiled)
    }
}

/// Routes requests to one of N runtime shards by consistent hash of the
/// plan key. With one shard the ring is skipped entirely and stats pass
/// through unmerged.
struct Router {
    shards: Vec<Arc<Runtime>>,
    ring: Option<HashRing>,
    routes: Vec<AtomicU64>,
    memo: FrontendMemo,
}

impl Router {
    fn new(config: &RuntimeConfig, shards: usize, vnodes: usize) -> Result<Router> {
        let n = shards.max(1);
        let mut rts = Vec::with_capacity(n);
        for _ in 0..n {
            rts.push(Arc::new(Runtime::new(config.clone())?));
        }
        Ok(Router {
            shards: rts,
            ring: (n > 1).then(|| HashRing::new(n, vnodes.max(1))),
            routes: (0..n).map(|_| AtomicU64::new(0)).collect(),
            memo: FrontendMemo::new(),
        })
    }

    fn shard_for(&self, key: &PlanKey) -> usize {
        match &self.ring {
            Some(ring) => ring.route(key),
            None => 0,
        }
    }

    fn submit(&self, req: Request) -> Handle {
        let i = self.shard_for(&PlanKey::of(&req.prog, req.device));
        self.routes[i].fetch_add(1, Ordering::Relaxed);
        self.shards[i].submit(req)
    }

    fn submit_grad(&self, req: Request) -> Result<GradHandle> {
        let i = self.shard_for(&PlanKey::of(&req.prog, req.device));
        self.routes[i].fetch_add(1, Ordering::Relaxed);
        self.shards[i].submit_grad(req, None, None)
    }

    fn stats(&self) -> crate::stats::RuntimeStats {
        if self.shards.len() == 1 {
            return self.shards[0].stats();
        }
        let snaps: Vec<_> = self.shards.iter().map(|r| r.stats()).collect();
        let mut merged = crate::stats::RuntimeStats::merge_shards(&snaps);
        merged.shard_routes = self
            .routes
            .iter()
            .enumerate()
            .map(|(i, n)| (format!("shard{i}"), n.load(Ordering::Relaxed)))
            .collect();
        merged
    }

    fn note_pipelined_connection(&self) {
        self.shards[0].note_pipelined_connection();
    }

    fn note_pipelined_frame(&self) {
        self.shards[0].note_pipelined_frame();
    }
}

// ---------------------------------------------------------------------------
// server
// ---------------------------------------------------------------------------

/// What [`serve_opts`] listens on and how many runtime shards it runs.
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Unix socket path to bind (at least one of `unix`/`tcp` required).
    pub unix: Option<PathBuf>,
    /// TCP `host:port` to bind alongside (or instead of) the socket.
    pub tcp: Option<String>,
    /// Runtime shards (`0` and `1` both mean a single unsharded runtime).
    pub shards: usize,
    /// Virtual nodes per shard on the hash ring (`0` → [`DEFAULT_VNODES`]).
    pub vnodes: usize,
}

/// Everything a connection thread needs, shared across both accept loops.
struct ServerCtx {
    router: Router,
    draining: AtomicBool,
    active: AtomicUsize,
    max_connections: usize,
    pipeline_depth: usize,
    wake_unix: Option<PathBuf>,
    wake_tcp: Option<SocketAddr>,
}

/// Atomically claim a connection slot: the check and the increment are
/// one compare-and-swap, so a burst of simultaneous accepts can never
/// exceed `cap` (the race the old load-then-add admission had).
fn try_admit(active: &AtomicUsize, cap: usize) -> bool {
    active
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            (n < cap).then_some(n + 1)
        })
        .is_ok()
}

/// Bind `socket_path` and serve until a client sends `SHUTDOWN`.
///
/// A stale socket file from a dead server is replaced; a socket another
/// server is *currently accepting on* is not — clobbering it would
/// silently steal that server's clients, so this fails with
/// `AddrInUse` instead.
pub fn serve(socket_path: &Path, config: RuntimeConfig) -> std::io::Result<()> {
    serve_opts(
        ServeOptions {
            unix: Some(socket_path.to_path_buf()),
            ..ServeOptions::default()
        },
        config,
    )
}

fn bind_unix(socket_path: &Path) -> std::io::Result<UnixListener> {
    if socket_path.exists() {
        if UnixStream::connect(socket_path).is_ok() {
            return Err(std::io::Error::new(
                ErrorKind::AddrInUse,
                format!(
                    "socket {} belongs to a live server; refusing to replace it",
                    socket_path.display()
                ),
            ));
        }
        std::fs::remove_file(socket_path)?;
    }
    UnixListener::bind(socket_path)
}

/// Serve on every listener in `opts` (unix and/or TCP), over
/// `opts.shards` runtime shards, until a client sends `SHUTDOWN`.
pub fn serve_opts(opts: ServeOptions, config: RuntimeConfig) -> std::io::Result<()> {
    if opts.unix.is_none() && opts.tcp.is_none() {
        return Err(std::io::Error::new(
            ErrorKind::InvalidInput,
            "serve_opts needs at least one listener (unix socket or tcp)",
        ));
    }
    let unix_listener = opts.unix.as_deref().map(bind_unix).transpose()?;
    let tcp_listener = opts.tcp.as_deref().map(TcpListener::bind).transpose()?;
    let wake_tcp = tcp_listener.as_ref().and_then(|l| l.local_addr().ok());

    let max_connections = config.max_connections.max(1);
    let read_timeout = config.read_timeout;
    let pipeline_depth = config.pipeline_depth.max(1);
    let vnodes = if opts.vnodes == 0 {
        DEFAULT_VNODES
    } else {
        opts.vnodes
    };
    let router = Router::new(&config, opts.shards, vnodes)
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    if let Some(ring) = &router.ring {
        // deterministic: same shards and vnodes, same fingerprint
        eprintln!(
            "mdh-runtime: shard ring: shards={} vnodes={} fingerprint={:016x}",
            ring.shards(),
            ring.vnodes(),
            ring.fingerprint()
        );
    }
    if let Some(p) = &opts.unix {
        eprintln!("mdh-runtime: serving on {}", p.display());
    }
    if let Some(addr) = &wake_tcp {
        eprintln!("mdh-runtime: serving on tcp {addr}");
    }

    let ctx = Arc::new(ServerCtx {
        router,
        draining: AtomicBool::new(false),
        active: AtomicUsize::new(0),
        max_connections,
        pipeline_depth,
        wake_unix: opts.unix.clone(),
        wake_tcp,
    });
    let mut acceptors = Vec::new();
    if let Some(l) = unix_listener {
        let ctx = Arc::clone(&ctx);
        acceptors.push(
            std::thread::Builder::new()
                .name("mdh-accept-unix".into())
                .spawn(move || accept_loop(AnyListener::Unix(l), &ctx, read_timeout))?,
        );
    }
    if let Some(l) = tcp_listener {
        let ctx = Arc::clone(&ctx);
        acceptors.push(
            std::thread::Builder::new()
                .name("mdh-accept-tcp".into())
                .spawn(move || accept_loop(AnyListener::Tcp(l), &ctx, read_timeout))?,
        );
    }
    for a in acceptors {
        let _ = a.join();
    }
    if let Some(p) = &opts.unix {
        let _ = std::fs::remove_file(p);
    }
    Ok(())
}

/// Accept connections on one listener until drain. Every accepted
/// connection finishes (joins) before this returns.
fn accept_loop(listener: AnyListener, ctx: &Arc<ServerCtx>, read_timeout: Duration) {
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        let stream = match listener.accept() {
            Ok(s) => s,
            Err(e) => {
                if ctx.draining.load(Ordering::SeqCst) {
                    break;
                }
                eprintln!("mdh-runtime: accept failed: {e}");
                continue;
            }
        };
        if ctx.draining.load(Ordering::SeqCst) {
            break;
        }
        conns.retain(|h| !h.is_finished());
        let _ = stream.set_read_timeout(Some(read_timeout));
        let _ = stream.set_write_timeout(Some(read_timeout));
        if !try_admit(&ctx.active, ctx.max_connections) {
            let mut s = stream;
            let _ = writeln!(
                s,
                "err too many connections ({} active); retry later",
                ctx.max_connections
            );
            continue;
        }
        // A refusal handle taken *before* the spawn: if the spawn fails,
        // the closure (which owns `stream`) is dropped and the original
        // fd closes — the dup'd clone stays writable.
        let refusal = stream.try_clone();
        let slot = ConnectionSlot(Arc::clone(ctx));
        let spawned = std::thread::Builder::new()
            .name("mdh-serve-conn".into())
            .spawn(move || {
                if let Err(e) = handle_connection(stream, &slot.0) {
                    eprintln!("mdh-runtime: connection error: {e}");
                }
            });
        match spawned {
            Ok(handle) => conns.push(handle),
            Err(e) => {
                // thread exhaustion must not kill the server: shed this
                // connection (retryable) and keep accepting; dropping the
                // unrun closure has already released the slot
                eprintln!("mdh-runtime: spawn connection thread failed: {e}");
                if let Ok(mut s) = refusal {
                    let _ = writeln!(s, "err overloaded: no thread for connection; retry later");
                }
            }
        }
    }
    // graceful drain: every accepted connection finishes before teardown
    for h in conns {
        let _ = h.join();
    }
}

/// An admitted connection's claim on one of `max_connections` slots.
/// Dropping it releases the slot and, during drain, nudges both accept
/// loops (possibly blocked in `accept`) so they observe the flag — on a
/// normal return, when the connection thread unwinds, and when the thread
/// could not be spawned at all. A slot that is not released is lost for
/// the life of the server: `max_connections` such leaks and every later
/// connection, `SHUTDOWN` included, is refused.
struct ConnectionSlot(Arc<ServerCtx>);

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        let ctx = &self.0;
        ctx.active.fetch_sub(1, Ordering::SeqCst);
        if ctx.draining.load(Ordering::SeqCst) {
            if let Some(p) = &ctx.wake_unix {
                let _ = UnixStream::connect(p);
            }
            if let Some(a) = &ctx.wake_tcp {
                let _ = TcpStream::connect(a);
            }
        }
    }
}

/// Serve one connection: one command, then close — unless the command
/// is `PIPE`, which switches to pipelined framing. Sets draining on
/// `SHUTDOWN`.
fn handle_connection(stream: AnyStream, ctx: &Arc<ServerCtx>) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    if ctx.draining.load(Ordering::SeqCst) {
        writeln!(writer, "err draining: server is shutting down")?;
        return Ok(());
    }
    let header = match read_header(&mut reader, &mut writer)? {
        Some(h) => h,
        None => return Ok(()),
    };
    let fields: Vec<&str> = header.split_whitespace().collect();
    match fields.first().copied() {
        Some("STATS") => {
            if fields.get(1).copied() == Some("json") {
                writeln!(writer, "stats-json {}", ctx.router.stats().to_json())
            } else {
                writeln!(writer, "stats {}", ctx.router.stats())
            }
        }
        Some("SHUTDOWN") => {
            ctx.draining.store(true, Ordering::SeqCst);
            writeln!(writer, "ok shutting down")
        }
        Some("PIPE") => handle_pipelined(reader, writer, ctx),
        Some("SUBMIT") => match handle_submit(&fields, &mut reader, ctx) {
            Ok(lines) => {
                for line in lines {
                    writeln!(writer, "{line}")?;
                }
                Ok(())
            }
            Err(e) => writeln!(writer, "err {e}"),
        },
        _ => writeln!(writer, "err unknown command"),
    }
}

/// Read one capped header line. `Ok(None)` means the command was already
/// answered (or the client went away) and the connection is done.
fn read_header(
    reader: &mut BufReader<AnyStream>,
    writer: &mut AnyStream,
) -> std::io::Result<Option<String>> {
    let mut header = String::new();
    // cap the command line: read_line on an unbounded reader would buffer
    // a newline-less flood whole
    let n = match reader
        .take(MAX_HEADER_BYTES as u64 + 1)
        .read_line(&mut header)
    {
        Ok(n) => n,
        Err(e) if e.kind() == ErrorKind::InvalidData => {
            writeln!(writer, "err header is not UTF-8")?;
            return Ok(None);
        }
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            writeln!(writer, "err read timed out")?;
            return Ok(None);
        }
        Err(e) => return Err(e),
    };
    if n == 0 {
        return Ok(None); // client went away
    }
    if n > MAX_HEADER_BYTES {
        writeln!(writer, "err header too long (max {MAX_HEADER_BYTES} bytes)")?;
        return Ok(None);
    }
    Ok(Some(header))
}

// ---------------------------------------------------------------------------
// SUBMIT parsing and execution
// ---------------------------------------------------------------------------

/// A parsed SUBMIT header.
struct SubmitSpec {
    device: DeviceKind,
    count: usize,
    len: usize,
    deadline: Option<Instant>,
    grad: bool,
    env: DirectiveEnv,
    /// The raw size bindings behind `env` — the front-end memo key.
    bindings: Vec<(String, i64)>,
    tenant: Option<String>,
    /// Frame id — required (and only valid) on pipelined connections.
    id: Option<u64>,
}

fn valid_tenant(t: &str) -> bool {
    !t.is_empty()
        && t.len() <= 64
        && t.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

fn parse_submit_header(
    fields: &[&str],
    pipelined: bool,
) -> std::result::Result<SubmitSpec, String> {
    if fields.len() < 4 {
        return Err(
            "usage: SUBMIT <cpu|gpu> <count> <len> [NAME=VAL,...] [deadline_ms=<n>] \
             [grad=1] [tenant=<name>]"
                .into(),
        );
    }
    let device = match fields[1] {
        "cpu" => DeviceKind::Cpu,
        "gpu" => DeviceKind::Gpu,
        other => return Err(format!("unknown device '{other}'")),
    };
    let count: usize = fields[2].parse().map_err(|_| "bad count".to_string())?;
    let len: usize = fields[3].parse().map_err(|_| "bad length".to_string())?;
    if count == 0 || count > 100_000 {
        return Err("count must be in 1..=100000".into());
    }
    if len > 1 << 20 {
        return Err("source too large".into());
    }
    let mut spec = SubmitSpec {
        device,
        count,
        len,
        deadline: None,
        grad: false,
        env: DirectiveEnv::new(),
        bindings: Vec::new(),
        tenant: None,
        id: None,
    };
    for field in &fields[4..] {
        // `deadline_ms`, `grad`, `tenant`, and `id` are reserved: protocol
        // options, not size bindings. The deadline clock starts at header
        // parse time.
        if *field == "grad=1" {
            spec.grad = true;
            continue;
        }
        if let Some(ms) = field.strip_prefix("deadline_ms=") {
            let ms: u64 = ms
                .parse()
                .map_err(|_| format!("bad deadline in '{field}'"))?;
            spec.deadline = Some(Instant::now() + Duration::from_millis(ms));
            continue;
        }
        if let Some(t) = field.strip_prefix("tenant=") {
            if !valid_tenant(t) {
                return Err(format!(
                    "bad tenant '{t}' (want [A-Za-z0-9_-], 1..=64 chars)"
                ));
            }
            spec.tenant = Some(t.to_string());
            continue;
        }
        if let Some(id) = field.strip_prefix("id=") {
            if !pipelined {
                return Err("id= is only valid on a pipelined (PIPE) connection".into());
            }
            spec.id = Some(id.parse::<u64>().map_err(|_| "bad id".to_string())?);
            continue;
        }
        for bind in field.split(',').filter(|s| !s.is_empty()) {
            let (name, val) = bind
                .split_once('=')
                .ok_or_else(|| format!("bad binding '{bind}'"))?;
            let v: i64 = val.parse().map_err(|_| format!("bad value in '{bind}'"))?;
            spec.env = spec.env.size(name, v);
            spec.bindings.push((name.to_string(), v));
        }
    }
    Ok(spec)
}

/// Compile and execute one SUBMIT's launches; returns the per-launch
/// reply lines plus the `done <served>` line.
fn run_submit(
    spec: &SubmitSpec,
    src: &str,
    router: &Router,
) -> std::result::Result<Vec<String>, String> {
    collect_frame(submit_frame(spec, src, router))
}

/// A SUBMIT's launches after admission: either the in-flight handles or
/// the compile error. Splitting submission from collection lets the
/// pipelined reader enqueue a frame's work immediately (so the runtime
/// sees up to `pipeline_depth` frames at once and can batch them) while
/// the collector pool waits out the handles concurrently.
enum FrameWork {
    Plain(Vec<Handle>),
    Grad(Vec<Result<GradHandle>>),
    Failed(String),
}

/// Compile (through the memo) and submit one SUBMIT's launches without
/// waiting for any of them.
fn submit_frame(spec: &SubmitSpec, src: &str, router: &Router) -> FrameWork {
    let compiled = match router.memo.compile(src, spec) {
        Ok(c) => c,
        Err(e) => return FrameWork::Failed(e),
    };
    let reqs = frame_requests(spec, &compiled);
    if spec.grad {
        FrameWork::Grad(reqs.map(|req| router.submit_grad(req)).collect())
    } else {
        FrameWork::Plain(reqs.map(|req| router.submit(req)).collect())
    }
}

/// One SUBMIT's `count` launches: each takes a clone of the memo entry's
/// operand handle, so however many are in flight there is one copy of
/// the operands.
fn frame_requests<'a>(
    spec: &'a SubmitSpec,
    compiled: &'a Compiled,
) -> impl Iterator<Item = Request> + 'a {
    (0..spec.count).map(move |_| {
        let mut req = Request::new(
            compiled.prog.clone(),
            spec.device,
            Arc::clone(&compiled.inputs),
        );
        req.deadline = spec.deadline;
        req.tenant = spec.tenant.clone();
        req
    })
}

/// Wait out a frame's handles; returns the per-launch reply lines plus
/// the `done <served>` line, or the frame-level error.
fn collect_frame(work: FrameWork) -> std::result::Result<Vec<String>, String> {
    let mut lines = Vec::new();
    let mut served = 0usize;
    match work {
        FrameWork::Failed(e) => return Err(e),
        FrameWork::Grad(handles) => {
            for h in handles {
                match h.and_then(|h| h.wait()) {
                    Ok(resp) => {
                        lines.push(format_grad_response(&resp));
                        served += 1;
                    }
                    Err(e) => lines.push(format!("err {e}")),
                }
            }
        }
        FrameWork::Plain(handles) => {
            for h in handles {
                match h.wait() {
                    Ok(resp) => {
                        lines.push(format_response(&resp));
                        served += 1;
                    }
                    Err(e) => lines.push(format!("err {e}")),
                }
            }
        }
    }
    lines.push(format!("done {served}"));
    Ok(lines)
}

fn handle_submit(
    fields: &[&str],
    reader: &mut impl Read,
    ctx: &ServerCtx,
) -> std::result::Result<Vec<String>, String> {
    let spec = parse_submit_header(fields, false)?;
    let mut src = vec![0u8; spec.len];
    reader
        .read_exact(&mut src)
        .map_err(|e| format!("short source read: {e}"))?;
    let src = String::from_utf8(src).map_err(|_| "source is not UTF-8".to_string())?;
    let mut lines = run_submit(&spec, &src, &ctx.router)?;
    lines.push(format!("stats {}", ctx.router.stats()));
    Ok(lines)
}

// ---------------------------------------------------------------------------
// pipelined framing
// ---------------------------------------------------------------------------

/// One in-flight pipelined frame: already submitted to the runtime by
/// the reader, waiting to have its handles collected.
struct Frame {
    id: u64,
    work: FrameWork,
}

/// Serve a pipelined connection: read frames in order, execute them
/// concurrently (a small collector pool — frames complete out of order),
/// serialize replies through a single writer thread, cap frames in
/// flight at `pipeline_depth`.
fn handle_pipelined(
    mut reader: BufReader<AnyStream>,
    mut writer: AnyStream,
    ctx: &Arc<ServerCtx>,
) -> std::io::Result<()> {
    let depth = ctx.pipeline_depth;
    writeln!(writer, "ok pipelined depth={depth}")?;
    ctx.router.note_pipelined_connection();

    // The writer thread is the sole owner of the write half: each channel
    // message is one frame's contiguous reply lines. The small bound
    // chains backpressure client ← reader ← collectors ← writer. Replies
    // are buffered and flushed only once the channel goes momentarily
    // idle, so a burst of completed frames costs one syscall, not one
    // per line.
    let (reply_tx, reply_rx) = mpsc::sync_channel::<Vec<String>>(8);
    let writer_thread = std::thread::spawn(move || {
        let mut writer = std::io::BufWriter::new(writer);
        while let Ok(mut lines) = reply_rx.recv() {
            loop {
                for line in lines {
                    if writeln!(writer, "{line}").is_err() {
                        return; // client gone; senders see the drop
                    }
                }
                match reply_rx.try_recv() {
                    Ok(more) => lines = more,
                    Err(_) => break,
                }
            }
            let _ = writer.flush();
        }
    });

    // Collector pool: the reader has already submitted each frame's
    // requests, so up to `depth` frames sit in the runtime queue at once
    // (where same-plan frames coalesce into batches); collectors only
    // wait out handles and format replies. Frames are handed off in
    // arrival order but each collector waits its own frame's handles, so
    // a slow frame does not block a fast one behind it.
    let inflight = Arc::new(Semaphore::new(depth));
    let (frame_tx, frame_rx) = mpsc::channel::<Frame>();
    let frame_rx = Arc::new(Mutex::new(frame_rx));
    let collectors: Vec<_> = (0..depth.min(4))
        .map(|_| {
            let rx = Arc::clone(&frame_rx);
            let tx = reply_tx.clone();
            let inflight = Arc::clone(&inflight);
            std::thread::spawn(move || loop {
                let frame = {
                    let rx = lock(&rx);
                    rx.recv()
                };
                let Ok(frame) = frame else { break };
                let lines = match collect_frame(frame.work) {
                    Ok(lines) => lines,
                    Err(e) => vec![format!("err {e}")],
                };
                let id = frame.id;
                let _ = tx.send(lines.into_iter().map(|l| format!("id={id} {l}")).collect());
                inflight.release();
            })
        })
        .collect();

    // Reader loop (this thread): frames come off the socket in order;
    // ids must strictly increase (deterministic duplicate detection).
    // A malformed frame is terminal: stop reading, let in-flight frames
    // drain, write one unprefixed err line last.
    let mut terminal: Option<String> = None;
    let mut last_id: Option<u64> = None;
    loop {
        let mut header = String::new();
        let n = match (&mut reader)
            .take(MAX_HEADER_BYTES as u64 + 1)
            .read_line(&mut header)
        {
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                terminal = Some("err header is not UTF-8".into());
                break;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                terminal = Some("err read timed out".into());
                break;
            }
            Err(_) => break,
        };
        if n == 0 {
            break; // clean end of frames (client half-closed)
        }
        if n > MAX_HEADER_BYTES {
            terminal = Some(format!(
                "err header too long (max {MAX_HEADER_BYTES} bytes)"
            ));
            break;
        }
        let fields: Vec<&str> = header.split_whitespace().collect();
        match fields.first().copied() {
            Some("SUBMIT") => {}
            Some(other) => {
                terminal = Some(format!(
                    "err pipelined connection accepts only SUBMIT frames (got {other})"
                ));
                break;
            }
            None => continue, // bare newline between frames: tolerated
        }
        let spec = match parse_submit_header(&fields, true) {
            Ok(s) => s,
            Err(e) => {
                terminal = Some(format!("err {e}"));
                break;
            }
        };
        let Some(id) = spec.id else {
            terminal = Some("err pipelined SUBMIT requires id=<n>".into());
            break;
        };
        if let Some(prev) = last_id {
            if id <= prev {
                terminal = Some(format!("err id must increase (got {id} after {prev})"));
                break;
            }
        }
        last_id = Some(id);
        let mut src = vec![0u8; spec.len];
        if let Err(e) = reader.read_exact(&mut src) {
            terminal = Some(format!("err short source read: {e}"));
            break;
        }
        let Ok(src) = String::from_utf8(src) else {
            terminal = Some("err source is not UTF-8".into());
            break;
        };
        ctx.router.note_pipelined_frame();
        inflight.acquire(); // ≤ depth frames past this point
        let work = submit_frame(&spec, &src, &ctx.router);
        if frame_tx.send(Frame { id, work }).is_err() {
            break;
        }
    }
    drop(frame_tx);
    for c in collectors {
        let _ = c.join();
    }
    // every accepted frame has replied; the terminal error (if any) is
    // the last line on the connection
    if let Some(line) = terminal {
        let _ = reply_tx.send(vec![line]);
    }
    drop(reply_tx);
    let _ = writer_thread.join();
    Ok(())
}

// ---------------------------------------------------------------------------
// client helpers (used by `mdhc submit`)
// ---------------------------------------------------------------------------

/// Submit `source` `count` times to the server at `socket_path`; returns
/// the server's reply lines.
pub fn client_submit(
    socket_path: &Path,
    source: &str,
    device: DeviceKind,
    count: usize,
    bindings: &[(String, i64)],
) -> std::io::Result<Vec<String>> {
    client_submit_with_deadline(socket_path, source, device, count, bindings, None)
}

/// [`client_submit`] with an optional per-launch deadline in
/// milliseconds (server-side clock, started at header parse).
pub fn client_submit_with_deadline(
    socket_path: &Path,
    source: &str,
    device: DeviceKind,
    count: usize,
    bindings: &[(String, i64)],
    deadline_ms: Option<u64>,
) -> std::io::Result<Vec<String>> {
    client_submit_opts(
        &ServerAddr::Unix(socket_path.to_path_buf()),
        source,
        device,
        count,
        &SubmitClientOpts {
            bindings: bindings.to_vec(),
            deadline_ms,
            ..SubmitClientOpts::default()
        },
    )
}

/// [`client_submit`] as a gradient round trip (`grad=1`): each reply line
/// carries the forward checksum plus per-input gradient checksums.
pub fn client_submit_grad(
    socket_path: &Path,
    source: &str,
    device: DeviceKind,
    count: usize,
    bindings: &[(String, i64)],
    deadline_ms: Option<u64>,
) -> std::io::Result<Vec<String>> {
    client_submit_opts(
        &ServerAddr::Unix(socket_path.to_path_buf()),
        source,
        device,
        count,
        &SubmitClientOpts {
            bindings: bindings.to_vec(),
            deadline_ms,
            grad: true,
            ..SubmitClientOpts::default()
        },
    )
}

/// Client-side options for a submit round trip.
#[derive(Debug, Clone, Default)]
pub struct SubmitClientOpts {
    pub bindings: Vec<(String, i64)>,
    pub deadline_ms: Option<u64>,
    pub grad: bool,
    pub tenant: Option<String>,
}

fn submit_header(
    device: DeviceKind,
    count: usize,
    len: usize,
    opts: &SubmitClientOpts,
    id: Option<u64>,
) -> String {
    let dev = match device {
        DeviceKind::Cpu => "cpu",
        DeviceKind::Gpu => "gpu",
    };
    let mut header = format!("SUBMIT {dev} {count} {len}");
    let binds = opts
        .bindings
        .iter()
        .map(|(n, v)| format!("{n}={v}"))
        .collect::<Vec<_>>()
        .join(",");
    if !binds.is_empty() {
        header.push(' ');
        header.push_str(&binds);
    }
    if let Some(ms) = opts.deadline_ms {
        header.push_str(&format!(" deadline_ms={ms}"));
    }
    if opts.grad {
        header.push_str(" grad=1");
    }
    if let Some(t) = &opts.tenant {
        header.push_str(&format!(" tenant={t}"));
    }
    if let Some(id) = id {
        header.push_str(&format!(" id={id}"));
    }
    header
}

/// One-command submit over either transport, with full options.
pub fn client_submit_opts(
    addr: &ServerAddr,
    source: &str,
    device: DeviceKind,
    count: usize,
    opts: &SubmitClientOpts,
) -> std::io::Result<Vec<String>> {
    let mut stream = addr.connect()?;
    let header = submit_header(device, count, source.len(), opts, None);
    writeln!(stream, "{header}")?;
    stream.write_all(source.as_bytes())?;
    read_reply(stream)
}

/// Submit `count` launches as `count` pipelined frames (one launch each)
/// over a single multiplexed connection — the amortised replacement for
/// `count` sequential connections.
///
/// Replies are re-ordered by frame id and their `id=<n> ` prefixes
/// stripped, so the returned lines read like `count` sequential submits:
/// per frame, its `ok`/`err` lines then `done <served>`. Any terminal
/// (unprefixed) protocol error line is kept last.
pub fn client_submit_pipelined(
    addr: &ServerAddr,
    source: &str,
    device: DeviceKind,
    count: usize,
    opts: &SubmitClientOpts,
) -> std::io::Result<Vec<String>> {
    let stream = addr.connect()?;
    let raw = stream.try_clone()?;
    // concurrent reader: replies stream back while frames are still being
    // written, so neither side's socket buffer has to hold everything
    let reader = std::thread::spawn(move || -> std::io::Result<Vec<String>> {
        BufReader::new(stream).lines().collect()
    });
    // buffered writes: many small frames coalesce into few syscalls
    let mut w = std::io::BufWriter::new(raw);
    writeln!(w, "PIPE")?;
    for id in 1..=count as u64 {
        let header = submit_header(device, 1, source.len(), opts, Some(id));
        writeln!(w, "{header}")?;
        w.write_all(source.as_bytes())?;
    }
    w.flush()?;
    w.into_inner()
        .map_err(|e| std::io::Error::other(e.to_string()))?
        .shutdown_write()?; // end of frames
    let lines = reader
        .join()
        .map_err(|_| std::io::Error::other("reply reader panicked"))??;
    Ok(order_pipelined_replies(lines))
}

/// Group pipelined reply lines by frame id, order frames by id, strip
/// the `id=<n> ` prefixes. The `ok pipelined ...` banner is dropped;
/// unprefixed lines (terminal protocol errors) sort last, in order.
fn order_pipelined_replies(lines: Vec<String>) -> Vec<String> {
    let mut frames: std::collections::BTreeMap<u64, Vec<String>> = Default::default();
    let mut trailing = Vec::new();
    for line in lines {
        if line.starts_with("ok pipelined") {
            continue;
        }
        let parsed = line.strip_prefix("id=").and_then(|rest| {
            let (id, body) = rest.split_once(' ')?;
            Some((id.parse::<u64>().ok()?, body.to_string()))
        });
        match parsed {
            Some((id, body)) => frames.entry(id).or_default().push(body),
            None => trailing.push(line),
        }
    }
    let mut out: Vec<String> = frames.into_values().flatten().collect();
    out.extend(trailing);
    out
}

/// Ask the server for a stats line.
pub fn client_stats(socket_path: &Path) -> std::io::Result<Vec<String>> {
    client_stats_addr(&ServerAddr::Unix(socket_path.to_path_buf()))
}

/// [`client_stats`] over either transport.
pub fn client_stats_addr(addr: &ServerAddr) -> std::io::Result<Vec<String>> {
    let mut stream = addr.connect()?;
    writeln!(stream, "STATS")?;
    read_reply(stream)
}

/// Ask the server for the machine-readable stats snapshot
/// (`stats-json {...}`).
pub fn client_stats_json(socket_path: &Path) -> std::io::Result<Vec<String>> {
    client_stats_json_addr(&ServerAddr::Unix(socket_path.to_path_buf()))
}

/// [`client_stats_json`] over either transport.
pub fn client_stats_json_addr(addr: &ServerAddr) -> std::io::Result<Vec<String>> {
    let mut stream = addr.connect()?;
    writeln!(stream, "STATS json")?;
    read_reply(stream)
}

/// Ask the server to shut down.
pub fn client_shutdown(socket_path: &Path) -> std::io::Result<Vec<String>> {
    client_shutdown_addr(&ServerAddr::Unix(socket_path.to_path_buf()))
}

/// [`client_shutdown`] over either transport.
pub fn client_shutdown_addr(addr: &ServerAddr) -> std::io::Result<Vec<String>> {
    let mut stream = addr.connect()?;
    writeln!(stream, "SHUTDOWN")?;
    read_reply(stream)
}

fn read_reply(stream: AnyStream) -> std::io::Result<Vec<String>> {
    let reader = BufReader::new(stream);
    reader.lines().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOT: &str = "\
@mdh( out( res = Buffer[fp32] ),
      inp( x = Buffer[fp32], y = Buffer[fp32] ),
      combine_ops( pw(add) ) )
def dot(res, x, y):
    for k in range(N):
        res[0] = x[k] * y[k]
";

    #[test]
    fn compile_any_dispatches_directive() {
        let env = DirectiveEnv::new().size("N", 64);
        let prog = compile_any(DOT, &env).unwrap();
        assert_eq!(prog.md_hom.sizes, vec![64]);
    }

    #[test]
    fn checksum_equals_the_per_element_walk_on_every_scalar_type() {
        use mdh_core::types::{BasicType, ScalarKind};
        // the walk `checksum` replaced: one `Value` per element
        let walk = |b: &Buffer| -> f64 {
            (0..b.len())
                .map(|i| b.get_flat(i).as_f64().unwrap_or(0.0))
                .sum()
        };
        for kind in [
            ScalarKind::F32,
            ScalarKind::F64,
            ScalarKind::I32,
            ScalarKind::I64,
            ScalarKind::Bool,
            ScalarKind::Char,
        ] {
            let mut b = Buffer::zeros("b", BasicType::Scalar(kind), Shape::new(vec![1000]));
            // magnitudes from 1e-3 to 1e4 with mixed signs: as f32/f64 the
            // sum rounds at almost every step, so any other order shows
            b.fill_with(|i| ((i * 7919) % 1013) as f64 * 10f64.powi(i as i32 % 8 - 3) - 40.0);
            assert_eq!(checksum(&b).to_bits(), walk(&b).to_bits(), "{kind}");
        }
        let empty = Buffer::zeros("e", BasicType::F32, Shape::new(vec![0]));
        assert_eq!(checksum(&empty).to_bits(), walk(&empty).to_bits());
    }

    #[test]
    fn deterministic_inputs_are_integer_valued() {
        let env = DirectiveEnv::new().size("N", 64);
        let prog = compile_any(DOT, &env).unwrap();
        let inputs = deterministic_inputs(&prog).unwrap();
        assert_eq!(inputs.len(), 2);
        for b in &inputs {
            for i in 0..b.len() {
                let v = b.get_flat(i).as_f64().unwrap();
                assert_eq!(v, v.trunc(), "fill must be integer-valued");
                assert!((-8.0..8.0).contains(&v));
            }
        }
    }

    /// A SUBMIT header for `DOT` at `N=64` as the wire would parse it.
    fn dot_spec(count: usize) -> SubmitSpec {
        let header = format!("SUBMIT cpu {count} {} N=64", DOT.len());
        let fields: Vec<&str> = header.split_whitespace().collect();
        parse_submit_header(&fields, false).unwrap()
    }

    #[test]
    fn memo_never_answers_a_forged_digest_with_the_other_source() {
        // FNV-1a collisions are constructible offline; force one instead
        // of constructing it: two different sources under one digest
        const SCALED: &str = "\
@mdh( out( y = Buffer[fp32] ),
      inp( x = Buffer[fp32] ),
      combine_ops( cc ) )
def scaled(y, x):
    for k in range(N):
        y[k] = 0.5 * x[k]
";
        let memo = FrontendMemo::new();
        let spec = dot_spec(1);
        let digest = 0x5eed;
        let dot = memo.compile_keyed(digest, DOT, &spec).unwrap();
        assert_eq!(dot.prog.name, "dot");
        // the planted source gets its own program, not the entry's ...
        let planted = memo.compile_keyed(digest, SCALED, &spec).unwrap();
        assert_eq!(planted.prog.name, "scaled");
        assert_eq!(planted.inputs.len(), 1);
        // ... and the first tenant is not served the planted one after it
        let again = memo.compile_keyed(digest, DOT, &spec).unwrap();
        assert_eq!(again.prog.name, "dot");
        assert_eq!(again.inputs.len(), 2);
        // one key, one entry: each mismatch replaced it
        assert_eq!(lock(&memo.entries).len(), 1);
        // same text under the same digest is still a hit
        let hit = memo.compile_keyed(digest, DOT, &spec).unwrap();
        assert!(Arc::ptr_eq(&hit, &again));
    }

    #[test]
    fn every_launch_of_a_source_shares_the_memo_operands() {
        let config = RuntimeConfig {
            workers: 2,
            exec_threads: 2,
            // a TuneJob would hold the handle for as long as its search runs
            tune: crate::tune::TunePolicy {
                enabled: false,
                ..Default::default()
            },
            ..RuntimeConfig::default()
        };
        let router = Router::new(&config, 2, 8).unwrap();
        let spec = dot_spec(8);
        let entry = router.memo.compile(DOT, &spec).unwrap();
        assert_eq!(Arc::strong_count(&entry.inputs), 1, "the memo's");

        // the eight launches of one SUBMIT, before they are submitted
        let reqs: Vec<Request> = frame_requests(&spec, &entry).collect();
        assert_eq!(reqs.len(), 8);
        assert!(reqs.iter().all(|r| Arc::ptr_eq(&r.inputs, &entry.inputs)));
        assert_eq!(Arc::strong_count(&entry.inputs), 9);
        drop(reqs);

        // two frames of one source through the real path: both resolve to
        // the same entry, so all sixteen launches read one allocation
        let first = submit_frame(&spec, DOT, &router);
        let second = submit_frame(&spec, DOT, &router);
        assert!(Arc::ptr_eq(
            &router.memo.compile(DOT, &spec).unwrap(),
            &entry
        ));
        for work in [first, second] {
            let lines = collect_frame(work).unwrap();
            assert_eq!(
                lines.last().map(String::as_str),
                Some("done 8"),
                "{lines:?}"
            );
        }
        // replies written; joining the workers drops the last job
        drop(router);
        assert_eq!(
            Arc::strong_count(&entry.inputs),
            1,
            "only the entry's again"
        );
    }

    #[test]
    fn a_connection_thread_that_unwinds_still_releases_its_slot() {
        let config = RuntimeConfig {
            workers: 1,
            exec_threads: 1,
            ..RuntimeConfig::default()
        };
        let ctx = Arc::new(ServerCtx {
            router: Router::new(&config, 1, 8).unwrap(),
            draining: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            max_connections: 1,
            pipeline_depth: 1,
            wake_unix: None,
            wake_tcp: None,
        });
        // what `accept_loop` does around a connection whose handler panics
        assert!(try_admit(&ctx.active, ctx.max_connections));
        let slot = ConnectionSlot(Arc::clone(&ctx));
        let conn = std::thread::spawn(move || {
            let _slot = slot;
            panic!("a bug on the connection thread");
        });
        assert!(conn.join().is_err());
        assert_eq!(ctx.active.load(Ordering::SeqCst), 0);
        assert!(try_admit(&ctx.active, ctx.max_connections), "slot reusable");
    }

    #[test]
    fn try_admit_is_race_free_under_a_burst() {
        // regression: the old load-then-add admission let a burst exceed
        // max_connections; the CAS must make over-admission impossible
        let active = Arc::new(AtomicUsize::new(0));
        let cap = 8;
        let admitted = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..64)
            .map(|_| {
                let active = Arc::clone(&active);
                let admitted = Arc::clone(&admitted);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        if try_admit(&active, cap) {
                            let now = admitted.fetch_add(1, Ordering::SeqCst) + 1;
                            assert!(now <= cap, "admission exceeded the cap: {now}");
                            std::thread::yield_now();
                            admitted.fetch_sub(1, Ordering::SeqCst);
                            active.fetch_sub(1, Ordering::SeqCst);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(active.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn order_pipelined_replies_sorts_by_id_and_strips_prefixes() {
        let lines = vec![
            "ok pipelined depth=32".to_string(),
            "id=2 ok second".to_string(),
            "id=2 done 1".to_string(),
            "id=1 ok first".to_string(),
            "id=1 done 1".to_string(),
            "err id must increase (got 2 after 2)".to_string(),
        ];
        assert_eq!(
            order_pipelined_replies(lines),
            vec![
                "ok first",
                "done 1",
                "ok second",
                "done 1",
                "err id must increase (got 2 after 2)",
            ]
        );
    }

    #[test]
    fn tenant_names_are_validated() {
        assert!(valid_tenant("team-a_1"));
        assert!(!valid_tenant(""));
        assert!(!valid_tenant("has space"));
        assert!(!valid_tenant("quote\"y"));
        assert!(!valid_tenant(&"x".repeat(65)));
        assert!(!valid_tenant(crate::runtime::TENANT_OVERFLOW));
    }

    #[test]
    fn serve_and_submit_roundtrip() {
        let dir = std::env::temp_dir().join(format!("mdh-runtime-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("rt.sock");
        let sock2 = sock.clone();
        let server = std::thread::spawn(move || {
            serve(
                &sock2,
                RuntimeConfig {
                    workers: 1,
                    exec_threads: 2,
                    ..RuntimeConfig::default()
                },
            )
            .unwrap();
        });
        // wait for the socket to appear
        for _ in 0..500 {
            if sock.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let lines = client_submit(&sock, DOT, DeviceKind::Cpu, 5, &[("N".into(), 64)]).unwrap();
        let oks = lines.iter().filter(|l| l.starts_with("ok ")).count();
        assert_eq!(oks, 5, "all launches answered: {lines:?}");
        assert!(lines.iter().any(|l| l.starts_with("done 5")));
        // launch 1 misses, 2..5 hit
        assert!(lines[0].contains("hit=false"));
        assert!(lines[1..5].iter().all(|l| l.contains("hit=true")));
        // identical deterministic inputs → identical checksums
        let sum = |l: &str| l.split("checksum=").nth(1).unwrap().to_string();
        assert!(lines[1..5].iter().all(|l| sum(l) == sum(&lines[0])));

        let stats = client_stats(&sock).unwrap();
        assert!(stats[0].starts_with("stats "), "{stats:?}");
        let bye = client_shutdown(&sock).unwrap();
        assert!(bye[0].starts_with("ok"), "{bye:?}");
        server.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_grad_roundtrip_and_json_stats() {
        let dir = std::env::temp_dir().join(format!("mdh-runtime-grad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("rt.sock");
        let sock2 = sock.clone();
        let server = std::thread::spawn(move || {
            serve(
                &sock2,
                RuntimeConfig {
                    workers: 1,
                    exec_threads: 2,
                    ..RuntimeConfig::default()
                },
            )
            .unwrap();
        });
        for _ in 0..500 {
            if sock.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let lines = client_submit_grad(
            &sock,
            DOT,
            DeviceKind::Cpu,
            3,
            &[("N".into(), 64)],
            Some(30_000),
        )
        .unwrap();
        let oks: Vec<&String> = lines.iter().filter(|l| l.starts_with("ok ")).collect();
        assert_eq!(oks.len(), 3, "all grad round trips answered: {lines:?}");
        for l in &oks {
            assert!(l.contains("parts=2"), "{l}");
            assert!(l.contains("grad_checksum=d_x="), "{l}");
            assert!(l.contains("d_y="), "{l}");
        }
        // deterministic inputs + all-ones cotangent → identical checksums
        let gsum = |l: &str| l.split("grad_checksum=").nth(1).unwrap().to_string();
        assert!(oks[1..].iter().all(|l| gsum(l) == gsum(oks[0])));
        // d(Σ x·y)/dx = y: the gradient checksum equals y's input checksum
        let env = DirectiveEnv::new().size("N", 64);
        let inputs = deterministic_inputs(&compile_any(DOT, &env).unwrap()).unwrap();
        assert!(
            gsum(oks[0]).starts_with(&format!("d_x={:.6}", checksum(&inputs[1]))),
            "{}",
            oks[0]
        );

        let stats = client_stats_json(&sock).unwrap();
        assert!(stats[0].starts_with("stats-json {"), "{stats:?}");
        assert!(stats[0].contains("\"grad_requests\":3"), "{stats:?}");
        assert!(stats[0].ends_with('}'), "{stats:?}");
        let bye = client_shutdown(&sock).unwrap();
        assert!(bye[0].starts_with("ok"), "{bye:?}");
        server.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_refuses_live_socket() {
        let dir = std::env::temp_dir().join(format!("mdh-runtime-livesock-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("rt.sock");
        // a live listener on the path (not a full server — connectable is
        // what the guard checks)
        let _holder = UnixListener::bind(&sock).unwrap();
        let err = serve(&sock, RuntimeConfig::default()).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::AddrInUse, "{err}");
        assert!(sock.exists(), "the live socket must not be unlinked");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
