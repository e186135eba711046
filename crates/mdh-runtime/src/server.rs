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
//!   ok hit=<bool> source=<heuristic|persistent> epoch=0 batch=<n>
//!      exec_ms=<x> total_ms=<x> checksum=<buf>=<v>[,...]
//!      [parts=<n> grad_checksum=d_<buf>=<v>[,...]]
//!   done <count>
//!   stats <counters>            (or `stats-json {...}` for STATS json)
//!   err <message>
//! ```
//!
//! `count` submits the same compiled program that many times — the
//! demonstration of plan-cache amortisation: launch 1 is a cold miss
//! (the plan is lowered), launches 2..count hit.
//! Inputs are generated deterministically server-side, so checksums are
//! reproducible across runs and clients stay tiny. `deadline_ms` applies
//! a serve-by deadline (relative to header parse time) to every launch
//! of the batch; expired launches answer `err deadline exceeded ...`.
//! `grad=1` turns each launch into a gradient round trip
//! (`Runtime::submit_grad`). `tenant=<name>` bills the launches to a
//! fair-queueing tenant (`Request::with_tenant`): each tenant has its
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
//! ## Transports
//!
//! [`serve_opts`] binds a unix socket, a TCP listener, or both — same
//! wire grammar, same header cap, read-timeout, connection cap (shared
//! across both listeners), and drain semantics — in front of one
//! [`Runtime`] and one front-end memo.
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

use crate::front::{Compiled, FrontendMemo};
use crate::protocol::{
    format_grad_response, format_response, read_body, read_header, Header, Submit,
};
use crate::request::{GradHandle, Handle, Request};
use crate::runtime::{Runtime, RuntimeConfig};
use crate::stats::RuntimeStats;
use crate::sync::{lock, Semaphore};
use crate::transport::{accept_loop, bind_unix, AnyListener, Gate, NO_THREAD};
use mdh_core::error::Result;
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

pub use crate::protocol::{
    checksum, deterministic_inputs, SubmitClientOpts, MAX_HEADER_BYTES, MAX_OPERAND_BYTES,
};
pub use crate::transport::{AnyStream, ServerAddr};
/// The front-end dispatch (`#pragma mdh` → C, `!$mdh` → Fortran, a leading
/// `out_view` → textual DSL, otherwise the Python-like directive) lives
/// with the front ends; `mdhc` and this server share it.
pub use mdh_directive::compile_any;

/// What [`serve_opts`] listens on.
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Unix socket path to bind (at least one of `unix`/`tcp` required).
    pub unix: Option<PathBuf>,
    /// TCP `host:port` to bind alongside (or instead of) the socket.
    pub tcp: Option<String>,
}

/// Everything a connection thread needs, shared across both accept loops.
struct ServerCtx {
    runtime: Runtime,
    memo: FrontendMemo,
    /// `PIPE` connections and their frames: the server's to count.
    pipelined_connections: AtomicU64,
    pipelined_frames: AtomicU64,
    gate: Arc<Gate>,
    pipeline_depth: usize,
}

impl ServerCtx {
    fn new(config: RuntimeConfig, gate: Arc<Gate>) -> Result<ServerCtx> {
        Ok(ServerCtx {
            pipeline_depth: config.pipeline_depth.max(1),
            runtime: Runtime::new(config)?,
            memo: FrontendMemo::default(),
            pipelined_connections: AtomicU64::new(0),
            pipelined_frames: AtomicU64::new(0),
            gate,
        })
    }

    /// The runtime's snapshot with the server's own counters overlaid.
    fn stats(&self) -> RuntimeStats {
        let mut s = self.runtime.stats();
        s.pipelined_connections = self.pipelined_connections.load(Ordering::Relaxed);
        s.pipelined_frames = self.pipelined_frames.load(Ordering::Relaxed);
        s
    }
}

/// Serve on every listener in `opts` (unix and/or TCP) until a client
/// sends `SHUTDOWN`.
///
/// A stale socket file from a dead server is replaced; a socket another
/// server is *currently accepting on* is not — this fails with
/// `AddrInUse` instead.
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

    let read_timeout = config.read_timeout;
    let gate = Arc::new(Gate {
        max_connections: config.max_connections.max(1),
        wake_unix: opts.unix.clone(),
        wake_tcp,
        ..Gate::default()
    });
    let ctx = ServerCtx::new(config, Arc::clone(&gate))
        .map_err(|e| std::io::Error::other(e.to_string()))
        .map(Arc::new)?;
    if let Some(p) = &opts.unix {
        eprintln!("mdh-runtime: serving on {}", p.display());
    }
    if let Some(addr) = &wake_tcp {
        eprintln!("mdh-runtime: serving on tcp {addr}");
    }

    let listeners = [
        unix_listener.map(|l| ("mdh-accept-unix", AnyListener::Unix(l))),
        tcp_listener.map(|l| ("mdh-accept-tcp", AnyListener::Tcp(l))),
    ];
    let mut acceptors = Vec::new();
    for (name, listener) in listeners.into_iter().flatten() {
        let (gate, ctx) = (Arc::clone(&gate), Arc::clone(&ctx));
        let handler = move |stream| {
            if let Err(e) = handle_connection(stream, &ctx) {
                eprintln!("mdh-runtime: connection error: {e}");
            }
        };
        acceptors.push(
            std::thread::Builder::new()
                .name(name.into())
                .spawn(move || accept_loop(listener, &gate, read_timeout, handler))?,
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

/// Serve one connection: one command, then close — unless the command
/// is `PIPE`, which switches to pipelined framing. Sets draining on
/// `SHUTDOWN`.
fn handle_connection(stream: AnyStream, ctx: &ServerCtx) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    if ctx.gate.draining.load(Ordering::SeqCst) {
        return writeln!(writer, "err draining: server is shutting down");
    }
    let header = match read_header(&mut reader)? {
        Header::Line(h) => h,
        Header::Eof => return Ok(()), // client went away
        Header::Refused(e) => return writeln!(writer, "err {e}"),
    };
    let fields: Vec<&str> = header.split_whitespace().collect();
    match fields.first().copied() {
        Some("STATS") => {
            if fields.get(1).copied() == Some("json") {
                writeln!(writer, "stats-json {}", ctx.stats().to_json())
            } else {
                writeln!(writer, "stats {}", ctx.stats())
            }
        }
        Some("SHUTDOWN") => {
            ctx.gate.draining.store(true, Ordering::SeqCst);
            writeln!(writer, "ok shutting down")
        }
        Some("PIPE") => handle_pipelined(reader, writer, ctx),
        Some("SUBMIT") => {
            // the frame path with a window of one, inline on this thread:
            // the frame's lines, then the stats line
            let frame = read_frame(&fields, None, &mut reader);
            match frame.and_then(|(submit, src)| collect_frame(submit_frame(&submit, src, ctx))) {
                Ok(lines) => {
                    for line in lines {
                        writeln!(writer, "{line}")?;
                    }
                    writeln!(writer, "stats {}", ctx.stats())
                }
                Err(e) => writeln!(writer, "err {e}"),
            }
        }
        _ => writeln!(writer, "err unknown command"),
    }
}

// ---------------------------------------------------------------------------
// the frame path: read header → parse → read body → submit_frame →
// collect_frame, for a one-shot SUBMIT and a pipelined frame alike
// ---------------------------------------------------------------------------

/// Parse one SUBMIT's header fields and read its body. On a pipelined
/// connection (`last_id` is the connection's last frame id) the frame
/// must carry an `id=` above the last one, checked before the body is read.
fn read_frame(
    fields: &[&str],
    last_id: Option<&mut Option<u64>>,
    reader: &mut impl Read,
) -> std::result::Result<(Submit, String), String> {
    let submit = Submit::parse(fields, last_id.is_some())?;
    if let Some(last) = last_id {
        let id = (submit.header.id).ok_or("pipelined SUBMIT requires id=<n>")?;
        if let Some(prev) = last.filter(|&prev| id <= prev) {
            return Err(format!("id must increase (got {id} after {prev})"));
        }
        *last = Some(id);
    }
    let src = read_body(reader, submit.header.len)?;
    Ok((submit, src))
}

/// One launch of a frame, in flight.
enum Launch {
    Plain(Handle),
    Grad(Result<GradHandle>),
}

/// A SUBMIT's launches after admission, or its compile error. Splitting
/// submission from collection lets the pipelined reader enqueue a frame's
/// work immediately (so the runtime sees up to `pipeline_depth` frames at
/// once and can batch them) while the collector pool waits out the
/// handles concurrently.
type FrameWork = std::result::Result<Vec<Launch>, String>;

/// Compile (through the memo) and submit one SUBMIT's launches without
/// waiting for any of them.
fn submit_frame(submit: &Submit, src: String, ctx: &ServerCtx) -> FrameWork {
    let compiled = ctx.memo.compile(src, submit)?;
    let grad = submit.header.opts.grad;
    let launch = |req| {
        if grad {
            Launch::Grad(ctx.runtime.submit_grad(req, None, None))
        } else {
            Launch::Plain(ctx.runtime.submit(req))
        }
    };
    Ok(frame_requests(submit, &compiled).map(launch).collect())
}

/// One SUBMIT's `count` launches: each takes a clone of the memo entry's
/// operand handle, so however many are in flight there is one copy of
/// the operands.
fn frame_requests<'a>(
    submit: &'a Submit,
    compiled: &'a Compiled,
) -> impl Iterator<Item = Request> + 'a {
    (0..submit.header.count).map(move |_| {
        let mut req = Request::new(
            compiled.prog.clone(),
            submit.header.device,
            Arc::clone(&compiled.inputs),
        );
        req.deadline = submit.deadline;
        req.tenant = submit.header.opts.tenant.clone();
        req
    })
}

/// Wait out a frame's launches; returns one reply line per launch plus
/// the `done <served>` line, or the frame-level error.
fn collect_frame(work: FrameWork) -> std::result::Result<Vec<String>, String> {
    let (mut lines, mut served) = (Vec::new(), 0);
    for launch in work? {
        let reply = match launch {
            Launch::Plain(h) => h.wait().map(|resp| format_response(&resp)),
            Launch::Grad(h) => h
                .and_then(GradHandle::wait)
                .map(|resp| format_grad_response(&resp)),
        };
        served += reply.is_ok() as usize;
        lines.push(reply.unwrap_or_else(|e| format!("err {e}")));
    }
    lines.push(format!("done {served}"));
    Ok(lines)
}

/// Serve a pipelined connection: read frames in order, execute them
/// concurrently (a small collector pool — frames complete out of order),
/// serialize replies through a single writer thread, cap frames in
/// flight at `pipeline_depth`. A connection that cannot get its threads
/// is answered `err overloaded`, as a connection refused one is.
fn handle_pipelined(
    mut reader: BufReader<AnyStream>,
    mut writer: AnyStream,
    ctx: &ServerCtx,
) -> std::io::Result<()> {
    let depth = ctx.pipeline_depth;
    writeln!(writer, "ok pipelined depth={depth}")?;
    ctx.pipelined_connections.fetch_add(1, Ordering::Relaxed);

    // The writer thread is the sole owner of the write half: each channel
    // message is one frame's contiguous reply lines. The small bound
    // chains backpressure client ← reader ← collectors ← writer. Replies
    // are buffered and flushed only once the channel goes momentarily
    // idle, so a burst of completed frames costs one syscall, not one
    // per line.
    let (reply_tx, reply_rx) = mpsc::sync_channel::<Vec<String>>(8);
    let writer_thread = std::thread::Builder::new().spawn(move || {
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
    let Ok(writer_thread) = writer_thread else {
        // the unrun closure closed its handle; the reader's is a dup
        return writeln!(reader.get_mut(), "{NO_THREAD}");
    };

    // Collector pool: the reader has already submitted each frame's
    // requests, so up to `depth` frames sit in the runtime queue at once
    // (where same-plan frames coalesce into batches); collectors only
    // wait out handles and format replies. Frames are handed off in
    // arrival order but each collector waits its own frame's handles, so
    // a slow frame does not block a fast one behind it.
    let inflight = Arc::new(Semaphore::new(depth));
    let (frame_tx, frame_rx) = mpsc::channel::<(u64, FrameWork)>();
    let frame_rx = Arc::new(Mutex::new(frame_rx));
    let collectors: std::io::Result<Vec<_>> = (0..depth.min(4))
        .map(|_| {
            let rx = Arc::clone(&frame_rx);
            let tx = reply_tx.clone();
            let inflight = Arc::clone(&inflight);
            std::thread::Builder::new().spawn(move || loop {
                let frame = {
                    let rx = lock(&rx);
                    rx.recv()
                };
                let Ok((id, work)) = frame else { break };
                let lines = collect_frame(work).unwrap_or_else(|e| vec![format!("err {e}")]);
                let _ = tx.send(lines.into_iter().map(|l| format!("id={id} {l}")).collect());
                inflight.release();
            })
        })
        .collect();

    let terminal = match &collectors {
        Ok(_) => read_frames(&mut reader, ctx, &inflight, &frame_tx),
        // collectors that did start exit when the frame channel closes
        Err(_) => Some(NO_THREAD.to_string()),
    };
    drop(frame_tx);
    for c in collectors.into_iter().flatten() {
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

/// The pipelined reader loop (the connection's own thread): frames come
/// off the socket in order and are submitted as they arrive; ids must
/// strictly increase (deterministic duplicate detection). A malformed
/// frame is terminal: reading stops and its `err` line is returned, to be
/// written after every in-flight frame has replied.
fn read_frames(
    reader: &mut BufReader<AnyStream>,
    ctx: &ServerCtx,
    inflight: &Semaphore,
    frames: &mpsc::Sender<(u64, FrameWork)>,
) -> Option<String> {
    let mut last_id: Option<u64> = None;
    loop {
        let header = match read_header(reader) {
            Ok(Header::Line(h)) => h,
            // clean end of frames (client half-closed), or a dead socket
            Ok(Header::Eof) | Err(_) => return None,
            Ok(Header::Refused(e)) => return Some(format!("err {e}")),
        };
        let fields: Vec<&str> = header.split_whitespace().collect();
        match fields.first().copied() {
            Some("SUBMIT") => {}
            Some(other) => {
                return Some(format!(
                    "err pipelined connection accepts only SUBMIT frames (got {other})"
                ))
            }
            None => continue, // bare newline between frames: tolerated
        }
        let (submit, src) = match read_frame(&fields, Some(&mut last_id), reader) {
            Ok(frame) => frame,
            Err(e) => return Some(format!("err {e}")),
        };
        ctx.pipelined_frames.fetch_add(1, Ordering::Relaxed);
        inflight.acquire(); // ≤ depth frames past this point
        let work = submit_frame(&submit, src, ctx);
        // `read_frame` has just accepted this frame's id as the last one
        if frames.send((last_id.unwrap_or_default(), work)).is_err() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::testing::DOT;
    use mdh_directive::DirectiveEnv;
    use mdh_lowering::asm::DeviceKind;

    /// A SUBMIT header for `DOT` at `N=64` as the wire would parse it.
    fn dot_submit(count: usize) -> Submit {
        let header = format!("SUBMIT cpu {count} {} N=64", DOT.len());
        let fields: Vec<&str> = header.split_whitespace().collect();
        Submit::parse(&fields, false).unwrap()
    }

    #[test]
    fn every_launch_of_a_source_shares_the_memo_operands() {
        let config = RuntimeConfig {
            workers: 2,
            exec_threads: 2,
            ..RuntimeConfig::default()
        };
        let ctx = ServerCtx::new(config, Arc::default()).unwrap();
        let submit = dot_submit(8);
        let entry = ctx.memo.compile(DOT.into(), &submit).unwrap();
        assert_eq!(Arc::strong_count(&entry.inputs), 1, "the memo's");

        // the eight launches of one SUBMIT, before they are submitted
        let reqs: Vec<Request> = frame_requests(&submit, &entry).collect();
        assert_eq!(reqs.len(), 8);
        assert!(reqs.iter().all(|r| Arc::ptr_eq(&r.inputs, &entry.inputs)));
        assert_eq!(Arc::strong_count(&entry.inputs), 9);
        drop(reqs);

        // two frames of one source through the real path: both resolve to
        // the same entry, so all sixteen launches read one allocation
        let first = submit_frame(&submit, DOT.into(), &ctx);
        let second = submit_frame(&submit, DOT.into(), &ctx);
        assert!(Arc::ptr_eq(
            &ctx.memo.compile(DOT.into(), &submit).unwrap(),
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
        drop(ctx);
        assert_eq!(
            Arc::strong_count(&entry.inputs),
            1,
            "only the entry's again"
        );
    }

    /// Serve one worker on a fresh unix socket under `tag`; returns once
    /// the socket accepts.
    fn start(tag: &str) -> (PathBuf, std::thread::JoinHandle<()>) {
        let dir = std::env::temp_dir().join(format!("mdh-runtime-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("rt.sock");
        let opts = ServeOptions {
            unix: Some(sock.clone()),
            ..ServeOptions::default()
        };
        let config = RuntimeConfig {
            workers: 1,
            exec_threads: 2,
            ..RuntimeConfig::default()
        };
        let server = std::thread::spawn(move || serve_opts(opts, config).unwrap());
        for _ in 0..500 {
            if sock.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        (sock, server)
    }

    fn n64() -> SubmitClientOpts {
        SubmitClientOpts {
            bindings: vec![("N".into(), 64)],
            ..SubmitClientOpts::default()
        }
    }

    #[test]
    fn serve_and_submit_roundtrip() {
        let (sock, server) = start("test");
        let client = Client::unix(&sock);
        let lines = client.submit(DOT, DeviceKind::Cpu, 5, &n64()).unwrap();
        let oks = lines.iter().filter(|l| l.starts_with("ok ")).count();
        assert_eq!(oks, 5, "all launches answered: {lines:?}");
        assert!(lines.iter().any(|l| l.starts_with("done 5")));
        // launch 1 misses, 2..5 hit
        assert!(lines[0].contains("hit=false"));
        assert!(lines[1..5].iter().all(|l| l.contains("hit=true")));
        // identical deterministic inputs → identical checksums
        let sum = |l: &str| l.split("checksum=").nth(1).unwrap().to_string();
        assert!(lines[1..5].iter().all(|l| sum(l) == sum(&lines[0])));

        let stats = client.stats().unwrap();
        assert!(stats[0].starts_with("stats "), "{stats:?}");
        let bye = client.shutdown().unwrap();
        assert!(bye[0].starts_with("ok"), "{bye:?}");
        server.join().unwrap();
        let _ = std::fs::remove_dir_all(sock.parent().unwrap());
    }

    #[test]
    fn serve_grad_roundtrip_and_json_stats() {
        let (sock, server) = start("grad");
        let client = Client::unix(&sock);
        let opts = SubmitClientOpts {
            deadline_ms: Some(30_000),
            grad: true,
            ..n64()
        };
        let lines = client.submit(DOT, DeviceKind::Cpu, 3, &opts).unwrap();
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

        let stats = client.stats_json().unwrap();
        assert!(stats[0].starts_with("stats-json {"), "{stats:?}");
        assert!(stats[0].contains("\"grad_requests\":3"), "{stats:?}");
        assert!(stats[0].ends_with('}'), "{stats:?}");
        let bye = client.shutdown().unwrap();
        assert!(bye[0].starts_with("ok"), "{bye:?}");
        server.join().unwrap();
        let _ = std::fs::remove_dir_all(sock.parent().unwrap());
    }
}
