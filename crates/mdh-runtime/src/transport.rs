//! The two transports and the connection gate in front of them: the
//! cap, the drain flag and the accept loop. Nothing here reads the grammar.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The answer to a connection that could not get a thread of its own.
pub(crate) const NO_THREAD: &str = "err overloaded: no thread for connection; retry later";

/// One accepted connection, whichever listener it arrived on.
#[derive(Debug)]
pub enum AnyStream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

/// `$body` with `$s` bound to the socket inside `$stream`.
macro_rules! on_socket {
    ($stream:expr, $s:ident => $body:expr) => {
        match $stream {
            AnyStream::Unix($s) => $body,
            AnyStream::Tcp($s) => $body,
        }
    };
}

impl AnyStream {
    pub fn try_clone(&self) -> std::io::Result<AnyStream> {
        match self {
            AnyStream::Unix(s) => s.try_clone().map(AnyStream::Unix),
            AnyStream::Tcp(s) => s.try_clone().map(AnyStream::Tcp),
        }
    }

    pub fn set_read_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        on_socket!(self, s => s.set_read_timeout(d))
    }

    pub fn set_write_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        on_socket!(self, s => s.set_write_timeout(d))
    }

    /// Half-close the write side: the peer reads EOF (end of frames) but
    /// this end keeps reading replies.
    pub fn shutdown_write(&self) -> std::io::Result<()> {
        on_socket!(self, s => s.shutdown(Shutdown::Write))
    }
}

impl Read for AnyStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        on_socket!(self, s => s.read(buf))
    }
}

impl Write for AnyStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        on_socket!(self, s => s.write(buf))
    }
    fn flush(&mut self) -> std::io::Result<()> {
        on_socket!(self, s => s.flush())
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

pub(crate) enum AnyListener {
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

/// Bind `socket_path`. A stale socket file from a dead server is
/// replaced; a socket another server is *currently accepting on* is not
/// — clobbering it would silently steal that server's clients, so this
/// fails with `AddrInUse` instead.
pub(crate) fn bind_unix(socket_path: &Path) -> std::io::Result<UnixListener> {
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

/// What the accept loops of one server share: the drain flag, the
/// connection cap, and the addresses that wake a loop during drain.
#[derive(Default)]
pub(crate) struct Gate {
    pub(crate) draining: AtomicBool,
    pub(crate) active: AtomicUsize,
    pub(crate) max_connections: usize,
    pub(crate) wake_unix: Option<PathBuf>,
    pub(crate) wake_tcp: Option<SocketAddr>,
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

/// Accept connections on one listener until drain, each served by
/// `handler` on a thread of its own. Every accepted connection finishes (joins)
/// before this returns.
pub(crate) fn accept_loop(
    listener: AnyListener,
    gate: &Arc<Gate>,
    read_timeout: Duration,
    handler: impl Fn(AnyStream) + Clone + Send + 'static,
) {
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        let stream = match listener.accept() {
            Ok(s) => s,
            Err(e) => {
                if gate.draining.load(Ordering::SeqCst) {
                    break;
                }
                eprintln!("mdh-runtime: accept failed: {e}");
                continue;
            }
        };
        if gate.draining.load(Ordering::SeqCst) {
            break;
        }
        conns.retain(|h| !h.is_finished());
        let _ = stream.set_read_timeout(Some(read_timeout));
        let _ = stream.set_write_timeout(Some(read_timeout));
        if !try_admit(&gate.active, gate.max_connections) {
            let mut s = stream;
            let _ = writeln!(
                s,
                "err too many connections ({} active); retry later",
                gate.max_connections
            );
            continue;
        }
        // A refusal handle taken *before* the spawn: if the spawn fails,
        // the closure (which owns `stream`) is dropped and the original
        // fd closes — the dup'd clone stays writable.
        let refusal = stream.try_clone();
        let slot = ConnectionSlot(Arc::clone(gate));
        let handler = handler.clone();
        let spawned = std::thread::Builder::new()
            .name("mdh-serve-conn".into())
            .spawn(move || {
                let _slot = slot;
                handler(stream);
            });
        match spawned {
            Ok(handle) => conns.push(handle),
            Err(e) => {
                // thread exhaustion must not kill the server: shed this
                // connection (retryable) and keep accepting; dropping the
                // unrun closure has already released the slot
                eprintln!("mdh-runtime: spawn connection thread failed: {e}");
                if let Ok(mut s) = refusal {
                    let _ = writeln!(s, "{NO_THREAD}");
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
struct ConnectionSlot(Arc<Gate>);

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        let gate = &self.0;
        gate.active.fetch_sub(1, Ordering::SeqCst);
        if gate.draining.load(Ordering::SeqCst) {
            if let Some(p) = &gate.wake_unix {
                let _ = UnixStream::connect(p);
            }
            if let Some(a) = &gate.wake_tcp {
                let _ = TcpStream::connect(a);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_connection_thread_that_unwinds_still_releases_its_slot() {
        let gate = Arc::new(Gate {
            max_connections: 1,
            ..Gate::default()
        });
        // what `accept_loop` does around a connection whose handler panics
        assert!(try_admit(&gate.active, gate.max_connections));
        let slot = ConnectionSlot(Arc::clone(&gate));
        let conn = std::thread::spawn(move || {
            let _slot = slot;
            panic!("a bug on the connection thread");
        });
        assert!(conn.join().is_err());
        assert_eq!(gate.active.load(Ordering::SeqCst), 0);
        assert!(
            try_admit(&gate.active, gate.max_connections),
            "slot reusable"
        );
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
    fn bind_unix_refuses_a_live_socket() {
        let dir = std::env::temp_dir().join(format!("mdh-runtime-livesock-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("rt.sock");
        // a live listener on the path (not a full server — connectable is
        // what the guard checks)
        let _holder = UnixListener::bind(&sock).unwrap();
        let err = bind_unix(&sock).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::AddrInUse, "{err}");
        assert!(sock.exists(), "the live socket must not be unlinked");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
