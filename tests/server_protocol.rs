//! Malformed-input corpus for the serving protocol — plain and pipelined
//! framing, unix and TCP transports: every hostile or truncated byte
//! sequence gets exactly one terminal `err` line, the server never
//! panics, and it still serves (and cleanly shuts down) afterwards —
//! proving no connection threads leak and the accept loop survives abuse.

use mdh::lowering::asm::DeviceKind;
use mdh::runtime::server::{serve_opts, MAX_HEADER_BYTES, MAX_OPERAND_BYTES};
use mdh::runtime::{Client, RuntimeConfig, ServeOptions, ServerAddr, SubmitClientOpts};
use std::io::{BufRead, BufReader, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

const DOT: &str = "\
@mdh( out( res = Buffer[fp32] ),
      inp( x = Buffer[fp32], y = Buffer[fp32] ),
      combine_ops( pw(add) ) )
def dot(res, x, y):
    for k in range(N):
        res[0] = x[k] * y[k]
";

/// One worker and a short read timeout.
fn test_config() -> RuntimeConfig {
    RuntimeConfig {
        workers: 1,
        exec_threads: 2,
        read_timeout: Duration::from_millis(300),
        ..RuntimeConfig::default()
    }
}

/// Serve `config` on a fresh unix socket — and on a free TCP port when
/// `tcp` — until SHUTDOWN; returns once every listener accepts.
fn start_front(
    tag: &str,
    tcp: bool,
    config: RuntimeConfig,
) -> (PathBuf, Option<ServerAddr>, std::thread::JoinHandle<()>) {
    let dir = std::env::temp_dir().join(format!("mdh-proto-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("rt.sock");
    // grab a free port, release it, rebind it in the server
    let tcp = tcp.then(|| {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        format!("127.0.0.1:{}", probe.local_addr().unwrap().port())
    });
    let opts = ServeOptions {
        unix: Some(sock.clone()),
        tcp: tcp.clone(),
    };
    let server = std::thread::spawn(move || serve_opts(opts, config).unwrap());
    for _ in 0..500 {
        let tcp_up = tcp
            .as_ref()
            .is_none_or(|a| std::net::TcpStream::connect(a).is_ok());
        if sock.exists() && tcp_up {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    (sock, tcp.map(ServerAddr::Tcp), server)
}

fn start_server(tag: &str) -> (PathBuf, std::thread::JoinHandle<()>) {
    let (sock, _, server) = start_front(tag, false, test_config());
    (sock, server)
}

/// Send raw bytes, optionally half-close the write side, and collect the
/// server's reply lines.
fn send_raw(sock: &Path, bytes: &[u8], half_close: bool) -> Vec<String> {
    let mut stream = UnixStream::connect(sock).expect("connect");
    // a flooding client may hit EPIPE once the server has answered and
    // closed; what matters is the reply, not the write
    let _ = stream.write_all(bytes);
    if half_close {
        let _ = stream.shutdown(Shutdown::Write);
    }
    let reader = BufReader::new(stream);
    reader.lines().map_while(|l| l.ok()).collect()
}

fn err_lines(lines: &[String]) -> usize {
    lines.iter().filter(|l| l.starts_with("err ")).count()
}

#[test]
fn malformed_input_corpus_answers_one_err_each_and_server_survives() {
    let (sock, server) = start_server("corpus");

    // (name, raw bytes, half-close writes?, expected err fragment)
    let corpus: Vec<(&str, Vec<u8>, bool, &str)> = vec![
        (
            "truncated SUBMIT header",
            b"SUBMIT cpu\n".to_vec(),
            false,
            "err usage:",
        ),
        (
            "zero-byte command line",
            b"\n".to_vec(),
            false,
            "err unknown command",
        ),
        (
            "unknown command",
            b"LAUNCH cpu 1 4\nabcd".to_vec(),
            false,
            "err unknown command",
        ),
        (
            "bad count",
            b"SUBMIT cpu eleventy 4\nabcd".to_vec(),
            false,
            "err bad count",
        ),
        (
            "count of zero",
            b"SUBMIT cpu 0 4\nabcd".to_vec(),
            false,
            "err count must be",
        ),
        (
            "bad device",
            b"SUBMIT tpu 1 4\nabcd".to_vec(),
            false,
            "err unknown device",
        ),
        (
            "bad deadline",
            format!("SUBMIT cpu 1 {} deadline_ms=soon\n{DOT}", DOT.len()).into_bytes(),
            false,
            "err bad deadline",
        ),
        (
            "non-UTF8 source bytes",
            b"SUBMIT cpu 1 4\n\xFF\xFE\xFD\xFC".to_vec(),
            false,
            "err source is not UTF-8",
        ),
        (
            "non-UTF8 header",
            b"SUB\xFF\xFEMIT cpu 1 4\n".to_vec(),
            false,
            "err header is not UTF-8",
        ),
        (
            // len says 64 bytes but the client half-closes after 8:
            // read_exact must fail cleanly, not hang past the timeout
            "len longer than body",
            b"SUBMIT cpu 1 64\nshort!!!".to_vec(),
            true,
            "err short source read",
        ),
        (
            // len shorter than the body: the truncated prefix reaches the
            // compiler and fails there; trailing bytes are discarded
            "len shorter than body",
            format!("SUBMIT cpu 1 8 N=64\n{DOT}").into_bytes(),
            false,
            "err ",
        ),
        (
            "10 MB of newline-less garbage",
            vec![b'A'; 10 << 20],
            false,
            "err header too long",
        ),
        (
            // a repeated size name in either order: the env would keep the
            // last value while the memo key sorts them into one
            "duplicate binding",
            format!("SUBMIT cpu 1 {} N=64,N=128\n{DOT}", DOT.len()).into_bytes(),
            false,
            "err duplicate binding 'N'",
        ),
        (
            "duplicate binding, reversed",
            format!("SUBMIT cpu 1 {} N=128,N=64\n{DOT}", DOT.len()).into_bytes(),
            false,
            "err duplicate binding 'N'",
        ),
        (
            "oversized source length",
            format!("SUBMIT cpu 1 {}\n", 1 << 21).into_bytes(),
            false,
            "err source too large",
        ),
    ];

    for (name, bytes, half_close, want) in corpus {
        let lines = send_raw(&sock, &bytes, half_close);
        assert_eq!(
            err_lines(&lines),
            1,
            "{name}: exactly one err line, got {lines:?}"
        );
        assert!(
            lines[0].starts_with(want),
            "{name}: expected '{want}…', got {lines:?}"
        );
        assert_eq!(lines.len(), 1, "{name}: err is terminal, got {lines:?}");
    }

    // a client that connects and sends nothing is timed out, not leaked
    let lines = send_raw(&sock, b"", false);
    assert_eq!(lines, vec!["err read timed out".to_string()]);

    // the server still serves a well-formed request after all of that
    let lines = Client::unix(&sock)
        .submit(
            DOT,
            DeviceKind::Cpu,
            3,
            &SubmitClientOpts {
                bindings: vec![("N".into(), 64)],
                ..SubmitClientOpts::default()
            },
        )
        .unwrap();
    assert_eq!(
        lines.iter().filter(|l| l.starts_with("ok ")).count(),
        3,
        "{lines:?}"
    );
    assert!(lines.iter().any(|l| l.starts_with("done 3")), "{lines:?}");

    let bye = Client::unix(&sock).shutdown().unwrap();
    assert!(bye[0].starts_with("ok"), "{bye:?}");
    // join proves the accept loop and every connection thread exited
    server.join().expect("server thread exits cleanly");
    assert!(!sock.exists(), "socket file removed on clean shutdown");
}

/// Reversed parentheses in a Fortran `if` used to panic the front end on
/// the connection thread (a computed-offset slice, `&t[open + 1..close]`
/// with `open > close`): the client got EOF instead of a reply and the
/// connection's slot was never released, so `max_connections` such
/// frames wedged the server — every later connection, `SHUTDOWN`
/// included, was reset. Each must cost exactly one `err` line and nothing
/// else.
#[test]
fn a_front_end_failure_costs_one_err_line_not_a_connection_slot() {
    const REVERSED: &str = "\
!$mdh out(y: real[N]) inp(x: real[N]) combine_ops(cc)
do i = 1, N
   if )( then
      y(i) = x(i)
   end if
end do
";
    let max_connections = 4;
    let config = RuntimeConfig {
        max_connections,
        ..test_config()
    };
    let (sock, _, server) = start_front("slots", false, config);
    let n = [("N".to_string(), 64)];
    for attempt in 0..=max_connections {
        let lines = Client::unix(&sock)
            .submit(
                REVERSED,
                DeviceKind::Cpu,
                1,
                &SubmitClientOpts {
                    bindings: n.to_vec(),
                    ..SubmitClientOpts::default()
                },
            )
            .unwrap_or_else(|e| panic!("attempt {attempt}: no reply ({e})"));
        assert_eq!(lines.len(), 1, "attempt {attempt}: {lines:?}");
        assert!(
            lines[0].starts_with("err parse error at 3:7"),
            "attempt {attempt}: {lines:?}"
        );
    }
    let lines = Client::unix(&sock)
        .submit(
            DOT,
            DeviceKind::Cpu,
            1,
            &SubmitClientOpts {
                bindings: n.to_vec(),
                ..SubmitClientOpts::default()
            },
        )
        .unwrap();
    assert_eq!(
        lines.iter().filter(|l| l.starts_with("ok ")).count(),
        1,
        "{lines:?}"
    );
    let bye = Client::unix(&sock).shutdown().unwrap();
    assert!(bye[0].starts_with("ok shutting down"), "{bye:?}");
    server.join().expect("server thread exits cleanly");
}

/// A directive whose declared buffer is smaller than its loop writes
/// (or reads) used to reach the map kernels and corrupt the heap in
/// release builds; it must die at validation with an `err` reply, and the
/// same server must keep serving.
#[test]
fn undersized_declared_shapes_are_answered_err_and_server_survives() {
    const JACOBI: &str = "\
!$mdh out(y: real[N]) inp(x: real[N + 2]) combine_ops(cc)
do i = 1, N
   y(i) = 0.333 * (x(i) + x(i + 1) + x(i + 2))
end do
";
    let (sock, server) = start_server("undersized");
    let n = [("N".to_string(), 100_000)];
    for (what, src) in [
        ("output", JACOBI.replace("y: real[N]", "y: real[4]")),
        ("input", JACOBI.replace("x: real[N + 2]", "x: real[N]")),
    ] {
        let lines = Client::unix(&sock)
            .submit(
                &src,
                DeviceKind::Cpu,
                1,
                &SubmitClientOpts {
                    bindings: n.to_vec(),
                    ..SubmitClientOpts::default()
                },
            )
            .unwrap();
        assert_eq!(err_lines(&lines), 1, "undersized {what}: {lines:?}");
        assert!(
            lines
                .iter()
                .any(|l| l.starts_with("err ") && l.contains("declared")),
            "undersized {what}: {lines:?}"
        );
        assert!(!lines.iter().any(|l| l.starts_with("ok ")), "{lines:?}");
        let lines = Client::unix(&sock)
            .submit(
                JACOBI,
                DeviceKind::Cpu,
                1,
                &SubmitClientOpts {
                    bindings: n.to_vec(),
                    ..SubmitClientOpts::default()
                },
            )
            .unwrap();
        assert_eq!(
            lines.iter().filter(|l| l.starts_with("ok ")).count(),
            1,
            "next SUBMIT after undersized {what}: {lines:?}"
        );
    }
    let bye = Client::unix(&sock).shutdown().unwrap();
    assert!(bye[0].starts_with("ok"), "{bye:?}");
    server.join().expect("server thread exits cleanly");
}

/// Sizes that pass the front end but whose operands no host could
/// allocate: a failed allocation aborts the whole process, so the frame
/// must be refused at the edge, before its inputs (Jacobi_3D, 4 PB) or its
/// output (a K = 1 MatMul: 8 MB in, 4 TB out) are allocated — and the
/// same server must keep serving.
#[test]
fn oversized_operands_are_answered_err_before_any_allocation() {
    const JACOBI_3D: &str = "\
@mdh( out( y = Buffer[fp32] ),
      inp( x = Buffer[fp32] ),
      combine_ops( cc, cc, cc ) )
def jacobi_3d(y, x):
    for i in range(N):
        for j in range(N):
            for k in range(N):
                y[i, j, k] = 0.142 * x[i+1, j+1, k+1] + 0.143 * x[i, j+1, k+1] + 0.143 * x[i+2, j+1, k+1] + 0.143 * x[i+1, j, k+1] + 0.143 * x[i+1, j+2, k+1] + 0.143 * x[i+1, j+1, k] + 0.143 * x[i+1, j+1, k+2]
";
    const MATMUL: &str = "\
#pragma mdh out(C: float[I][J]) inp(A: float[I][K], B: float[K][J]) \\
            combine_ops(cc, cc, pw(add))
for (int i = 0; i < I; i++)
    for (int j = 0; j < J; j++)
        for (int k = 0; k < K; k++)
            C[i][j] = A[i][k] * B[k][j];
";
    let binds = |pairs: &[(&str, i64)]| SubmitClientOpts {
        bindings: pairs.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
        ..SubmitClientOpts::default()
    };
    let (sock, server) = start_server("oversized");
    let frames = [
        ("jacobi_3d inputs", JACOBI_3D, binds(&[("N", 100_000)])),
        (
            "matmul output",
            MATMUL,
            binds(&[("I", 1_000_000), ("J", 1_000_000), ("K", 1)]),
        ),
    ];
    for (what, src, opts) in &frames {
        let lines = Client::unix(&sock)
            .submit(src, DeviceKind::Cpu, 1, opts)
            .unwrap();
        assert_eq!(err_lines(&lines), 1, "{what}: {lines:?}");
        assert!(
            lines[0].contains("too large") && lines[0].contains(&MAX_OPERAND_BYTES.to_string()),
            "{what}: {lines:?}"
        );
        let lines = Client::unix(&sock)
            .submit(DOT, DeviceKind::Cpu, 1, &binds(&[("N", 64)]))
            .unwrap();
        assert_eq!(ok_lines(&lines), 1, "next SUBMIT after {what}: {lines:?}");
    }
    let bye = Client::unix(&sock).shutdown().unwrap();
    assert!(bye[0].starts_with("ok"), "{bye:?}");
    server.join().expect("server thread exits cleanly");
}

#[test]
fn integer_overflow_in_a_scalar_function_is_served_not_a_worker_panic() {
    // `i64::MIN % -1`, built from inputs so nothing constant-folds: the
    // remainder overflows, which used to panic the interpreter — a worker
    // panic and a breaker strike caused by client bytes
    const WRAP: &str = "\
@mdh( out( y = Buffer[int64] ),
      inp( x = Buffer[int64] ),
      combine_ops( cc ) )
def wrap(y, x):
    for i in range(N):
        y[i] = (x[i] * 0 - 9223372036854775807 - 1) % (x[i] * 0 - 1)
";
    let (sock, server) = start_server("wrap");
    let n = [("N".to_string(), 64)];
    for src in [WRAP, DOT] {
        let lines = Client::unix(&sock)
            .submit(
                src,
                DeviceKind::Cpu,
                1,
                &SubmitClientOpts {
                    bindings: n.to_vec(),
                    ..SubmitClientOpts::default()
                },
            )
            .unwrap();
        assert_eq!(
            lines.iter().filter(|l| l.starts_with("ok ")).count(),
            1,
            "{lines:?}"
        );
        assert!(
            src != WRAP || lines.iter().any(|l| l.contains("checksum=y=0.000000")),
            "{lines:?}"
        );
    }
    let addr = ServerAddr::Unix(sock.clone());
    let stats = Client::new(addr.clone()).stats_json().unwrap().join("\n");
    assert!(stats.contains("\"worker_panics\":0"), "{stats}");
    assert!(stats.contains("\"completed\":2"), "{stats}");
    let bye = Client::unix(&sock).shutdown().unwrap();
    assert!(bye[0].starts_with("ok"), "{bye:?}");
    server.join().expect("server thread exits cleanly");
}

#[test]
fn header_at_exactly_max_bytes_is_accepted_and_one_over_rejected() {
    let (sock, server) = start_server("hdrcap");

    // exactly MAX bytes including the newline: parsed (and then rejected
    // as an unknown command, not as too long)
    let mut exact = vec![b'X'; MAX_HEADER_BYTES - 1];
    exact.push(b'\n');
    let lines = send_raw(&sock, &exact, false);
    assert_eq!(lines, vec!["err unknown command".to_string()]);

    // one byte over: rejected as too long
    let mut over = vec![b'X'; MAX_HEADER_BYTES];
    over.push(b'\n');
    let lines = send_raw(&sock, &over, false);
    assert_eq!(err_lines(&lines), 1, "{lines:?}");
    assert!(lines[0].starts_with("err header too long"), "{lines:?}");

    let bye = Client::unix(&sock).shutdown().unwrap();
    assert!(bye[0].starts_with("ok"), "{bye:?}");
    server.join().unwrap();
}

#[test]
fn submit_deadline_zero_is_answered_deadline_exceeded() {
    let (sock, server) = start_server("deadline");
    let lines = Client::unix(&sock)
        .submit(
            DOT,
            DeviceKind::Cpu,
            4,
            &SubmitClientOpts {
                bindings: vec![("N".into(), 64)],
                deadline_ms: Some(0),
                ..SubmitClientOpts::default()
            },
        )
        .unwrap();
    let exceeded = lines
        .iter()
        .filter(|l| l.starts_with("err deadline exceeded"))
        .count();
    assert_eq!(exceeded, 4, "all launches expired: {lines:?}");
    assert!(lines.iter().any(|l| l.starts_with("done 0")), "{lines:?}");

    // a generous deadline still serves
    let lines = Client::unix(&sock)
        .submit(
            DOT,
            DeviceKind::Cpu,
            2,
            &SubmitClientOpts {
                bindings: vec![("N".into(), 64)],
                deadline_ms: Some(60_000),
                ..SubmitClientOpts::default()
            },
        )
        .unwrap();
    assert_eq!(
        lines.iter().filter(|l| l.starts_with("ok ")).count(),
        2,
        "{lines:?}"
    );

    let bye = Client::unix(&sock).shutdown().unwrap();
    assert!(bye[0].starts_with("ok"), "{bye:?}");
    server.join().unwrap();
}

/// One pipelined frame's wire bytes: SUBMIT header with `id=` plus body.
fn frame(id: &str, n: i64) -> Vec<u8> {
    format!("SUBMIT cpu 1 {} N={n} id={id}\n{DOT}", DOT.len()).into_bytes()
}

#[test]
fn pipelined_malformed_frame_corpus_is_terminal_and_server_survives() {
    let (sock, server) = start_server("pipecorpus");

    // (name, bytes after PIPE, expected terminal err prefix,
    //  ids whose replies must still arrive before the terminal line)
    let corpus: Vec<(&str, Vec<u8>, &str, Vec<u64>)> = vec![
        (
            "duplicate id",
            [frame("1", 64), frame("1", 64)].concat(),
            "err id must increase (got 1 after 1)",
            vec![1],
        ),
        (
            "non-increasing id",
            [frame("7", 64), frame("3", 64)].concat(),
            "err id must increase (got 3 after 7)",
            vec![7],
        ),
        (
            // one past u64::MAX cannot parse as a frame id
            "id overflow",
            frame("18446744073709551616", 64),
            "err bad id",
            vec![],
        ),
        (
            "missing id",
            format!("SUBMIT cpu 1 {} N=64\n{DOT}", DOT.len()).into_bytes(),
            "err pipelined SUBMIT requires id=<n>",
            vec![],
        ),
        (
            "interleaved SHUTDOWN mid-pipeline",
            [frame("1", 64), b"SHUTDOWN\n".to_vec()].concat(),
            "err pipelined connection accepts only SUBMIT frames (got SHUTDOWN)",
            vec![1],
        ),
        (
            "interleaved STATS mid-pipeline",
            [frame("1", 64), b"STATS\n".to_vec()].concat(),
            "err pipelined connection accepts only SUBMIT frames (got STATS)",
            vec![1],
        ),
        (
            "oversized frame header",
            {
                let mut b = vec![b'X'; MAX_HEADER_BYTES];
                b.push(b'\n');
                b
            },
            "err header too long",
            vec![],
        ),
        (
            "truncated frame body",
            b"SUBMIT cpu 1 64 N=64 id=1\nshort!!!".to_vec(),
            "err short source read",
            vec![],
        ),
    ];

    for (name, body, want, served_ids) in corpus {
        let mut bytes = b"PIPE\n".to_vec();
        bytes.extend_from_slice(&body);
        let lines = send_raw(&sock, &bytes, true);
        assert!(
            lines
                .first()
                .is_some_and(|l| l.starts_with("ok pipelined depth=")),
            "{name}: missing banner, got {lines:?}"
        );
        let last = lines.last().expect("terminal line");
        assert!(
            last.starts_with(want),
            "{name}: terminal line must be '{want}…', got {lines:?}"
        );
        // the terminal error is unprefixed and unique; frames accepted
        // before the poison frame still answer, id-tagged and complete
        assert_eq!(
            lines.iter().filter(|l| l.starts_with("err ")).count(),
            1,
            "{name}: exactly one terminal err, got {lines:?}"
        );
        for id in served_ids {
            assert!(
                lines.iter().any(|l| l.starts_with(&format!("id={id} ok "))),
                "{name}: frame {id} lost its ok line: {lines:?}"
            );
            assert!(
                lines
                    .iter()
                    .any(|l| l.starts_with(&format!("id={id} done 1"))),
                "{name}: frame {id} lost its done line: {lines:?}"
            );
        }
    }

    // a SHUTDOWN smuggled into a pipeline must NOT have drained the
    // server: it still serves a plain request afterwards
    let lines = Client::unix(&sock)
        .submit(
            DOT,
            DeviceKind::Cpu,
            1,
            &SubmitClientOpts {
                bindings: vec![("N".into(), 64)],
                ..SubmitClientOpts::default()
            },
        )
        .unwrap();
    assert!(lines.iter().any(|l| l.starts_with("ok ")), "{lines:?}");

    let bye = Client::unix(&sock).shutdown().unwrap();
    assert!(bye[0].starts_with("ok"), "{bye:?}");
    server.join().unwrap();
}

/// `id=` is reserved for pipelined connections; on a plain connection it
/// must be rejected, not silently treated as a size binding.
#[test]
fn id_field_is_rejected_outside_a_pipeline() {
    let (sock, server) = start_server("idplain");
    let lines = send_raw(
        &sock,
        format!("SUBMIT cpu 1 {} N=64 id=1\n{DOT}", DOT.len()).as_bytes(),
        false,
    );
    assert_eq!(
        lines,
        vec!["err id= is only valid on a pipelined (PIPE) connection".to_string()]
    );
    Client::unix(&sock).shutdown().unwrap();
    server.join().unwrap();
}

/// The multiset of `checksum=` tokens from a reply set — the
/// bit-identity fingerprint (timings and cache-hit flags excluded).
fn checksums(lines: &[String]) -> Vec<String> {
    let mut sums: Vec<String> = lines
        .iter()
        .filter(|l| l.starts_with("ok "))
        .filter_map(|l| l.split_whitespace().find(|t| t.starts_with("checksum=")))
        .map(str::to_string)
        .collect();
    sums.sort();
    sums
}

#[test]
fn pipelined_submits_are_bit_identical_to_sequential() {
    let (sock, server) = start_server("bitident");
    let addr = ServerAddr::Unix(sock.clone());
    let opts = SubmitClientOpts {
        bindings: vec![("N".into(), 96)],
        ..SubmitClientOpts::default()
    };

    const N: usize = 8;
    let mut seq_lines = Vec::new();
    for _ in 0..N {
        seq_lines.extend(
            Client::new(addr.clone())
                .submit(DOT, DeviceKind::Cpu, 1, &opts)
                .unwrap(),
        );
    }
    let pipe_lines = Client::new(addr.clone())
        .submit_pipelined(DOT, DeviceKind::Cpu, N, &opts)
        .unwrap();

    let (seq, pipe) = (checksums(&seq_lines), checksums(&pipe_lines));
    assert_eq!(
        seq.len(),
        N,
        "sequential arm dropped replies: {seq_lines:?}"
    );
    assert_eq!(
        pipe.len(),
        N,
        "pipelined arm dropped replies: {pipe_lines:?}"
    );
    assert_eq!(
        seq, pipe,
        "pipelined results must match sequential hash-for-hash"
    );
    assert_eq!(
        pipe_lines
            .iter()
            .filter(|l| l.starts_with("done 1"))
            .count(),
        N,
        "{pipe_lines:?}"
    );

    Client::unix(&sock).shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn tcp_transport_speaks_the_same_grammar_and_shares_the_runtime() {
    let (sock, tcp_addr, server) = start_front("tcp", true, test_config());
    let tcp_addr = tcp_addr.unwrap();

    let copts = SubmitClientOpts {
        bindings: vec![("N".into(), 64)],
        ..SubmitClientOpts::default()
    };
    // one plain submit over each transport, one pipelined over TCP
    let unix_addr = ServerAddr::Unix(sock.clone());
    let a = Client::new(unix_addr)
        .submit(DOT, DeviceKind::Cpu, 1, &copts)
        .unwrap();
    let b = Client::new(tcp_addr.clone())
        .submit(DOT, DeviceKind::Cpu, 1, &copts)
        .unwrap();
    assert_eq!(
        checksums(&a),
        checksums(&b),
        "transports must agree bit-for-bit"
    );
    let p = Client::new(tcp_addr.clone())
        .submit_pipelined(DOT, DeviceKind::Cpu, 4, &copts)
        .unwrap();
    assert_eq!(checksums(&p).len(), 4, "{p:?}");
    assert_eq!(checksums(&p)[0], checksums(&a)[0], "{p:?}");

    // both listeners feed one runtime: the shared stats see all 6 launches
    let stats = Client::new(tcp_addr.clone())
        .stats_json()
        .unwrap()
        .join("\n");
    assert!(stats.contains("\"completed\":6"), "{stats}");
    assert!(stats.contains("\"pipelined_connections\":1"), "{stats}");
    assert!(stats.contains("\"pipelined_frames\":4"), "{stats}");

    // malformed input over TCP gets the same error strings
    let err = Client::new(tcp_addr.clone()).submit(
        DOT,
        DeviceKind::Gpu,
        1,
        &SubmitClientOpts {
            bindings: vec![],
            ..SubmitClientOpts::default()
        },
    );
    let err_lines = err.unwrap();
    assert!(err_lines[0].starts_with("err "), "{err_lines:?}");

    let bye = Client::new(tcp_addr).shutdown().unwrap();
    assert!(bye[0].starts_with("ok"), "{bye:?}");
    server.join().unwrap();
    assert!(!sock.exists(), "socket file removed on clean shutdown");
}

/// The numbers under `"key":` in the one-line stats JSON: the value
/// itself, or every value of a flat `{...}` object.
fn stats_nums(json: &str, key: &str) -> Vec<u64> {
    let pat = format!("\"{key}\":");
    let at = json
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {json}"));
    let rest = &json[at + pat.len()..];
    let end = if rest.starts_with('{') {
        rest.find('}')
    } else {
        rest.find([',', '}'])
    };
    rest[..end.expect("unterminated value")]
        .split(['{', ',', ':', '"'])
        .filter_map(|t| t.parse().ok())
        .collect()
}

fn ok_lines(lines: &[String]) -> usize {
    lines.iter().filter(|l| l.starts_with("ok ")).count()
}

/// A tenant that bursts past its quota sheds its own surplus and nothing
/// else: it is still served, and polite tenants — after the burst, or
/// trickling singles *while* it floods — lose no request.
#[test]
fn tenant_quota_sheds_the_flooder_but_not_the_tenant_itself() {
    // (tag, workers, DRR weights, quota, flood burst, polite tenants,
    //  sequential singles each, polite traffic runs while the flood does)
    const UNWEIGHTED: &[(&str, u32)] = &[];
    for (tag, workers, weights, quota, burst, polite, singles, concurrent) in [
        ("tenant", 1, UNWEIGHTED, 2, 32, 1, 2, false),
        (
            "flood",
            2,
            &[("noisy", 1), ("polite-0", 2)],
            4,
            64,
            3,
            24,
            true,
        ),
    ] {
        let config = RuntimeConfig {
            workers,
            tenant_weights: weights.iter().map(|&(t, w)| (t.into(), w)).collect(),
            tenant_quota: quota,
            read_timeout: Duration::from_millis(1000),
            ..test_config()
        };
        let (sock, _, server) = start_front(tag, false, config);
        let addr = ServerAddr::Unix(sock.clone());
        let copts = |tenant: &str| SubmitClientOpts {
            bindings: vec![("N".into(), 64)],
            tenant: Some(tenant.into()),
            ..SubmitClientOpts::default()
        };
        // warm the compile memo so the burst below races only dispatch
        Client::new(addr.clone())
            .submit(DOT, DeviceKind::Cpu, 1, &copts("noisy"))
            .unwrap();

        // one SUBMIT frame carrying the whole burst: the server enqueues
        // it back to back, so the quota must shed most of it no matter
        // how fast the worker drains
        let run_flood = || {
            Client::new(addr.clone())
                .submit(DOT, DeviceKind::Cpu, burst, &copts("noisy"))
                .unwrap()
        };
        // each polite tenant: sequential single requests, depth <= 1
        let trickle = |tenant: usize| {
            let opts = copts(&format!("polite-{tenant}"));
            (0..singles)
                .map(|_| {
                    Client::new(addr.clone())
                        .submit(DOT, DeviceKind::Cpu, 1, &opts)
                        .unwrap()
                })
                .map(|lines| ok_lines(&lines))
                .sum::<usize>()
        };
        let trickle_all = || {
            std::thread::scope(|s| {
                let tenants: Vec<_> = (0..polite).map(|t| s.spawn(move || trickle(t))).collect();
                tenants
                    .into_iter()
                    .map(|t| t.join().unwrap())
                    .sum::<usize>()
            })
        };
        let (flood, served) = if concurrent {
            std::thread::scope(|s| {
                let flood = s.spawn(run_flood);
                let served = trickle_all();
                (flood.join().unwrap(), served)
            })
        } else {
            (run_flood(), trickle_all())
        };

        let shed: Vec<_> = flood.iter().filter(|l| l.starts_with("err ")).collect();
        assert!(
            ok_lines(&flood) >= 1,
            "{tag}: the flooding tenant is throttled, not starved: {flood:?}"
        );
        assert_eq!(ok_lines(&flood) + shed.len(), burst, "{tag}: {flood:?}");
        assert!(
            !shed.is_empty(),
            "{tag}: a {burst}-burst must shed at quota {quota}: {flood:?}"
        );
        assert!(
            shed.iter().all(|l| l.contains("tenant 'noisy'")),
            "{tag}: shed lines name the tenant: {shed:?}"
        );
        // a different tenant is untouched by the flooder's quota
        assert_eq!(served, polite * singles, "{tag}: a polite request was lost");

        // the counters surface per-tenant activity
        let stats = Client::new(addr.clone()).stats_json().unwrap().join("\n");
        assert_eq!(
            stats_nums(&stats, "tenant_shed"),
            [shed.len() as u64],
            "{stats}"
        );
        assert!(stats.contains("\"noisy\":"), "{stats}");
        assert!(stats.contains("\"polite-0\":"), "{stats}");

        Client::unix(&sock).shutdown().unwrap();
        server.join().unwrap();
    }
}

/// The same 8-plan-key workload through one front over the unix socket
/// and over TCP: every reply `ok`, and one checksum multiset on both.
#[test]
fn checksums_are_identical_across_transports() {
    const KEYS: [i64; 8] = [128, 192, 256, 320, 384, 448, 512, 576];
    const REPEAT: usize = 3;
    let (sock, tcp_addr, server) = start_front("grid", true, test_config());
    let mut want: Option<Vec<String>> = None;
    for addr in [ServerAddr::Unix(sock.clone()), tcp_addr.unwrap()] {
        let tag = addr.to_string();
        let mut lines = Vec::new();
        for n in KEYS {
            let opts = SubmitClientOpts {
                bindings: vec![("N".into(), n)],
                ..SubmitClientOpts::default()
            };
            lines.extend(
                Client::new(addr.clone())
                    .submit(DOT, DeviceKind::Cpu, REPEAT, &opts)
                    .unwrap(),
            );
        }
        let sums = checksums(&lines);
        assert_eq!(sums.len(), KEYS.len() * REPEAT, "{tag}: {lines:?}");
        assert_eq!(
            want.get_or_insert_with(|| sums.clone()),
            &sums,
            "{tag}: results diverged from the unix socket's"
        );
    }
    let stats = Client::unix(&sock).stats_json().unwrap().join("\n");
    assert_eq!(
        stats_nums(&stats, "completed"),
        [2 * (KEYS.len() * REPEAT) as u64],
        "{stats}"
    );
    Client::unix(&sock).shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn connections_after_shutdown_are_answered_draining_or_refused() {
    let (sock, server) = start_server("drain");
    let bye = Client::unix(&sock).shutdown().unwrap();
    assert!(bye[0].starts_with("ok"), "{bye:?}");
    // the window between SHUTDOWN and teardown: a connection that still
    // gets through is answered `err draining`; once the socket is gone,
    // connecting fails — both are clean terminal outcomes
    for _ in 0..10 {
        match UnixStream::connect(&sock) {
            Ok(mut s) => {
                let _ = writeln!(s, "STATS");
                let mut reply = String::new();
                let _ = BufReader::new(s).read_line(&mut reply);
                assert!(
                    reply.is_empty() || reply.starts_with("err draining"),
                    "draining server must reject, got {reply:?}"
                );
            }
            Err(_) => break,
        }
    }
    server.join().unwrap();
}
