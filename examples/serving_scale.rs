//! Serving at scale, end to end over the wire: one server with two
//! listeners, a pipelined burst, and a tenant flood that cannot starve
//! anyone.
//!
//! One `serve_opts` front runs one runtime behind a unix socket *and* a
//! TCP listener (same grammar, same runtime on both). Three phases, all
//! through the public client API:
//!
//! 1. **transports** — the same dot-product request goes once per
//!    transport as plain one-command connections and once as a 16-frame
//!    `PIPE` burst over TCP. All reply checksums must be bit-identical:
//!    transport and framing are not allowed to change results;
//! 2. **tenants** — a noisy tenant fires a 64-deep burst into a quota-24
//!    queue while two polite tenants trickle 8 sequential requests each.
//!    Every polite request must be answered `ok`, the flooder must still
//!    be served (no lockout), and the surplus burst must shed with an
//!    error naming the tenant;
//! 3. **stats** — `STATS json` from the TCP side must account for the
//!    pipelined connection and the per-tenant dispatches.
//!
//! The `output-hash` lines are FNV-1a over sorted result checksums and
//! fully deterministic. Counts that depend on thread interleaving (how
//! much of the noisy burst shed vs served) are printed as plain lines.
//!
//! Run with `cargo run --release --example serving_scale`.

use mdh::lowering::asm::DeviceKind;
use mdh::runtime::server::serve_opts;
use mdh::runtime::{Client, RuntimeConfig, ServeOptions, ServerAddr, SubmitClientOpts};
use std::time::Duration;

const DOT: &str = "\
@mdh( out( res = Buffer[fp32] ),
      inp( x = Buffer[fp32], y = Buffer[fp32] ),
      combine_ops( pw(add) ) )
def dot(res, x, y):
    for k in range(N):
        res[0] = x[k] * y[k]
";

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Deterministic digest of a reply set: the sorted multiset of
/// `checksum=` tokens from `ok` lines (timings stay out of the hash).
fn checksum_hash(lines: &[String]) -> u64 {
    let mut sums: Vec<&str> = lines
        .iter()
        .filter(|l| l.starts_with("ok "))
        .filter_map(|l| l.split_whitespace().find(|t| t.starts_with("checksum=")))
        .collect();
    sums.sort_unstable();
    fnv1a(sums.join("\n").as_bytes())
}

fn ok_count(lines: &[String]) -> usize {
    lines.iter().filter(|l| l.starts_with("ok ")).count()
}

fn opts_for(tenant: &str, n: i64) -> SubmitClientOpts {
    SubmitClientOpts {
        bindings: vec![("N".into(), n)],
        tenant: Some(tenant.into()),
        ..SubmitClientOpts::default()
    }
}

fn main() {
    let dir = std::env::temp_dir().join(format!("mdh-serving-scale-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let sock = dir.join("front.sock");

    // grab a free TCP port, then hand it to the server
    let tcp = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("probe port");
        l.local_addr().expect("local addr").to_string()
    };

    let serve_sock = sock.clone();
    let serve_tcp = tcp.clone();
    let server = std::thread::spawn(move || {
        serve_opts(
            ServeOptions {
                unix: Some(serve_sock),
                tcp: Some(serve_tcp),
            },
            RuntimeConfig {
                workers: 2,
                exec_threads: 2,
                tenant_quota: 24,
                tenant_weights: vec![("interactive".into(), 4)],
                read_timeout: Duration::from_millis(1000),
                ..RuntimeConfig::default()
            },
        )
        .expect("serve_opts");
    });
    let unix_addr = ServerAddr::Unix(sock.clone());
    let tcp_addr = ServerAddr::Tcp(tcp.clone());
    while Client::new(unix_addr.clone()).stats_json().is_err() {
        std::thread::sleep(Duration::from_millis(10));
    }
    println!("front up: unix {} + tcp {}", sock.display(), tcp);

    // --- phase 1: two transports, one framing upgrade, identical bits --
    let quiet = opts_for("interactive", 512);
    let a = Client::new(unix_addr.clone())
        .submit(DOT, DeviceKind::Cpu, 4, &quiet)
        .expect("unix submit");
    let b = Client::new(tcp_addr.clone())
        .submit(DOT, DeviceKind::Cpu, 4, &quiet)
        .expect("tcp submit");
    let p = Client::new(tcp_addr.clone())
        .submit_pipelined(DOT, DeviceKind::Cpu, 16, &quiet)
        .expect("pipelined");
    assert_eq!(ok_count(&a), 4, "{a:?}");
    assert_eq!(ok_count(&p), 16, "{p:?}");
    assert_eq!(
        checksum_hash(&a),
        checksum_hash(&b),
        "unix and tcp replies diverged"
    );
    let one = checksum_hash(&a[..1]);
    assert!(
        p.iter()
            .filter(|l| l.starts_with("ok "))
            .all(|l| checksum_hash(std::slice::from_ref(l)) == one),
        "a pipelined frame computed different bits"
    );
    println!("output-hash transports {:#018x}", checksum_hash(&a));
    println!("pipelined: 16 frames on one connection, all checksum-identical");

    // --- phase 2: a flood that sheds against its own quota only --------
    let noisy_dir = tcp_addr.clone();
    let flood = std::thread::spawn(move || {
        Client::new(noisy_dir)
            .submit(DOT, DeviceKind::Cpu, 64, &opts_for("noisy", 256))
            .expect("flood submit")
    });
    let mut polite_lines = Vec::new();
    for tenant in ["interactive", "batch"] {
        for _ in 0..8 {
            let r = Client::new(unix_addr.clone())
                .submit(DOT, DeviceKind::Cpu, 1, &opts_for(tenant, 384))
                .expect("polite submit");
            polite_lines.extend(r);
        }
    }
    let noisy = flood.join().expect("flood thread");
    let polite_ok = ok_count(&polite_lines);
    let noisy_ok = ok_count(&noisy);
    let noisy_shed = noisy
        .iter()
        .filter(|l| l.starts_with("err ") && l.contains("tenant 'noisy'"))
        .count();
    assert_eq!(polite_ok, 16, "a polite tenant starved: {polite_lines:?}");
    assert!(noisy_ok > 0, "the flooder was locked out entirely");
    println!("output-hash tenants {:#018x}", checksum_hash(&polite_lines));
    println!("fairness: polite 16/16 ok; noisy {noisy_ok} ok + {noisy_shed} shed (quota 24)");

    // --- phase 3: one stats surface over either transport --------------
    let stats = Client::new(tcp_addr)
        .stats_json()
        .expect("stats")
        .join("\n");
    for key in [
        "\"pipelined_connections\":1",
        "\"tenant_shed\":",
        "\"tenant_dispatches\":",
    ] {
        assert!(stats.contains(key), "stats missing {key}: {stats}");
    }
    println!("stats: pipelined connection and tenant dispatches accounted");

    let bye = Client::new(unix_addr).shutdown().expect("shutdown");
    assert!(bye[0].starts_with("ok"), "{bye:?}");
    server.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
    println!("done: two transports, framed pipelining, fair tenants — one runtime");
}
