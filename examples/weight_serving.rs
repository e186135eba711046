//! Weight serving through the device-resident buffer pool.
//!
//! The inference-serving shape the `mdh-mem` pool exists for: one large
//! weights operand (a 16 MiB fp32 matrix) reused by every request, plus
//! a small per-request operand (an 8 KiB query vector) that changes
//! every time. Without the pool, every launch re-ships the weights over
//! the host link; with it, the weights upload once per device and every
//! later request pays only the small vector.
//!
//! Four phases:
//!
//! 1. cold launch — every operand block misses and is uploaded;
//! 2. a burst of requests with fresh query vectors — the weights hit
//!    residency on all devices, only the vectors miss;
//! 3. a weight update — the host buffer is refilled and
//!    [`mdh::runtime::Runtime::bump_operand_version`] invalidates the
//!    resident copies, so the next launch re-uploads (no stale bytes);
//! 4. pool-off rerun — the same workload on `mem_budget_bytes: 0`
//!    produces bit-identical output hashes, because residency only
//!    affects the time model, never the values.
//!
//! Every `output-hash` and `MEM_CHECK` line is deterministic (integer-
//! valued inputs, fixed shard fold order, analytic timing): CI runs the
//! example twice and diffs the output as a determinism smoke test.
//!
//! Run with `cargo run --release --example weight_serving`.

use mdh::core::buffer::{bits_hash, Buffer};
use mdh::core::dsl::DslProgram;
use mdh::core::shape::Shape;
use mdh::directive::{compile, DirectiveEnv};
use mdh::lowering::asm::DeviceKind;
use mdh::runtime::{Request, Runtime, RuntimeConfig, TunePolicy};

const DEVICES: usize = 4;
const BURST: usize = 16;
/// 2048x2048 fp32 weights = 16 MiB; the query vector is 8 KiB, so warm
/// requests move ~2000x fewer bytes than cold ones.
const N: usize = 2048;

const SRC: &str = "\
@mdh( out( w = Buffer[fp32] ),
      inp( M = Buffer[fp32], v = Buffer[fp32] ),
      combine_ops( cc, pw(add) ) )
def serve(w, M, v):
    for i in range(I):
        for k in range(K):
            w[i] = M[i, k] * v[k]
";

fn model() -> DslProgram {
    let env = DirectiveEnv::new().size("I", N as i64).size("K", N as i64);
    compile(SRC, &env).expect("compile serving kernel")
}

/// Integer-valued fill, exact in f32/f64 — reassociation across shards
/// cannot introduce rounding, so hashes are bit-stable.
fn exact_fill(buf: &mut Buffer, salt: usize) {
    buf.fill_with(move |i| ((i.wrapping_add(salt).wrapping_mul(2654435761)) % 16) as f64 - 8.0);
}

fn buffer(name: &str, dims: Vec<usize>, salt: usize) -> Buffer {
    let shape = Shape::new(dims);
    let n = shape.len();
    let mut buf = Buffer::from_f32(name, shape, vec![0.0; n]);
    exact_fill(&mut buf, salt);
    buf
}

fn serve_workload(runtime: &Runtime, label: &str) -> Vec<u64> {
    let program = model();
    let mut weights = buffer("weights", vec![N, N], 0);

    let mut hashes = Vec::new();
    let mut launch = |weights: &Buffer, query: &Buffer| {
        let resp = runtime
            .submit(Request::new(
                program.clone(),
                DeviceKind::Gpu,
                vec![weights.clone(), query.clone()],
            ))
            .wait()
            .expect("launch");
        hashes.push(bits_hash(&resp.outputs));
        resp.transfer_ms
    };

    // phase 1: cold — weights and query both upload
    let query = buffer("query", vec![N], 1);
    let cold_ms = launch(&weights, &query);

    // phase 2: request burst — same weights, fresh query per request
    let mut warm_total = 0.0;
    for req in 0..BURST {
        let query = buffer("query", vec![N], req + 2);
        warm_total += launch(&weights, &query);
    }
    println!(
        "[{label}] cold transfer {:.4} ms; {BURST} warm requests mean {:.4} ms",
        cold_ms,
        warm_total / BURST as f64
    );

    // phase 3: weight update — new host contents, residency invalidated
    exact_fill(&mut weights, 7777);
    let version = runtime.bump_operand_version("weights");
    let update_ms = launch(&weights, &query);
    let repeat_ms = launch(&weights, &query);
    println!(
        "[{label}] weight update (version {version}): re-upload {update_ms:.4} ms, \
         repeat request {repeat_ms:.4} ms"
    );
    hashes
}

fn main() {
    println!("=== weight serving through the mdh-mem pool ({DEVICES} devices) ===\n");
    let config = RuntimeConfig {
        workers: 2,
        exec_threads: 4,
        devices: DEVICES,
        tune: TunePolicy {
            enabled: false,
            ..TunePolicy::default()
        },
        ..RuntimeConfig::default()
    };

    // ---- pool on (the default budget) ---------------------------------
    let runtime = Runtime::new(config.clone()).expect("runtime");
    let pooled = serve_workload(&runtime, "pool-on");
    runtime.wait_idle();
    let s = runtime.stats();
    println!(
        "MEM_CHECK pool-on hits={} misses={} evictions={} avoided={}B",
        s.mem_hits, s.mem_misses, s.mem_evictions, s.mem_bytes_avoided
    );
    assert!(s.mem_hits > 0, "burst must hit weight residency");
    assert!(
        s.mem_bytes_avoided as usize > BURST * N * N * 4 / 2,
        "residency must avoid re-uploading the weights"
    );
    drop(runtime);

    // ---- pool off: bit-identical values -------------------------------
    let bare = Runtime::new(RuntimeConfig {
        mem_budget_bytes: 0,
        ..config
    })
    .expect("runtime");
    let unpooled = serve_workload(&bare, "pool-off");
    bare.wait_idle();
    let s = bare.stats();
    println!(
        "MEM_CHECK pool-off hits={} misses={} evictions={} avoided={}B",
        s.mem_hits, s.mem_misses, s.mem_evictions, s.mem_bytes_avoided
    );
    assert_eq!(s.mem_hits, 0, "disabled pool must not count hits");

    assert_eq!(
        pooled, unpooled,
        "pool-on and pool-off must be bit-identical"
    );
    println!(
        "\nall {} launches bit-identical pool-on vs pool-off",
        pooled.len()
    );
    for (i, h) in pooled.iter().enumerate() {
        println!("output-hash weight_serving/{i} {h:#018x}");
    }
}
