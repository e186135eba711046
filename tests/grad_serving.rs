//! Gradient round trips through the serving runtime: a `submit_grad`
//! request is the forward launch plus one launch per AD-emitted adjoint
//! part, all through the ordinary admission path — so deadlines, shed
//! decisions, draining, and the plan-key circuit breaker apply to
//! training traffic with no special cases.

use mdh::ad::{eval_gradients, grad_all};
use mdh::core::buffer::Buffer;
use mdh::core::combine::CombineOp;
use mdh::core::dsl::{DslBuilder, DslProgram};
use mdh::core::error::MdhError;
use mdh::core::expr::ScalarFunction;
use mdh::core::index_fn::IndexFn;
use mdh::core::shape::Shape;
use mdh::core::types::{BasicType, ScalarKind};
use mdh::directive::{compile, DirectiveEnv};
use mdh::lowering::asm::DeviceKind;
use mdh::runtime::server::deterministic_inputs;
use mdh::runtime::{Request, Runtime, RuntimeConfig};
use std::time::{Duration, Instant};

const MATVEC: &str = "\
@mdh( out( w = Buffer[fp32] ),
      inp( M = Buffer[fp32], v = Buffer[fp32] ),
      combine_ops( cc, pw(add) ) )
def matvec(w, M, v):
    for i in range(I):
        for k in range(K):
            w[i] = M[i, k] * v[k]
";

const DOT: &str = "\
@mdh( out( res = Buffer[fp32] ),
      inp( x = Buffer[fp32], y = Buffer[fp32] ),
      combine_ops( pw(add) ) )
def dot(res, x, y):
    for k in range(N):
        res[0] = x[k] * y[k]
";

/// Integer-valued fill (exact in f32, so every reduction order agrees).
fn int_fill(buf: &mut Buffer, salt: usize) {
    buf.fill_with(move |i| ((i.wrapping_add(salt).wrapping_mul(2654435761)) % 16) as f64 - 8.0);
}

fn matvec_case(i: i64, k: i64) -> (DslProgram, Vec<Buffer>) {
    let env = DirectiveEnv::new().size("I", i).size("K", k);
    let prog = compile(MATVEC, &env).expect("compile matvec");
    let mut inputs = deterministic_inputs(&prog).expect("inputs");
    for (s, b) in inputs.iter_mut().enumerate() {
        int_fill(b, s);
    }
    (prog, inputs)
}

/// Table gather `y[i] = table[idx[i]]`: its table adjoint is the scatter
/// (`rbi(add)`) program, so a grad round trip on it exercises the
/// indexed-reduction serving path.
fn gather_case(n: usize, vocab: usize) -> (DslProgram, Vec<Buffer>, Vec<usize>) {
    let idx: Vec<usize> = (0..n).map(|i| (i * 131 + 7) % vocab).collect();
    let captured = idx.clone();
    let prog = DslBuilder::new("gather", vec![n])
        .out_buffer("y", BasicType::F64)
        .out_access("y", IndexFn::identity(1, 1))
        .inp_buffer_with_shape("table", BasicType::F64, vec![vocab])
        .inp_access(
            "table",
            IndexFn::General {
                out_rank: 1,
                f: std::sync::Arc::new(move |i: &[usize]| vec![captured[i[0]]]),
                label: "idx".into(),
            },
        )
        .scalar_function(ScalarFunction::identity("f_id", ScalarKind::F64))
        .combine_ops(vec![CombineOp::cc()])
        .build()
        .expect("gather");
    let mut table = Buffer::zeros("table", BasicType::F64, Shape::new(vec![vocab]));
    int_fill(&mut table, 13);
    (prog, vec![table], idx)
}

fn small_runtime() -> Runtime {
    Runtime::new(RuntimeConfig {
        workers: 2,
        exec_threads: 2,
        ..RuntimeConfig::default()
    })
    .expect("runtime")
}

/// The round trip returns the forward value and gradients that match the
/// direct (in-process) AD evaluation bit-for-bit, and the new counters
/// surface in `stats()`, its `Display`, and `to_json()`.
#[test]
fn grad_round_trip_matches_direct_evaluation() {
    let (prog, inputs) = matvec_case(24, 32);
    let runtime = small_runtime();

    let req = Request::new(prog.clone(), DeviceKind::Cpu, inputs.clone());
    let resp = runtime
        .submit_grad(req, None, None)
        .expect("grad admits")
        .wait()
        .expect("grad round trip");

    // forward value = a plain submit of the same request
    let fwd = runtime
        .submit(Request::new(prog.clone(), DeviceKind::Cpu, inputs.clone()))
        .wait()
        .expect("plain forward");
    assert_eq!(resp.forward.outputs, fwd.outputs);

    // gradients = in-process reverse mode with the same all-ones cotangent
    let gp = grad_all(&prog).expect("grad_all");
    assert_eq!(resp.parts, gp.parts.len());
    let shape = prog.output_shapes().unwrap().remove(0);
    let mut ones = Buffer::zeros("w_bar", BasicType::F32, Shape::new(shape));
    ones.fill_with(|_| 1.0);
    let want = eval_gradients(&gp, &inputs, &ones).expect("eval_gradients");
    assert_eq!(resp.gradients.len(), want.len());
    for ((w, got), want) in resp.gradients.iter().zip(&want) {
        assert_eq!(
            got.as_f32().unwrap(),
            want.as_f32().unwrap(),
            "gradient wrt input {w} diverged from direct evaluation"
        );
    }

    let stats = runtime.stats();
    assert_eq!(stats.grad_requests, 1, "stats: {stats}");
    assert_eq!(stats.rbi_requests, 0, "stats: {stats}");
    assert!(format!("{stats}").contains("training: grad-requests=1"));
    let json = stats.to_json();
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    assert!(json.contains("\"grad_requests\":1"), "{json}");
    assert!(json.contains("\"completed\":"), "{json}");
}

/// A gather's table adjoint is an `rbi(add)` scatter: serving the grad
/// round trip bumps `rbi_requests`, and the gradient matches the closed
/// form Σ over colliding indices.
#[test]
fn scatter_adjoint_serves_and_counts_as_rbi_traffic() {
    let (prog, inputs, idx) = gather_case(60, 8);
    let runtime = small_runtime();
    let resp = runtime
        .submit_grad(Request::new(prog, DeviceKind::Cpu, inputs), None, None)
        .expect("grad admits")
        .wait()
        .expect("grad round trip");
    assert_eq!(resp.gradients.len(), 1);
    let grad = &resp.gradients[0].1;
    // all-ones cotangent ⇒ t̄[v] = |{i : idx[i] = v}|
    for v in 0..8 {
        let count = idx.iter().filter(|&&x| x == v).count() as f64;
        assert_eq!(grad.get_flat(v).as_f64().unwrap(), count, "bucket {v}");
    }
    let stats = runtime.stats();
    assert_eq!(stats.grad_requests, 1, "stats: {stats}");
    assert_eq!(stats.rbi_requests, 1, "stats: {stats}");
    assert!(format!("{stats}").contains("rbi-requests=1"));
}

/// An expired deadline fails the whole round trip — and every sub-request
/// (forward + each adjoint part) is answered `deadline exceeded` without
/// executing, exactly like plain traffic.
#[test]
fn expired_deadline_fails_the_whole_grad_round_trip() {
    let (prog, inputs) = matvec_case(16, 16);
    let parts = grad_all(&prog).expect("grad_all").parts.len();
    let runtime = small_runtime();
    let req = Request::new(prog, DeviceKind::Cpu, inputs).with_deadline(Instant::now());
    let r = runtime
        .submit_grad(req, None, None)
        .expect("admission happens per sub-request")
        .wait();
    assert!(matches!(r, Err(MdhError::DeadlineExceeded(_))), "{r:?}");
    // `wait` returns at the first failed sub-request; a worker may still be
    // answering the others, so give the counter a moment to settle
    let expected = 1 + parts as u64;
    let t0 = Instant::now();
    while runtime.stats().deadline_exceeded < expected && t0.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = runtime.stats();
    assert_eq!(
        stats.deadline_exceeded, expected,
        "forward and every adjoint part carry the deadline: {stats}"
    );
    assert_eq!(stats.grad_requests, 1, "stats: {stats}");
}

/// A poison forward trips its plan-key breaker; the next grad round trip
/// on the same key fails fast with `BreakerOpen` instead of executing.
#[test]
fn grad_traffic_respects_the_circuit_breaker() {
    let env = DirectiveEnv::new().size("N", 64);
    let mut poison = compile(DOT, &env).expect("compile dot");
    poison.name = "poison".into();
    let inputs = deterministic_inputs(&poison).expect("inputs");

    let runtime = Runtime::new(RuntimeConfig {
        workers: 2,
        exec_threads: 2,
        breaker_threshold: 1,
        breaker_cooldown: Duration::from_secs(60), // stays open for the test
        panic_marker: Some("poison".into()),
        ..RuntimeConfig::default()
    })
    .expect("runtime");

    let first = runtime
        .submit_grad(
            Request::new(poison.clone(), DeviceKind::Cpu, inputs.clone()),
            None,
            None,
        )
        .expect("grad admits")
        .wait();
    assert!(matches!(first, Err(MdhError::WorkerPanic(_))), "{first:?}");

    let second = runtime
        .submit_grad(Request::new(poison, DeviceKind::Cpu, inputs), None, None)
        .expect("grad admits")
        .wait();
    assert!(
        matches!(second, Err(MdhError::BreakerOpen(_))),
        "{second:?}"
    );
    let stats = runtime.stats();
    assert!(stats.breaker_trips >= 1, "stats: {stats}");
    assert_eq!(stats.grad_requests, 2, "stats: {stats}");
}

/// A draining runtime answers grad submissions `draining` — admission
/// control sees every sub-request.
#[test]
fn draining_runtime_rejects_grad_round_trips() {
    let (prog, inputs) = matvec_case(16, 16);
    let mut runtime = small_runtime();
    runtime
        .submit(Request::new(prog.clone(), DeviceKind::Cpu, inputs.clone()))
        .wait()
        .expect("launch before shutdown");
    runtime.shutdown();
    let r = runtime
        .submit_grad(Request::new(prog, DeviceKind::Cpu, inputs), None, None)
        .expect("grad transform still runs")
        .wait();
    assert!(matches!(r, Err(MdhError::Draining(_))), "{r:?}");
    assert!(runtime.stats().draining_rejects >= 1);
}
