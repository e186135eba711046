//! Multi-device partitioned execution: scaling and cross-device
//! bit-identity.
//!
//! Three Fig. 3 case studies — MatMul (a `cc`-partitioned contraction),
//! Dot (a reduction-heavy kernel whose partials flow through the
//! combine tree), and the Jacobi_3D stencil — run on simulated device
//! pools of 1/2/4/8 A100s. For each pool size the example prints the
//! modelled timing breakdown (upload, execution, combine tree, download)
//! plus the hot-launch speedup over one device, then checks that every
//! pool produces *bit-identical* outputs and prints an FNV-1a hash of
//! the result bytes.
//!
//! The `output-hash` lines are deterministic (inputs are integer-valued,
//! the fold order is fixed, and the timing model is analytic) — CI runs
//! this example twice and diffs them as a determinism smoke test.
//!
//! Run with `cargo run --release --example multi_device` (tiny bounded
//! sizes, used by CI) or `--example multi_device -- --scale medium` for
//! sizes where the modelled scaling is visible (launch latency and
//! per-shard transfer overheads dominate the tiny CI sizes, so speedup
//! there is < 1 by design).

use mdh::apps::registry::{instantiate, StudyId};
use mdh::apps::spec::Scale;
use mdh::core::buffer::{bits_hash, Buffer, BufferData};
use mdh::dist::{DevicePool, DistExecutor};

/// Integer-valued refill: exact in f32/f64, so partial-result
/// reassociation across devices cannot introduce rounding.
fn exactify(inputs: &mut [Buffer]) {
    for (salt, buf) in inputs.iter_mut().enumerate() {
        if matches!(buf.data, BufferData::Record(_)) {
            continue;
        }
        buf.fill_with(move |i| ((i.wrapping_add(salt).wrapping_mul(2654435761)) % 16) as f64 - 8.0);
    }
}

fn main() {
    let scale = if std::env::args().skip(1).any(|a| a == "medium") {
        Scale::Medium
    } else {
        Scale::Small
    };
    println!("=== multi-device partitioned execution ({scale:?} scale) ===\n");

    for name in ["MatMul", "Dot", "Jacobi_3D"] {
        let mut app = instantiate(StudyId { name, input_no: 1 }, scale).expect("instantiate study");
        exactify(&mut app.inputs);
        println!("--- {} ({}) ---", app.name, app.sizes_desc);

        let mut reference: Option<(Vec<Buffer>, f64)> = None;
        for devices in [1usize, 2, 4, 8] {
            let dist = DistExecutor::new(DevicePool::gpus(devices)).expect("pool");
            let (outs, report) = dist.run(&app.program, &app.inputs).expect("run");
            let (ref_outs, ref_hot) = reference.get_or_insert_with(|| {
                let hot = report.hot_ms;
                (outs.clone(), hot)
            });
            assert_eq!(
                &outs, ref_outs,
                "{name}: {devices}-device result diverged from single-device"
            );
            println!("  {report}  speedup(hot)={:.2}x", *ref_hot / report.hot_ms);
        }
        let (ref_outs, _) = reference.expect("reference recorded");
        println!("  output-hash {name} {:#018x}\n", bits_hash(&ref_outs));
    }
}
