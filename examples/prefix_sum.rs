//! Prefix sums: the `ps` combine operator (the paper's MBBS, Listing 13)
//! — a reduction that *preserves* its dimension, which neither reduction
//! clauses nor TVM's `comm_reducer` can express.
//!
//! ```text
//! cargo run --release --example prefix_sum
//! ```
//!
//! The `output-hash` line is FNV-1a over the split run's output bits; it
//! is the same on every run (CI diffs two).

use mdh::apps::mbbs::mbbs;
use mdh::apps::Scale;
use mdh::backend::cpu::CpuExecutor;
use mdh::baselines::schedulers::{Baseline, TvmLike};
use mdh::core::buffer::bits_hash;
use mdh::lowering::asm::DeviceKind;
use mdh::lowering::schedule::{ReductionStrategy, Schedule};

fn main() {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let app = mbbs(Scale::Medium, 1).expect("mbbs");
    let (i, j) = (app.program.md_hom.sizes[0], app.program.md_hom.sizes[1]);
    println!("MBBS: {i}x{j} matrix — ps(add) over rows of pw(add) row sums");

    // TVM rejects the scan reducer outright.
    let tvm = TvmLike {
        device: DeviceKind::Cpu,
        parallel_units: threads,
    };
    match tvm.schedule(&app.program) {
        Err(e) => println!("TVM: FAIL — {}", e.reason),
        Ok(_) => println!("TVM: unexpectedly produced a schedule"),
    }

    // MDH splits the scan dimension across tasks and carry-folds each
    // chunk's scan from the chunk before it, the offset rule of the
    // paper's Listing 17.
    let exec = CpuExecutor::new(threads).expect("executor");
    let mut split = Schedule::sequential(2, DeviceKind::Cpu);
    split.par_chunks = vec![threads.max(2), 1];
    split.reduction = ReductionStrategy::Tree;
    let (out, took) = exec
        .run_timed(&app.program, &split, &app.inputs)
        .expect("mbbs run");
    // the split run's bits: two runs must print the same line
    println!("output-hash mbbs/split {:#018x}", bits_hash(&out));
    let bbs = out[0].as_f64().unwrap();
    println!(
        "split scan over {} tasks took {:.2} ms; bbs[0]={:.3}, bbs[last]={:.3}",
        split.par_chunks[0],
        took.as_secs_f64() * 1e3,
        bbs[0],
        bbs[i - 1]
    );

    // verify: sequential reference
    let m = app.inputs[0].as_f64().unwrap();
    let mut acc = 0.0;
    let mut expect_last = 0.0;
    for ii in 0..i {
        for jj in 0..j {
            acc += m[ii * j + jj];
        }
        if ii == i - 1 {
            expect_last = acc;
        }
    }
    assert!((bbs[i - 1] - expect_last).abs() < 1e-6 * expect_last.abs().max(1.0));
    println!("scan verified ✓");
}
