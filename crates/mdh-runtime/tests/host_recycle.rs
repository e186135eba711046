//! A warm Jacobi3D reuses its output block: eight sequential launches of
//! a 162³ fp64 stencil through `Runtime::submit`. Its 34 MB output is a
//! block glibc maps afresh on every allocation, the largest kind
//! `mdh_core::buffer::HostBlocks` recycles. The first output is kept, so
//! the second launch allocates a block of its own and every launch after
//! that takes the block the one before it gave back.
//!
//! One test in its own file: the list and its counters are process-wide,
//! and no other test shares this process.

use mdh_core::buffer::{Buffer, HOST_BLOCK_MIN_BYTES};
use mdh_directive::DirectiveEnv;
use mdh_lowering::DeviceKind;
use mdh_runtime::server::{compile_any, deterministic_inputs};
use mdh_runtime::{Request, Runtime, RuntimeConfig};
use std::sync::Arc;

const JACOBI3D_F64: &str = "\
@mdh( out( y = Buffer[fp64] ),
      inp( x = Buffer[fp64] ),
      combine_ops( cc, cc, cc ) )
def jacobi_3d(y, x):
    for i in range(N):
        for j in range(N):
            for k in range(N):
                y[i, j, k] = 0.142 * x[i+1, j+1, k+1] + 0.143 * x[i, j+1, k+1] + 0.143 * x[i+2, j+1, k+1] + 0.143 * x[i+1, j, k+1] + 0.143 * x[i+1, j+2, k+1] + 0.143 * x[i+1, j+1, k] + 0.143 * x[i+1, j+1, k+2]
";

fn bits(b: &Buffer) -> impl Iterator<Item = u64> + '_ {
    b.as_f64()
        .expect("an fp64 output")
        .iter()
        .map(|x| x.to_bits())
}

#[test]
fn a_warm_stencil_reuses_its_output_block_and_keeps_its_bits() {
    let prog = compile_any(JACOBI3D_F64, &DirectiveEnv::new().size("N", 162)).expect("jacobi3d");
    let inputs = Arc::new(deterministic_inputs(&prog).expect("inputs"));
    let config = RuntimeConfig {
        workers: 1,
        exec_threads: 2,
        ..RuntimeConfig::default()
    };
    let rt = Runtime::new(config).expect("runtime");
    let launch = || {
        let req = Request::new(prog.clone(), DeviceKind::Cpu, Arc::clone(&inputs));
        let mut outputs = rt.submit(req).wait().expect("launch").outputs;
        assert_eq!(outputs.len(), 1);
        outputs.remove(0)
    };

    let first = launch();
    assert!(
        first.size_bytes() >= HOST_BLOCK_MIN_BYTES,
        "{}",
        first.size_bytes()
    );
    assert!(bits(&first).any(|b| b != 0), "the stencil wrote its output");
    let before = rt.stats();
    for i in 1..8 {
        let out = launch();
        assert!(bits(&out).eq(bits(&first)), "launch {i} moved a bit");
    }
    let after = rt.stats();
    let reuses = after.host_reuses - before.host_reuses;
    assert!(reuses >= 6, "{reuses} reuses in 7 launches: {after:?}");
    assert!(after.to_json().contains(r#""host_reuses":"#));
    assert!(after.to_string().contains("; host: reuses="), "{after}");
}
