//! A warm pool scan allocates nothing fresh: `scan_256k` (an f64
//! `ps(add)` over 2¹⁸ points, 2 MiB of output) on a four-device runtime.
//! Each launch writes four quarter-size shard boxes (512 KiB each) on pool
//! workers, one per device, and recombines them into one 2 MiB output;
//! another thread drops all five. After two warm-up launches every large
//! block a launch needs is one an earlier launch gave back to
//! `mdh_core::buffer::HostBlocks`, and the bits stay the first launch's.
//!
//! One test in its own file: the list and its counters are process-wide,
//! and no other test shares this process.

use mdh_core::buffer::{bits_hash, Buffer, HOST_BLOCK_MIN_BYTES};
use mdh_core::shape::Shape;
use mdh_core::types::BasicType;
use mdh_directive::{compile, DirectiveEnv};
use mdh_lowering::DeviceKind;
use mdh_runtime::{Request, Runtime, RuntimeConfig};
use std::sync::Arc;

const SCAN: &str = "\
@mdh( out( y = Buffer[fp64] ),
      inp( x = Buffer[fp64] ),
      combine_ops( ps(add) ) )
def scan(y, x):
    for i in range(N):
        y[i] = x[i]
";

#[test]
fn a_warm_pool_scan_takes_every_large_block_from_the_list() {
    let n = 1 << 18;
    // a shard's box is a quarter of the output, and still a listed block
    assert!(n / 4 * 8 >= HOST_BLOCK_MIN_BYTES);
    let prog = compile(SCAN, &DirectiveEnv::new().size("N", n as i64)).expect("scan");
    let mut x = Buffer::zeros("x", BasicType::F64, Shape::new(vec![n]));
    x.fill_with(|i| (i % 7) as f64 - 2.5);
    let inputs = Arc::new(vec![x]);
    let config = RuntimeConfig {
        devices: 4,
        ..RuntimeConfig::default()
    };
    let rt = Runtime::new(config).expect("runtime");
    let launch = || {
        let req = Request::new(prog.clone(), DeviceKind::Gpu, Arc::clone(&inputs));
        bits_hash(&rt.submit(req).wait().expect("launch").outputs)
    };

    let first = launch();
    assert_eq!(launch(), first);
    let before = rt.stats();
    assert!(
        before.host_fresh >= 5,
        "four boxes and the output: {before}"
    );
    for i in 0..20 {
        assert_eq!(launch(), first, "launch {i} moved a bit");
    }
    let after = rt.stats();
    assert_eq!(after.host_fresh, before.host_fresh, "{after}");
    assert!(after.host_reuses >= before.host_reuses + 20 * 5, "{after}");
}
