//! A fresh process reuses CCSD(T) Medium's output block from its second
//! run on. The 3.4 MiB f32 output is below glibc's fixed mmap threshold,
//! so whether the allocator kept its pages used to follow its heap
//! trimming: a fresh process re-faulted it for its first 3 to 8 runs.
//! `mdh_core::buffer::HostBlocks` now holds it from the first give-back.
//!
//! One test in its own file: the list and its counters are process-wide,
//! and no other test shares this process.

use mdh_core::buffer::{bits_hash, HOST_BLOCK_MIN_BYTES};
use mdh_directive::DirectiveEnv;
use mdh_lowering::DeviceKind;
use mdh_runtime::server::{compile_any, deterministic_inputs};
use mdh_runtime::{Request, Runtime, RuntimeConfig};
use std::sync::Arc;

const CCSDT: &str = "\
@mdh( out( res = Buffer[fp32] ),
      inp( T2 = Buffer[fp32], V = Buffer[fp32] ),
      combine_ops( cc, cc, cc, cc, cc, cc, pw(add) ) )
def ccsdt(res, T2, V):
    for a in range(A):
        for b in range(B):
            for c in range(C):
                for d in range(D):
                    for e in range(E):
                        for f in range(F):
                            for k in range(K):
                                res[a, b, c, d, e, f] = T2[a, b, c, k] * V[k, d, e, f]
";

#[test]
fn ccsdt_medium_reuses_its_output_from_the_second_run() {
    let sizes = [
        ("A", 12),
        ("B", 8),
        ("C", 8),
        ("D", 12),
        ("E", 8),
        ("F", 12),
        ("K", 16),
    ];
    let env = (sizes.iter()).fold(DirectiveEnv::new(), |env, &(name, n)| env.size(name, n));
    let prog = compile_any(CCSDT, &env).expect("ccsdt");
    let inputs = Arc::new(deterministic_inputs(&prog).expect("inputs"));
    let rt = Runtime::new(RuntimeConfig::default()).expect("runtime");
    let run = || {
        let req = Request::new(prog.clone(), DeviceKind::Cpu, Arc::clone(&inputs));
        let outputs = rt.submit(req).wait().expect("run").outputs;
        assert!(outputs[0].size_bytes() >= HOST_BLOCK_MIN_BYTES);
        bits_hash(&outputs)
    };

    let first = run();
    for i in 2..=10 {
        let before = rt.stats();
        assert_eq!(run(), first, "run {i} moved a bit");
        let after = rt.stats();
        assert_eq!(after.host_fresh, before.host_fresh, "run {i}: {after}");
        assert!(after.host_reuses > before.host_reuses, "run {i}: {after}");
    }
}
