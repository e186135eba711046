//! Property tests: multi-device execution is bit-identical to
//! single-device execution for arbitrary partition counts and shapes,
//! for all three pre-implemented combine operators (`cc`, `pw(+)`,
//! `ps(max)`) and a custom tuple combiner, over every output element
//! kind and layout of [`common::Variant`].
//!
//! Inputs are filled with small integer values, which every element kind
//! represents exactly — so every legal reassociation of an associative
//! fold agrees *bitwise*, and `assert_eq!` on the output buffers is
//! meaningful. The single-device reference is `CpuExecutor` at width 1,
//! itself checked against `mdh_core::eval` ([`common::reference`]).

mod common;

use common::{argmax, grid, reference, row_sums, running_max, variant, VARIANTS};
use mdh_core::buffer::Buffer;
use mdh_core::combine::CombineOp;
use mdh_core::dsl::DslProgram;
use mdh_dist::{DevicePool, DistExecutor};
use proptest::prelude::*;

/// Run on a fresh fault-free pool; also returns how the plan partitioned.
fn run_on(
    prog: &DslProgram,
    inputs: &[Buffer],
    devices: usize,
) -> (Vec<Buffer>, Option<CombineOp>) {
    let dist = DistExecutor::new(DevicePool::gpus(devices)).expect("pool");
    let (outs, report) = dist.run(prog, inputs).expect("distributed run");
    (outs, report.strategy.filter(|_| report.shards > 1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cc_partitioning_is_bit_identical(
        i in 1usize..24,
        j in 1usize..8,
        k in 1usize..24,
        devices in 1usize..9,
        v in 0usize..VARIANTS,
    ) {
        let (prog, inputs) = grid(i, j, k, variant(v));
        let (multi, strategy) = run_on(&prog, &inputs, devices);
        prop_assert_eq!(reference(&prog, &inputs), multi,
            "i={} j={} k={} devices={} {:?}", i, j, k, devices, variant(v));
        if devices > 1 && i.max(j) > 1 {
            prop_assert!(matches!(strategy, Some(CombineOp::Cc)));
        }
    }

    #[test]
    fn pw_add_partitioning_is_bit_identical(
        j in 1usize..6,
        n in 1usize..300,
        devices in 1usize..9,
        v in 0usize..=VARIANTS,
    ) {
        let (prog, inputs) = if v == VARIANTS {
            argmax(n, false)
        } else {
            row_sums(j, n, variant(v))
        };
        let (multi, strategy) = run_on(&prog, &inputs, devices);
        prop_assert_eq!(reference(&prog, &inputs), multi,
            "j={} n={} devices={} v={}", j, n, devices, v);
        if devices > 1 && n > 1 {
            prop_assert!(matches!(strategy, Some(CombineOp::Pw(_))));
        }
    }

    #[test]
    fn ps_max_partitioning_is_bit_identical(
        n in 1usize..200,
        devices in 1usize..9,
        v in 0usize..=VARIANTS,
    ) {
        let (prog, inputs) = if v == VARIANTS {
            argmax(n, true)
        } else {
            running_max(n, variant(v))
        };
        let (multi, strategy) = run_on(&prog, &inputs, devices);
        prop_assert_eq!(reference(&prog, &inputs), multi,
            "n={} devices={} v={}", n, devices, v);
        if devices > 1 && n > 1 {
            prop_assert!(matches!(strategy, Some(CombineOp::Ps(_))));
        }
    }

    /// The pool degrades gracefully: more devices than extent still
    /// yields the right answer (shard count caps at the extent).
    #[test]
    fn oversubscribed_pools_degrade_gracefully(
        i in 1usize..4,
        k in 1usize..8,
        v in 0usize..VARIANTS,
    ) {
        let (prog, inputs) = grid(i, 1, k, variant(v));
        let (multi, _) = run_on(&prog, &inputs, 8);
        prop_assert_eq!(reference(&prog, &inputs), multi, "i={} k={}", i, k);
    }
}
