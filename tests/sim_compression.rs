//! Equivalence properties for the compressed simulator path: class-interned
//! traces must report bit-identically to the legacy one-class-per-block
//! representation, and the set-sharded L2 replay must count exactly what
//! the serial model counts, at every thread count.

use dtc_spmm::sim::{
    l2_counts_over_trace, simulate, Device, KernelTrace, SectorStream, SimOptions, TbWork,
    TimingMode,
};
use proptest::prelude::*;

/// Traces drawn from a small pool of work shapes (duplicate-heavy, like
/// real kernels) with per-block sector streams mixing runs and scattered
/// addresses.
fn arb_dup_trace() -> impl Strategy<Value = KernelTrace> {
    (
        1usize..8,
        1usize..16,
        proptest::collection::vec((0usize..6, 0u64..2000, 1u64..40, 0u64..4000), 0..150),
    )
        .prop_map(|(occ, warps, blocks)| {
            let mut trace = KernelTrace::new(occ, warps);
            for (shape, run_start, run_len, stray) in blocks {
                let mut stream = SectorStream::new();
                stream.push_run(run_start, run_len);
                stream.push(stray); // usually breaks the run: a second one
                trace.push(TbWork {
                    alu_ops: shape as f64 * 37.0,
                    lsu_a_sectors: (shape % 3) as f64 * 11.0,
                    lsu_b_sectors: (run_len + 1) as f64,
                    hmma_ops: (shape % 2) as f64 * 64.0,
                    hmma_count: (shape % 2) as f64 * 128.0,
                    iters: 3.0 + shape as f64,
                    overlap_a_fetch: shape % 2 == 0,
                    b_stream: stream,
                    ..TbWork::default()
                });
            }
            trace
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn interned_and_expanded_reports_are_bit_identical(trace in arb_dup_trace()) {
        let device = Device::rtx4090();
        let legacy = trace.expanded();
        prop_assert_eq!(trace.num_tbs(), legacy.num_tbs());
        for timing in [TimingMode::Analytical, TimingMode::EventDriven] {
            for simulate_l2 in [false, true] {
                let opts = SimOptions { simulate_l2, timing };
                let a = simulate(&device, &trace, &opts);
                let b = simulate(&device, &legacy, &opts);
                // Derived PartialEq compares every f64 field, so this is an
                // exact (bitwise, modulo -0.0/NaN absence) comparison of the
                // full report including CounterSet and l2_hit_rate.
                prop_assert_eq!(a, b, "timing={:?} l2={}", timing, simulate_l2);
            }
        }
    }

    #[test]
    fn sharded_l2_counts_equal_serial_at_any_thread_count(trace in arb_dup_trace()) {
        let device = Device::rtx4090();
        let serial = l2_counts_over_trace(&device, &trace, 1);
        for threads in [2usize, 4, 8] {
            prop_assert_eq!(
                l2_counts_over_trace(&device, &trace, threads),
                serial,
                "threads={}", threads
            );
        }
    }
}

#[test]
fn compression_shrinks_duplicate_heavy_traces() {
    // Deterministic sanity check of the two compression levers: class count
    // and stream encoding, on a trace shaped like a large uniform launch.
    let mut trace = KernelTrace::new(6, 8);
    for i in 0..10_000u64 {
        let mut stream = SectorStream::new();
        stream.push_run((i % 64) * 32, 32); // one contiguous B-row fetch
        trace.push(TbWork {
            hmma_ops: ((i % 8) + 1) as f64 * 32.0,
            lsu_b_sectors: 32.0,
            iters: 8.0,
            b_stream: stream,
            ..TbWork::default()
        });
    }
    assert_eq!(trace.num_tbs(), 10_000);
    assert!(trace.num_classes() <= 8, "{} classes", trace.num_classes());
    // Stream lever: each block's 32 raw u64 addresses encode as one run —
    // an order of magnitude less heap than the Vec<u64> they replace.
    let raw_stream_bytes = 10_000 * 32 * std::mem::size_of::<u64>();
    let encoded_stream_bytes: usize =
        (0..trace.num_tbs()).map(|i| trace.stream(i).memory_bytes()).sum();
    assert!(
        encoded_stream_bytes * 10 <= raw_stream_bytes,
        "encoded {encoded_stream_bytes} vs raw {raw_stream_bytes}"
    );
    // Class lever: interning shrinks the descriptor table itself.
    let legacy = trace.expanded();
    assert!(
        trace.memory_bytes() * 3 <= legacy.memory_bytes(),
        "interned {} vs legacy {}",
        trace.memory_bytes(),
        legacy.memory_bytes()
    );
}
