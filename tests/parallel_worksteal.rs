//! Work-stealing determinism: the `dtc-par` engine writes every result into
//! its item-indexed slot, so outputs are **bit-identical** to a serial walk
//! no matter which worker executes which chunk. These properties drive the
//! schedule itself — thread count, seeded steal-victim order, threaded vs
//! virtual-time execution — and assert `to_bits()` equality throughout.

use dtc_spmm::core::{clear_conversion_cache, DtcSpmm, SpmmEngine};
use dtc_spmm::formats::{gen, DenseMatrix};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serial, even, odd (uneven bands), and oversubscribed.
const THREADS: [usize; 4] = [1, 2, 7, 16];

/// The thread/seed/mode overrides in `dtc-par` are process-global; tests
/// that mutate them serialize on this lock.
fn override_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `f` under a fixed schedule (thread count, steal seed, virtual-time
/// mode), restoring the defaults after.
fn with_schedule<R>(
    threads: usize,
    steal_seed: Option<u64>,
    virtual_time: bool,
    f: impl FnOnce() -> R,
) -> R {
    dtc_par::set_threads(Some(threads));
    dtc_par::set_steal_seed(steal_seed);
    dtc_par::set_virtual_time(virtual_time);
    let r = f();
    dtc_par::set_virtual_time(false);
    dtc_par::set_steal_seed(None);
    dtc_par::set_threads(None);
    r
}

/// Pseudo-random chunk weights from a seed (splitmix-style), heavy-tailed
/// so weighted cuts and stealing both have something to do.
fn random_weights(n: usize, seed: u64) -> Vec<u64> {
    (0..n as u64)
        .map(|i| {
            let mut x = seed.wrapping_add(i).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            x ^= x >> 31;
            if x % 19 == 0 {
                x % 4000 // occasional monster item
            } else {
                x % 23
            }
        })
        .collect()
}

#[track_caller]
fn assert_bits_identical(serial: &DenseMatrix, parallel: &DenseMatrix, ctx: &str) {
    assert_eq!(serial.rows(), parallel.rows(), "{ctx}: row count");
    assert_eq!(serial.cols(), parallel.cols(), "{ctx}: col count");
    for (i, (s, p)) in serial.as_slice().iter().zip(parallel.as_slice()).enumerate() {
        assert_eq!(
            s.to_bits(),
            p.to_bits(),
            "{ctx}: element {i} differs — serial {s} vs parallel {p}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Engine level: a weighted map over skewed items returns the identical
    /// vector under every thread count, steal seed, and execution mode.
    #[test]
    fn weighted_map_bit_identical_under_steal_schedules(
        n in 1usize..500,
        weight_seed in 0u64..10_000,
        threads_idx in 0usize..4,
        steal_seed in 0u64..1_000_000,
        virtual_time in any::<bool>(),
    ) {
        let _guard = override_lock();
        let weights = random_weights(n, weight_seed);
        let f = |i: usize| (i as u64).wrapping_mul(31) ^ weights[i];
        let want: Vec<u64> =
            with_schedule(1, None, false, || dtc_par::par_map_collect_weighted(&weights, f));
        let got = with_schedule(THREADS[threads_idx], Some(steal_seed), virtual_time, || {
            dtc_par::par_map_collect_weighted(&weights, f)
        });
        prop_assert_eq!(got, want);
    }

    /// Disjoint-output level: weighted `par_chunks_mut` fills every chunk
    /// exactly once regardless of the schedule.
    #[test]
    fn weighted_chunks_bit_identical_under_steal_schedules(
        n_chunks in 1usize..300,
        chunk_size in 1usize..9,
        weight_seed in 0u64..10_000,
        threads_idx in 0usize..4,
        steal_seed in 0u64..1_000_000,
        virtual_time in any::<bool>(),
    ) {
        let _guard = override_lock();
        let weights = random_weights(n_chunks, weight_seed);
        let len = n_chunks * chunk_size;
        let fill = |data: &mut [f32]| {
            dtc_par::par_chunks_mut_weighted(data, chunk_size, &weights, |i, chunk| {
                for (k, v) in chunk.iter_mut().enumerate() {
                    *v = (i * 7 + k) as f32 * 0.5 + weights[i] as f32;
                }
            });
        };
        let mut want = vec![0.0f32; len];
        with_schedule(1, None, false, || fill(&mut want));
        let mut got = vec![0.0f32; len];
        with_schedule(THREADS[threads_idx], Some(steal_seed), virtual_time, || fill(&mut got));
        prop_assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Pipeline level: conversion + selection + execution over random
    /// matrices is bit-identical to serial for every thread count and steal
    /// schedule (the tentpole's end-to-end determinism claim).
    #[test]
    fn pipeline_bit_identical_under_steal_schedules(
        rows in 16usize..260,
        cols in 8usize..200,
        seed in 0u64..500,
        threads_idx in 0usize..4,
        steal_seed in 0u64..1_000_000,
        virtual_time in any::<bool>(),
    ) {
        let _guard = override_lock();
        let mean_deg = (seed % 5) as f64 + 1.5;
        let a = gen::power_law(rows, cols, mean_deg, 2.0, seed);
        let b = DenseMatrix::from_fn(cols, 16, |r, c| ((r * 5 + c * 3) % 13) as f32 * 0.25 - 1.0);
        clear_conversion_cache();
        let want = with_schedule(1, None, false, || {
            DtcSpmm::new(&a).execute(&b).expect("serial execute")
        });
        clear_conversion_cache();
        let got = with_schedule(THREADS[threads_idx], Some(steal_seed), virtual_time, || {
            DtcSpmm::new(&a).execute(&b).expect("parallel execute")
        });
        assert_bits_identical(&want, &got, "pipeline");
    }
}
