//! Determinism guarantees of the parallel execution layer (`dtc-par`).
//!
//! The sharding scheme (contiguous row-window bands, order-preserving
//! collection, disjoint output strips) promises **bit-identical** results
//! for every thread count — not merely "close": floating-point reduction
//! order never changes, so `to_bits()` equality is asserted throughout.

use dtc_spmm::core::{
    clear_conversion_cache, conversion_cache_stats, BalancedDtcKernel, DtcKernel, DtcSpmm,
    KernelOpts, Selector, SpmmEngine,
};
use dtc_spmm::formats::{gen, CsrMatrix, DenseMatrix, MeTcfMatrix, Precision};
use dtc_spmm::reorder::{Lsh64Reorderer, Reorderer, TcaReorderer, TcuOnlyReorderer};
use dtc_spmm::sim::Device;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Thread counts exercised everywhere: serial, even, odd (uneven bands),
/// and more threads than most test inputs have windows.
const THREADS: [usize; 4] = [1, 2, 7, 16];

/// The thread override in `dtc-par` is process-global; tests that mutate it
/// serialize on this lock so the harness's own parallelism cannot interleave
/// two overrides.
fn override_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `f` under a fixed thread count, restoring the default after.
fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    dtc_par::set_threads(Some(threads));
    let r = f();
    dtc_par::set_threads(None);
    r
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
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Tentpole acceptance: parallel `execute` is bit-identical to serial
    /// for random matrices, every thread count, and all three precisions,
    /// on both runtime kernels.
    #[test]
    fn parallel_execute_bit_identical_to_serial(
        rows in 1usize..300,
        cols in 1usize..200,
        fill in 1usize..8,
        n in 1usize..24,
        seed in 0u64..1_000,
    ) {
        let _guard = override_lock();
        let nnz = (rows * cols / 64 * fill).max(1).min(rows * cols);
        let a = gen::uniform(rows, cols, nnz, seed);
        let b = DenseMatrix::from_fn(cols, n, |r, c| {
            ((r * 31 + c * 7 + seed as usize) % 13) as f32 * 0.25 - 1.5
        });
        let metcf = MeTcfMatrix::from_csr(&a);
        let distinct = a.col_idx().iter().collect::<std::collections::HashSet<_>>().len();
        for precision in [Precision::Tf32, Precision::Fp16, Precision::Bf16] {
            let base = DtcKernel::from_metcf(metcf.clone(), distinct, KernelOpts::all())
                .with_precision(precision);
            let balanced = BalancedDtcKernel::from_metcf(metcf.clone(), distinct, KernelOpts::all())
                .with_precision(precision);
            let serial_base = with_threads(1, || base.execute(&b)).unwrap();
            let serial_bal = with_threads(1, || balanced.execute(&b)).unwrap();
            for threads in THREADS {
                let par_base = with_threads(threads, || base.execute(&b)).unwrap();
                assert_bits_identical(
                    &serial_base,
                    &par_base,
                    &format!("DtcKernel {precision:?} threads={threads}"),
                );
                let par_bal = with_threads(threads, || balanced.execute(&b)).unwrap();
                assert_bits_identical(
                    &serial_bal,
                    &par_bal,
                    &format!("BalancedDtcKernel {precision:?} threads={threads}"),
                );
            }
        }
    }

    /// The parallel CSR reference path (shared by the cuSPARSE and Sputnik
    /// baselines) and the parallel ME-TCF conversion are likewise
    /// thread-count-invariant.
    #[test]
    fn reference_and_conversion_thread_invariant(
        rows in 1usize..400,
        cols in 1usize..200,
        fill in 1usize..6,
        seed in 0u64..1_000,
    ) {
        let _guard = override_lock();
        let nnz = (rows * cols / 32 * fill).max(1).min(rows * cols);
        let a = gen::uniform(rows, cols, nnz, seed);
        let b = DenseMatrix::from_fn(cols, 17, |r, c| ((r + 3 * c) % 11) as f32 * 0.5 - 2.0);
        let serial_c = with_threads(1, || a.spmm_reference(&b)).unwrap();
        let serial_metcf = with_threads(1, || MeTcfMatrix::from_csr(&a));
        for threads in THREADS {
            let par_c = with_threads(threads, || a.spmm_reference(&b)).unwrap();
            assert_bits_identical(&serial_c, &par_c, &format!("spmm_reference threads={threads}"));
            let par_metcf = with_threads(threads, || MeTcfMatrix::from_csr(&a));
            prop_assert_eq!(&serial_metcf, &par_metcf);
        }
    }
}

/// Satellite: the Selector must return the same `SelectorDecision` — every
/// field, not just the choice — regardless of the thread count, for both a
/// balanced and a skewed input.
#[test]
fn selector_decision_independent_of_thread_count() {
    let _guard = override_lock();
    let device = Device::rtx4090();
    let selector = Selector::default();
    for a in [gen::uniform(1024, 2048, 1024 * 9, 7), gen::long_row(640, 4096, 200.0, 2.0, 8)] {
        let metcf = MeTcfMatrix::from_csr(&a);
        let serial = with_threads(1, || selector.decide(&metcf, &device));
        for threads in THREADS {
            let par = with_threads(threads, || selector.decide(&metcf, &device));
            assert_eq!(serial, par, "SelectorDecision diverged at {threads} threads");
        }
    }
}

/// End-to-end pipeline: full `DtcSpmm` engines built under different thread
/// counts produce bit-identical outputs (conversion, selection and
/// execution are all deterministic).
#[test]
fn pipeline_outputs_bit_identical_across_thread_counts() {
    let _guard = override_lock();
    let a = gen::community(320, 320, 16, 10.0, 0.9, 9);
    let b = DenseMatrix::from_fn(320, 32, |r, c| ((r * 5 + c) % 9) as f32 * 0.125);
    let serial = with_threads(1, || DtcSpmm::new(&a).execute(&b)).unwrap();
    for threads in THREADS {
        let par = with_threads(threads, || DtcSpmm::new(&a).execute(&b)).unwrap();
        assert_bits_identical(&serial, &par, &format!("DtcSpmm pipeline threads={threads}"));
    }
}

/// The TCA-family permutations (signatures, LSH bands, exact scoring and
/// the no-gain guard all fan out over `dtc-par`) are identical at every
/// thread count and under different steal-victim orders.
#[test]
fn tca_permutations_identical_across_threads_and_steal_seeds() {
    let _guard = override_lock();
    let inputs =
        [gen::community(640, 640, 24, 12.0, 0.9, 31), gen::power_law(600, 600, 8.0, 2.2, 32)];
    let reorderers: [Box<dyn Reorderer>; 3] = [
        Box::new(TcaReorderer::default()),
        Box::new(TcuOnlyReorderer::default()),
        Box::new(Lsh64Reorderer::default()),
    ];
    for (m, a) in inputs.iter().enumerate() {
        for r in &reorderers {
            let serial = with_threads(1, || r.reorder(a));
            assert!(
                serial.iter().enumerate().any(|(pos, &row)| pos != row),
                "{} kept the identity on input {m}; the check would be vacuous",
                r.name()
            );
            for threads in [1, 2, 4, 8] {
                for seed in [0x5eed, 0xfeed_beef] {
                    dtc_par::set_steal_seed(Some(seed));
                    let perm = with_threads(threads, || r.reorder(a));
                    dtc_par::set_steal_seed(None);
                    assert_eq!(
                        perm,
                        serial,
                        "{} permutation of input {m} diverged at {threads} threads, steal seed {seed:#x}",
                        r.name()
                    );
                }
            }
        }
    }
}

/// Acceptance: building repeatedly over one matrix re-runs the ME-TCF
/// conversion exactly once — later builds are cache hits, and `execute`
/// never converts at all.
#[test]
fn repeated_builds_reuse_conversion() {
    // A shape no other test uses, so the first build is a genuine miss.
    let a = gen::uniform(577, 331, 4_811, 424_242);
    let b = DenseMatrix::ones(331, 8);

    clear_conversion_cache();
    let (hits0, misses0) = conversion_cache_stats();
    let engine = DtcSpmm::new(&a);
    let (_, misses1) = conversion_cache_stats();
    assert_eq!(misses1, misses0 + 1, "first build must convert once");

    // Repeated execution on the built engine performs zero conversions.
    let c1 = engine.execute(&b).unwrap();
    let c2 = engine.execute(&b).unwrap();
    assert_bits_identical(&c1, &c2, "repeated execute");
    let (hits1, misses2) = conversion_cache_stats();
    assert_eq!(misses2, misses1, "execute must never re-convert");

    // A second engine over the same matrix reuses the cached conversion.
    let engine2 = DtcSpmm::new(&a);
    let (hits2, misses3) = conversion_cache_stats();
    assert_eq!(misses3, misses2, "rebuild over the same matrix must not convert");
    assert!(hits2 > hits1.max(hits0), "rebuild must be a cache hit");
    assert_bits_identical(&c1, &engine2.execute(&b).unwrap(), "rebuilt engine");
}

/// The per-engine trace cache: repeated `simulate` calls on one engine
/// return identical reports (the trace is memoized, keyed by N and device).
#[test]
fn repeated_simulate_is_consistent() {
    let a = gen::uniform(512, 512, 4_096, 11);
    let engine = DtcSpmm::new(&a);
    let device = Device::rtx4090();
    let r1 = engine.simulate(64, &device);
    let r2 = engine.simulate(64, &device);
    assert_eq!(r1.time_ms.to_bits(), r2.time_ms.to_bits());

    // A modified device clone must not alias the preset's cached trace.
    let mut slow = device.clone();
    slow.mem_latency_cycles *= 4.0;
    let r3 = engine.simulate(64, &slow);
    assert!(
        r3.time_ms > r1.time_ms,
        "slower memory must cost more: {} vs {}",
        r3.time_ms,
        r1.time_ms
    );
}

/// `CsrMatrix` round-trip sanity for the helper used above.
#[test]
fn distinct_cols_helper_matches_util() {
    let a: CsrMatrix = gen::uniform(64, 96, 512, 12);
    let direct = a.col_idx().iter().collect::<std::collections::HashSet<_>>().len();
    assert_eq!(direct, dtc_spmm::baselines::util::distinct_col_count(&a));
}
