//! Regression fixtures for the bug cluster surfaced by the `dtc-fuzz`
//! differential sweep, plus the sweep's own determinism guarantees.
//!
//! Each fixture below is the *shrunk* reproducer of a real failure the
//! fuzzer found (the `M.. K.. N..` comments quote the minimized fixture
//! codes from the sweep) and fails on the pre-fix code. The conversion-
//! cache collision regression lives next to the cache
//! (`crates/core/src/cache.rs`) because it needs the private keyed lookup.

use dtc_spmm::baselines::{BlockSpmm, SpmmEngine, VectorSparseSpmm};
use dtc_spmm::core::DtcSpmm;
use dtc_spmm::formats::tf32::round_to_tf32;
use dtc_spmm::formats::{CsrMatrix, DenseMatrix, MeTcfMatrix};
use dtc_spmm::fuzz::{run_sweep, SweepConfig};
use dtc_spmm::sim::Device;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes tests that set the process-global `dtc-par` thread override.
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

/// Fuzz fixture `M1 K1 N1 | A (0,0,0.0) | B -inf`: Block-SpMM skipped
/// stored entries whose value was exactly `0.0`, conflating them with ELL
/// padding — so the IEEE-mandated `0.0 x -inf = NaN` product vanished and
/// the kernel returned `0.0` where every other kernel returned NaN.
#[test]
fn blockspmm_explicit_zero_times_inf_is_nan() {
    let a = CsrMatrix::from_triplets(1, 1, &[(0, 0, 0.0)]).unwrap();
    let b = DenseMatrix::from_fn(1, 1, |_, _| f32::NEG_INFINITY);
    let c = BlockSpmm::new(&a, 32, u64::MAX).unwrap().execute(&b).unwrap();
    assert!(c.get(0, 0).is_nan(), "stored 0.0 x -inf must be NaN, got {}", c.get(0, 0));
}

/// The same fixture through VectorSparse: CVSE vector padding was likewise
/// conflated with explicit stored zeros.
#[test]
fn vectorsparse_explicit_zero_times_inf_is_nan() {
    let a = CsrMatrix::from_triplets(1, 1, &[(0, 0, 0.0)]).unwrap();
    let b = DenseMatrix::from_fn(1, 1, |_, _| f32::INFINITY);
    for vlen in [4, 8] {
        let c = VectorSparseSpmm::new(&a, vlen).unwrap().execute(&b).unwrap();
        assert!(c.get(0, 0).is_nan(), "vlen {vlen}: stored 0.0 x inf must be NaN");
    }
}

/// Explicit zeros must also survive the BELL/CVSE round-trip: `to_csr`
/// previously dropped them (it re-derived structure from `v != 0.0`).
#[test]
fn explicit_zeros_survive_padded_format_roundtrips() {
    let a = CsrMatrix::from_triplets(3, 5, &[(0, 1, 0.0), (2, 4, -1.5), (1, 0, 0.0)]).unwrap();
    let bell = dtc_spmm::formats::BellMatrix::from_csr(&a, 2, u64::MAX).unwrap();
    assert_eq!(bell.to_csr().unwrap(), a, "BELL round-trip lost explicit zeros");
    let cvse = dtc_spmm::formats::CvseMatrix::from_csr(&a, 4).unwrap();
    assert_eq!(cvse.to_csr().unwrap(), a, "CVSE round-trip lost explicit zeros");
}

/// Fuzz fixture `M1 K1 N1 | A (0,0,NaN) | B 1.0`: serial and parallel
/// ME-TCF conversion of a NaN-carrying matrix must agree *bitwise* (the
/// sweep compares conversions with `to_bits`, where `NaN != NaN` under
/// `PartialEq` would hide real divergence).
#[test]
fn nan_values_convert_bit_identically_across_paths() {
    let _guard = override_lock();
    let a = CsrMatrix::from_triplets(1, 1, &[(0, 0, f32::NAN)]).unwrap();
    let serial = with_threads(1, || MeTcfMatrix::from_csr(&a));
    let parallel = with_threads(7, || MeTcfMatrix::from_csr(&a));
    let s: Vec<u32> = serial.values().iter().map(|v| v.to_bits()).collect();
    let p: Vec<u32> = parallel.values().iter().map(|v| v.to_bits()).collect();
    assert_eq!(s, p);
    let round = serial.to_csr().unwrap();
    assert!(round.values()[0].is_nan(), "NaN must survive the ME-TCF round-trip");
}

/// Fuzz fixture `M1 K1 N1 | A (0,0,1.1754942e-38) | B 1e30`: the largest
/// f32 subnormal previously rounded *up* to the min-normal inside
/// `round_to_tf32` instead of flushing, turning a should-be-zero product
/// into ~1.18e-8.
#[test]
fn largest_subnormal_flushes_instead_of_rounding_up() {
    let max_subnormal = f32::from_bits(0x007F_FFFF);
    assert_eq!(round_to_tf32(max_subnormal).to_bits(), 0);
    assert_eq!(round_to_tf32(-max_subnormal).to_bits(), 0x8000_0000);

    let a = CsrMatrix::from_triplets(1, 1, &[(0, 0, max_subnormal)]).unwrap();
    let b = DenseMatrix::from_fn(1, 1, |_, _| 1.0e30);
    let c = DtcSpmm::new(&a).execute(&b).unwrap();
    assert_eq!(c.get(0, 0), 0.0, "subnormal input must flush to zero before the multiply");
}

/// Zero-nnz matrices at shapes exercising both conversion paths (161 rows
/// is >= 8 windows, enough for the parallel merge) must round-trip and run
/// the full pipeline.
#[test]
fn zero_nnz_pipeline_and_roundtrip() {
    let _guard = override_lock();
    for (rows, cols) in [(1, 1), (17, 3), (161, 129)] {
        let a = CsrMatrix::from_triplets(rows, cols, &[]).unwrap();
        let m = with_threads(2, || MeTcfMatrix::from_csr(&a));
        assert_eq!(m.num_tc_blocks(), 0);
        assert_eq!(m.to_csr().unwrap(), a);
        let b = DenseMatrix::ones(cols, 7);
        let c = DtcSpmm::new(&a).execute(&b).unwrap();
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
    }
}

/// The sweep's headline determinism guarantee: the same config produces a
/// byte-identical `FUZZ.json` at any `DTC_THREADS`, shrinking included.
#[test]
fn fuzz_report_identical_across_thread_counts() {
    let _guard = override_lock();
    let config = SweepConfig {
        master_seed: 0xD7C5_B004,
        num_cases: 24,
        device: Device::rtx4090(),
        shrink: true,
    };
    let baseline = with_threads(1, || run_sweep(&config).to_json());
    for threads in [2, 7] {
        let json = with_threads(threads, || run_sweep(&config).to_json());
        assert_eq!(baseline, json, "FUZZ.json diverged at {threads} threads");
    }
}

/// A smoke-sized slice of the shipping sweep seed must be failure-free —
/// the CI gate (`fuzz --smoke`) asserts the same thing from the binary.
#[test]
fn shipping_seed_prefix_is_clean() {
    let report = run_sweep(&SweepConfig {
        master_seed: 0xD7C5_B004,
        num_cases: 32,
        device: Device::rtx4090(),
        shrink: false,
    });
    assert_eq!(report.cases_run, 32);
    assert!(!report.has_failures(), "{}", report.to_json());
}
