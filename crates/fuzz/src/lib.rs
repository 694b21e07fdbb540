//! `dtc-fuzz`: a deterministic, seed-driven differential testing harness
//! for the whole SpMM kernel lineup.
//!
//! The static `tracelint` gate (PR 4) checks invariants of traces that
//! *were constructed*; it says nothing about whether the twelve kernel
//! models compute the right numbers on adversarial inputs. This crate is
//! the dynamic counterpart:
//!
//! - [`gen`] produces adversarial `CsrMatrix`/`DenseMatrix` cases —
//!   zero-nnz, all-empty row windows, single column, M/N/K not multiples
//!   of the 16/8/4 tile, duplicate and unsorted triplets, power-law
//!   extremes, dense 8x16 blocks straddling window boundaries, and value
//!   sets with NaN, ±Inf, −0.0 and subnormals;
//! - [`oracle`] adjudicates each case with an exact `f64` reference SpMM
//!   plus a TF32 round-to-nearest-even error envelope derived from the
//!   mantissa emulation in `dtc-formats`;
//! - [`runner`] executes every case differentially across all 12
//!   [`SpmmEngine`](dtc_baselines::SpmmEngine) models, both ME-TCF
//!   conversion paths (serial SGT condensing and the parallel merge), and
//!   the TCA-reordered pipeline, replaying the `dtc-verify` lints over
//!   each lowered trace;
//! - [`shrink`] greedily minimizes failing cases into reproducers small
//!   enough to pin as regression fixtures;
//! - [`report`] aggregates a sweep into the `FUZZ.json` artifact the
//!   `fuzz` bench bin writes and CI gates on.
//!
//! Everything is a pure function of the master seed: the same seed
//! produces a byte-identical report at any `DTC_THREADS`.
//!
//! # Example
//!
//! ```
//! use dtc_fuzz::{run_sweep, SweepConfig};
//! use dtc_sim::Device;
//!
//! let report = run_sweep(&SweepConfig {
//!     master_seed: 0xD7C5,
//!     num_cases: 16,
//!     device: Device::rtx4090(),
//!     shrink: true,
//! });
//! assert_eq!(report.cases_run, 16);
//! assert!(!report.has_failures(), "{}", report.to_json());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod oracle;
pub mod report;
pub mod runner;
pub mod shrink;

pub use gen::{family_names, generate_case, FuzzCase};
pub use oracle::{check_against, Mismatch, Reference};
pub use report::{FailureRecord, FuzzReport};
pub use runner::{run_case, CaseOutcome, Failure, FailureKind};
pub use shrink::{fixture_code, shrink_case};

use dtc_sim::Device;
use std::sync::OnceLock;

/// Bumps the process-wide fuzz telemetry counters.
fn fuzz_telemetry(run: u64, failed: u64, shrunk: u64) {
    static RUN: OnceLock<&'static dtc_telemetry::Counter> = OnceLock::new();
    static FAILED: OnceLock<&'static dtc_telemetry::Counter> = OnceLock::new();
    static SHRUNK: OnceLock<&'static dtc_telemetry::Counter> = OnceLock::new();
    RUN.get_or_init(|| dtc_telemetry::counter("fuzz.cases.run")).add(run);
    FAILED.get_or_init(|| dtc_telemetry::counter("fuzz.cases.failed")).add(failed);
    SHRUNK.get_or_init(|| dtc_telemetry::counter("fuzz.cases.shrunk")).add(shrunk);
}

/// Configuration of one differential sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Master seed; every case seed derives from it deterministically.
    pub master_seed: u64,
    /// Number of generated cases (round-robin over the generator families).
    pub num_cases: usize,
    /// Device the traces are lowered for and linted against.
    pub device: Device,
    /// Whether to shrink failing cases to minimal reproducers.
    pub shrink: bool,
}

/// Runs a full differential sweep: generate, run, shrink, aggregate.
///
/// Cases execute sequentially in index order, so the report is a pure
/// function of the config — byte-identical at any thread count.
pub fn run_sweep(config: &SweepConfig) -> FuzzReport {
    let mut report = FuzzReport::new(config.master_seed, &config.device.name);
    for index in 0..config.num_cases {
        let case = generate_case(config.master_seed, index);
        let outcome = run_case(&case, &config.device);
        report.record_case(&case, &outcome);
        let failed = !outcome.failures.is_empty();
        let mut shrunk = 0;
        if failed && config.shrink {
            for failure in &outcome.failures {
                let minimized = shrink_case(&case, failure, &config.device);
                report.record_failure(&case, index, failure, &minimized);
                shrunk += 1;
            }
        } else if failed {
            for failure in &outcome.failures {
                report.record_failure(&case, index, failure, &case.clone());
            }
        }
        fuzz_telemetry(1, failed as u64, shrunk);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes the sweeps in this module: they share the process-wide
    /// `fuzz.cases.run` counter that `telemetry_counters_accumulate` diffs.
    static SWEEPS: Mutex<()> = Mutex::new(());

    #[test]
    fn sweep_is_deterministic() {
        let _g = SWEEPS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let config =
            SweepConfig { master_seed: 7, num_cases: 12, device: Device::rtx4090(), shrink: true };
        let a = run_sweep(&config).to_json();
        let b = run_sweep(&config).to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn telemetry_counters_accumulate() {
        let _g = SWEEPS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let before = dtc_telemetry::snapshot();
        let config =
            SweepConfig { master_seed: 11, num_cases: 2, device: Device::rtx4090(), shrink: false };
        run_sweep(&config);
        let after = dtc_telemetry::snapshot();
        let runs = |s: &dtc_telemetry::MetricsSnapshot| s.counter("fuzz.cases.run").unwrap_or(0);
        assert_eq!(runs(&after), runs(&before) + 2);
    }
}
