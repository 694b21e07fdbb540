//! Iterative-SpMM sessions and the §6 amortization analysis.
//!
//! "Many real-world applications require iterative SpMM execution, where
//! the sparse matrix A remains unchanged for thousands of SpMM operations.
//! When applied to these scenarios, both the format conversion and
//! Selector overhead of DTC-SpMM are negligible. ... However, due to
//! format conversion, DTC-SpMM may not be suitable for a small number of
//! scenarios with varying input sparse matrices in each SpMM execution.
//! Systems with lighter overhead, like cuSPARSE, are more suitable for
//! such cases." — §6.
//!
//! [`IterativeSpmm`] packages that reasoning: it pays DTC-SpMM's one-time
//! costs once, exposes per-iteration execution, and computes the
//! break-even iteration count against the conversion-free cuSPARSE
//! baseline, recommending an engine for a given workload length.

use crate::config::EngineConfig;
use crate::convert::simulated_gpu_conversion_ms_for;
use crate::error::DtcError;
use crate::DtcSpmm;
use dtc_baselines::{CusparseSpmm, SpmmEngine};
use dtc_formats::{CsrMatrix, DenseMatrix, Precision};
use dtc_sim::Device;
use std::sync::atomic::{AtomicU64, Ordering};

/// Which engine the amortization analysis recommends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineRecommendation {
    /// The workload is long enough for DTC-SpMM's setup to amortize.
    Dtc,
    /// Too few iterations: the conversion-free CUDA-core path wins.
    Cusparse,
}

/// The amortization summary for one (matrix, N, device) workload.
#[derive(Debug, Clone)]
pub struct AmortizationReport {
    /// One-time DTC setup: format conversion + Selector, ms.
    pub setup_ms: f64,
    /// Simulated per-iteration DTC-SpMM time, ms.
    pub dtc_iter_ms: f64,
    /// Simulated per-iteration cuSPARSE time, ms.
    pub cusparse_iter_ms: f64,
    /// Iterations after which cumulative DTC time undercuts cuSPARSE
    /// (`None` when DTC is not faster per iteration, so it never pays).
    pub break_even_iterations: Option<u64>,
}

impl AmortizationReport {
    /// Total simulated time of `iterations` runs on DTC-SpMM, ms.
    pub fn dtc_total_ms(&self, iterations: u64) -> f64 {
        self.setup_ms + self.dtc_iter_ms * iterations as f64
    }

    /// Total simulated time of `iterations` runs on cuSPARSE, ms.
    pub fn cusparse_total_ms(&self, iterations: u64) -> f64 {
        self.cusparse_iter_ms * iterations as f64
    }

    /// Recommends an engine for a workload of `iterations` runs.
    pub fn recommend(&self, iterations: u64) -> EngineRecommendation {
        if self.dtc_total_ms(iterations) < self.cusparse_total_ms(iterations) {
            EngineRecommendation::Dtc
        } else {
            EngineRecommendation::Cusparse
        }
    }
}

/// Builder for an [`IterativeSpmm`] session: since the `EngineConfig`
/// consolidation it wraps the same shared [`EngineConfig`] as
/// [`crate::DtcSpmmBuilder`] (device, precision, reordering, kernel opts,
/// Selector, forced choice all flow into the underlying engine), plus the
/// one non-hashable knob: the comparator baseline the amortization
/// analysis races against (the conversion-free [`CusparseSpmm`] by
/// default, per §6's framing).
#[derive(Default)]
pub struct IterativeSpmmBuilder {
    config: EngineConfig,
    baseline: Option<Box<dyn SpmmEngine>>,
}

impl std::fmt::Debug for IterativeSpmmBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IterativeSpmmBuilder")
            .field("config", &self.config)
            .field("baseline", &self.baseline.as_ref().map(|b| b.name().to_string()))
            .finish()
    }
}

impl IterativeSpmmBuilder {
    /// Replaces the whole shared configuration at once.
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// The current shared configuration.
    pub fn engine_config(&self) -> &EngineConfig {
        &self.config
    }

    /// Sets the device both engines are simulated on.
    pub fn device(mut self, device: Device) -> Self {
        self.config.device = device;
        self
    }

    /// Sets the DTC engine's Tensor-Core input precision.
    pub fn precision(mut self, precision: Precision) -> Self {
        self.config.precision = precision;
        self
    }

    /// Enables TCU-Cache-Aware reordering in the underlying engine.
    pub fn reorder(mut self, enabled: bool) -> Self {
        self.config.reorder = enabled;
        self
    }

    /// Replaces the comparator baseline the amortization analysis races
    /// against (default: [`CusparseSpmm`] over the same matrix).
    pub fn baseline(mut self, baseline: Box<dyn SpmmEngine>) -> Self {
        self.baseline = Some(baseline);
        self
    }

    /// Builds the session (pays the one-time conversion + selection now).
    pub fn build(self, a: &CsrMatrix) -> IterativeSpmm {
        let device = self.config.device.clone();
        let engine = DtcSpmm::builder().config(self.config).build(a);
        let baseline = self.baseline.unwrap_or_else(|| Box::new(CusparseSpmm::new(a)));
        IterativeSpmm { engine, baseline, device, runs: AtomicU64::new(0) }
    }
}

/// A fixed-matrix SpMM session: conversion happens once, every
/// [`IterativeSpmm::execute`] reuses it.
///
/// The run counter is atomic so `execute` takes `&self` and one session
/// can serve concurrent callers.
pub struct IterativeSpmm {
    engine: DtcSpmm,
    baseline: Box<dyn SpmmEngine>,
    device: Device,
    runs: AtomicU64,
}

impl std::fmt::Debug for IterativeSpmm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IterativeSpmm")
            .field("engine", &self.engine)
            .field("baseline", &self.baseline.name())
            .field("device", &self.device.name)
            .field("runs", &self.runs)
            .finish()
    }
}

impl IterativeSpmm {
    /// Starts building a session with a non-default configuration.
    pub fn builder() -> IterativeSpmmBuilder {
        IterativeSpmmBuilder::default()
    }

    /// Convenience: default session (cuSPARSE comparator, TF32, no
    /// reordering) on `device`.
    pub fn new(a: &CsrMatrix, device: Device) -> Self {
        Self::builder().device(device).build(a)
    }

    /// The underlying DTC engine.
    pub fn engine(&self) -> &DtcSpmm {
        &self.engine
    }

    /// The comparator baseline the amortization analysis races against.
    pub fn baseline(&self) -> &dyn SpmmEngine {
        self.baseline.as_ref()
    }

    /// Number of SpMMs executed so far.
    pub fn runs(&self) -> u64 {
        self.runs.load(Ordering::Relaxed)
    }

    /// Executes one SpMM iteration.
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches as [`DtcError::Format`].
    pub fn execute(&self, b: &DenseMatrix) -> Result<DenseMatrix, DtcError> {
        self.runs.fetch_add(1, Ordering::Relaxed);
        Ok(self.engine.execute(b)?)
    }

    /// Computes the §6 amortization analysis for `n` dense columns.
    pub fn amortization(&self, n: usize) -> AmortizationReport {
        let dtc_iter_ms = self.engine.simulate(n, &self.device).time_ms;
        let cusparse_iter_ms = self.baseline.simulate(n, &self.device).time_ms;
        // Setup: GPU-kernel format conversion + the Selector's makespan
        // simulation (§6 prices the latter at a fraction of one SpMM).
        let setup_ms =
            simulated_gpu_conversion_ms_for(self.engine.rows(), self.engine.nnz(), &self.device)
                + 0.4 * dtc_iter_ms;
        let break_even_iterations = if dtc_iter_ms < cusparse_iter_ms {
            Some((setup_ms / (cusparse_iter_ms - dtc_iter_ms)).ceil() as u64)
        } else {
            None
        };
        AmortizationReport { setup_ms, dtc_iter_ms, cusparse_iter_ms, break_even_iterations }
    }

    /// Cumulative simulated GPU time of the session so far (setup + runs).
    pub fn simulated_total_ms(&self, n: usize) -> f64 {
        self.amortization(n).dtc_total_ms(self.runs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtc_formats::gen::{long_row, web};

    #[test]
    fn session_counts_runs_and_preserves_results() {
        let a = web(512, 512, 8.0, 2.1, 0.7, 41);
        let session = IterativeSpmm::new(&a, Device::rtx4090());
        let b = DenseMatrix::ones(512, 16);
        let reference = a.spmm_reference(&b).unwrap();
        for _ in 0..3 {
            let c = session.execute(&b).unwrap();
            assert!(c.max_abs_diff(&reference) < 0.05);
        }
        assert_eq!(session.runs(), 3);
        assert!(session.simulated_total_ms(16) > 0.0);
    }

    #[test]
    fn long_workloads_amortize_to_dtc() {
        // GNN training = thousands of iterations: DTC must win.
        let a = long_row(1024, 1024, 200.0, 1.0, 42);
        let session = IterativeSpmm::new(&a, Device::rtx4090());
        let report = session.amortization(128);
        let be = report.break_even_iterations.expect("DTC is faster per iteration here");
        assert_eq!(report.recommend(be + 10), EngineRecommendation::Dtc);
        assert!(report.dtc_total_ms(2000) < report.cusparse_total_ms(2000));
    }

    #[test]
    fn single_shot_workloads_prefer_cusparse() {
        // §6: "scenarios with varying input sparse matrices in each SpMM
        // execution" — one iteration cannot amortize the conversion.
        let a = long_row(1024, 1024, 200.0, 1.0, 43);
        let session = IterativeSpmm::new(&a, Device::rtx4090());
        let report = session.amortization(128);
        assert_eq!(report.recommend(1), EngineRecommendation::Cusparse);
    }

    #[test]
    fn builder_accepts_custom_baseline() {
        use dtc_baselines::TcgnnSpmm;
        let a = web(256, 256, 8.0, 2.1, 0.7, 45);
        let session = IterativeSpmm::builder()
            .device(Device::rtx4090())
            .reorder(true)
            .baseline(Box::new(TcgnnSpmm::new(&a).unwrap()))
            .build(&a);
        assert_eq!(session.baseline().name(), "TCGNN-SpMM");
        assert!(session.engine().permutation().is_some());
        let report = session.amortization(32);
        // The comparator column must come from the chosen baseline, not
        // from a hardwired cuSPARSE.
        let direct = TcgnnSpmm::new(&a).unwrap().simulate(32, &Device::rtx4090()).time_ms;
        assert!((report.cusparse_iter_ms - direct).abs() < 1e-12);
    }

    #[test]
    fn totals_are_linear_in_iterations() {
        let a = web(512, 512, 8.0, 2.1, 0.7, 44);
        let report = IterativeSpmm::new(&a, Device::rtx4090()).amortization(64);
        let d = report.dtc_total_ms(100) - report.dtc_total_ms(99);
        assert!((d - report.dtc_iter_ms).abs() < 1e-9);
    }
}
