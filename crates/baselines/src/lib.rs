//! Baseline SpMM implementations and the one SpMM trait.
//!
//! Every SpMM engine in the workspace — the ten baselines here and
//! DTC-SpMM itself in `dtc-core` — implements [`SpmmEngine`]: an *exact*
//! numeric execution on the CPU (with TF32 rounding wherever the real
//! kernel would use Tensor Cores) plus a lowering to a
//! [`dtc_sim::KernelTrace`] that the GPU simulator turns into time,
//! pipeline utilization and instruction counts. The trait is object-safe
//! and `Send + Sync`, so the serving layer pools `Box<dyn SpmmEngine>`
//! and shares one prepared engine across request threads.
//!
//! The baselines (§5 of the paper):
//!
//! | Kernel | Hardware path | Format | Notes |
//! |---|---|---|---|
//! | [`CusparseSpmm`] | CUDA cores | CSR | the red-line normalizer |
//! | [`TcgnnSpmm`] | Tensor Cores (WMMA) | TCF | state-of-the-art TC general SpMM |
//! | [`SputnikSpmm`] | CUDA cores | CSR (1-D tiling) | int32 index limit |
//! | [`HpSpmm`] | CUDA cores | CSR (hybrid-parallel) | the paper's light-overhead alternative (§6) |
//! | [`HybridSplitSpmm`] | TC + CUDA cores | dense/sparse split | the §2.2 "orthogonal" approach |
//! | [`SparseTirSpmm`] | CUDA cores | composable ELL+CSR | compile step |
//! | [`BlockSpmm`] | Tensor Cores | Blocked-Ellpack | padding OOM |
//! | [`VectorSparseSpmm`] | Tensor Cores | CVSE | vector tiles |
//! | [`FlashLlmSpmm`] | Tensor Cores | tiled sparse | load-as-sparse-compute-as-dense |
//! | [`SpartaSpmm`] | sparse TC + CUDA | 2:4 + CSR | ≤ 50 000 rows/cols |
//!
//! # Example
//!
//! ```
//! use dtc_baselines::{CusparseSpmm, SpmmEngine};
//! use dtc_formats::{CsrMatrix, DenseMatrix};
//! use dtc_sim::Device;
//!
//! # fn main() -> Result<(), dtc_formats::FormatError> {
//! let a = CsrMatrix::from_triplets(32, 32, &[(0, 1, 2.0), (17, 30, -1.0)])?;
//! let kernel = CusparseSpmm::new(&a);
//! let c = kernel.execute(&DenseMatrix::ones(32, 64))?;
//! assert_eq!(c.get(0, 0), 2.0); // row 0 of A has a single 2.0
//! assert_eq!(c.get(1, 0), 0.0); // row 1 of A is empty
//! let report = kernel.simulate(64, &Device::rtx4090());
//! assert!(report.time_ms > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blockspmm;
mod cusparse;
mod flashllm;
mod hpspmm;
mod hybridsplit;
mod sparsetir;
mod sparta;
mod sputnik;
mod tcgnn;
pub mod util;
mod vectorsparse;

pub use blockspmm::BlockSpmm;
pub use cusparse::CusparseSpmm;
pub use flashllm::{FlashLlmSpmm, FlashLlmVersion};
pub use hpspmm::HpSpmm;
pub use hybridsplit::HybridSplitSpmm;
pub use sparsetir::SparseTirSpmm;
pub use sparta::{SpartaSpmm, SPARTA_DEFAULT_LIMIT};
pub use sputnik::SputnikSpmm;
pub use tcgnn::TcgnnSpmm;
pub use vectorsparse::VectorSparseSpmm;

use dtc_formats::{DenseMatrix, FormatError};
use dtc_sim::{Device, KernelTrace, SimOptions, SimReport};

/// A prepared SpMM engine: exact execution plus performance lowering.
///
/// Every one-time cost (reordering, format conversion, selection) is paid
/// when the engine is built; the trait exposes only the repeatable
/// operations. Implementations are `Send + Sync` so a serving pool can
/// share one prepared engine across request threads.
pub trait SpmmEngine: Send + Sync {
    /// Display name for tables and figures.
    fn name(&self) -> &str;

    /// Number of rows of the sparse operand (rows of the output).
    fn rows(&self) -> usize;

    /// Number of columns of the sparse operand (rows of the dense operand).
    fn cols(&self) -> usize;

    /// Number of structural non-zeros of the sparse operand.
    fn nnz(&self) -> usize;

    /// Exact SpMM: computes `C = A × B` with the numeric behaviour of the
    /// real kernel (TF32-rounded multiplicands on Tensor-Core paths).
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::DimensionMismatch`] when `b.rows() != self.cols()`.
    fn execute(&self, b: &DenseMatrix) -> Result<DenseMatrix, FormatError>;

    /// Lowers the kernel for an `N`-column dense operand into a
    /// per-thread-block performance trace. When `record_b_addrs` is set,
    /// the trace carries B-access sector addresses for L2 simulation.
    fn trace(&self, n: usize, device: &Device, record_b_addrs: bool) -> KernelTrace;

    /// Lowers and simulates in one call under explicit [`SimOptions`] —
    /// the single simulation entry point every engine shares. B-access
    /// addresses are recorded exactly when `options.simulate_l2` needs
    /// them. [`simulate`](Self::simulate) and
    /// [`simulate_with_l2`](Self::simulate_with_l2) are thin wrappers.
    fn simulate_with(&self, n: usize, device: &Device, options: &SimOptions) -> SimReport {
        dtc_sim::simulate(device, &self.trace(n, device, options.simulate_l2), options)
    }

    /// Convenience: lower and simulate in one call (no L2 simulation).
    fn simulate(&self, n: usize, device: &Device) -> SimReport {
        self.simulate_with(n, device, &SimOptions::default())
    }

    /// Convenience: lower with recorded addresses and simulate the L2.
    fn simulate_with_l2(&self, n: usize, device: &Device) -> SimReport {
        self.simulate_with(n, device, &SimOptions { simulate_l2: true, ..SimOptions::default() })
    }

    /// Total floating-point operations for an `N`-column SpMM: `2·N·NNZ`.
    fn flops(&self, n: usize) -> u64 {
        2 * n as u64 * self.nnz() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtc_formats::gen::{power_law, uniform};
    use dtc_formats::CsrMatrix;

    fn all_kernels(a: &CsrMatrix) -> Vec<Box<dyn SpmmEngine>> {
        vec![
            Box::new(CusparseSpmm::new(a)),
            Box::new(SputnikSpmm::new(a).unwrap()),
            Box::new(HpSpmm::new(a)),
            Box::new(HybridSplitSpmm::new(a)),
            Box::new(SparseTirSpmm::new(a)),
            Box::new(TcgnnSpmm::new(a).unwrap()),
            Box::new(BlockSpmm::new(a, 32, u64::MAX).unwrap()),
            Box::new(VectorSparseSpmm::new(a, 8).unwrap()),
            Box::new(FlashLlmSpmm::new(a, u64::MAX).unwrap()),
            Box::new(SpartaSpmm::new(a, 50_000).unwrap()),
        ]
    }

    /// All kernels must agree with the CSR reference within TF32 tolerance.
    #[test]
    fn all_kernels_match_reference() {
        let a = power_law(96, 96, 5.0, 2.2, 77);
        let b = DenseMatrix::from_fn(96, 32, |r, c| ((r * 31 + c * 7) % 13) as f32 * 0.25 - 1.0);
        let reference = a.spmm_reference(&b).unwrap();
        for k in all_kernels(&a) {
            let c = k.execute(&b).unwrap();
            let diff = c.max_abs_diff(&reference);
            assert!(
                diff <= 64.0 * 2.0 * dtc_formats::tf32::TF32_UNIT_ROUNDOFF + 1e-5,
                "{} deviates by {diff}",
                k.name()
            );
        }
    }

    /// Every kernel must produce a non-trivial trace that simulates.
    #[test]
    fn all_kernels_simulate() {
        let a = uniform(64, 64, 512, 5);
        let device = Device::rtx4090();
        for k in all_kernels(&a) {
            let r = k.simulate(128, &device);
            assert!(r.time_ms > 0.0, "{} produced zero time", k.name());
            assert!(r.num_tbs > 0, "{} launched no blocks", k.name());
            assert_eq!(k.flops(128), 2 * 128 * a.nnz() as u64, "{}", k.name());
        }
    }

    #[test]
    fn empty_matrix_executes() {
        let a = CsrMatrix::from_triplets(16, 16, &[]).unwrap();
        let b = DenseMatrix::ones(16, 8);
        let c = CusparseSpmm::new(&a).execute(&b).unwrap();
        assert_eq!(c.max_abs_diff(&DenseMatrix::zeros(16, 8)), 0.0);
    }

    /// L2 simulation path runs end to end for the kernels recording
    /// addresses.
    #[test]
    fn l2_simulation_produces_hit_rate() {
        let a = power_law(128, 128, 8.0, 2.0, 6);
        let device = Device::rtx4090();
        let r = CusparseSpmm::new(&a).simulate_with_l2(64, &device);
        let hit = r.l2_hit_rate.expect("cache simulated");
        assert!((0.0..=1.0).contains(&hit));
    }
}
