//! Flash-LLM (Xia et al., VLDB'24): Load-as-Sparse-Compute-as-Dense SpMM
//! for unstructured *weight* sparsity in LLM inference.
//!
//! The design reduces memory traffic, not computation: A tiles are loaded
//! in a compressed form (with double buffering) but the Tensor Cores
//! compute the *full dense* `M×K×N` product. Superb at 60–90 % sparsity on
//! tall-and-skinny problems; on the paper's >95 %-sparse GNN matrices the
//! dense compute is 8–15× wasted (Table 4), and format conversion stages
//! the matrix densely — OOM on YeastH-scale inputs.

use crate::util::{check_spmm_dims, distinct_col_count, estimate_b_hit_rate, sectors_per_b_row};
use crate::SpmmEngine;
use dtc_formats::tf32::round_to_tf32;
use dtc_formats::{CsrMatrix, DenseMatrix, FormatError, Precision};
use dtc_sim::occupancy::KernelResources;
use dtc_sim::{Device, KernelTrace, TbWork};

/// Rows per output tile (one thread block).
const TILE_M: usize = 128;

/// Flash-LLM version: v1 and v2 differ in the sparse-encoding pipeline
/// (Table 4 lists both; their times differ by a few percent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlashLlmVersion {
    /// First release.
    #[default]
    V1,
    /// Tuned second release.
    V2,
}

/// Flash-LLM kernel model.
#[derive(Debug, Clone)]
pub struct FlashLlmSpmm {
    a: CsrMatrix,
    distinct_cols: usize,
    version: FlashLlmVersion,
}

impl FlashLlmSpmm {
    /// Prepares the kernel. Format conversion materializes the matrix
    /// densely first (the paper: "Flash-LLM performs format conversion on
    /// matrices stored in uncompressed form ... making it prone to OOM").
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::OutOfMemory`] when the `M×K×4`-byte dense
    /// staging exceeds `device_bytes`.
    pub fn new(a: &CsrMatrix, device_bytes: u64) -> Result<Self, FormatError> {
        Self::with_version(a, device_bytes, FlashLlmVersion::V1)
    }

    /// Prepares a specific release version.
    ///
    /// # Errors
    ///
    /// Same as [`FlashLlmSpmm::new`].
    pub fn with_version(
        a: &CsrMatrix,
        device_bytes: u64,
        version: FlashLlmVersion,
    ) -> Result<Self, FormatError> {
        let staging = a.rows() as u64 * a.cols() as u64 * 4;
        if staging > device_bytes {
            return Err(FormatError::OutOfMemory {
                required_bytes: staging,
                available_bytes: device_bytes,
            });
        }
        Ok(FlashLlmSpmm { distinct_cols: distinct_col_count(a), a: a.clone(), version })
    }

    /// The release version being modeled.
    pub fn version(&self) -> FlashLlmVersion {
        self.version
    }
}

impl SpmmEngine for FlashLlmSpmm {
    fn name(&self) -> &str {
        match self.version {
            FlashLlmVersion::V1 => "Flash-LLM(v1)",
            FlashLlmVersion::V2 => "Flash-LLM(v2)",
        }
    }

    fn rows(&self) -> usize {
        self.a.rows()
    }

    fn cols(&self) -> usize {
        self.a.cols()
    }

    fn nnz(&self) -> usize {
        self.a.nnz()
    }

    fn execute(&self, b: &DenseMatrix) -> Result<DenseMatrix, FormatError> {
        check_spmm_dims(self.rows(), self.cols(), b)?;
        // Compute-as-dense on Tensor Cores: TF32 inputs, FP32 accumulate.
        // The reconstructed zeros contribute exactly 0, so only real
        // non-zeros affect numerics.
        let n = b.cols();
        let mut c = DenseMatrix::zeros(self.rows(), n);
        let b_tc = Precision::Tf32.round_dense(b);
        for (r, col, v) in self.a.iter() {
            let a_v = round_to_tf32(v);
            let b_row = b_tc.row(col);
            let out = c.row_mut(r);
            for (o, &bv) in out.iter_mut().zip(b_row) {
                *o += a_v * bv;
            }
        }
        Ok(c)
    }

    fn trace(&self, n: usize, device: &Device, _record_b_addrs: bool) -> KernelTrace {
        let n_f = n as f64;
        let k_f = self.a.cols() as f64;
        // Heavy shared-memory tiling limits occupancy.
        let mut trace = KernelTrace::new(3, 8);
        trace.set_resources(KernelResources {
            warps_per_block: 8,
            registers_per_thread: 64,
            shared_memory_per_block: 32 * 1024,
        });
        let b_row_sectors = sectors_per_b_row(n);
        // Dense-compute cost per 128-row tile: (128/16)·(K/8)·(N/8) HMMA.
        let hmma_per_tile = (TILE_M as f64 / 16.0) * (k_f / 8.0) * (n_f / 8.0);
        let version_factor = match self.version {
            FlashLlmVersion::V1 => 1.0,
            FlashLlmVersion::V2 => 1.04, // v2's extra decode stage (Table 4)
        };
        let mut total_b_sectors = 0.0;
        for start in (0..self.a.rows()).step_by(TILE_M) {
            let end = (start + TILE_M).min(self.a.rows());
            let tile_nnz: usize = (start..end).map(|r| self.a.row_len(r)).sum();
            // Load-as-sparse: ~6 bytes per non-zero (value + packed index).
            let lsu_a = tile_nnz as f64 * 6.0 / 32.0;
            // B is streamed tile-by-tile over the whole K dimension.
            let lsu_b = k_f * b_row_sectors;
            total_b_sectors += lsu_b;
            let tb = TbWork {
                alu_ops: tile_nnz as f64 * 4.0 / 32.0 + k_f / 8.0,
                lsu_a_sectors: lsu_a,
                lsu_b_sectors: lsu_b,
                smem_ops: k_f * n_f / 64.0,
                hmma_ops: hmma_per_tile * version_factor,
                hmma_count: hmma_per_tile * 2.0 * version_factor,
                epilogue_sectors: TILE_M as f64 * b_row_sectors,
                iters: k_f / 8.0,
                overlap_a_fetch: true, // their double buffering
                ..TbWork::default()
            };
            tb.debug_validate();
            trace.push(tb);
        }
        trace.assumed_l2_hit_rate =
            estimate_b_hit_rate(self.distinct_cols, total_b_sectors.max(1.0), n, device);
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtc_formats::gen::{dl_pruned, power_law};
    use dtc_formats::tf32::TF32_UNIT_ROUNDOFF;

    #[test]
    fn oom_on_big_matrices() {
        let a = power_law(4096, 4096, 3.0, 2.2, 31);
        // 4096^2*4 = 64 MiB staging vs a 32 MiB budget.
        assert!(matches!(
            FlashLlmSpmm::new(&a, 32 * 1024 * 1024),
            Err(FormatError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn matches_reference_within_tf32() {
        let a = dl_pruned(64, 64, 0.8, 32);
        let b = DenseMatrix::from_fn(64, 8, |r, c| ((r + c) % 5) as f32 * 0.4);
        let k = FlashLlmSpmm::new(&a, u64::MAX).unwrap();
        let c = k.execute(&b).unwrap();
        assert!(c.max_abs_diff(&a.spmm_reference(&b).unwrap()) < 30.0 * TF32_UNIT_ROUNDOFF);
    }

    #[test]
    fn dense_compute_independent_of_sparsity() {
        // Same shape, very different nnz: HMMA work identical
        // (compute-as-dense).
        let device = Device::rtx4090();
        let sparse = dl_pruned(128, 128, 0.95, 33);
        let denser = dl_pruned(128, 128, 0.5, 33);
        let ts = FlashLlmSpmm::new(&sparse, u64::MAX).unwrap().trace(64, &device, false);
        let td = FlashLlmSpmm::new(&denser, u64::MAX).unwrap().trace(64, &device, false);
        assert_eq!(ts.total_hmma_ops(), td.total_hmma_ops());
    }

    #[test]
    fn v2_slightly_different_from_v1() {
        let a = dl_pruned(128, 128, 0.8, 34);
        let device = Device::rtx4090();
        let v1 = FlashLlmSpmm::with_version(&a, u64::MAX, FlashLlmVersion::V1)
            .unwrap()
            .simulate(64, &device);
        let v2 = FlashLlmSpmm::with_version(&a, u64::MAX, FlashLlmVersion::V2)
            .unwrap()
            .simulate(64, &device);
        assert!(v2.time_ms >= v1.time_ms);
        assert!(v2.time_ms < v1.time_ms * 1.2);
    }
}
