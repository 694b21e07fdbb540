//! SparTA (Zheng et al., OSDI'22): Tensor-with-Sparsity-Attribute
//! execution of unstructured DNN weight sparsity.
//!
//! SparTA partitions the matrix into a 2:4 *structured* component (at most
//! two non-zeros per 4-wide group, runnable on sparse Tensor Cores via
//! cuSPARSELt) and an unstructured CSR remainder on CUDA cores. The
//! cuSPARSELt backend caps supported shapes — the paper reports "limited
//! to matrices with row and column counts not exceeding 50,000"
//! (Table 4: "Not Supported" on protein/reddit).

use crate::util::{check_spmm_dims, distinct_col_count, estimate_b_hit_rate, sectors_per_b_row};
use crate::SpmmKernel;
use dtc_formats::tf32::round_to_tf32;
use dtc_formats::{CsrMatrix, DenseMatrix, FormatError, Precision};
use dtc_sim::occupancy::KernelResources;
use dtc_sim::{Device, KernelTrace, TbWork};

/// SparTA's documented shape limit.
pub const SPARTA_DEFAULT_LIMIT: usize = 50_000;

/// SparTA kernel model: 2:4 split + CUDA-core remainder.
#[derive(Debug, Clone)]
pub struct SpartaSpmm {
    /// 2:4-structured component (≤ 2 nnz per 4-wide group per row).
    structured: CsrMatrix,
    /// Unstructured remainder.
    remainder: CsrMatrix,
    distinct_cols: usize,
    /// 16×16 tiles of A touched by the structured component.
    structured_tiles: usize,
}

impl SpartaSpmm {
    /// Splits the matrix into 2:4 + remainder, enforcing the shape limit.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::NotSupported`] when either dimension exceeds
    /// `limit` (pass [`SPARTA_DEFAULT_LIMIT`] for the real library's cap).
    pub fn new(a: &CsrMatrix, limit: usize) -> Result<Self, FormatError> {
        if a.rows() > limit || a.cols() > limit {
            return Err(FormatError::NotSupported(format!(
                "sparta (cuSPARSELt) supports at most {limit} rows/cols, got {}x{}",
                a.rows(),
                a.cols()
            )));
        }
        // 2:4 split: within each row, at most 2 non-zeros per group of 4
        // consecutive columns go to the structured part.
        let mut s_trip: Vec<(usize, usize, f32)> = Vec::new();
        let mut r_trip: Vec<(usize, usize, f32)> = Vec::new();
        for r in 0..a.rows() {
            let (cols, vals) = a.row_entries(r);
            let mut group = usize::MAX;
            let mut in_group = 0;
            for (&c, &v) in cols.iter().zip(vals) {
                let g = c as usize / 4;
                if g != group {
                    group = g;
                    in_group = 0;
                }
                if in_group < 2 {
                    s_trip.push((r, c as usize, v));
                    in_group += 1;
                } else {
                    r_trip.push((r, c as usize, v));
                }
            }
        }
        let structured = CsrMatrix::from_triplets(a.rows(), a.cols(), &s_trip)?;
        let remainder = CsrMatrix::from_triplets(a.rows(), a.cols(), &r_trip)?;
        // Count 16x16 A tiles with structured content (sparse-TC workload).
        let tile_cols = a.cols().div_ceil(16);
        let mut touched = std::collections::HashSet::new();
        for (r, c, _) in structured.iter() {
            touched.insert((r / 16) * tile_cols + c / 16);
        }
        Ok(SpartaSpmm {
            structured,
            remainder,
            distinct_cols: distinct_col_count(a),
            structured_tiles: touched.len(),
        })
    }

    /// Fraction of the non-zeros captured by the 2:4 component.
    pub fn structured_fraction(&self) -> f64 {
        let total = self.structured.nnz() + self.remainder.nnz();
        if total == 0 {
            0.0
        } else {
            self.structured.nnz() as f64 / total as f64
        }
    }
}

impl SpmmKernel for SpartaSpmm {
    fn name(&self) -> &str {
        "SparTA"
    }

    fn rows(&self) -> usize {
        self.structured.rows()
    }

    fn cols(&self) -> usize {
        self.structured.cols()
    }

    fn nnz(&self) -> usize {
        self.structured.nnz() + self.remainder.nnz()
    }

    fn execute(&self, b: &DenseMatrix) -> Result<DenseMatrix, FormatError> {
        check_spmm_dims(self.rows(), self.cols(), b)?;
        // Structured half on (sparse) Tensor Cores: TF32 rounding.
        let n = b.cols();
        let mut c = DenseMatrix::zeros(self.rows(), n);
        let b_tc = Precision::Tf32.round_dense(b);
        for (r, col, v) in self.structured.iter() {
            let a_v = round_to_tf32(v);
            let out = c.row_mut(r);
            for (o, &bv) in out.iter_mut().zip(b_tc.row(col)) {
                *o += a_v * bv;
            }
        }
        // Remainder on CUDA cores: full FP32.
        let rem = self.remainder.spmm_reference(b)?;
        for (o, &rv) in c.as_mut_slice().iter_mut().zip(rem.as_slice()) {
            *o += rv;
        }
        Ok(c)
    }

    fn trace(&self, n: usize, device: &Device, _record_b_addrs: bool) -> KernelTrace {
        let n_f = n as f64;
        let mut trace = KernelTrace::new(6, 8);
        trace.set_resources(KernelResources {
            warps_per_block: 8,
            registers_per_thread: 40,
            shared_memory_per_block: 16 * 1024,
        });
        let b_row_sectors = sectors_per_b_row(n);
        let mut total_b_sectors = 0.0;

        // Structured component: sparse-TC tiles. Each touched 16x16 tile
        // runs m16n8k16-style sparse MMA over N at 2x dense throughput.
        let tiles_per_tb = 16usize;
        let tile_ids: Vec<usize> = (0..self.structured_tiles).collect();
        for chunk in tile_ids.chunks(tiles_per_tb) {
            let t = chunk.len() as f64;
            // Per tile: (N/8) k8-equiv halved by 2:4 sparse speedup.
            let hmma = t * (n_f / 8.0) * 0.5 * 2.0; // k=16 -> two k8 halves
            let lsu_b = t * 16.0 * b_row_sectors;
            total_b_sectors += lsu_b;
            let tb = TbWork {
                alu_ops: t * n_f / 16.0,
                lsu_a_sectors: t * (16.0 * 8.0 * 4.0 + 64.0) / 32.0, // values + metadata
                lsu_b_sectors: lsu_b,
                smem_ops: t * n_f / 8.0,
                hmma_ops: hmma,
                hmma_count: hmma * 2.0,
                epilogue_sectors: t * 16.0 * b_row_sectors / 4.0,
                iters: t,
                overlap_a_fetch: true,
                ..TbWork::default()
            };
            tb.debug_validate();
            trace.push(tb);
        }
        // Remainder: cuSPARSE-like row-split CUDA-core pass.
        for start in (0..self.remainder.rows()).step_by(32) {
            let end = (start + 32).min(self.remainder.rows());
            let l: f64 = (start..end).map(|r| self.remainder.row_len(r) as f64).sum();
            if l == 0.0 {
                continue;
            }
            let lsu_b = l * b_row_sectors;
            total_b_sectors += lsu_b;
            let tb = TbWork {
                fp_ops: l * n_f / 32.0,
                alu_ops: l * n_f / 64.0,
                lsu_a_sectors: l / 4.0,
                lsu_b_sectors: lsu_b,
                epilogue_sectors: (end - start) as f64 * b_row_sectors,
                iters: l / 8.0,
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
    fn shape_limit_enforced() {
        let a = power_law(100, 100, 3.0, 2.2, 41);
        assert!(SpartaSpmm::new(&a, 99).is_err());
        assert!(SpartaSpmm::new(&a, 100).is_ok());
    }

    #[test]
    fn split_preserves_all_nonzeros() {
        let a = dl_pruned(64, 64, 0.6, 42);
        let k = SpartaSpmm::new(&a, SPARTA_DEFAULT_LIMIT).unwrap();
        assert_eq!(k.nnz(), a.nnz());
    }

    #[test]
    fn two_four_constraint_holds() {
        let a = dl_pruned(32, 64, 0.3, 43); // dense enough to overflow groups
        let k = SpartaSpmm::new(&a, SPARTA_DEFAULT_LIMIT).unwrap();
        for r in 0..k.structured.rows() {
            let (cols, _) = k.structured.row_entries(r);
            let mut counts = std::collections::HashMap::new();
            for &c in cols {
                *counts.entry(c / 4).or_insert(0usize) += 1;
            }
            assert!(counts.values().all(|&c| c <= 2), "2:4 violated in row {r}");
        }
        // Dense rows must spill something to the remainder.
        assert!(k.remainder.nnz() > 0);
    }

    #[test]
    fn matches_reference_within_tf32() {
        let a = dl_pruned(48, 48, 0.7, 44);
        let b = DenseMatrix::from_fn(48, 8, |r, c| ((r * 5 + c) % 7) as f32 * 0.25);
        let k = SpartaSpmm::new(&a, SPARTA_DEFAULT_LIMIT).unwrap();
        let c = k.execute(&b).unwrap();
        assert!(c.max_abs_diff(&a.spmm_reference(&b).unwrap()) < 40.0 * TF32_UNIT_ROUNDOFF);
    }

    #[test]
    fn highly_sparse_matrices_mostly_structured() {
        // In SparTA's regime — DL weight pruning at >95% sparsity — nearly
        // every nnz fits the 2:4 budget, but the tile count (and hence TC
        // work) stays high: the paper's point. (Skewed graphs behave
        // differently: heavy rows overflow their 4-column groups.)
        let a = dl_pruned(512, 512, 0.95, 45);
        let k = SpartaSpmm::new(&a, SPARTA_DEFAULT_LIMIT).unwrap();
        assert!(k.structured_fraction() > 0.9);
        assert!(k.structured_tiles > 100);
        let skewed = power_law(512, 512, 4.0, 2.2, 45);
        let ks = SpartaSpmm::new(&skewed, SPARTA_DEFAULT_LIMIT).unwrap();
        assert!(ks.structured_fraction() < k.structured_fraction());
    }
}
