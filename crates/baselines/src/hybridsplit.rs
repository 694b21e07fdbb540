//! Hybrid dense/sparse splitting (Sun et al. HPEC'22, Dun et al. HPEC'23;
//! ASpT-style adaptive tiling): partition the matrix into a *dense part*
//! of heavily shared columns that Tensor Cores process efficiently, and a
//! *sparse residue* handled by CUDA cores.
//!
//! §2.2: "They employed a block-sparse routine to process dense parts with
//! TCs and CUDA cores for sparse segments, respectively. Our approach is
//! orthogonal to theirs and can enhance the performance of their dense
//! parts segment." This model lets that comparison be made concrete.

use crate::util::{
    check_spmm_dims, distinct_col_count, estimate_b_hit_rate, n_tiles, push_b_tile_sectors,
    sectors_per_b_row, N_TILE,
};
use crate::SpmmKernel;
use dtc_formats::tf32::round_to_tf32;
use dtc_formats::{Condensed, CsrMatrix, DenseMatrix, FormatError, Precision};
use dtc_sim::occupancy::KernelResources;
use dtc_sim::{Device, KernelTrace, SectorStream, TbWork};

/// Hybrid dense/sparse split SpMM.
#[derive(Debug, Clone)]
pub struct HybridSplitSpmm {
    /// Columns dense enough (per 16-row window) for the TC path.
    dense: CsrMatrix,
    /// Everything else, on CUDA cores.
    sparse: CsrMatrix,
    dense_condensed: Condensed,
    distinct_cols: usize,
    threshold: usize,
}

impl HybridSplitSpmm {
    /// Splits with the default density threshold: a window-column goes to
    /// the dense part when at least half its 16 rows use it.
    pub fn new(a: &CsrMatrix) -> Self {
        Self::with_threshold(a, 8)
    }

    /// Splits with an explicit per-window column-count threshold
    /// (`1..=16`; higher = stricter dense part).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero or exceeds 16.
    pub fn with_threshold(a: &CsrMatrix, threshold: usize) -> Self {
        assert!((1..=16).contains(&threshold), "threshold must be in 1..=16");
        let condensed = Condensed::from_csr(a);
        let mut dense_t: Vec<(usize, usize, f32)> = Vec::new();
        let mut sparse_t: Vec<(usize, usize, f32)> = Vec::new();
        for w in condensed.windows() {
            // Count entries per compressed column of this window.
            let mut per_col = vec![0u8; w.unique_cols.len()];
            for e in &w.entries {
                per_col[e.comp_col as usize] += 1;
            }
            for e in &w.entries {
                let row = w.start_row + e.local_row as usize;
                let entry = (row, e.orig_col as usize, e.value);
                if per_col[e.comp_col as usize] as usize >= threshold {
                    dense_t.push(entry);
                } else {
                    sparse_t.push(entry);
                }
            }
        }
        let dense = CsrMatrix::from_triplets(a.rows(), a.cols(), &dense_t)
            .expect("split entries stay in range");
        let sparse = CsrMatrix::from_triplets(a.rows(), a.cols(), &sparse_t)
            .expect("split entries stay in range");
        HybridSplitSpmm {
            dense_condensed: Condensed::from_csr(&dense),
            dense,
            sparse,
            distinct_cols: distinct_col_count(a),
            threshold,
        }
    }

    /// Fraction of the non-zeros routed to the Tensor-Core dense part.
    pub fn dense_fraction(&self) -> f64 {
        let total = self.dense.nnz() + self.sparse.nnz();
        if total == 0 {
            0.0
        } else {
            self.dense.nnz() as f64 / total as f64
        }
    }

    /// The split threshold in effect.
    pub fn threshold(&self) -> usize {
        self.threshold
    }
}

impl SpmmKernel for HybridSplitSpmm {
    fn name(&self) -> &str {
        "HybridSplit"
    }

    fn rows(&self) -> usize {
        self.dense.rows()
    }

    fn cols(&self) -> usize {
        self.dense.cols()
    }

    fn nnz(&self) -> usize {
        self.dense.nnz() + self.sparse.nnz()
    }

    fn execute(&self, b: &DenseMatrix) -> Result<DenseMatrix, FormatError> {
        check_spmm_dims(self.rows(), self.cols(), b)?;
        // Dense part on Tensor Cores (TF32), residue on CUDA cores (FP32).
        let n = b.cols();
        let mut c = DenseMatrix::zeros(self.rows(), n);
        let b_tc = Precision::Tf32.round_dense(b);
        for (r, col, v) in self.dense.iter() {
            let a_v = round_to_tf32(v);
            let out = c.row_mut(r);
            for (o, &bv) in out.iter_mut().zip(b_tc.row(col)) {
                *o += a_v * bv;
            }
        }
        let rem = self.sparse.spmm_reference(b)?;
        for (o, &rv) in c.as_mut_slice().iter_mut().zip(rem.as_slice()) {
            *o += rv;
        }
        Ok(c)
    }

    fn trace(&self, n: usize, device: &Device, record_b_addrs: bool) -> KernelTrace {
        let n_f = n as f64;
        let mut trace = KernelTrace::new(6, 8);
        trace.set_resources(KernelResources {
            warps_per_block: 8,
            registers_per_thread: 40,
            shared_memory_per_block: 12 * 1024,
        });
        let b_row_sectors = sectors_per_b_row(n);
        let mut total_b_sectors = 0.0;

        // Dense part: one TB per row window of TC blocks (dense blocks by
        // construction, so the per-block efficiency is high).
        for w in self.dense_condensed.windows() {
            if w.nnz() == 0 {
                continue;
            }
            let nblk = w.num_blocks() as f64;
            let mut addrs = SectorStream::new();
            if record_b_addrs {
                for block in w.blocks() {
                    for &c in block.cols {
                        push_b_tile_sectors(&mut addrs, c as usize, n, 0, b_row_sectors as u64);
                    }
                }
            }
            let lsu_b: f64 = w.blocks().map(|b| b.cols.len() as f64 * b_row_sectors).sum();
            total_b_sectors += lsu_b;
            let tb = TbWork {
                alu_ops: nblk * n_f / 4.0,
                lsu_a_sectors: w.nnz() as f64 * 6.0 / 32.0,
                lsu_b_sectors: lsu_b,
                smem_ops: nblk * n_f / 16.0,
                hmma_ops: nblk * n_f / 8.0,
                hmma_count: nblk * n_f / 4.0,
                epilogue_sectors: 16.0 * b_row_sectors,
                iters: nblk,
                overlap_a_fetch: true,
                b_stream: addrs,
                ..TbWork::default()
            };
            tb.debug_validate();
            trace.push(tb);
        }
        // Sparse residue: cuSPARSE-style row strips x N tiles.
        let tiles = n_tiles(n);
        for tile in 0..tiles {
            let w_cols = (n - tile * N_TILE).min(N_TILE) as f64;
            let tile_sectors = (w_cols * 4.0 / 32.0).max(1.0);
            for start in (0..self.sparse.rows()).step_by(32) {
                let end = (start + 32).min(self.sparse.rows());
                let l: f64 = (start..end).map(|r| self.sparse.row_len(r) as f64).sum();
                if l == 0.0 {
                    continue;
                }
                let lsu_b = l * tile_sectors;
                total_b_sectors += lsu_b;
                let tb = TbWork {
                    fp_ops: l * w_cols / 32.0,
                    alu_ops: l * w_cols / 64.0,
                    lsu_a_sectors: l / 4.0,
                    lsu_b_sectors: lsu_b,
                    epilogue_sectors: (end - start) as f64 * tile_sectors,
                    iters: l / 8.0,
                    ..TbWork::default()
                };
                tb.debug_validate();
                trace.push(tb);
            }
        }
        trace.assumed_l2_hit_rate =
            estimate_b_hit_rate(self.distinct_cols, total_b_sectors.max(1.0), n, device);
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtc_formats::gen::{community_with_shuffle, power_law, uniform};
    use dtc_formats::tf32::TF32_UNIT_ROUNDOFF;

    #[test]
    fn split_preserves_all_nonzeros() {
        let a = power_law(128, 128, 8.0, 2.1, 91);
        let k = HybridSplitSpmm::new(&a);
        assert_eq!(k.nnz(), a.nnz());
    }

    #[test]
    fn matches_reference_within_tf32() {
        let a = community_with_shuffle(96, 96, 6, 8.0, 0.9, 0.2, 92);
        let b = DenseMatrix::from_fn(96, 8, |r, c| ((r * 3 + c) % 7) as f32 * 0.3);
        let k = HybridSplitSpmm::new(&a);
        let diff = k.execute(&b).unwrap().max_abs_diff(&a.spmm_reference(&b).unwrap());
        assert!(diff < 40.0 * TF32_UNIT_ROUNDOFF, "diff={diff}");
    }

    #[test]
    fn dense_fraction_tracks_structure() {
        // Shared columns (everyone hits col 0-7) -> mostly dense part.
        let t: Vec<(usize, usize, f32)> =
            (0..64).flat_map(|r| (0..8).map(move |c| (r, c, 1.0))).collect();
        let shared = CsrMatrix::from_triplets(64, 64, &t).unwrap();
        assert!(HybridSplitSpmm::new(&shared).dense_fraction() > 0.9);
        // Uniform scatter -> almost everything lands in the residue.
        let scattered = uniform(256, 4096, 1024, 93);
        assert!(HybridSplitSpmm::new(&scattered).dense_fraction() < 0.2);
    }

    #[test]
    fn threshold_is_monotone() {
        let a = community_with_shuffle(256, 256, 16, 10.0, 0.9, 0.2, 94);
        let loose = HybridSplitSpmm::with_threshold(&a, 2).dense_fraction();
        let strict = HybridSplitSpmm::with_threshold(&a, 14).dense_fraction();
        assert!(loose >= strict, "loose={loose} strict={strict}");
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn zero_threshold_rejected() {
        HybridSplitSpmm::with_threshold(&uniform(8, 8, 8, 95), 0);
    }

    #[test]
    fn simulates_end_to_end() {
        let a = community_with_shuffle(256, 256, 16, 10.0, 0.9, 0.2, 96);
        let r = HybridSplitSpmm::new(&a).simulate(128, &Device::rtx4090());
        assert!(r.time_ms > 0.0);
        assert!(r.hmma_count > 0.0, "dense part must use Tensor Cores");
        assert!(r.num_tbs > 0);
    }
}
