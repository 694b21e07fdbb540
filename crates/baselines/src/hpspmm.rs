//! HP-SpMM (Fan et al., IPDPS'23): hybrid-parallel CUDA-core SpMM for GNN
//! training.
//!
//! The paper cites it twice: as prior art on load imbalance (§2.2) and as
//! the recommended *light-overhead* system "for scenarios with varying
//! input sparse matrices in each SpMM execution" (§6) — it consumes CSR
//! directly, so there is no conversion to amortize.
//!
//! The hybrid-parallel strategy assigns short rows to warps in batches and
//! splits long rows across multiple warps, with the split threshold chosen
//! from the average row length.

use crate::util::{
    check_spmm_dims, distinct_col_count, estimate_b_hit_rate, n_tiles, push_b_tile_sectors, N_TILE,
};
use crate::SpmmEngine;
use dtc_formats::{CsrMatrix, DenseMatrix, FormatError};
use dtc_sim::occupancy::KernelResources;
use dtc_sim::{Device, KernelTrace, SectorStream, TbWork};

/// Warp-batches of short rows / row-fragments per thread block.
const UNITS_PER_TB: usize = 8;

/// HP-SpMM kernel model.
#[derive(Debug, Clone)]
pub struct HpSpmm {
    a: CsrMatrix,
    distinct_cols: usize,
    /// Non-zeros above which a row is split across warps.
    split_threshold: usize,
}

impl HpSpmm {
    /// Prepares the kernel: picks the hybrid split threshold from the
    /// average row length (1.5x the mean, at least one warp's worth), so
    /// rows in the heavy tail shatter into balanced fragments.
    pub fn new(a: &CsrMatrix) -> Self {
        let avg = if a.rows() == 0 { 0.0 } else { a.nnz() as f64 / a.rows() as f64 };
        HpSpmm {
            distinct_cols: distinct_col_count(a),
            split_threshold: ((avg * 1.5) as usize).max(32),
            a: a.clone(),
        }
    }

    /// The split threshold in effect.
    pub fn split_threshold(&self) -> usize {
        self.split_threshold
    }

    /// The per-row work units (row fragments) the hybrid strategy creates:
    /// short rows map to one unit; long rows shatter into
    /// `ceil(len / split_threshold)` units.
    pub fn work_units(&self) -> Vec<(u32, usize)> {
        let mut units = Vec::new();
        for r in 0..self.a.rows() {
            let len = self.a.row_len(r);
            if len == 0 {
                continue;
            }
            let pieces = len.div_ceil(self.split_threshold);
            let base = len / pieces;
            let mut rem = len % pieces;
            for _ in 0..pieces {
                let take = base + usize::from(rem > 0);
                rem = rem.saturating_sub(1);
                units.push((r as u32, take));
            }
        }
        units
    }
}

impl SpmmEngine for HpSpmm {
    fn name(&self) -> &str {
        "HP-SpMM"
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
        check_spmm_dims(self.a.rows(), self.a.cols(), b)?;
        // CUDA-core FP32 path: identical sums to the reference (the split
        // fragments of a row add associatively in FP32 exactly because the
        // reference also walks the row left to right).
        self.a.spmm_reference(b)
    }

    fn trace(&self, n: usize, device: &Device, record_b_addrs: bool) -> KernelTrace {
        // 8 blocks x 8 warps would claim 64 warp slots against Ada's 48; the
        // register-file-legal occupancy for this launch shape is 6.
        let mut trace = KernelTrace::new(6, 8);
        trace.set_resources(KernelResources {
            warps_per_block: 8,
            registers_per_thread: 32,
            shared_memory_per_block: 4096,
        });
        let mut total_b_sectors = 0.0;
        let units = self.work_units();
        let tiles = n_tiles(n);
        for tile in 0..tiles {
            let w = (n - tile * N_TILE).min(N_TILE) as f64;
            let tile_sectors = (w * 4.0 / 32.0).max(1.0);
            for chunk in units.chunks(UNITS_PER_TB) {
                let l: f64 = chunk.iter().map(|&(_, len)| len as f64).sum();
                let max_unit = chunk.iter().map(|&(_, len)| len).max().unwrap_or(0);
                let mut addrs = SectorStream::new();
                if record_b_addrs {
                    // Fragment boundaries do not matter for traffic; record
                    // per-row ranges.
                    for &(r, _) in chunk {
                        for &c in self.a.row_entries(r as usize).0.iter().take(max_unit) {
                            push_b_tile_sectors(
                                &mut addrs,
                                c as usize,
                                n,
                                (tile * N_TILE) as u64 / 8,
                                tile_sectors as u64,
                            );
                        }
                    }
                }
                let lsu_b = l * tile_sectors;
                total_b_sectors += lsu_b;
                let tb = TbWork {
                    fp_ops: l * w / 32.0,
                    // Hybrid dispatch costs a little more index math than
                    // Sputnik's fully aligned tiles, less than row-split.
                    alu_ops: l * w / 96.0 + l / 8.0 + 4.0,
                    lsu_a_sectors: l / 4.0,
                    lsu_b_sectors: lsu_b,
                    // Split rows combine partials with atomics.
                    atom_ops: chunk.iter().filter(|&&(_, len)| len >= self.split_threshold).count()
                        as f64
                        * w
                        / 32.0,
                    epilogue_sectors: chunk.len() as f64 * tile_sectors,
                    iters: max_unit as f64 / 4.0,
                    b_stream: addrs,
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
    use crate::CusparseSpmm;
    use dtc_formats::gen::{long_row, power_law, uniform};

    #[test]
    fn matches_reference() {
        let a = power_law(100, 100, 6.0, 2.2, 81);
        let b = DenseMatrix::from_fn(100, 8, |r, c| ((r + c) % 5) as f32 * 0.5);
        assert_eq!(HpSpmm::new(&a).execute(&b).unwrap(), a.spmm_reference(&b).unwrap());
    }

    #[test]
    fn work_units_cover_all_nonzeros() {
        let a = long_row(128, 512, 150.0, 1.2, 82);
        let k = HpSpmm::new(&a);
        let total: usize = k.work_units().iter().map(|&(_, len)| len).sum();
        assert_eq!(total, a.nnz());
        // Every unit respects the split threshold.
        for (_, len) in k.work_units() {
            assert!(len <= k.split_threshold());
        }
    }

    #[test]
    fn long_rows_are_split() {
        let a = long_row(64, 2048, 400.0, 1.0, 83);
        let k = HpSpmm::new(&a);
        let nonempty = (0..a.rows()).filter(|&r| a.row_len(r) > 0).count();
        assert!(k.work_units().len() > nonempty, "no splitting happened");
    }

    #[test]
    fn beats_cusparse_on_skewed_rows() {
        // The point of the hybrid strategy: balanced fragments.
        let a = long_row(1024, 1024, 200.0, 1.8, 84);
        let device = Device::rtx4090();
        let hp = HpSpmm::new(&a).simulate(128, &device).time_ms;
        let cus = CusparseSpmm::new(&a).simulate(128, &device).time_ms;
        assert!(hp < cus, "hp={hp} cus={cus}");
    }

    #[test]
    fn comparable_to_cusparse_on_uniform_rows() {
        let a = uniform(4096, 4096, 4096 * 8, 85);
        let device = Device::rtx4090();
        let hp = HpSpmm::new(&a).simulate(128, &device).time_ms;
        let cus = CusparseSpmm::new(&a).simulate(128, &device).time_ms;
        assert!(hp < cus * 1.2, "hp={hp} cus={cus}");
    }
}
