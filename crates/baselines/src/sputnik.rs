//! Sputnik (Gale et al., SC'20): 1-D tiling CUDA-core SpMM with
//! reverse-offset memory alignment — the strongest CUDA-core baseline in
//! the paper's evaluation.

use crate::util::{
    check_spmm_dims, distinct_col_count, estimate_b_hit_rate, n_tiles, push_b_tile_sectors, N_TILE,
};
use crate::SpmmEngine;
use dtc_formats::{CsrMatrix, DenseMatrix, FormatError};
use dtc_sim::occupancy::KernelResources;
use dtc_sim::{Device, KernelTrace, SectorStream, TbWork};

/// Non-zeros per 1-D tile (one tile = one thread block's work unit).
const NNZ_PER_TILE: usize = 256;

/// Sputnik-like 1-D tiled SpMM.
///
/// Rows are cut into fixed-size 1-D non-zero tiles, so thread-block work is
/// balanced by construction; index arithmetic is amortized by the
/// reverse-offset alignment trick (fewer IMADs per non-zero than the
/// row-split kernel). Like the real library, index computation uses `int32`
/// — matrices whose index products overflow are rejected (§5, *Datasets*:
/// "certain matrices surpass the limit, leading to a segmentation fault").
#[derive(Debug, Clone)]
pub struct SputnikSpmm {
    a: CsrMatrix,
    distinct_cols: usize,
}

impl SputnikSpmm {
    /// Prepares the kernel, enforcing the library's default `int32` index
    /// budget.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::NotSupported`] when the `nnz * 4`-byte index
    /// computation exceeds `i32::MAX`.
    pub fn new(a: &CsrMatrix) -> Result<Self, FormatError> {
        Self::with_index_limit(a, i32::MAX as u64 / 4)
    }

    /// Prepares the kernel with an explicit index budget (element count the
    /// `int32` offset math may address). The evaluation harness scales this
    /// with its datasets.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::NotSupported`] when `nnz` exceeds the limit.
    pub fn with_index_limit(a: &CsrMatrix, max_nnz: u64) -> Result<Self, FormatError> {
        if a.nnz() as u64 > max_nnz {
            return Err(FormatError::NotSupported(format!(
                "sputnik int32 index computation overflows: nnz {} > limit {max_nnz}",
                a.nnz()
            )));
        }
        Ok(SputnikSpmm { distinct_cols: distinct_col_count(a), a: a.clone() })
    }
}

impl SpmmEngine for SputnikSpmm {
    fn name(&self) -> &str {
        "Sputnik"
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
        // CUDA-core FP32 path — numerically the CSR reference.
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

        // 2-D tiling: 1-D non-zero tiles × N tiles of 32 columns. Within a
        // column tile, walk non-zeros in row order, cutting a thread block
        // every NNZ_PER_TILE non-zeros (rows may span blocks; partial sums
        // combine through a cheap reduction modeled in the epilogue).
        let tiles = n_tiles(n);
        for tile in 0..tiles {
            let w = (n - tile * N_TILE).min(N_TILE) as f64;
            let tile_sectors = (w * 4.0 / 32.0).max(1.0);
            let mut tile_nnz = 0usize;
            let mut tile_rows = 0usize;
            let mut addrs = SectorStream::new();
            let flush = |tile_nnz: &mut usize,
                         tile_rows: &mut usize,
                         addrs: &mut SectorStream,
                         trace: &mut KernelTrace,
                         total_b: &mut f64| {
                if *tile_nnz == 0 {
                    return;
                }
                let l = *tile_nnz as f64;
                let lsu_b = l * tile_sectors;
                *total_b += lsu_b;
                let tb = TbWork {
                    fp_ops: l * w / 32.0,
                    // Reverse-offset alignment halves the per-FMA index math.
                    alu_ops: l * w / 128.0 + l / 16.0 + 2.0,
                    lsu_a_sectors: l / 4.0,
                    lsu_b_sectors: lsu_b,
                    epilogue_sectors: (*tile_rows as f64 + 1.0) * tile_sectors,
                    // Balanced tiles: the loop length is the tile size
                    // itself, divided across the warps.
                    iters: l / 8.0,
                    b_stream: std::mem::take(addrs),
                    ..TbWork::default()
                };
                tb.debug_validate();
                trace.push(tb);
                *tile_nnz = 0;
                *tile_rows = 0;
            };

            for r in 0..self.a.rows() {
                let (cols, _) = self.a.row_entries(r);
                if !cols.is_empty() {
                    tile_rows += 1;
                }
                for &c in cols {
                    if record_b_addrs {
                        push_b_tile_sectors(
                            &mut addrs,
                            c as usize,
                            n,
                            (tile * N_TILE) as u64 / 8,
                            tile_sectors as u64,
                        );
                    }
                    tile_nnz += 1;
                    if tile_nnz >= NNZ_PER_TILE {
                        flush(
                            &mut tile_nnz,
                            &mut tile_rows,
                            &mut addrs,
                            &mut trace,
                            &mut total_b_sectors,
                        );
                    }
                }
            }
            flush(&mut tile_nnz, &mut tile_rows, &mut addrs, &mut trace, &mut total_b_sectors);
        }

        trace.assumed_l2_hit_rate =
            estimate_b_hit_rate(self.distinct_cols, total_b_sectors, n, device);
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtc_formats::gen::{long_row, uniform};

    #[test]
    fn int32_limit_enforced() {
        let a = uniform(64, 64, 500, 1);
        assert!(SputnikSpmm::with_index_limit(&a, 499).is_err());
        assert!(SputnikSpmm::with_index_limit(&a, 10_000).is_ok());
    }

    #[test]
    fn matches_reference() {
        let a = uniform(80, 80, 400, 2);
        let b = DenseMatrix::from_fn(80, 8, |r, c| (r * c) as f32 * 0.01);
        let k = SputnikSpmm::new(&a).unwrap();
        assert_eq!(k.execute(&b).unwrap(), a.spmm_reference(&b).unwrap());
    }

    #[test]
    fn tiles_are_balanced_even_on_skewed_rows() {
        let a = long_row(64, 512, 150.0, 1.5, 3);
        let t = SputnikSpmm::new(&a).unwrap().trace(128, &Device::rtx4090(), false);
        let loads: Vec<f64> = t.iter_tbs().map(|tb| tb.fp_ops).collect();
        let max = loads.iter().cloned().fold(0.0, f64::max);
        let min = loads.iter().cloned().fold(f64::MAX, f64::min);
        // All but the last tile carry exactly NNZ_PER_TILE non-zeros.
        assert!(max <= min * 3.0 || loads.len() <= 2, "max={max} min={min}");
    }

    #[test]
    fn fewer_alu_ops_than_cusparse() {
        let a = uniform(128, 128, 2000, 4);
        let device = Device::rtx4090();
        let sp = SputnikSpmm::new(&a).unwrap().trace(128, &device, false);
        let cu = crate::CusparseSpmm::new(&a).trace(128, &device, false);
        let sp_alu: f64 = sp.iter_tbs().map(|t| t.alu_ops).sum();
        let cu_alu: f64 = cu.iter_tbs().map(|t| t.alu_ops).sum();
        assert!(sp_alu < cu_alu);
    }
}
