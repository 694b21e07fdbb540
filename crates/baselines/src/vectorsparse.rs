//! VectorSparse (Chen et al., SC'21): fine-grained column-vector sparsity
//! on Tensor Cores via the CVSE format.
//!
//! Finer than BELL blocks (vectors of 4 or 8 rows), so padding waste is
//! lower — but still proportional to `vector_len / avg-nnz-per-vector`,
//! which on the paper's unstructured matrices leaves DTC-SpMM 1.89–4.95×
//! ahead (Fig 12).

use crate::util::{
    check_spmm_dims, distinct_col_count, estimate_b_hit_rate, push_b_row_sectors, sectors_per_b_row,
};
use crate::SpmmEngine;
use dtc_formats::tf32::round_to_tf32;
use dtc_formats::{CsrMatrix, CvseMatrix, DenseMatrix, FormatError, Precision};
use dtc_sim::occupancy::KernelResources;
use dtc_sim::{Device, KernelTrace, SectorStream, TbWork};

/// Row groups per thread block.
const GROUPS_PER_TB: usize = 8;

/// VectorSparse kernel model over CVSE.
#[derive(Debug, Clone)]
pub struct VectorSparseSpmm {
    cvse: CvseMatrix,
    distinct_cols: usize,
}

impl VectorSparseSpmm {
    /// Converts to CVSE with the given vector length (the paper evaluates
    /// 4 and 8).
    ///
    /// # Errors
    ///
    /// Propagates [`FormatError::NotSupported`] for a zero vector length.
    pub fn new(a: &CsrMatrix, vector_len: usize) -> Result<Self, FormatError> {
        Ok(VectorSparseSpmm {
            cvse: CvseMatrix::from_csr(a, vector_len)?,
            distinct_cols: distinct_col_count(a),
        })
    }

    /// The underlying CVSE representation.
    pub fn cvse(&self) -> &CvseMatrix {
        &self.cvse
    }
}

impl SpmmEngine for VectorSparseSpmm {
    fn name(&self) -> &str {
        "VectorSparse"
    }

    fn rows(&self) -> usize {
        self.cvse.rows()
    }

    fn cols(&self) -> usize {
        self.cvse.cols()
    }

    fn nnz(&self) -> usize {
        self.cvse.nnz()
    }

    fn execute(&self, b: &DenseMatrix) -> Result<DenseMatrix, FormatError> {
        check_spmm_dims(self.rows(), self.cols(), b)?;
        let n = b.cols();
        let vlen = self.cvse.vector_len();
        let mut c = DenseMatrix::zeros(self.rows(), n);
        let b_tc = Precision::Tf32.round_dense(b);
        for g in 0..self.cvse.num_groups() {
            let (cols, vals) = self.cvse.group(g);
            let mask = self.cvse.group_mask(g);
            for (i, &col) in cols.iter().enumerate() {
                let b_row = b_tc.row(col as usize);
                for lr in 0..vlen {
                    let v = vals[i * vlen + lr];
                    if !mask[i * vlen + lr] {
                        // Vector padding costs time, not numerics; stored
                        // entries (even explicit zeros) must multiply so
                        // 0 x Inf = NaN propagates like everywhere else in
                        // the lineup.
                        continue;
                    }
                    let gr = g * vlen + lr;
                    if gr >= self.rows() {
                        break;
                    }
                    let a_v = round_to_tf32(v);
                    let out = c.row_mut(gr);
                    for (o, &bv) in out.iter_mut().zip(b_row) {
                        *o += a_v * bv;
                    }
                }
            }
        }
        Ok(c)
    }

    fn trace(&self, n: usize, device: &Device, record_b_addrs: bool) -> KernelTrace {
        let n_f = n as f64;
        let vlen = self.cvse.vector_len() as f64;
        let mut trace = KernelTrace::new(6, 8);
        trace.set_resources(KernelResources {
            warps_per_block: 8,
            registers_per_thread: 40,
            shared_memory_per_block: 12 * 1024,
        });
        let b_row_sectors = sectors_per_b_row(n);
        // Each 8-vector tile of one group feeds an MMA covering vlen rows x
        // 8 columns; tiles of 16/vlen groups pack into full 16-row MMAs at
        // ~90 % packing efficiency.
        let mut total_b_sectors = 0.0;
        let groups: Vec<usize> = (0..self.cvse.num_groups()).collect();
        for chunk in groups.chunks(GROUPS_PER_TB) {
            let mut slots = 0.0; // 8-vector tiles
            let mut vectors = 0.0;
            let mut addrs = SectorStream::new();
            for &g in chunk {
                let (cols, _) = self.cvse.group(g);
                slots += (cols.len() as f64 / 8.0).ceil();
                vectors += cols.len() as f64;
                if record_b_addrs {
                    for &c in cols {
                        push_b_row_sectors(&mut addrs, c as usize, n);
                    }
                }
            }
            let hmma = slots * (vlen / 16.0) * (n_f / 8.0) / 0.9;
            let lsu_b = vectors * b_row_sectors;
            total_b_sectors += lsu_b;
            let tb = TbWork {
                alu_ops: vectors * 2.0 / 32.0 + slots * n_f / 16.0,
                lsu_a_sectors: vectors * (vlen * 4.0 + 4.0) / 32.0,
                lsu_b_sectors: lsu_b,
                smem_ops: slots * n_f / 16.0,
                hmma_ops: hmma,
                hmma_count: hmma * 2.0,
                epilogue_sectors: chunk.len() as f64 * vlen * b_row_sectors,
                iters: slots,
                overlap_a_fetch: true,
                b_stream: addrs,
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
    use dtc_formats::gen::power_law;
    use dtc_formats::tf32::TF32_UNIT_ROUNDOFF;

    #[test]
    fn matches_reference_within_tf32() {
        let a = power_law(60, 60, 4.0, 2.2, 21);
        let b = DenseMatrix::from_fn(60, 8, |r, c| ((r * 2 + c) % 11) as f32 * 0.15);
        for vlen in [4, 8] {
            let k = VectorSparseSpmm::new(&a, vlen).unwrap();
            let c = k.execute(&b).unwrap();
            assert!(c.max_abs_diff(&a.spmm_reference(&b).unwrap()) < 20.0 * TF32_UNIT_ROUNDOFF);
        }
    }

    #[test]
    fn vlen8_pads_more_than_vlen4_on_sparse_rows() {
        let a = power_law(256, 256, 2.0, 2.2, 22);
        let device = Device::rtx4090();
        let t4 = VectorSparseSpmm::new(&a, 4).unwrap().trace(128, &device, false);
        let t8 = VectorSparseSpmm::new(&a, 8).unwrap().trace(128, &device, false);
        // vlen 8 stores fewer-but-taller vectors; with lonely non-zeros the
        // TC work per useful non-zero is no better than vlen 4.
        assert!(t8.total_hmma_ops() >= t4.total_hmma_ops() * 0.5);
    }

    #[test]
    fn trace_nonempty() {
        let a = power_law(64, 64, 4.0, 2.2, 23);
        let t = VectorSparseSpmm::new(&a, 4).unwrap().trace(64, &Device::rtx4090(), false);
        assert!(t.num_tbs() > 0);
        assert!(t.total_hmma_ops() > 0.0);
    }
}
