//! Block-SpMM: cuSPARSE's Tensor-Core SpMM over the Blocked-Ellpack
//! format (`CUSPARSE_FORMAT_BLOCKED_ELL`).
//!
//! Every stored (and padded) `bs × bs` block runs a dense Tensor-Core
//! multiply — extremely efficient when the sparsity is block-structured,
//! and extremely wasteful on the unstructured GNN/SC matrices the paper
//! targets, where [`dtc_formats::BellMatrix::fill_ratio`] collapses and the
//! ELL padding can exhaust device memory (Fig 12: DTC wins 1.14–23.51×).

use crate::util::{
    check_spmm_dims, distinct_col_count, estimate_b_hit_rate, push_b_row_sectors, sectors_per_b_row,
};
use crate::SpmmEngine;
use dtc_formats::tf32::round_to_tf32;
use dtc_formats::{BellMatrix, CsrMatrix, DenseMatrix, FormatError, Precision};
use dtc_sim::occupancy::KernelResources;
use dtc_sim::{Device, KernelTrace, SectorStream, TbWork};

/// Block-SpMM kernel model over BELL.
#[derive(Debug, Clone)]
pub struct BlockSpmm {
    bell: BellMatrix,
    distinct_cols: usize,
}

impl BlockSpmm {
    /// Converts to Blocked-Ellpack with the given block size (the paper
    /// evaluates 32 and 64), bounded by device memory.
    ///
    /// # Errors
    ///
    /// Propagates [`FormatError::OutOfMemory`] when the padded BELL storage
    /// exceeds `device_bytes`, and [`FormatError::NotSupported`] for a zero
    /// block size.
    pub fn new(a: &CsrMatrix, block_size: usize, device_bytes: u64) -> Result<Self, FormatError> {
        Ok(BlockSpmm {
            bell: BellMatrix::from_csr(a, block_size, device_bytes)?,
            distinct_cols: distinct_col_count(a),
        })
    }

    /// The underlying BELL representation.
    pub fn bell(&self) -> &BellMatrix {
        &self.bell
    }
}

impl SpmmEngine for BlockSpmm {
    fn name(&self) -> &str {
        "Block-SpMM"
    }

    fn rows(&self) -> usize {
        self.bell.rows()
    }

    fn cols(&self) -> usize {
        self.bell.cols()
    }

    fn nnz(&self) -> usize {
        self.bell.nnz()
    }

    fn execute(&self, b: &DenseMatrix) -> Result<DenseMatrix, FormatError> {
        check_spmm_dims(self.rows(), self.cols(), b)?;
        let n = b.cols();
        let bs = self.bell.block_size();
        let mut c = DenseMatrix::zeros(self.rows(), n);
        let b_tc = Precision::Tf32.round_dense(b);
        for br in 0..self.bell.num_block_rows() {
            for slot in 0..self.bell.blocks_per_row() {
                let Some(bc) = self.bell.slot_block_col(br, slot) else { continue };
                let vals = self.bell.slot_values(br, slot);
                let mask = self.bell.slot_mask(br, slot);
                for lr in 0..bs {
                    let gr = br * bs + lr;
                    if gr >= self.rows() {
                        break;
                    }
                    let out = c.row_mut(gr);
                    for lc in 0..bs {
                        let v = vals[lr * bs + lc];
                        if !mask[lr * bs + lc] {
                            // ELL padding costs time, not numerics; stored
                            // entries (even explicit zeros) must multiply
                            // so 0 x Inf = NaN propagates like everywhere
                            // else in the lineup.
                            continue;
                        }
                        let gc = bc as usize * bs + lc;
                        if gc >= self.cols() {
                            continue;
                        }
                        let a_v = round_to_tf32(v);
                        for (o, &bv) in out.iter_mut().zip(b_tc.row(gc)) {
                            *o += a_v * bv;
                        }
                    }
                }
            }
        }
        Ok(c)
    }

    fn trace(&self, n: usize, device: &Device, record_b_addrs: bool) -> KernelTrace {
        let n_f = n as f64;
        let bs = self.bell.block_size() as f64;
        let mut trace = KernelTrace::new(4, 8);
        trace.set_resources(KernelResources {
            warps_per_block: 8,
            registers_per_thread: 48,
            shared_memory_per_block: 24 * 1024,
        });
        let b_row_sectors = sectors_per_b_row(n);
        // Dense TC work per stored slot: (bs/16)·(bs/8)·(N/8) m16n8k8.
        let hmma_per_slot = (bs / 16.0) * (bs / 8.0) * (n_f / 8.0);
        let mut total_b_sectors = 0.0;
        let slots_per_row = self.bell.blocks_per_row() as f64;
        for br in 0..self.bell.num_block_rows() {
            let mut stored = 0.0;
            let mut addrs = SectorStream::new();
            for slot in 0..self.bell.blocks_per_row() {
                if let Some(bc) = self.bell.slot_block_col(br, slot) {
                    stored += 1.0;
                    if record_b_addrs {
                        for lc in 0..self.bell.block_size() {
                            let gc = bc as usize * self.bell.block_size() + lc;
                            if gc < self.cols() {
                                push_b_row_sectors(&mut addrs, gc, n);
                            }
                        }
                    }
                }
            }
            let lsu_b = stored * bs * b_row_sectors;
            total_b_sectors += lsu_b;
            let tb = TbWork {
                alu_ops: slots_per_row * n_f / 8.0 + 4.0,
                // A blocks are dense: bs*bs floats per slot — the uniform
                // ELL loop reads padding slots too ("the necessity to pad
                // and fill all rows of blocks", §5.2).
                lsu_a_sectors: slots_per_row * bs * bs * 4.0 / 32.0,
                lsu_b_sectors: lsu_b,
                // GEMM-style staging of A and B tiles through shared memory.
                smem_ops: slots_per_row * (bs * n_f / 32.0 + bs * bs / 32.0),
                hmma_ops: slots_per_row * hmma_per_slot,
                hmma_count: slots_per_row * hmma_per_slot * 2.0,
                epilogue_sectors: bs * b_row_sectors,
                iters: slots_per_row,
                overlap_a_fetch: true, // cuSPARSE GEMM-grade pipelining
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
    use dtc_formats::gen::{power_law, uniform};
    use dtc_formats::tf32::TF32_UNIT_ROUNDOFF;

    #[test]
    fn matches_reference_within_tf32() {
        let a = uniform(70, 70, 400, 1);
        let b = DenseMatrix::from_fn(70, 8, |r, c| ((r + c) % 9) as f32 * 0.2);
        let k = BlockSpmm::new(&a, 32, u64::MAX).unwrap();
        let c = k.execute(&b).unwrap();
        let reference = a.spmm_reference(&b).unwrap();
        assert!(c.max_abs_diff(&reference) < 30.0 * TF32_UNIT_ROUNDOFF);
    }

    #[test]
    fn oom_propagates() {
        let a = power_law(256, 256, 8.0, 2.0, 2);
        assert!(matches!(BlockSpmm::new(&a, 32, 1000), Err(FormatError::OutOfMemory { .. })));
    }

    #[test]
    fn hmma_work_scales_with_padding_not_nnz() {
        // Same nnz, one matrix scattered (many blocks), one clustered
        // (few blocks): the scattered one does far more TC work.
        let scattered: Vec<(usize, usize, f32)> =
            (0..64).map(|i| (i, (i * 37) % 64, 1.0)).collect();
        let clustered: Vec<(usize, usize, f32)> = (0..64).map(|i| (i % 16, i % 16, 1.0)).collect();
        let device = Device::rtx4090();
        let ks =
            BlockSpmm::new(&CsrMatrix::from_triplets(64, 64, &scattered).unwrap(), 16, u64::MAX)
                .unwrap();
        let kc =
            BlockSpmm::new(&CsrMatrix::from_triplets(64, 64, &clustered).unwrap(), 16, u64::MAX)
                .unwrap();
        let ts = ks.trace(128, &device, false);
        let tc = kc.trace(128, &device, false);
        assert!(ts.total_hmma_ops() > tc.total_hmma_ops() * 2.0);
    }

    #[test]
    fn block_size_64_pads_more() {
        let a = power_law(256, 256, 4.0, 2.2, 3);
        let k32 = BlockSpmm::new(&a, 32, u64::MAX).unwrap();
        let k64 = BlockSpmm::new(&a, 64, u64::MAX).unwrap();
        assert!(k64.bell().fill_ratio() <= k32.bell().fill_ratio());
    }
}
