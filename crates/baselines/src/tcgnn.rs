//! TCGNN-SpMM (Wang et al., USENIX ATC'23): the state-of-the-art TC-based
//! general SpMM the paper analyses in §2.3/§3 and improves upon.
//!
//! The model reproduces TCGNN-SpMM's four structural costs:
//!
//! 1. **WMMA staging through shared memory** — B tiles are scatter-fetched
//!    with `LDG.32`, stored with `STS`, and re-loaded into fragments with
//!    `wmma::load_matrix_sync` (Fig 7, grey path);
//! 2. **Per-block window re-scan** — for every TC block, threads traverse
//!    the whole row window's edge list to find the block's non-zeros,
//!    giving the `O(window_nnz × blocks_per_window)` coordinate-IMAD
//!    blow-up behind the Type-II `#IMAD/#HMMA` ratios of Table 2;
//! 3. **No prefetching / no double buffering**;
//! 4. **One thread block per row window** — the load imbalance of Fig 3.

use crate::util::{
    check_spmm_dims, distinct_col_count, estimate_b_hit_rate, push_b_row_sectors, sectors_per_b_row,
};
use crate::SpmmEngine;
use dtc_formats::tf32::round_to_tf32;
use dtc_formats::{Condensed, CsrMatrix, DenseMatrix, FormatError, Precision, TcfMatrix};
use dtc_sim::occupancy::KernelResources;
use dtc_sim::{Device, KernelTrace, SectorStream, TbWork};

/// IMADs per scanned edge in the per-block window re-scan (per thread,
/// before the 1/32 warp normalization).
const SCAN_IMAD_PER_EDGE: f64 = 8.0;
/// IMADs of scattered-fetch address math per fetched B element.
const FETCH_IMAD_PER_ELEM: f64 = 16.0;

/// TCGNN-SpMM kernel model over the TCF format.
#[derive(Debug, Clone)]
pub struct TcgnnSpmm {
    tcf: TcfMatrix,
    condensed: Condensed,
    distinct_cols: usize,
}

impl TcgnnSpmm {
    /// Converts the matrix to TCF (SGT condensing) and prepares the kernel.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::NotSupported`] for non-square matrices —
    /// TC-GNN's documented limitation.
    pub fn new(a: &CsrMatrix) -> Result<Self, FormatError> {
        let tcf = TcfMatrix::from_csr(a)?;
        Ok(TcgnnSpmm {
            tcf,
            condensed: Condensed::from_csr(a),
            distinct_cols: distinct_col_count(a),
        })
    }

    /// The TCF representation (for footprint accounting).
    pub fn tcf(&self) -> &TcfMatrix {
        &self.tcf
    }

    /// The condensed (SGT) view.
    pub fn condensed(&self) -> &Condensed {
        &self.condensed
    }
}

impl SpmmEngine for TcgnnSpmm {
    fn name(&self) -> &str {
        "TCGNN-SpMM"
    }

    fn rows(&self) -> usize {
        self.condensed.rows()
    }

    fn cols(&self) -> usize {
        self.condensed.cols()
    }

    fn nnz(&self) -> usize {
        self.condensed.nnz()
    }

    fn execute(&self, b: &DenseMatrix) -> Result<DenseMatrix, FormatError> {
        check_spmm_dims(self.rows(), self.cols(), b)?;
        let n = b.cols();
        let mut c = DenseMatrix::zeros(self.rows(), n);
        if n == 0 {
            return Ok(c);
        }
        // Tensor-Core path: multiplicands rounded to TF32 (B once, up
        // front), FP32 accumulate.
        let b_tc = Precision::Tf32.round_dense(b);
        // One task per 16-row window, exactly the kernel's TB decomposition;
        // each window writes only its own strip of C, in serial entry order.
        let windows: Vec<_> = self.condensed.windows().collect();
        dtc_par::par_chunks_mut(c.as_mut_slice(), 16 * n, |wi, strip| {
            let w = windows[wi];
            debug_assert_eq!(w.start_row, wi * 16);
            for block in w.blocks() {
                for e in block.entries {
                    let local_row = e.local_row as usize;
                    let a_v = round_to_tf32(e.value);
                    let b_row = b_tc.row(e.orig_col as usize);
                    let out = &mut strip[local_row * n..(local_row + 1) * n];
                    for (o, &bv) in out.iter_mut().zip(b_row) {
                        *o += a_v * bv;
                    }
                }
            }
        });
        Ok(c)
    }

    fn trace(&self, n: usize, device: &Device, record_b_addrs: bool) -> KernelTrace {
        let n_f = n as f64;
        // Shared-memory staging limits TCGNN's occupancy.
        let mut trace = KernelTrace::new(4, 8);
        trace.set_resources(KernelResources::tcgnn_spmm());
        let b_row_sectors = sectors_per_b_row(n);
        let mut total_b_sectors = 0.0;

        for w in self.condensed.windows() {
            let nnz_w = w.nnz() as f64;
            let nblk = w.num_blocks() as f64;
            let mut addrs = SectorStream::new();
            let mut lsu_b = 0.0;
            let mut hmma_ops = 0.0;
            let mut hmma_count = 0.0;
            let mut alu = 0.0;
            let mut smem = 0.0;
            for block in w.blocks() {
                // WMMA m16x16x8: N/16 mma_sync per block, 2 HMMA.m16n8k8 each.
                hmma_ops += n_f / 8.0;
                hmma_count += n_f / 4.0;
                // (2) per-block re-scan of the whole window's edges.
                alu += nnz_w * SCAN_IMAD_PER_EDGE / 32.0;
                // Scattered B fetch: 8 B-rows regardless of how many block
                // columns are real (the fragment is 16x8 padded), and the
                // per-thread element gathers only partially coalesce —
                // ~1.5 sectors of traffic per useful sector.
                lsu_b += 8.0 * b_row_sectors * 1.5;
                // Address math per fetched element.
                alu += 8.0 * n_f * FETCH_IMAD_PER_ELEM / 32.0;
                // (1) staging: STS + load_matrix_sync LDS for the B tile,
                // plus reconstructing the sparse A tile in shared memory.
                smem += 2.0 * (8.0 * n_f / 32.0) + block.entries.len() as f64 * 2.0 / 32.0;
                if record_b_addrs {
                    for &c in block.cols {
                        push_b_row_sectors(&mut addrs, c as usize, n);
                    }
                }
            }
            total_b_sectors += lsu_b;
            let tb = TbWork {
                alu_ops: alu,
                lsu_a_sectors: nnz_w * 12.0 / 32.0, // 3 int32 arrays per nnz
                lsu_b_sectors: lsu_b,
                smem_ops: smem,
                hmma_ops,
                hmma_count,
                epilogue_sectors: 16.0 * b_row_sectors,
                iters: nblk,
                overlap_a_fetch: false, // (3) no double buffering
                b_stream: addrs,
                ..TbWork::default()
            };
            tb.debug_validate();
            trace.push(tb);
        }
        trace.assumed_l2_hit_rate =
            estimate_b_hit_rate(self.distinct_cols, total_b_sectors, n, device);
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CusparseSpmm;
    use dtc_formats::gen::{long_row, power_law};
    use dtc_formats::tf32::TF32_UNIT_ROUNDOFF;

    #[test]
    fn rejects_non_square() {
        let a = CsrMatrix::from_triplets(4, 8, &[(0, 0, 1.0)]).unwrap();
        assert!(TcgnnSpmm::new(&a).is_err());
    }

    #[test]
    fn matches_reference_within_tf32() {
        let a = power_law(80, 80, 5.0, 2.2, 9);
        let b = DenseMatrix::from_fn(80, 16, |r, c| ((r * 3 + c) % 7) as f32 * 0.3);
        let k = TcgnnSpmm::new(&a).unwrap();
        let c = k.execute(&b).unwrap();
        let reference = a.spmm_reference(&b).unwrap();
        // Each output accumulates <= max_row_len products, each with at
        // most ~2 units of TF32 roundoff on operands of magnitude <= ~2.
        let bound = 40.0 * TF32_UNIT_ROUNDOFF;
        assert!(c.max_abs_diff(&reference) < bound);
    }

    #[test]
    fn tf32_rounding_is_actually_applied() {
        // A value that TF32 perturbs: the output must differ from exact FP32.
        let v = 1.0 + f32::EPSILON * 4096.0; // needs > 10 mantissa bits
        let a = CsrMatrix::from_triplets(16, 16, &[(0, 0, v)]).unwrap();
        let b = DenseMatrix::from_fn(16, 1, |_, _| v);
        let k = TcgnnSpmm::new(&a).unwrap();
        let c = k.execute(&b).unwrap();
        let exact = v * v;
        let tf = round_to_tf32(v) * round_to_tf32(v);
        assert_eq!(c.get(0, 0), tf);
        assert_ne!(c.get(0, 0), exact);
    }

    #[test]
    fn imad_per_hmma_explodes_on_long_rows() {
        // The paper's Table 2: Type I ~13.7, Type II (reddit) ~98.5.
        let device = Device::rtx4090();
        let type1 = power_law(640, 640, 2.5, 2.2, 10);
        let type2 = long_row(640, 640, 300.0, 0.6, 11);
        let r1 = TcgnnSpmm::new(&type1).unwrap().simulate(128, &device);
        let r2 = TcgnnSpmm::new(&type2).unwrap().simulate(128, &device);
        assert!(r1.imad_per_hmma > 5.0 && r1.imad_per_hmma < 40.0, "{}", r1.imad_per_hmma);
        assert!(
            r2.imad_per_hmma > r1.imad_per_hmma * 2.0,
            "{} vs {}",
            r2.imad_per_hmma,
            r1.imad_per_hmma
        );
    }

    #[test]
    fn tc_utilization_is_low() {
        // Observation 3: utilization consistently below 8 %.
        let a = power_law(640, 640, 3.0, 2.2, 12);
        let r = TcgnnSpmm::new(&a).unwrap().simulate(128, &Device::rtx4090());
        assert!(r.tc_utilization < 0.08, "{}", r.tc_utilization);
    }

    #[test]
    fn loses_to_cusparse_on_type_ii() {
        // §1: TCGNN-SpMM "demonstrates less competitive performance
        // compared to cuSPARSE ... especially on large matrices with long
        // rows".
        let a = long_row(640, 640, 300.0, 0.6, 13);
        let device = Device::rtx4090();
        let tcgnn = TcgnnSpmm::new(&a).unwrap().simulate(128, &device);
        let cus = CusparseSpmm::new(&a).simulate(128, &device);
        assert!(tcgnn.time_ms > cus.time_ms, "tcgnn={} cus={}", tcgnn.time_ms, cus.time_ms);
    }
}
