//! The DTC-SpMM runtime kernel (Alg. 2): one thread block per row window
//! over ME-TCF, PTX-level `mma.m16n8k4`, with the §4.4 optimizations.

use super::{execute_metcf, KernelOpts};
use dtc_baselines::util::{
    check_spmm_dims, distinct_col_count, estimate_b_hit_rate, push_b_row_sectors, sectors_per_b_row,
};
use dtc_baselines::SpmmEngine;
use dtc_formats::{CsrMatrix, DenseMatrix, FormatError, MeTcfMatrix, Precision};
use dtc_sim::occupancy::KernelResources;
use dtc_sim::{Device, KernelTrace, TbWork};

/// The occupancy the paper measures for this kernel on RTX4090 (§4.5.2).
pub(crate) const DTC_OCCUPANCY: usize = 6;
/// Warps per thread block.
pub(crate) const DTC_WARPS: usize = 8;

/// The base (non-balanced) DTC-SpMM kernel.
///
/// # Example
///
/// ```
/// use dtc_core::{DtcKernel, SpmmEngine};
/// use dtc_formats::{gen, DenseMatrix};
/// use dtc_sim::Device;
///
/// # fn main() -> Result<(), dtc_formats::FormatError> {
/// let a = gen::web(256, 256, 8.0, 2.1, 0.7, 1);
/// let kernel = DtcKernel::new(&a);
/// let c = kernel.execute(&DenseMatrix::ones(256, 32))?;
/// assert_eq!(c.rows(), 256);
/// let report = kernel.simulate(32, &Device::rtx4090());
/// assert!(report.hmma_count > 0.0); // Tensor-Core path
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DtcKernel {
    metcf: MeTcfMatrix,
    opts: KernelOpts,
    precision: Precision,
    distinct_cols: usize,
}

impl DtcKernel {
    /// Converts the matrix to ME-TCF and prepares the kernel with all
    /// optimizations enabled.
    pub fn new(a: &CsrMatrix) -> Self {
        Self::with_opts(a, KernelOpts::all())
    }

    /// Prepares the kernel with an explicit optimization set (Fig 14
    /// ablation).
    pub fn with_opts(a: &CsrMatrix, opts: KernelOpts) -> Self {
        DtcKernel {
            metcf: MeTcfMatrix::from_csr(a),
            opts,
            precision: Precision::Tf32,
            distinct_cols: distinct_col_count(a),
        }
    }

    /// Wraps an existing ME-TCF matrix (used by the pipeline to share one
    /// conversion across kernels). `distinct_cols` is the number of
    /// distinct columns of the original matrix.
    pub fn from_metcf(metcf: MeTcfMatrix, distinct_cols: usize, opts: KernelOpts) -> Self {
        DtcKernel { metcf, opts, precision: Precision::Tf32, distinct_cols }
    }

    /// Switches the Tensor-Core input precision (§7: the paper's design
    /// "can be extended to support other precisions"). FP16/BF16 halve the
    /// TC-pipe time at reduced multiplicand precision.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// The optimization set in effect.
    pub fn opts(&self) -> KernelOpts {
        self.opts
    }

    /// The Tensor-Core input precision in effect.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The ME-TCF representation.
    pub fn metcf(&self) -> &MeTcfMatrix {
        &self.metcf
    }

    /// Number of distinct columns touched (shared with the balanced
    /// kernel).
    pub(crate) fn distinct_cols(&self) -> usize {
        self.distinct_cols
    }

    /// Per-block instruction mix shared by the base and balanced kernels.
    pub(crate) fn block_cost(
        metcf: &MeTcfMatrix,
        opts: KernelOpts,
        t: usize,
        n_f: f64,
        b_row_sectors: f64,
    ) -> BlockCost {
        let cols = metcf.block_cols(t);
        let (ids, _) = metcf.block_entries(t);
        let nnz_b = ids.len() as f64;
        // mma.m16n8k4: N/4 instructions per block, each half a k8-equiv.
        let hmma_count = n_f / 4.0;
        let hmma_ops = n_f / 8.0;
        // Dense-fetch address arithmetic (§4.4.1/§4.4.3): scalar LDG.32
        // needs one address per 32-bit element; LDG.128 (VFD) needs a
        // quarter of that; IP hoists most of the loop-invariant parts.
        let fetch_imad = if opts.vfd { 0.75 * n_f } else { 3.0 * n_f };
        let ip_factor = if opts.ip { 0.4 } else { 1.0 };
        // Sparse decode: TCLocalId/TCOffset lookups per non-zero.
        let decode_imad = nnz_b / 32.0 * if opts.ip { 2.0 } else { 6.0 };
        let alu = fetch_imad * ip_factor + decode_imad;
        // Shared memory: the sparse A tile is always staged (that is what
        // cp.async double-buffers); B staging only without SMB.
        let mut smem = nnz_b * 2.0 / 32.0;
        let mut extra_alu = 0.0;
        if !opts.smb {
            smem += 2.0 * (cols.len() as f64 * n_f / 32.0);
            extra_alu += 0.5 * n_f; // STS/LDS address math
        }
        BlockCost {
            alu: alu + extra_alu,
            smem,
            hmma_ops,
            hmma_count,
            lsu_a: (5.0 * nnz_b + 40.0) / 32.0,
            lsu_b: cols.len() as f64 * b_row_sectors,
        }
    }
}

/// Per-TC-block lowering cost.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BlockCost {
    pub alu: f64,
    pub smem: f64,
    pub hmma_ops: f64,
    pub hmma_count: f64,
    pub lsu_a: f64,
    pub lsu_b: f64,
}

impl SpmmEngine for DtcKernel {
    fn name(&self) -> &str {
        "DTC-SpMM"
    }

    fn rows(&self) -> usize {
        self.metcf.rows()
    }

    fn cols(&self) -> usize {
        self.metcf.cols()
    }

    fn nnz(&self) -> usize {
        self.metcf.nnz()
    }

    fn execute(&self, b: &DenseMatrix) -> Result<DenseMatrix, FormatError> {
        check_spmm_dims(self.rows(), self.cols(), b)?;
        Ok(execute_metcf(&self.metcf, b, self.precision))
    }

    fn trace(&self, n: usize, device: &Device, record_b_addrs: bool) -> KernelTrace {
        let n_f = n as f64;
        let mut trace = KernelTrace::new(DTC_OCCUPANCY, DTC_WARPS);
        trace.set_resources(KernelResources::dtc_spmm());
        let b_row_sectors = sectors_per_b_row(n);
        // One TbWork per row window, built in parallel; windows are
        // independent and the reduction below walks them in window order, so
        // the trace (including the total-sector sum feeding the L2 estimate)
        // is identical to a serial build. Shards are cut at nnz-weighted
        // points so skewed matrices don't serialize on one worker.
        let weights = self.metcf.window_nnz_weights();
        let plan = dtc_par::ShardPlan::weighted(dtc_par::num_threads(), &weights);
        let tbs = dtc_par::par_map_collect_plan(&plan, |w, _scratch| {
            let mut tb = TbWork {
                overlap_a_fetch: self.opts.sdb,
                epilogue_sectors: 16.0 * b_row_sectors,
                ..TbWork::default()
            };
            let blocks = self.metcf.window_blocks(w);
            tb.iters = blocks.len() as f64;
            let tc_mult = self.precision.tc_throughput_multiplier();
            for t in blocks {
                let cost = Self::block_cost(&self.metcf, self.opts, t, n_f, b_row_sectors);
                tb.alu_ops += cost.alu;
                tb.smem_ops += cost.smem;
                tb.hmma_ops += cost.hmma_ops / tc_mult;
                tb.hmma_count += cost.hmma_count;
                tb.lsu_a_sectors += cost.lsu_a;
                tb.lsu_b_sectors += cost.lsu_b;
                if record_b_addrs {
                    for &c in self.metcf.block_cols(t) {
                        push_b_row_sectors(&mut tb.b_stream, c as usize, n);
                    }
                }
            }
            tb
        });
        let mut total_b_sectors = 0.0;
        for tb in tbs {
            tb.debug_validate();
            total_b_sectors += tb.lsu_b_sectors;
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
    use dtc_baselines::{CusparseSpmm, TcgnnSpmm};
    use dtc_formats::gen::{long_row, power_law};
    use dtc_formats::tf32::TF32_UNIT_ROUNDOFF;

    #[test]
    fn matches_reference_within_tf32() {
        let a = power_law(128, 128, 6.0, 2.2, 61);
        let b = DenseMatrix::from_fn(128, 16, |r, c| ((r * 7 + c) % 9) as f32 * 0.3);
        let k = DtcKernel::new(&a);
        let c = k.execute(&b).unwrap();
        assert!(c.max_abs_diff(&a.spmm_reference(&b).unwrap()) < 60.0 * TF32_UNIT_ROUNDOFF);
    }

    #[test]
    fn each_optimization_helps_or_is_neutral() {
        let a = long_row(320, 320, 150.0, 0.6, 62);
        let device = Device::rtx4090();
        let mut prev = f64::INFINITY;
        for (label, opts) in KernelOpts::ablation_ladder() {
            let t = DtcKernel::with_opts(&a, opts).simulate(128, &device).time_ms;
            assert!(t <= prev * 1.02, "{label} regressed: {t} vs {prev}");
            prev = t;
        }
    }

    #[test]
    fn beats_tcgnn_everywhere() {
        // Table 3: DTC achieves speedups over TCGNN across ALL matrices.
        let device = Device::rtx4090();
        for (i, a) in [
            power_law(320, 320, 3.0, 2.2, 63),
            power_law(320, 320, 12.0, 2.0, 64),
            long_row(320, 320, 200.0, 0.6, 65),
        ]
        .iter()
        .enumerate()
        {
            let dtc = DtcKernel::new(a).simulate(128, &device).time_ms;
            let tcgnn = TcgnnSpmm::new(a).unwrap().simulate(128, &device).time_ms;
            assert!(dtc < tcgnn, "case {i}: dtc={dtc} tcgnn={tcgnn}");
        }
    }

    #[test]
    fn beats_cusparse_on_type_ii() {
        // Fig 11a: the relative speedup is highest (up to 3.29x) on Type II.
        let a = long_row(640, 640, 250.0, 0.6, 66);
        let device = Device::rtx4090();
        let dtc = DtcKernel::new(&a).simulate(128, &device).time_ms;
        let cus = CusparseSpmm::new(&a).simulate(128, &device).time_ms;
        assert!(dtc < cus, "dtc={dtc} cus={cus}");
    }

    #[test]
    fn higher_tc_utilization_than_tcgnn() {
        let a = long_row(320, 320, 150.0, 0.5, 67);
        let device = Device::rtx4090();
        let dtc = DtcKernel::new(&a).simulate(128, &device);
        let tcgnn = TcgnnSpmm::new(&a).unwrap().simulate(128, &device);
        assert!(
            dtc.tc_utilization > tcgnn.tc_utilization,
            "dtc={} tcgnn={}",
            dtc.tc_utilization,
            tcgnn.tc_utilization
        );
        assert!(dtc.imad_per_hmma < tcgnn.imad_per_hmma);
    }

    #[test]
    fn fp16_halves_tensor_core_time_on_tc_bound_inputs() {
        use dtc_formats::Precision;
        let a = long_row(640, 640, 200.0, 0.5, 69);
        let device = Device::rtx4090();
        let tf32 = DtcKernel::new(&a).simulate(128, &device);
        let fp16 = DtcKernel::new(&a).with_precision(Precision::Fp16).simulate(128, &device);
        // TC work halves; total time improves but not by a full 2x (the
        // memory pipes are unchanged).
        assert!(fp16.time_ms < tf32.time_ms, "{} vs {}", fp16.time_ms, tf32.time_ms);
        assert!(fp16.time_ms > tf32.time_ms * 0.4);
    }

    #[test]
    fn bf16_is_faster_but_coarser() {
        use dtc_formats::Precision;
        let a = power_law(96, 96, 5.0, 2.2, 70);
        let b = DenseMatrix::from_fn(96, 8, |r, c| ((r * 13 + c * 7) % 23) as f32 * 0.137);
        let reference = a.spmm_reference(&b).unwrap();
        let tf32_err = DtcKernel::new(&a).execute(&b).unwrap().max_abs_diff(&reference);
        let bf16_err = DtcKernel::new(&a)
            .with_precision(Precision::Bf16)
            .execute(&b)
            .unwrap()
            .max_abs_diff(&reference);
        assert!(bf16_err > tf32_err, "bf16 {} vs tf32 {}", bf16_err, tf32_err);
    }

    #[test]
    fn trace_has_one_tb_per_window() {
        let a = power_law(100, 100, 4.0, 2.2, 68);
        let k = DtcKernel::new(&a);
        let t = k.trace(64, &Device::rtx4090(), false);
        assert_eq!(t.num_tbs(), k.metcf().num_windows());
        assert_eq!(t.occupancy, DTC_OCCUPANCY);
    }
}
