//! The strict-balance DTC-SpMM kernel (§4.5.1): thread blocks own
//! fixed-size groups of TC blocks drawn from *any* row window, trading
//! atomic-accumulation overhead for a perfectly even workload.

use super::base::{DtcKernel, DTC_OCCUPANCY, DTC_WARPS};
use super::{execute_metcf, KernelOpts};
use dtc_baselines::util::{
    check_spmm_dims, estimate_b_hit_rate, push_b_row_sectors, sectors_per_b_row,
};
use dtc_baselines::SpmmEngine;
use dtc_formats::{CsrMatrix, DenseMatrix, FormatError, MeTcfMatrix, Precision};
use dtc_sim::occupancy::KernelResources;
use dtc_sim::{Device, KernelTrace, TbWork};

/// TC blocks assigned to each thread block ("32 in our implementation").
pub const BLOCKS_PER_TB: usize = 32;

/// The balanced DTC-SpMM runtime kernel.
///
/// # Example
///
/// ```
/// use dtc_core::{BalancedDtcKernel, DtcKernel, SpmmEngine};
/// use dtc_formats::{gen, stats::gini};
/// use dtc_sim::Device;
///
/// let a = gen::long_row(2048, 2048, 150.0, 1.5, 2); // skewed windows
/// let device = Device::rtx4090();
/// let busy_gini = |r: &dtc_sim::SimReport| {
///     gini(&r.sm_busy_cycles().iter().map(|&c| c as usize).collect::<Vec<_>>())
/// };
/// let base = busy_gini(&DtcKernel::new(&a).simulate(64, &device));
/// let balanced = busy_gini(&BalancedDtcKernel::new(&a).simulate(64, &device));
/// // Strict balance evens out the per-SM busy times.
/// assert!(balanced < base);
/// ```
#[derive(Debug, Clone)]
pub struct BalancedDtcKernel {
    inner: DtcKernel,
    blocks_per_tb: usize,
}

impl BalancedDtcKernel {
    /// Converts the matrix to ME-TCF and prepares the balanced kernel.
    pub fn new(a: &CsrMatrix) -> Self {
        Self::with_opts(a, KernelOpts::all())
    }

    /// Prepares the balanced kernel with explicit optimizations.
    pub fn with_opts(a: &CsrMatrix, opts: KernelOpts) -> Self {
        BalancedDtcKernel { inner: DtcKernel::with_opts(a, opts), blocks_per_tb: BLOCKS_PER_TB }
    }

    /// Wraps an existing ME-TCF matrix (shared conversion).
    pub fn from_metcf(metcf: MeTcfMatrix, distinct_cols: usize, opts: KernelOpts) -> Self {
        BalancedDtcKernel {
            inner: DtcKernel::from_metcf(metcf, distinct_cols, opts),
            blocks_per_tb: BLOCKS_PER_TB,
        }
    }

    /// Overrides the TC-block group size per thread block (design-choice
    /// ablation; the paper fixes 32).
    ///
    /// # Panics
    ///
    /// Panics if `blocks_per_tb` is zero.
    pub fn with_blocks_per_tb(mut self, blocks_per_tb: usize) -> Self {
        assert!(blocks_per_tb > 0, "group size must be positive");
        self.blocks_per_tb = blocks_per_tb;
        self
    }

    /// The ME-TCF representation.
    pub fn metcf(&self) -> &MeTcfMatrix {
        self.inner.metcf()
    }

    /// Switches the Tensor-Core input precision (see
    /// [`DtcKernel::with_precision`]).
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.inner = self.inner.with_precision(precision);
        self
    }
}

impl SpmmEngine for BalancedDtcKernel {
    fn name(&self) -> &str {
        "DTC-SpMM-balanced"
    }

    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn cols(&self) -> usize {
        self.inner.cols()
    }

    fn nnz(&self) -> usize {
        self.inner.nnz()
    }

    fn execute(&self, b: &DenseMatrix) -> Result<DenseMatrix, FormatError> {
        check_spmm_dims(self.rows(), self.cols(), b)?;
        // Atomic accumulation is order-insensitive up to FP rounding; the
        // sequential walk is the same sum.
        Ok(execute_metcf(self.metcf(), b, self.inner.precision()))
    }

    #[allow(clippy::needless_range_loop)] // `t` indexes three parallel structures
    fn trace(&self, n: usize, device: &Device, record_b_addrs: bool) -> KernelTrace {
        let metcf = self.metcf();
        let n_f = n as f64;
        let opts = self.inner.opts();
        let mut trace = KernelTrace::new(DTC_OCCUPANCY, DTC_WARPS);
        trace.set_resources(KernelResources::dtc_spmm());
        let b_row_sectors = sectors_per_b_row(n);
        let mut total_b_sectors = 0.0;

        // Global block index -> owning window, for atomic accounting.
        let mut block_window: Vec<usize> = Vec::with_capacity(metcf.num_tc_blocks());
        for w in 0..metcf.num_windows() {
            for _ in metcf.window_blocks(w) {
                block_window.push(w);
            }
        }
        // Window -> set of TBs touching it (split windows need atomics).
        let num_tbs = metcf.num_tc_blocks().div_ceil(self.blocks_per_tb).max(1);
        let mut window_tb_count = vec![0u32; metcf.num_windows()];
        for tb_idx in 0..num_tbs {
            let lo = tb_idx * self.blocks_per_tb;
            let hi = (lo + self.blocks_per_tb).min(metcf.num_tc_blocks());
            let mut last = usize::MAX;
            for &w in &block_window[lo..hi] {
                if w != last {
                    window_tb_count[w] += 1;
                    last = w;
                }
            }
        }

        // Per-TB lowering fans out over threads; TBs only read the shared
        // block/window tables, and the reduction below keeps TB order. TBs
        // hold a fixed block count but not fixed nnz, so shards are cut at
        // nnz quantiles. The epilogue is charged as each touched window is
        // first seen, so a TB needs no window list (and no scratch).
        let tc_offset = metcf.tc_offset();
        let weights: Vec<u64> = (0..num_tbs)
            .map(|tb_idx| {
                let lo = tb_idx * self.blocks_per_tb;
                let hi = (lo + self.blocks_per_tb).min(metcf.num_tc_blocks());
                (tc_offset[hi] - tc_offset[lo]) as u64
            })
            .collect();
        let plan = dtc_par::ShardPlan::weighted(dtc_par::num_threads(), &weights);
        let tbs = dtc_par::par_map_collect_plan(&plan, |tb_idx, _| {
            let lo = tb_idx * self.blocks_per_tb;
            let hi = (lo + self.blocks_per_tb).min(metcf.num_tc_blocks());
            let mut tb = TbWork { overlap_a_fetch: opts.sdb, ..TbWork::default() };
            tb.iters = (hi - lo) as f64;
            let mut last_window = usize::MAX;
            let tc_mult = self.inner.precision().tc_throughput_multiplier();
            for t in lo..hi {
                let cost = DtcKernel::block_cost(metcf, opts, t, n_f, b_row_sectors);
                tb.alu_ops += cost.alu;
                tb.smem_ops += cost.smem;
                tb.hmma_ops += cost.hmma_ops / tc_mult;
                tb.hmma_count += cost.hmma_count;
                tb.lsu_a_sectors += cost.lsu_a;
                tb.lsu_b_sectors += cost.lsu_b;
                // Epilogue: every touched window accumulates its 16xN strip.
                // Shared windows use atomic adds — those resolve at the L2
                // (an issue/latency cost via atom_ops, not DRAM traffic);
                // only the final strip eviction reaches DRAM, so each TB
                // carries its share of that write-back (the §4.5.1 online
                // overhead).
                let w = block_window[t];
                if w != last_window {
                    last_window = w;
                    let splits = window_tb_count[w] as f64;
                    tb.epilogue_sectors += 16.0 * b_row_sectors / splits;
                    if window_tb_count[w] > 1 {
                        tb.atom_ops += 16.0 * n_f / 32.0; // warp atomics in L2
                    }
                }
                if record_b_addrs {
                    for &c in metcf.block_cols(t) {
                        push_b_row_sectors(&mut tb.b_stream, c as usize, n);
                    }
                }
            }
            tb
        });
        for tb in tbs {
            tb.debug_validate();
            total_b_sectors += tb.lsu_b_sectors;
            trace.push(tb);
        }
        trace.assumed_l2_hit_rate =
            estimate_b_hit_rate(self.inner.distinct_cols(), total_b_sectors.max(1.0), n, device);
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtc_formats::gen::{long_row, power_law, uniform};
    use dtc_formats::stats::gini;
    use dtc_formats::tf32::TF32_UNIT_ROUNDOFF;
    use dtc_sim::{simulate, SimOptions};

    #[test]
    fn matches_reference_within_tf32() {
        let a = power_law(96, 96, 5.0, 2.2, 71);
        let b = DenseMatrix::from_fn(96, 8, |r, c| ((r + 3 * c) % 6) as f32 * 0.4);
        let k = BalancedDtcKernel::new(&a);
        assert!(
            k.execute(&b).unwrap().max_abs_diff(&a.spmm_reference(&b).unwrap())
                < 40.0 * TF32_UNIT_ROUNDOFF
        );
    }

    #[test]
    fn balances_skewed_workloads() {
        // Fig 15: per-SM busy times even out under strict balance.
        let a = long_row(640, 640, 200.0, 1.5, 72);
        let device = Device::rtx4090();
        let base = DtcKernel::new(&a).simulate(128, &device);
        let bal = BalancedDtcKernel::new(&a).simulate(128, &device);
        let g_base = gini(&base.sm_busy_cycles().iter().map(|&c| c as usize).collect::<Vec<_>>());
        let g_bal = gini(&bal.sm_busy_cycles().iter().map(|&c| c as usize).collect::<Vec<_>>());
        assert!(g_bal < g_base, "gini base={g_base} balanced={g_bal}");
    }

    #[test]
    fn wins_on_imbalanced_loses_on_balanced() {
        let device = Device::rtx4090();
        // Heavily imbalanced Type II: balanced kernel should win.
        let skewed = long_row(640, 640, 200.0, 2.0, 73);
        let base_s = DtcKernel::new(&skewed).simulate(128, &device).time_ms;
        let bal_s = BalancedDtcKernel::new(&skewed).simulate(128, &device).time_ms;
        assert!(bal_s < base_s, "skewed: bal={bal_s} base={base_s}");
        // Uniform matrix: atomics make balanced no better (§4.5.2: 22.4%
        // degradation on uniformly distributed non-zeros).
        let flat = uniform(2048, 2048, 2048 * 6, 74);
        let base_f = DtcKernel::new(&flat).simulate(128, &device).time_ms;
        let bal_f = BalancedDtcKernel::new(&flat).simulate(128, &device).time_ms;
        assert!(bal_f > base_f * 0.95, "flat: bal={bal_f} base={base_f}");
    }

    #[test]
    fn tb_count_is_blocks_over_32() {
        let a = power_law(256, 256, 6.0, 2.2, 75);
        let k = BalancedDtcKernel::new(&a);
        let t = k.trace(64, &Device::rtx4090(), false);
        assert_eq!(t.num_tbs(), k.metcf().num_tc_blocks().div_ceil(BLOCKS_PER_TB));
    }

    #[test]
    fn atomics_present_only_with_split_windows() {
        // A matrix with one giant window (many blocks) must split and emit
        // atomics.
        let t: Vec<(usize, usize, f32)> =
            (0..16).flat_map(|r| (0..640).map(move |j| (r, j, 1.0))).collect();
        let a = CsrMatrix::from_triplets(16, 640, &t).unwrap();
        let k = BalancedDtcKernel::new(&a);
        let trace = k.trace(64, &Device::rtx4090(), false);
        let atoms: f64 = trace.iter_tbs().map(|tb| tb.atom_ops).sum();
        assert!(atoms > 0.0);
        let r = simulate(&Device::rtx4090(), &trace, &SimOptions::default());
        assert!(r.time_ms > 0.0);
    }
}
