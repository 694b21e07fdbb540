//! Pluggable SpMM backends for GNN training — the frameworks compared in
//! Fig 16.

use dtc_baselines::{CusparseSpmm, SpmmEngine, TcgnnSpmm};
use dtc_core::DtcSpmm;
use dtc_formats::{CsrMatrix, DenseMatrix, FormatError};
use dtc_sim::Device;

/// An SpMM provider for GCN training: forward uses `A`, backward uses
/// `Aᵀ`; each backend also reports its simulated kernel time, one-time
/// setup cost, and per-epoch framework overhead.
pub trait GnnBackend {
    /// Framework display name.
    fn name(&self) -> &str;

    /// Computes `A × B` (or `Aᵀ × B` when `transpose`).
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches from the kernel.
    fn spmm(&self, transpose: bool, b: &DenseMatrix) -> Result<DenseMatrix, FormatError>;

    /// Simulated GPU time of one SpMM with `n` dense columns, in ms.
    fn spmm_ms(&self, transpose: bool, n: usize, device: &Device) -> f64;

    /// One-time setup cost (format conversion etc.), in ms.
    fn one_time_ms(&self, device: &Device) -> f64;

    /// Per-epoch framework overhead (kernel dispatch, autograd graph,
    /// Python glue), in ms.
    fn per_epoch_overhead_ms(&self) -> f64;
}

/// DTC-GCN: the paper's PyTorch CUDA-extension over DTC-SpMM.
pub struct DtcGnnBackend {
    fwd: DtcSpmm,
    bwd: DtcSpmm,
    conversion_ms_factor: f64,
}

impl DtcGnnBackend {
    /// Builds forward and backward engines (the adjacency and its
    /// transpose each get their own ME-TCF conversion, as in the real
    /// extension).
    pub fn new(a: &CsrMatrix) -> Self {
        DtcGnnBackend {
            fwd: DtcSpmm::new(a),
            bwd: DtcSpmm::new(&a.transposed()),
            conversion_ms_factor: 1.0,
        }
    }

    /// The forward engine (for inspection).
    pub fn forward_engine(&self) -> &DtcSpmm {
        &self.fwd
    }
}

impl GnnBackend for DtcGnnBackend {
    fn name(&self) -> &str {
        "DTC-GCN"
    }

    fn spmm(&self, transpose: bool, b: &DenseMatrix) -> Result<DenseMatrix, FormatError> {
        let engine = if transpose { &self.bwd } else { &self.fwd };
        engine.execute(b)
    }

    fn spmm_ms(&self, transpose: bool, n: usize, device: &Device) -> f64 {
        let engine = if transpose { &self.bwd } else { &self.fwd };
        engine.simulate(n, device).time_ms
    }

    fn one_time_ms(&self, device: &Device) -> f64 {
        // GPU-accelerated ME-TCF conversion for A and Aᵀ (§6) plus the
        // Selector's makespan simulation (fractions of one SpMM).
        let nnz = self.fwd.nnz().max(1);
        2.0 * dtc_core::convert::simulated_gpu_conversion_ms_for(self.fwd.rows(), nnz, device)
            * self.conversion_ms_factor
            + 0.05
    }

    fn per_epoch_overhead_ms(&self) -> f64 {
        0.08 // thin CUDA-extension dispatch
    }
}

/// TC-GNN's framework (their PyTorch integration over TCGNN-SpMM).
pub struct TcgnnGnnBackend {
    fwd: TcgnnSpmm,
    bwd: TcgnnSpmm,
}

impl TcgnnGnnBackend {
    /// Builds forward/backward TCGNN kernels.
    ///
    /// # Errors
    ///
    /// Propagates TCGNN's square-matrix restriction.
    pub fn new(a: &CsrMatrix) -> Result<Self, FormatError> {
        Ok(TcgnnGnnBackend { fwd: TcgnnSpmm::new(a)?, bwd: TcgnnSpmm::new(&a.transposed())? })
    }
}

impl GnnBackend for TcgnnGnnBackend {
    fn name(&self) -> &str {
        "TC-GNN"
    }

    fn spmm(&self, transpose: bool, b: &DenseMatrix) -> Result<DenseMatrix, FormatError> {
        if transpose {
            self.bwd.execute(b)
        } else {
            self.fwd.execute(b)
        }
    }

    fn spmm_ms(&self, transpose: bool, n: usize, device: &Device) -> f64 {
        let k = if transpose { &self.bwd } else { &self.fwd };
        k.simulate(n, device).time_ms
    }

    fn one_time_ms(&self, _device: &Device) -> f64 {
        // Fig 16 note: the paper excludes TC-GNN's (CPU-only, very slow)
        // format conversion from its training times; we follow suit.
        0.0
    }

    fn per_epoch_overhead_ms(&self) -> f64 {
        0.1
    }
}

/// DGL-style backend: cuSPARSE SpMM under a heavier framework runtime.
pub struct DglGnnBackend {
    fwd: CusparseSpmm,
    bwd: CusparseSpmm,
}

impl DglGnnBackend {
    /// Builds the backend.
    pub fn new(a: &CsrMatrix) -> Self {
        DglGnnBackend { fwd: CusparseSpmm::new(a), bwd: CusparseSpmm::new(&a.transposed()) }
    }
}

impl GnnBackend for DglGnnBackend {
    fn name(&self) -> &str {
        "DGL"
    }

    fn spmm(&self, transpose: bool, b: &DenseMatrix) -> Result<DenseMatrix, FormatError> {
        if transpose {
            self.bwd.execute(b)
        } else {
            self.fwd.execute(b)
        }
    }

    fn spmm_ms(&self, transpose: bool, n: usize, device: &Device) -> f64 {
        let k = if transpose { &self.bwd } else { &self.fwd };
        k.simulate(n, device).time_ms
    }

    fn one_time_ms(&self, _device: &Device) -> f64 {
        0.5 // graph object construction
    }

    fn per_epoch_overhead_ms(&self) -> f64 {
        0.35 // message-passing runtime dispatch
    }
}

/// PyG in "Gather-Scatter" mode: edge-wise gather + `scatter_add`, roughly
/// 1.8× the cuSPARSE kernel time with twice the intermediate traffic.
pub struct PygGatherScatterBackend {
    inner: DglGnnBackend,
}

impl PygGatherScatterBackend {
    /// Builds the backend.
    pub fn new(a: &CsrMatrix) -> Self {
        PygGatherScatterBackend { inner: DglGnnBackend::new(a) }
    }
}

impl GnnBackend for PygGatherScatterBackend {
    fn name(&self) -> &str {
        "PyG(Gather-Scatter)"
    }

    fn spmm(&self, transpose: bool, b: &DenseMatrix) -> Result<DenseMatrix, FormatError> {
        self.inner.spmm(transpose, b)
    }

    fn spmm_ms(&self, transpose: bool, n: usize, device: &Device) -> f64 {
        self.inner.spmm_ms(transpose, n, device) * 1.8
    }

    fn one_time_ms(&self, _device: &Device) -> f64 {
        0.2
    }

    fn per_epoch_overhead_ms(&self) -> f64 {
        0.5
    }
}

/// PyG in "SparseTensor" mode: torch-sparse SpMM kernels, close to
/// cuSPARSE with a modest constant factor.
pub struct PygSparseTensorBackend {
    inner: DglGnnBackend,
}

impl PygSparseTensorBackend {
    /// Builds the backend.
    pub fn new(a: &CsrMatrix) -> Self {
        PygSparseTensorBackend { inner: DglGnnBackend::new(a) }
    }
}

impl GnnBackend for PygSparseTensorBackend {
    fn name(&self) -> &str {
        "PyG(SparseTensor)"
    }

    fn spmm(&self, transpose: bool, b: &DenseMatrix) -> Result<DenseMatrix, FormatError> {
        self.inner.spmm(transpose, b)
    }

    fn spmm_ms(&self, transpose: bool, n: usize, device: &Device) -> f64 {
        self.inner.spmm_ms(transpose, n, device) * 1.15
    }

    fn one_time_ms(&self, _device: &Device) -> f64 {
        0.3
    }

    fn per_epoch_overhead_ms(&self) -> f64 {
        0.45
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtc_formats::gen::community;

    #[test]
    fn backends_agree_numerically() {
        let a = community(128, 128, 8, 6.0, 0.85, 3);
        let b = DenseMatrix::from_fn(128, 8, |r, c| ((r + c) % 5) as f32 * 0.3);
        let reference = a.spmm_reference(&b).unwrap();
        let backends: Vec<Box<dyn GnnBackend>> = vec![
            Box::new(DtcGnnBackend::new(&a)),
            Box::new(TcgnnGnnBackend::new(&a).unwrap()),
            Box::new(DglGnnBackend::new(&a)),
            Box::new(PygGatherScatterBackend::new(&a)),
            Box::new(PygSparseTensorBackend::new(&a)),
        ];
        for bk in backends {
            let c = bk.spmm(false, &b).unwrap();
            assert!(c.max_abs_diff(&reference) < 0.01, "{} diverges", bk.name());
        }
    }

    #[test]
    fn transpose_spmm_is_transposed() {
        let a = community(64, 64, 4, 4.0, 0.8, 4);
        let b = DenseMatrix::from_fn(64, 4, |r, _| r as f32 * 0.1);
        let want = a.transposed().spmm_reference(&b).unwrap();
        let bk = DtcGnnBackend::new(&a);
        assert!(bk.spmm(true, &b).unwrap().max_abs_diff(&want) < 0.01);
    }

    #[test]
    fn dtc_spmm_faster_than_gather_scatter() {
        // Real GNN graphs arrive mostly locality-ordered (see dtc-datasets);
        // a fully shuffled community graph is the worst case for SGT.
        let a = dtc_formats::gen::community_with_shuffle(2048, 2048, 64, 12.0, 0.85, 0.2, 5);
        let device = Device::rtx4090();
        let dtc = DtcGnnBackend::new(&a);
        let pyg = PygGatherScatterBackend::new(&a);
        assert!(dtc.spmm_ms(false, 128, &device) < pyg.spmm_ms(false, 128, &device));
    }
}
