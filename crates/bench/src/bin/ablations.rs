//! Design-choice ablations beyond the paper's Fig 14 — one sweep per
//! design decision DESIGN.md calls out:
//!
//! 1. Hierarchy-I cluster cap (`BLOCK_HEIGHT`): the paper argues 16 (§4.3,
//!    "a larger cluster size limit (e.g., 64) results in the grouping of
//!    low-similarity rows");
//! 2. strict-balance group size (`BLOCKS_PER_TB`): the paper fixes 32;
//! 3. Selector AR threshold: the paper calibrates 1.2 offline;
//! 4. MinHash signature length: reorder quality vs cost;
//! 5. Tensor-Core input precision (§7 extension): TF32 / FP16 / BF16.

use dtc_baselines::SpmmEngine;
use dtc_bench::print_table;
use dtc_core::{BalancedDtcKernel, DtcKernel, Precision, Selector};
use dtc_datasets::{representative, scaled_device, suite_corpus};
use dtc_formats::{gen, Condensed, DenseMatrix, MeTcfMatrix};
use dtc_reorder::{Reorderer, TcaReorderer};
use dtc_sim::Device;
use std::time::Instant;

fn block_height_sweep() {
    // A shuffled community matrix: reordering quality fully attributable
    // to the cluster cap.
    let a = gen::community(4096, 4096, 128, 12.0, 0.9, 201);
    let mut rows = Vec::new();
    for cap in [8usize, 16, 32, 64] {
        let r = TcaReorderer { block_height: cap, ..TcaReorderer::default() };
        let m = a.permute_rows(&r.reorder(&a));
        let c = Condensed::from_csr(&m);
        rows.push(vec![
            format!("{cap}"),
            format!("{:.2}", c.mean_nnz_tc()),
            format!("{}", c.num_tc_blocks()),
        ]);
    }
    print_table(
        "Ablation 1: Hierarchy-I cluster cap (paper picks 16 = one row window)",
        &["BLOCK_HEIGHT", "MeanNnzTC", "TC blocks"],
        &rows,
    );
}

fn blocks_per_tb_sweep(device: &Device) {
    let d = representative().into_iter().find(|d| d.abbr == "ddi").expect("dataset");
    let a = d.matrix();
    let mut rows = Vec::new();
    for group in [8usize, 16, 32, 64, 128] {
        let k = BalancedDtcKernel::new(&a).with_blocks_per_tb(group);
        let r = k.simulate(128, device);
        rows.push(vec![format!("{group}"), format!("{:.4}", r.time_ms), format!("{}", r.num_tbs)]);
    }
    print_table(
        "Ablation 2: strict-balance TC-block group size on ddi (paper picks 32)",
        &["BLOCKS_PER_TB", "time (ms)", "thread blocks"],
        &rows,
    );
}

fn selector_threshold_sweep(device: &Device) {
    // Over the corpus: how often each threshold picks the kernel that is
    // actually faster, and the total time left on the table vs an oracle.
    let n = 128;
    let corpus = suite_corpus();
    let mut per_matrix: Vec<(f64, f64, f64)> = Vec::new(); // (ar, base, balanced)
    for d in &corpus {
        let a = d.matrix();
        let metcf = MeTcfMatrix::from_csr(&a);
        let ar = Selector::default().decide(&metcf, device).approximation_ratio;
        let base = DtcKernel::new(&a).simulate(n, device).time_ms;
        let balanced = BalancedDtcKernel::new(&a).simulate(n, device).time_ms;
        per_matrix.push((ar, base, balanced));
    }
    let oracle: f64 = per_matrix.iter().map(|&(_, b, bal)| b.min(bal)).sum();
    let mut rows = Vec::new();
    for threshold in [1.0, 1.1, 1.2, 1.5, 2.0, f64::INFINITY] {
        let mut total = 0.0;
        let mut correct = 0usize;
        for &(ar, base, balanced) in &per_matrix {
            let picked = if ar > threshold { balanced } else { base };
            total += picked;
            if (picked - base.min(balanced)).abs() < 1e-12 {
                correct += 1;
            }
        }
        let label =
            if threshold.is_infinite() { "always base".to_owned() } else { format!("{threshold}") };
        rows.push(vec![
            label,
            format!("{:.1}%", correct as f64 / per_matrix.len() as f64 * 100.0),
            format!("{:+.2}%", (total / oracle - 1.0) * 100.0),
        ]);
    }
    print_table(
        &format!(
            "Ablation 3: Selector AR threshold over {} corpus matrices (paper picks 1.2)",
            per_matrix.len()
        ),
        &["threshold", "correct choice", "time vs oracle"],
        &rows,
    );
}

fn minhash_k_sweep() {
    let a = gen::community(4096, 4096, 128, 12.0, 0.9, 202);
    let mut rows = Vec::new();
    for k in [8usize, 16, 32, 64] {
        let lsh = dtc_reorder::LshParams { bands: k / 2, rows_per_band: 2, max_bucket_pairs: 48 };
        let r = TcaReorderer { minhash_k: k, lsh, ..TcaReorderer::default() };
        let t0 = Instant::now();
        let perm = r.reorder(&a);
        let elapsed = t0.elapsed().as_secs_f64() * 1e3;
        let density = Condensed::from_csr(&a.permute_rows(&perm)).mean_nnz_tc();
        rows.push(vec![format!("{k}"), format!("{density:.2}"), format!("{elapsed:.0} ms")]);
    }
    print_table(
        "Ablation 4: MinHash signature length (quality vs reordering cost)",
        &["k", "MeanNnzTC after TCA", "CPU reorder time"],
        &rows,
    );
}

fn precision_sweep(device: &Device) {
    let d = representative().into_iter().find(|d| d.abbr == "protein").expect("dataset");
    let a = d.matrix();
    let b = DenseMatrix::from_fn(a.cols(), 32, |r, c| ((r * 17 + c * 5) % 29) as f32 * 0.071);
    let reference = a.spmm_reference(&b).expect("dims agree");
    let mut rows = Vec::new();
    for precision in [Precision::Tf32, Precision::Fp16, Precision::Bf16] {
        let k = DtcKernel::new(&a).with_precision(precision);
        let time = k.simulate(128, device).time_ms;
        // Normalize the worst absolute error by the output scale (raw
        // relative error explodes on near-cancelled outputs).
        let scale = reference.frobenius_norm() / (reference.as_slice().len() as f32).sqrt();
        let err = k.execute(&b).expect("dims agree").max_abs_diff(&reference) / scale;
        rows.push(vec![precision.name().to_owned(), format!("{time:.4}"), format!("{err:.2e}")]);
    }
    print_table(
        "Ablation 5: Tensor-Core input precision on protein (§7 extension)",
        &["precision", "time (ms)", "max error / RMS output"],
        &rows,
    );
}

fn gcn_depth_sweep(device: &Device) {
    use dtc_gnn::{DeepGcn, DglGnnBackend, DtcGnnBackend};
    let graph = dtc_datasets::igb_datasets()[0].matrix();
    let dtc = DtcGnnBackend::new(&graph);
    let dgl = DglGnnBackend::new(&graph);
    let mut rows = Vec::new();
    for depth in [2usize, 3, 4, 6] {
        let mut dims = vec![64usize];
        dims.extend(std::iter::repeat_n(128usize, depth - 1));
        dims.push(8);
        let model = DeepGcn::new(&dims, 1);
        let t_dtc = model.epoch_spmm_ms(&dtc, 64, device);
        let t_dgl = model.epoch_spmm_ms(&dgl, 64, device);
        rows.push(vec![
            format!("{depth}"),
            format!("{t_dtc:.4}"),
            format!("{t_dgl:.4}"),
            format!("{:.2}x", t_dgl / t_dtc),
        ]);
    }
    print_table(
        "Ablation 6: GCN depth (per-epoch SpMM time; deeper models amplify the kernel)",
        &["layers", "DTC ms", "DGL ms", "speedup"],
        &rows,
    );
}

fn main() {
    let _metrics = dtc_bench::metrics_flush_guard();
    let device = scaled_device(Device::rtx4090());
    block_height_sweep();
    blocks_per_tb_sweep(&device);
    selector_threshold_sweep(&device);
    minhash_k_sweep();
    precision_sweep(&device);
    gcn_depth_sweep(&device);
}
