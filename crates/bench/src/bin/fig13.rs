//! Figure 13 + the §5.3 breakdown study:
//!
//! - ME-TCF storage effectiveness (index memory vs CSR/TCF, before and
//!   after TCU-Cache-Aware reordering);
//! - (a) `MeanNnzTC` under SGT alone vs METIS-like, Louvain-like, LSH64
//!   and TCA reordering;
//! - (b) throughput gain from TCA reordering for DTC-SpMM and cuSPARSE;
//! - (c) L2 hit rate: TCU-only hierarchy vs LSH64 vs full TCA (simulated
//!   sectored L2 over the recorded B-access streams).

use dtc_baselines::{CusparseSpmm, SpmmEngine};
use dtc_bench::print_table;
use dtc_core::DtcKernel;
use dtc_datasets::{representative, scaled_device};
use dtc_formats::footprint::footprint_with_metcf;
use dtc_formats::{Condensed, CsrMatrix, MeTcfMatrix};
use dtc_reorder::{
    IdentityReorderer, LouvainReorderer, Lsh64Reorderer, MetisLikeReorderer, Reorderer,
    TcaReorderer, TcuOnlyReorderer,
};
use dtc_sim::Device;

fn mean_nnz_after(a: &CsrMatrix, r: &dyn Reorderer) -> f64 {
    Condensed::from_csr(&a.permute_rows(&r.reorder(a))).mean_nnz_tc()
}

fn storage_breakdown(datasets: &[(String, CsrMatrix)]) {
    let mut rows = Vec::new();
    let mut saving_before = Vec::new();
    let mut saving_after = Vec::new();
    for (abbr, a) in datasets {
        let metcf = MeTcfMatrix::from_csr(a);
        let fp = footprint_with_metcf(a, &metcf);
        let reordered = a.permute_rows(&TcaReorderer::default().reorder(a));
        let metcf_r = MeTcfMatrix::from_csr(&reordered);
        let fp_r = footprint_with_metcf(&reordered, &metcf_r);
        saving_before.push(fp.metcf_saving_vs_csr_pct());
        saving_after.push(fp_r.metcf_saving_vs_csr_pct());
        rows.push(vec![
            abbr.clone(),
            format!("{}", fp.csr),
            format!("{} (+{:.1}%)", fp.tcf, fp.tcf_vs_csr_pct()),
            format!("{} ({:+.1}%)", fp.metcf, -fp.metcf_saving_vs_csr_pct()),
            format!("{} ({:+.1}%)", fp_r.metcf, -fp_r.metcf_saving_vs_csr_pct()),
        ]);
    }
    print_table(
        "Breakdown: index storage in 32-bit elements (vs CSR)",
        &["Dataset", "CSR", "TCF", "ME-TCF", "ME-TCF (TCA-reordered)"],
        &rows,
    );
    let n = saving_before.len() as f64;
    println!(
        "\nAverage ME-TCF saving vs CSR: {:.2}% before reordering, {:.2}% after\n\
         (paper: 6.42% and 30.10%). TCF costs ~168% more than CSR in the paper.",
        saving_before.iter().sum::<f64>() / n,
        saving_after.iter().sum::<f64>() / n,
    );
}

fn panel_a(datasets: &[(String, CsrMatrix)]) {
    let mut rows = Vec::new();
    for (abbr, a) in datasets {
        let sgt = Condensed::from_csr(a).mean_nnz_tc();
        rows.push(vec![
            abbr.clone(),
            format!("{sgt:.2}"),
            format!("{:.2}", mean_nnz_after(a, &MetisLikeReorderer::default())),
            format!("{:.2}", mean_nnz_after(a, &LouvainReorderer::default())),
            format!("{:.2}", mean_nnz_after(a, &Lsh64Reorderer::default())),
            format!("{:.2}", mean_nnz_after(a, &TcaReorderer::default())),
        ]);
    }
    print_table(
        "Figure 13a: MeanNnzTC by reordering method",
        &["Dataset", "SGT only", "METIS-like", "Louvain-like", "LSH64", "TCA (ours)"],
        &rows,
    );
}

fn panel_b(datasets: &[(String, CsrMatrix)], device: &Device) {
    let n = 128;
    let mut rows = Vec::new();
    let mut gains_dtc = Vec::new();
    for (abbr, a) in datasets {
        let reordered = a.permute_rows(&TcaReorderer::default().reorder(a));
        // Simulate the L2 so reordering's cache effect reaches cuSPARSE too.
        let dtc_before = DtcKernel::new(a).simulate_with_l2(n, device).time_ms;
        let dtc_after = DtcKernel::new(&reordered).simulate_with_l2(n, device).time_ms;
        let cus_before = CusparseSpmm::new(a).simulate_with_l2(n, device).time_ms;
        let cus_after = CusparseSpmm::new(&reordered).simulate_with_l2(n, device).time_ms;
        let dtc_gain = (dtc_before / dtc_after - 1.0) * 100.0;
        let cus_gain = (cus_before / cus_after - 1.0) * 100.0;
        gains_dtc.push(dtc_gain);
        rows.push(vec![abbr.clone(), format!("{dtc_gain:+.2}%"), format!("{cus_gain:+.2}%")]);
    }
    print_table(
        "Figure 13b: throughput gain from TCA reordering (N=128)",
        &["Dataset", "DTC-SpMM", "cuSPARSE"],
        &rows,
    );
    println!(
        "\nAverage DTC gain: {:.2}% (paper: 23.23%, larger on long rows; DTC\n\
         gains more than cuSPARSE because reordering is TC-block aware).",
        gains_dtc.iter().sum::<f64>() / gains_dtc.len().max(1) as f64
    );
}

fn panel_c(datasets: &[(String, CsrMatrix)], device: &Device) {
    let n = 128;
    let mut rows = Vec::new();
    for (abbr, a) in datasets {
        let hit = |r: &dyn Reorderer| -> f64 {
            let m = a.permute_rows(&r.reorder(a));
            DtcKernel::new(&m).simulate_with_l2(n, device).l2_hit_rate.expect("cache simulated")
                * 100.0
        };
        rows.push(vec![
            abbr.clone(),
            format!("{:.2}%", hit(&IdentityReorderer)),
            format!("{:.2}%", hit(&TcuOnlyReorderer::default())),
            format!("{:.2}%", hit(&Lsh64Reorderer::default())),
            format!("{:.2}%", hit(&TcaReorderer::default())),
        ]);
    }
    print_table(
        "Figure 13c: simulated L2 hit rate of the DTC kernel's B traffic",
        &["Dataset", "No reorder", "TCU-only", "LSH64", "TCU+Cache (TCA)"],
        &rows,
    );
    println!(
        "\nShape check: TCU-only trails LSH64 slightly; adding the Cache-Aware\n\
         hierarchy recovers it (paper: -1.36% then +0.01% vs LSH64)."
    );
}

fn main() {
    let _metrics = dtc_bench::metrics_flush_guard();
    let device = scaled_device(Device::rtx4090());
    let datasets: Vec<(String, CsrMatrix)> =
        representative().into_iter().map(|d| (d.abbr.clone(), d.matrix())).collect();
    storage_breakdown(&datasets);
    panel_a(&datasets);
    panel_b(&datasets, &device);
    panel_c(&datasets, &device);
}
