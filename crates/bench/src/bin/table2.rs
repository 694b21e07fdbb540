//! Table 2: measured key indicators for TCGNN-SpMM on the 8 representative
//! matrices — `MeanNnzTC` after SGT, `#IMAD/#HMMA`, and Tensor-Core
//! pipeline utilization (paper values in parentheses in the rendered
//! table for reference).

use dtc_baselines::{SpmmEngine, TcgnnSpmm};
use dtc_bench::print_table;
use dtc_datasets::{representative, scaled_device};
use dtc_sim::Device;

/// The paper's measured values, for side-by-side comparison.
fn paper_values(abbr: &str) -> (f64, f64, f64) {
    match abbr {
        "YH" => (9.79, 13.72, 4.19),
        "OH" => (9.66, 13.69, 4.31),
        "Yt" => (10.69, 13.80, 3.97),
        "DD" => (12.97, 13.43, 6.64),
        "WB" => (26.9, 15.16, 6.09),
        "reddit" => (16.53, 98.54, 0.46),
        "ddi" => (25.88, 46.67, 0.90),
        "protein" => (14.80, 63.90, 1.47),
        _ => (0.0, 0.0, 0.0),
    }
}

fn main() {
    let _metrics = dtc_bench::metrics_flush_guard();
    let device = scaled_device(Device::rtx4090());
    let n = 128;
    let mut rows = Vec::new();
    for d in representative() {
        let a = d.matrix();
        let kernel = TcgnnSpmm::new(&a).expect("table-1 matrices are square");
        let report = kernel.simulate(n, &device);
        let mean_nnz = kernel.condensed().mean_nnz_tc();
        let (p_mnnz, p_ratio, p_util) = paper_values(&d.abbr);
        rows.push(vec![
            d.abbr.clone(),
            format!("{mean_nnz:.2} ({p_mnnz:.2})"),
            format!("{:.2} ({p_ratio:.2})", report.imad_per_hmma),
            format!("{:.2}% ({p_util:.2}%)", report.tc_utilization * 100.0),
        ]);
    }
    print_table(
        "Table 2: TCGNN-SpMM key indicators — ours (paper)",
        &["Dataset", "MeanNnzTC", "#IMAD/#HMMA", "TC Pipeline Utilization"],
        &rows,
    );
    println!(
        "\nShape checks: MeanNnzTC mostly < 16 for Type I; #IMAD/#HMMA an order\n\
         of magnitude larger on Type II; utilization low throughout."
    );
}
