//! Quickstart: build the DTC-SpMM engine for one matrix, run an exact
//! SpMM, and inspect the simulated RTX4090 performance next to cuSPARSE
//! and TCGNN-SpMM.
//!
//! Run with: `cargo run --release --example quickstart`

use dtc_spmm::baselines::{CusparseSpmm, TcgnnSpmm};
use dtc_spmm::core::{DtcSpmm, SpmmEngine};
use dtc_spmm::formats::stats::MatrixStats;
use dtc_spmm::formats::{gen, DenseMatrix};
use dtc_spmm::sim::Device;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A synthetic scale-free graph: 4096 nodes, ~10 neighbours each.
    let a = gen::web(4096, 4096, 10.0, 2.1, 0.7, 7);
    let stats = MatrixStats::of(&a);
    println!(
        "matrix: {}x{}, nnz {}, AvgRowL {:.2} ({})",
        stats.rows,
        stats.cols,
        stats.nnz,
        stats.avg_row_len,
        if stats.is_type_ii() { "Type II" } else { "Type I" }
    );

    // 2. Build the engine: TCA reorder -> ME-TCF -> Selector -> kernel.
    let engine = DtcSpmm::builder().reorder(true).build(&a);
    println!(
        "selector: AR {:.2} -> {:?}; MeanNnzTC {:.2} over {} TC blocks",
        engine.decision().approximation_ratio,
        engine.choice(),
        engine.metcf().mean_nnz_tc(),
        engine.metcf().num_tc_blocks(),
    );

    // 3. Exact SpMM (TF32 multiplicands, FP32 accumulate), checked against
    //    the CSR reference.
    let b = DenseMatrix::from_fn(4096, 128, |r, c| ((r * 13 + c * 7) % 17) as f32 * 0.1);
    let c = engine.execute(&b)?;
    let reference = a.spmm_reference(&b)?;
    println!("max |C - C_ref| = {:.2e}", c.max_abs_diff(&reference));

    // 4. Simulated performance on the RTX4090 model vs two baselines.
    let device = Device::rtx4090();
    let n = 128;
    for (name, report) in [
        ("DTC-SpMM", engine.simulate(n, &device)),
        ("cuSPARSE", CusparseSpmm::new(&a).simulate(n, &device)),
        ("TCGNN", TcgnnSpmm::new(&a)?.simulate(n, &device)),
    ] {
        println!(
            "{name:>10}: {:.4} ms  ({:.1} GFLOPS, TC util {:.1}%, IMAD/HMMA {:.1})",
            report.time_ms,
            report.gflops(engine.flops(n)),
            report.tc_utilization * 100.0,
            report.imad_per_hmma,
        );
    }
    Ok(())
}
