//! Figure 12: DTC-SpMM speedups over the structured-sparsity TC methods —
//! Block-SpMM (BELL, block sizes 32/64) and VectorSparse (CVSE, vector
//! lengths 4/8) — on the 8 representative matrices at N=128.
//!
//! Known scaled-reproduction caveat (documented in EXPERIMENTS.md): the
//! Type-II stand-ins are ~100× denser than the originals, which makes
//! BELL's dense blocks unrealistically full; on paper-scale matrices the
//! fill ratio collapses and DTC wins 1.14–23.51×. The Type-I columns carry
//! the reproducible shape.

use dtc_baselines::{BlockSpmm, SpmmEngine, VectorSparseSpmm};
use dtc_bench::{fmt_x, print_table};
use dtc_core::DtcSpmm;
use dtc_datasets::{representative, scaled_device};
use dtc_sim::Device;

fn main() {
    let _metrics = dtc_bench::metrics_flush_guard();
    let device = scaled_device(Device::rtx4090());
    let n = 128;
    let mut rows = Vec::new();
    for d in representative() {
        let a = d.matrix();
        let dtc = DtcSpmm::builder().device(device.clone()).build(&a).simulate(n, &device).time_ms;
        let mut row = vec![d.abbr.clone()];
        for bs in [32usize, 64] {
            row.push(match BlockSpmm::new(&a, bs, device.global_mem_bytes) {
                Ok(k) => {
                    let fill = k.bell().fill_ratio();
                    format!(
                        "{} (fill {:.1}%)",
                        fmt_x(k.simulate(n, &device).time_ms / dtc),
                        fill * 100.0
                    )
                }
                Err(_) => "OOM".into(),
            });
        }
        for vlen in [4usize, 8] {
            row.push(match VectorSparseSpmm::new(&a, vlen) {
                Ok(k) => fmt_x(k.simulate(n, &device).time_ms / dtc),
                Err(e) => e.to_string(),
            });
        }
        rows.push(row);
    }
    print_table(
        "Figure 12: DTC-SpMM speedup over Block-SpMM and VectorSparse (RTX4090, N=128)",
        &["Dataset", "vs BELL-32", "vs BELL-64", "vs CVSE-4", "vs CVSE-8"],
        &rows,
    );
    println!(
        "\nPaper: 1.14x-23.51x over Block-SpMM, 1.89x-4.95x over VectorSparse.\n\
         Shape holds on Type I; Type II inherits the density artifact of scaling\n\
         (see fill ratios — paper-scale fill is ~100x lower)."
    );
}
