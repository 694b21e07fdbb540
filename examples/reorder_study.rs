//! Reordering study: how much TC-block density each reordering algorithm
//! recovers on a shuffled community graph, and what it buys the DTC
//! kernel.
//!
//! Run with: `cargo run --release --example reorder_study`

use dtc_spmm::baselines::SpmmEngine;
use dtc_spmm::core::DtcKernel;
use dtc_spmm::formats::{gen, Condensed};
use dtc_spmm::reorder::{
    IdentityReorderer, LouvainReorderer, Lsh64Reorderer, MetisLikeReorderer, Reorderer,
    TcaReorderer,
};
use dtc_spmm::sim::Device;

fn main() {
    // A community graph whose rows arrive fully shuffled: the worst case
    // for SGT condensing and the best case for reordering.
    let a = gen::community(2048, 2048, 64, 12.0, 0.9, 99);
    let device = Device::rtx4090();
    let n = 128;

    println!(
        "{:<14} {:>10} {:>10} {:>12} {:>10}",
        "method", "MeanNnzTC", "TC blocks", "DTC ms", "speedup"
    );
    let base_ms = DtcKernel::new(&a).simulate(n, &device).time_ms;
    let reorderers: Vec<Box<dyn Reorderer>> = vec![
        Box::new(IdentityReorderer),
        Box::new(MetisLikeReorderer::default()),
        Box::new(LouvainReorderer::default()),
        Box::new(Lsh64Reorderer::default()),
        Box::new(TcaReorderer::default()),
    ];
    for r in &reorderers {
        let m = a.permute_rows(&r.reorder(&a));
        let condensed = Condensed::from_csr(&m);
        let ms = DtcKernel::new(&m).simulate(n, &device).time_ms;
        println!(
            "{:<14} {:>10.2} {:>10} {:>12.4} {:>9.2}x",
            r.name(),
            condensed.mean_nnz_tc(),
            condensed.num_tc_blocks(),
            ms,
            base_ms / ms,
        );
    }
}
