//! Kernel-selector demo: how the simulation-based Selector (§4.5.2)
//! separates balanced from imbalanced workloads, and what the strict-
//! balance kernel actually buys on each.
//!
//! Run with: `cargo run --release --example kernel_selector`

use dtc_spmm::baselines::SpmmEngine;
use dtc_spmm::core::{BalancedDtcKernel, DtcKernel, Selector};
use dtc_spmm::formats::{gen, MeTcfMatrix};
use dtc_spmm::sim::Device;

fn main() {
    let device = Device::rtx4090();
    let selector = Selector::default();
    let n = 128;

    let cases = vec![
        ("uniform (balanced)", gen::uniform(16384, 16384, 16384 * 32, 1)),
        ("mildly skewed", gen::long_row(2048, 2048, 120.0, 0.5, 2)),
        ("heavily skewed", gen::long_row(1024, 1024, 300.0, 1.8, 3)),
    ];
    println!(
        "{:<20} {:>8} {:>12} {:>12} {:>12} {:>10}",
        "workload", "AR", "choice", "base ms", "balanced ms", "gain"
    );
    for (label, a) in cases {
        let metcf = MeTcfMatrix::from_csr(&a);
        let decision = selector.decide(&metcf, &device);
        let base = DtcKernel::new(&a).simulate(n, &device).time_ms;
        let balanced = BalancedDtcKernel::new(&a).simulate(n, &device).time_ms;
        println!(
            "{:<20} {:>8.2} {:>12} {:>12.4} {:>12.4} {:>9.1}%",
            label,
            decision.approximation_ratio,
            format!("{:?}", decision.choice),
            base,
            balanced,
            (base / balanced - 1.0) * 100.0,
        );
    }
    println!(
        "\nThe Selector computes both makespans from the thread-block scheduling\n\
         policy model (eq. (1)) without running either kernel, and launches the\n\
         balanced kernel only when AR > 1.2."
    );
}
