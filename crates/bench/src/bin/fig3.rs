//! Figure 3: relative execution and idle time of all 128 SMs running
//! TCGNN-SpMM on YeastH (mild imbalance) and ddi (severe imbalance).

use dtc_baselines::{SpmmEngine, TcgnnSpmm};
use dtc_datasets::{representative, scaled_device};
use dtc_sim::Device;

fn histogram(label: &str, fractions: &[f64]) {
    // Bucket the per-SM busy fractions into deciles and draw an ASCII bar
    // per decile (count of SMs whose busy fraction falls there).
    let mut buckets = [0usize; 10];
    for &f in fractions {
        let b = ((f * 10.0) as usize).min(9);
        buckets[b] += 1;
    }
    println!("\n{label}: per-SM busy-fraction distribution ({} SMs)", fractions.len());
    for (i, &count) in buckets.iter().enumerate() {
        let bar: String = std::iter::repeat_n('#', count).collect();
        println!("  {:>3}%-{:>3}% | {bar} {count}", i * 10, (i + 1) * 10);
    }
    let mean = fractions.iter().sum::<f64>() / fractions.len().max(1) as f64;
    let idle = fractions.iter().filter(|&&f| f < 0.5).count();
    println!("  mean busy fraction {:.2}; SMs idle >50% of the time: {idle}", mean);
}

fn main() {
    let _metrics = dtc_bench::metrics_flush_guard();
    let device = scaled_device(Device::rtx4090());
    let n = 128;
    println!("## Figure 3: per-SM execution/idle time under TCGNN-SpMM (RTX4090 model)");
    for abbr in ["YH", "ddi"] {
        let d = representative().into_iter().find(|d| d.abbr == abbr).expect("dataset exists");
        let a = d.matrix();
        let report = TcgnnSpmm::new(&a).expect("square").simulate(n, &device);
        histogram(&d.name, &report.sm_busy_fractions());
    }
    println!(
        "\nShape check: ddi leaves many SMs idle (few long row windows),\n\
         YeastH keeps them comparatively busy — Observation 4."
    );
}
