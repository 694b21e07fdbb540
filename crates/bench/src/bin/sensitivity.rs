//! Architecture-sensitivity study — the §7 portability claim ("our
//! insights and optimizations can be extended ... on parallel devices
//! equipped with matrix computing units") probed by sweeping the device
//! model: L2 capacity, DRAM bandwidth, Tensor-Core throughput and SM count,
//! watching where DTC-SpMM's advantage over cuSPARSE grows or shrinks.

use dtc_baselines::{CusparseSpmm, SpmmEngine};
use dtc_bench::{fmt_x, print_table};
use dtc_core::DtcSpmm;
use dtc_datasets::{representative, scaled_device};
use dtc_formats::CsrMatrix;
use dtc_sim::Device;

fn speedup(a: &CsrMatrix, device: &Device) -> f64 {
    let n = 128;
    let dtc = DtcSpmm::builder().device(device.clone()).build(a).simulate(n, device).time_ms;
    let cus = CusparseSpmm::new(a).simulate(n, device).time_ms;
    cus / dtc
}

fn main() {
    let _metrics = dtc_bench::metrics_flush_guard();
    let base = scaled_device(Device::rtx4090());
    let type1 = representative().into_iter().find(|d| d.abbr == "DD").expect("dataset").matrix();
    let type2 =
        representative().into_iter().find(|d| d.abbr == "protein").expect("dataset").matrix();

    // 1. L2 capacity: more cache mostly helps cuSPARSE (its B re-reads).
    let mut rows = Vec::new();
    for scale in [0.25f64, 0.5, 1.0, 2.0, 4.0] {
        let mut d = base.clone();
        d.l2_bytes = ((d.l2_bytes as f64 * scale) as u64).max(64 * 1024);
        rows.push(vec![
            format!("{scale}x"),
            fmt_x(speedup(&type1, &d)),
            fmt_x(speedup(&type2, &d)),
        ]);
    }
    print_table(
        "Sensitivity 1: L2 capacity (DTC speedup over cuSPARSE)",
        &["L2 scale", "DD (Type I)", "protein (Type II)"],
        &rows,
    );

    // 2. DRAM bandwidth: SpMM is memory-bound; scaling BW shifts the
    // bottleneck toward issue/compute where DTC's lean pipeline wins less.
    let mut rows = Vec::new();
    for scale in [0.5f64, 1.0, 2.0, 4.0] {
        let mut d = base.clone();
        d.dram_bw_gbps *= scale;
        rows.push(vec![
            format!("{scale}x"),
            fmt_x(speedup(&type1, &d)),
            fmt_x(speedup(&type2, &d)),
        ]);
    }
    print_table(
        "Sensitivity 2: DRAM bandwidth",
        &["BW scale", "DD (Type I)", "protein (Type II)"],
        &rows,
    );

    // 3. Tensor-Core throughput: a device with beefier matrix units
    // rewards condensing more.
    let mut rows = Vec::new();
    for scale in [0.5f64, 1.0, 2.0, 4.0] {
        let mut d = base.clone();
        d.tc_hmma_per_cycle *= scale;
        rows.push(vec![
            format!("{scale}x"),
            fmt_x(speedup(&type1, &d)),
            fmt_x(speedup(&type2, &d)),
        ]);
    }
    print_table(
        "Sensitivity 3: Tensor-Core throughput",
        &["TC scale", "DD (Type I)", "protein (Type II)"],
        &rows,
    );

    // 4. SM count (even values keep the eq. (1) policy meaningful).
    let mut rows = Vec::new();
    for sms in [32usize, 64, 128, 256] {
        let mut d = base.clone();
        d.num_sms = sms;
        rows.push(vec![format!("{sms}"), fmt_x(speedup(&type1, &d)), fmt_x(speedup(&type2, &d))]);
    }
    print_table("Sensitivity 4: SM count", &["SMs", "DD (Type I)", "protein (Type II)"], &rows);
    println!(
        "\nReading: DTC's edge is widest when memory is scarce (small L2, low\n\
         BW) and Tensor Cores are strong — the regime the paper targets.\n\
         Abundant bandwidth or cache narrows the gap, as §7 anticipates for\n\
         other architectures."
    );
}
