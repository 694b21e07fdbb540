//! Figure 14: runtime-kernel optimization ablation — Tensor-Core pipeline
//! utilization and #IMAD/#HMMA along the ladder
//! Base → +SMB → +IP → +SDB → +VFD, with TCGNN-SpMM as the reference.

use dtc_baselines::{SpmmEngine, TcgnnSpmm};
use dtc_bench::print_table;
use dtc_core::{DtcKernel, KernelOpts};
use dtc_datasets::{representative, scaled_device, DatasetKind};
use dtc_sim::Device;

fn main() {
    let _metrics = dtc_bench::metrics_flush_guard();
    let device = scaled_device(Device::rtx4090());
    let n = 128;
    let ladder = KernelOpts::ablation_ladder();

    let mut util_rows = Vec::new();
    let mut ratio_rows = Vec::new();
    let mut time_rows = Vec::new();
    for d in representative() {
        let a = d.matrix();
        let tcgnn = TcgnnSpmm::new(&a).expect("square").simulate(n, &device);
        let mut util = vec![d.abbr.clone(), format!("{:.2}%", tcgnn.tc_utilization * 100.0)];
        let mut ratio = vec![d.abbr.clone(), format!("{:.2}", tcgnn.imad_per_hmma)];
        let mut time = vec![d.abbr.clone(), format!("{:.4}", tcgnn.time_ms)];
        for (_, opts) in &ladder {
            let r = DtcKernel::with_opts(&a, *opts).simulate(n, &device);
            util.push(format!("{:.2}%", r.tc_utilization * 100.0));
            ratio.push(format!("{:.2}", r.imad_per_hmma));
            time.push(format!("{:.4}", r.time_ms));
        }
        util_rows.push(util);
        ratio_rows.push(ratio);
        time_rows.push(time);
        let _ = d.kind == DatasetKind::TypeI;
    }
    let headers: Vec<String> = std::iter::once("Dataset".to_owned())
        .chain(std::iter::once("TCGNN".to_owned()))
        .chain(ladder.iter().map(|(l, _)| l.to_string()))
        .collect();
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(
        "Figure 14: TC pipeline utilization along the ablation ladder",
        &headers_ref,
        &util_rows,
    );
    print_table("Figure 14: #IMAD/#HMMA along the ablation ladder", &headers_ref, &ratio_rows);
    print_table("Figure 14: kernel time (ms) along the ablation ladder", &headers_ref, &time_rows);
    println!(
        "\nShape checks: Base (ME-TCF only) already beats TCGNN's utilization;\n\
         SMB gives the largest single jump; IP helps most on long rows; SDB and\n\
         VFD add further gains; the DTC #IMAD/#HMMA is far below TCGNN's."
    );
}
