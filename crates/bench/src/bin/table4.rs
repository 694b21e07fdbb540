//! Table 4: execution time of Flash-LLM (v1/v2), SparTA and DTC-SpMM on
//! the matrices they can run (RTX4090 model, N=128). Flash-LLM reports OOM
//! on datasets whose dense conversion staging exceeds device memory;
//! SparTA reports Not Supported beyond its (scaled) 50 000-row/col limit.

use dtc_baselines::{FlashLlmSpmm, FlashLlmVersion, SpartaSpmm, SpmmEngine};
use dtc_bench::{fmt_ms, print_table, row_scale, scaled_sparta_limit};
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
        let scale = row_scale(&d);
        let flash = |v: FlashLlmVersion| -> String {
            match FlashLlmSpmm::with_version(&a, device.global_mem_bytes, v) {
                Ok(k) => fmt_ms(k.simulate(n, &device).time_ms),
                Err(_) => "OOM".into(),
            }
        };
        let sparta = match SpartaSpmm::new(&a, scaled_sparta_limit(scale)) {
            Ok(k) => fmt_ms(k.simulate(n, &device).time_ms),
            Err(_) => "Not Supported".into(),
        };
        let dtc = fmt_ms(
            DtcSpmm::builder().device(device.clone()).build(&a).simulate(n, &device).time_ms,
        );
        rows.push(vec![
            d.abbr.clone(),
            flash(FlashLlmVersion::V1),
            flash(FlashLlmVersion::V2),
            sparta,
            dtc,
        ]);
    }
    print_table(
        "Table 4: Flash-LLM / SparTA / DTC-SpMM execution time (ms, RTX4090 model, N=128)",
        &["Dataset", "Flash-LLM (v1)", "Flash-LLM (v2)", "SparTA", "Ours"],
        &rows,
    );
    println!(
        "\nPaper (ms): ddi 0.070/0.113/0.049/0.068; protein 30.0/30.0/NS/3.70;\n\
         reddit 90.2/90.2/NS/5.95; OOM for Flash-LLM elsewhere.\n\
         Shape checks: Flash-LLM OOMs on the Type-I matrices (dense staging),\n\
         SparTA only supports ddi, and DTC-SpMM wins where both run."
    );
}
