//! Calibration probe: prints per-kernel simulated times on key matrices.
use dtc_baselines::*;
use dtc_core::{DtcKernel, SpmmEngine};
use dtc_datasets::{representative, scaled_device};
use dtc_sim::Device;

fn main() {
    let _metrics = dtc_bench::metrics_flush_guard();
    let device = scaled_device(Device::rtx4090());
    let n = 128;
    for d in representative() {
        let a = d.matrix();
        let s = d.stats();
        let mean_nnz = dtc_formats::Condensed::from_csr(&a).mean_nnz_tc();
        let cus = CusparseSpmm::new(&a).simulate(n, &device);
        let tcg = TcgnnSpmm::new(&a).unwrap().simulate(n, &device);
        let dtc = DtcKernel::new(&a).simulate(n, &device);
        let spk = SputnikSpmm::new(&a).unwrap().simulate(n, &device);
        println!(
            "{:8} rows={:6} nnz={:8} avg={:6.1} mnnz={:5.1} | cus={:8.4} tcgnn={:8.4} dtc={:8.4} sputnik={:8.4} | dtc_util={:.3} tcg_util={:.4} dtc_ratio={:.1} tcg_ratio={:.1} | spd_cus={:.2} spd_tcg={:.2}",
            d.abbr, s.rows, s.nnz, s.avg_row_len, mean_nnz,
            cus.time_ms, tcg.time_ms, dtc.time_ms, spk.time_ms,
            dtc.tc_utilization, tcg.tc_utilization, dtc.imad_per_hmma, tcg.imad_per_hmma,
            cus.time_ms / dtc.time_ms, tcg.time_ms / dtc.time_ms
        );
    }
}
