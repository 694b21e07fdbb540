//! Figure 11: overall performance comparison on the RTX4090 model.
//!
//! - Default mode (Fig 11a): speedups of every method over cuSPARSE-SpMM
//!   on the 8 representative matrices, averaged over N ∈ {128, 256, 512}.
//! - `--suite` (Fig 11b): achieved GFLOPS of the main methods across the
//!   SuiteSparse stand-in corpus (sorted by DTC-SpMM GFLOPS) plus geomean
//!   speedups.

use dtc_baselines::{CusparseSpmm, SparseTirSpmm, SpmmEngine, SputnikSpmm, TcgnnSpmm};
use dtc_bench::{fig11_lineup, fmt_x, geomean, print_table, row_scale};
use dtc_core::DtcSpmm;
use dtc_datasets::{representative, scaled_device, suite_corpus};
use dtc_sim::Device;

fn representative_mode(device: &Device, ns: &[usize]) {
    let datasets = representative();
    let mut headers: Vec<&str> = vec!["Method"];
    let abbrs: Vec<String> = datasets.iter().map(|d| d.abbr.clone()).collect();
    for a in &abbrs {
        headers.push(a);
    }

    // speedups[method][dataset] averaged (geomean) over N.
    let mut method_names: Vec<String> = Vec::new();
    let mut speedups: Vec<Vec<f64>> = Vec::new();
    for (di, d) in datasets.iter().enumerate() {
        let a = d.matrix();
        let scale = row_scale(d);
        let mut per_n: Vec<Vec<Option<f64>>> = Vec::new(); // [n][method]
        for &n in ns {
            let lineup = fig11_lineup(&a, n, device, scale);
            if method_names.is_empty() {
                method_names = lineup.iter().map(|(name, _)| name.clone()).collect();
                speedups = vec![vec![0.0; datasets.len()]; method_names.len()];
            }
            let cus = lineup[0].1.clone().expect("cuSPARSE always runs");
            per_n.push(lineup.iter().map(|(_, t)| t.as_ref().ok().map(|&ms| cus / ms)).collect());
        }
        for (mi, _) in method_names.iter().enumerate() {
            let vals: Vec<f64> = per_n.iter().filter_map(|row| row[mi]).collect();
            speedups[mi][di] = if vals.len() == ns.len() { geomean(&vals) } else { f64::NAN };
        }
    }

    let rows: Vec<Vec<String>> = method_names
        .iter()
        .enumerate()
        .map(|(mi, name)| {
            let mut row = vec![name.clone()];
            for &s in &speedups[mi][..abbrs.len()] {
                row.push(if s.is_nan() { "OOM/NS".into() } else { fmt_x(s) });
            }
            row
        })
        .collect();
    print_table(
        &format!(
            "Figure 11a: speedup over cuSPARSE-SpMM on {} (geomean over N in {:?})",
            device.name, ns
        ),
        &headers,
        &rows,
    );
}

fn suite_mode(device: &Device) {
    let n = 128;
    let mut rows_out: Vec<(f64, Vec<String>)> = Vec::new();
    let mut speed_tcgnn = Vec::new();
    let mut speed_cus = Vec::new();
    let mut speed_tir = Vec::new();
    let mut speed_sputnik = Vec::new();
    for d in suite_corpus() {
        let a = d.matrix();
        let flops = a.spmm_flops(n);
        let dtc = DtcSpmm::builder().device(device.clone()).build(&a);
        let t_dtc = dtc.simulate(n, device);
        let g_dtc = t_dtc.gflops(flops);
        let t_cus = CusparseSpmm::new(&a).simulate(n, device);
        let t_spk = SputnikSpmm::new(&a).expect("within int32").simulate(n, device);
        let t_tir = SparseTirSpmm::new(&a).simulate(n, device);
        let t_tcg = TcgnnSpmm::new(&a).expect("square").simulate(n, device);
        speed_cus.push(t_cus.time_ms / t_dtc.time_ms);
        speed_sputnik.push(t_spk.time_ms / t_dtc.time_ms);
        speed_tir.push(t_tir.time_ms / t_dtc.time_ms);
        speed_tcgnn.push(t_tcg.time_ms / t_dtc.time_ms);
        rows_out.push((
            g_dtc,
            vec![
                d.name.clone(),
                format!("{:.1}", g_dtc),
                format!("{:.1}", t_cus.gflops(flops)),
                format!("{:.1}", t_spk.gflops(flops)),
                format!("{:.1}", t_tir.gflops(flops)),
                format!("{:.1}", t_tcg.gflops(flops)),
            ],
        ));
    }
    rows_out.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    let rows: Vec<Vec<String>> = rows_out.into_iter().map(|(_, r)| r).collect();
    print_table(
        &format!(
            "Figure 11b: GFLOPS across {} SuiteSparse stand-ins on {} (sorted by DTC)",
            rows.len(),
            device.name
        ),
        &["Matrix", "DTC", "cuSPARSE", "Sputnik", "SparseTIR", "TCGNN"],
        &rows,
    );
    println!("\nSuiteSparse* geomean speedups of DTC-SpMM:");
    println!("  vs cuSPARSE : {}", fmt_x(geomean(&speed_cus)));
    println!("  vs TCGNN    : {}", fmt_x(geomean(&speed_tcgnn)));
    println!("  vs SparseTIR: {}", fmt_x(geomean(&speed_tir)));
    println!("  vs Sputnik  : {}", fmt_x(geomean(&speed_sputnik)));
    println!("  (paper RTX4090: 2.16x, 3.25x, 1.57x, 1.46x)");
}

fn extended_mode(device: &Device) {
    let mut names: Vec<String> = Vec::new();
    let mut rows_by_method: Vec<Vec<String>> = Vec::new();
    let datasets = representative();
    for d in &datasets {
        let a = d.matrix();
        let lineup = dtc_bench::extended_lineup(&a, 128, device);
        if names.is_empty() {
            names = lineup.iter().map(|(n, _)| n.clone()).collect();
            rows_by_method = names.iter().map(|n| vec![n.clone()]).collect();
        }
        let cus = lineup[0].1;
        for (mi, (_, ms)) in lineup.iter().enumerate() {
            rows_by_method[mi].push(fmt_x(cus / ms));
        }
    }
    let mut headers: Vec<&str> = vec!["Method"];
    for d in &datasets {
        headers.push(&d.abbr);
    }
    print_table(
        "Extended lineup (speedup over cuSPARSE, N=128): the methods the paper cites but does not plot",
        &headers,
        &rows_by_method,
    );
}

fn main() {
    let _metrics = dtc_bench::metrics_flush_guard();
    let device = scaled_device(Device::rtx4090());
    let args = dtc_bench::cli::Args::parse();
    if args.flag("suite") {
        suite_mode(&device);
    } else if args.flag("extended") {
        extended_mode(&device);
    } else if args.flag("avg") {
        // The paper's figure averages N in {128, 256, 512}. Our TCGNN model's
        // window-scan cost is constant in N and amortizes faster than real
        // hardware at large N (see EXPERIMENTS.md), so the primary view is
        // N=128 below.
        representative_mode(&device, &[128, 256, 512]);
    } else {
        representative_mode(&device, &[128]);
    }
}
