//! `dtc` — command-line front end for the DTC-SpMM library.
//!
//! ```text
//! dtc info  <matrix.mtx>                      statistics + format footprints
//! dtc bench <matrix.mtx> [--n N] [--device 4090|3090] [--reorder]
//!                                             run the full kernel lineup
//! dtc reorder <in.mtx> <out.mtx>              write the TCA-reordered matrix
//! dtc gen <kind> <rows> <avg_deg> <out.mtx> [--seed S]
//!                                             generate a synthetic matrix
//!                                             (kind: web|community|longrow|uniform|banded)
//! ```

use dtc_spmm::baselines::{
    CusparseSpmm, HpSpmm, SparseTirSpmm, SpmmEngine, SputnikSpmm, TcgnnSpmm,
};
use dtc_spmm::core::{DtcSpmm, IterativeSpmm};
use dtc_spmm::formats::footprint::footprint_of;
use dtc_spmm::formats::stats::{CondensedStats, MatrixStats};
use dtc_spmm::formats::{gen, mtx, Condensed, CsrMatrix};
use dtc_spmm::reorder::{Reorderer, TcaReorderer};
use dtc_spmm::sim::Device;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  dtc info  <matrix.mtx>\n  dtc bench <matrix.mtx> [--n N] [--device 4090|3090] [--reorder]\n  dtc reorder <in.mtx> <out.mtx>\n  dtc gen <web|community|longrow|uniform|banded> <rows> <avg_deg> <out.mtx> [--seed S]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("info") if args.len() >= 2 => cmd_info(&args[1]),
        Some("bench") if args.len() >= 2 => cmd_bench(&args[1], &args[2..]),
        Some("reorder") if args.len() >= 3 => cmd_reorder(&args[1], &args[2]),
        Some("gen") if args.len() >= 5 => cmd_gen(&args[1..]),
        _ => return usage(),
    };
    if let Some(path) = dtc_spmm::telemetry::flush_env_sink() {
        eprintln!("metrics snapshot written to {}", path.display());
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn cmd_info(path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let a = mtx::read_mtx_file(path)?;
    let s = MatrixStats::of(&a);
    println!("matrix     : {path}");
    println!("shape      : {} x {}", s.rows, s.cols);
    println!("nnz        : {}", s.nnz);
    println!(
        "AvgRowL    : {:.2} ({})",
        s.avg_row_len,
        if s.is_type_ii() { "Type II" } else { "Type I" }
    );
    println!("max row    : {}", s.max_row_len);
    println!("row-len CV : {:.2}", s.row_len_cv);
    println!("sparsity   : {:.4}%", s.sparsity * 100.0);
    let c = Condensed::from_csr(&a);
    let cs = CondensedStats::of(&c);
    println!("-- after SGT condensing --");
    println!("TC blocks  : {}", cs.num_tc_blocks);
    println!("MeanNnzTC  : {:.2}", cs.mean_nnz_tc);
    println!("window gini: {:.3}", cs.window_load_gini);
    let fp = footprint_of(&a);
    println!("-- index storage (32-bit elements) --");
    println!("CSR        : {}", fp.csr);
    println!("TCF        : {} ({:+.1}% vs CSR)", fp.tcf, fp.tcf_vs_csr_pct());
    println!("ME-TCF     : {} ({:+.1}% vs CSR)", fp.metcf, -fp.metcf_saving_vs_csr_pct());
    Ok(())
}

fn cmd_bench(path: &str, rest: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let n: usize = flag_value(rest, "--n").unwrap_or("128").parse()?;
    let device = match flag_value(rest, "--device").unwrap_or("4090") {
        "3090" => Device::rtx3090(),
        _ => Device::rtx4090(),
    };
    let reorder = rest.iter().any(|a| a == "--reorder");
    let mut a = mtx::read_mtx_file(path)?;
    if reorder {
        let perm = TcaReorderer::default().reorder(&a);
        a = a.permute_rows(&perm);
        println!("(TCA-reordered)");
    }
    println!(
        "{:<14} {:>10} {:>10} {:>9} {:>12}",
        "kernel", "time (ms)", "GFLOPS", "TC util", "IMAD/HMMA"
    );
    let flops = a.spmm_flops(n);
    let show = |name: &str, k: &dyn SpmmEngine| {
        let r = k.simulate(n, &device);
        println!(
            "{:<14} {:>10.4} {:>10.1} {:>8.1}% {:>12.1}",
            name,
            r.time_ms,
            r.gflops(flops),
            r.tc_utilization * 100.0,
            if r.imad_per_hmma.is_finite() { r.imad_per_hmma } else { f64::NAN },
        );
    };
    let dtc = DtcSpmm::builder().device(device.clone()).build(&a);
    show("DTC-SpMM", &dtc);
    show("cuSPARSE", &CusparseSpmm::new(&a));
    match TcgnnSpmm::new(&a) {
        Ok(k) => show("TCGNN", &k),
        Err(e) => println!("{:<14} {e}", "TCGNN"),
    }
    match SputnikSpmm::new(&a) {
        Ok(k) => show("Sputnik", &k),
        Err(e) => println!("{:<14} {e}", "Sputnik"),
    }
    show("SparseTIR", &SparseTirSpmm::new(&a));
    show("HP-SpMM", &HpSpmm::new(&a));
    // Amortization advice (§6).
    let session = IterativeSpmm::new(&a, device);
    let report = session.amortization(n);
    match report.break_even_iterations {
        Some(it) => println!(
            "\nDTC setup amortizes after {it} iterations (setup {:.3} ms).",
            report.setup_ms
        ),
        None => {
            println!("\nDTC is not faster per iteration here; prefer a conversion-free engine.")
        }
    }
    Ok(())
}

fn cmd_reorder(input: &str, output: &str) -> Result<(), Box<dyn std::error::Error>> {
    let a = mtx::read_mtx_file(input)?;
    let before = Condensed::from_csr(&a).mean_nnz_tc();
    let perm = TcaReorderer::default().reorder(&a);
    let m = a.permute_rows(&perm);
    let after = Condensed::from_csr(&m).mean_nnz_tc();
    mtx::write_mtx_file(output, &m)?;
    println!("MeanNnzTC {before:.2} -> {after:.2}; wrote {output}");
    Ok(())
}

fn cmd_gen(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let kind = args[0].as_str();
    let rows: usize = args[1].parse()?;
    let avg: f64 = args[2].parse()?;
    let out = &args[3];
    let seed: u64 = flag_value(&args[4..], "--seed").unwrap_or("42").parse()?;
    let a: CsrMatrix = match kind {
        "web" => gen::web(rows, rows, avg, 2.1, 0.7, seed),
        "community" => {
            gen::community_with_shuffle(rows, rows, (rows / 64).max(1), avg, 0.85, 0.3, seed)
        }
        "longrow" => gen::long_row(rows, rows, avg, 1.0, seed),
        "uniform" => gen::uniform(rows, rows, (rows as f64 * avg) as usize, seed),
        "banded" => gen::banded(rows, rows, (avg * 2.0) as usize + 1, avg, seed),
        other => return Err(format!("unknown generator kind: {other}").into()),
    };
    mtx::write_mtx_file(out, &a)?;
    println!("wrote {out}: {} x {}, {} nnz", a.rows(), a.cols(), a.nnz());
    Ok(())
}
