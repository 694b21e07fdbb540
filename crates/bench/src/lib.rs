//! Shared plumbing for the table/figure binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper;
//! this library holds the pieces they share: geometric means, markdown
//! table rendering, the scaled baseline limits, and the standard kernel
//! lineup runner.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dtc_baselines::SpmmEngine;
use dtc_datasets::Dataset;
use dtc_sim::{Device, SimReport};

pub mod cli {
    //! Minimal shared argument parsing for the bench binaries.
    //!
    //! Every binary hand-rolled the same two patterns — `--flag` presence
    //! checks and positional operands with defaults — each slightly
    //! differently. This module is the one copy: `--`-prefixed tokens are
    //! flags, everything else is positional, order independent.

    /// Parsed command line: `--flags` and positional operands.
    #[derive(Debug, Clone, Default)]
    pub struct Args {
        flags: Vec<String>,
        positional: Vec<String>,
    }

    impl Args {
        /// Parses the process arguments (skipping the binary name).
        pub fn parse() -> Self {
            Self::from_tokens(std::env::args().skip(1))
        }

        /// Parses an explicit token stream (for tests).
        pub fn from_tokens(tokens: impl IntoIterator<Item = String>) -> Self {
            let mut args = Args::default();
            for tok in tokens {
                match tok.strip_prefix("--") {
                    Some(flag) => args.flags.push(flag.to_owned()),
                    None => args.positional.push(tok),
                }
            }
            args
        }

        /// Whether `--name` was passed (`name` given without the dashes).
        pub fn flag(&self, name: &str) -> bool {
            self.flags.iter().any(|f| f == name)
        }

        /// Whether `--smoke` was passed (the CI fast-path convention).
        pub fn smoke(&self) -> bool {
            self.flag("smoke")
        }

        /// The `i`-th positional operand.
        pub fn positional(&self, i: usize) -> Option<&str> {
            self.positional.get(i).map(String::as_str)
        }

        /// The `i`-th positional operand parsed as `T`, or `default` when
        /// absent or unparseable.
        pub fn parsed<T: std::str::FromStr>(&self, i: usize, default: T) -> T {
            self.positional(i).and_then(|s| s.parse().ok()).unwrap_or(default)
        }
    }

    #[cfg(test)]
    mod tests {
        use super::Args;

        fn args(tokens: &[&str]) -> Args {
            Args::from_tokens(tokens.iter().map(|s| s.to_string()))
        }

        #[test]
        fn flags_and_positionals_separate() {
            let a = args(&["--smoke", "DD", "--verify", "128"]);
            assert!(a.smoke());
            assert!(a.flag("verify"));
            assert!(!a.flag("suite"));
            assert_eq!(a.positional(0), Some("DD"));
            assert_eq!(a.parsed::<usize>(1, 0), 128);
        }

        #[test]
        fn parsed_falls_back_on_missing_or_garbage() {
            let a = args(&["notanumber"]);
            assert_eq!(a.parsed::<usize>(0, 7), 7);
            assert_eq!(a.parsed::<usize>(3, 9), 9);
        }
    }
}

/// Geometric mean of a sequence of positive values; 0 on empty input.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|&x| x.max(1e-300).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

/// Renders a markdown table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    println!("| {} |", headers.join(" | "));
    println!("|{}|", headers.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

/// The row-scale between a Table-1 dataset's original and our stand-in —
/// used to scale baseline shape limits (SparTA's 50 000-row cap) so that
/// "Not Supported" triggers on the same datasets as in the paper.
pub fn row_scale(dataset: &Dataset) -> f64 {
    match dataset.paper {
        Some(p) => p.rows as f64 / dataset.matrix().rows() as f64,
        None => 1.0,
    }
}

/// SparTA's shape limit, scaled to the dataset (paper: 50 000 rows/cols).
pub fn scaled_sparta_limit(scale: f64) -> usize {
    ((50_000.0 / scale.max(1.0)) as usize).max(1)
}

/// Flushes the telemetry registry to the `DTC_METRICS` sink (if set) when
/// dropped. Every binary takes one of these at the top of `main` so the
/// snapshot lands even on early returns; announces the written path.
#[derive(Debug)]
pub struct MetricsFlushGuard(());

impl Drop for MetricsFlushGuard {
    fn drop(&mut self) {
        if let Some(path) = dtc_telemetry::flush_env_sink() {
            eprintln!("metrics snapshot written to {}", path.display());
        }
    }
}

/// Arms the end-of-process metrics flush; see [`MetricsFlushGuard`].
#[must_use = "bind to a variable so the flush happens at end of main"]
pub fn metrics_flush_guard() -> MetricsFlushGuard {
    MetricsFlushGuard(())
}

/// Formats a simulated time in ms with sensible precision.
pub fn fmt_ms(ms: f64) -> String {
    if ms >= 1.0 {
        format!("{ms:.3}")
    } else {
        format!("{ms:.4}")
    }
}

/// Formats a speedup.
pub fn fmt_x(s: f64) -> String {
    format!("{s:.2}x")
}

/// Runs one kernel and returns its report plus achieved GFLOPS.
pub fn run(kernel: &dyn SpmmEngine, n: usize, device: &Device) -> (SimReport, f64) {
    let report = kernel.simulate(n, device);
    let gflops = report.gflops(kernel.flops(n));
    (report, gflops)
}

/// Simulated time (ms) of every method in the paper's Fig 11 lineup on one
/// matrix, or `None` where the method cannot run (OOM / Not Supported /
/// non-square), with the reason recorded.
pub fn fig11_lineup(
    a: &dtc_formats::CsrMatrix,
    n: usize,
    device: &Device,
    scale: f64,
) -> Vec<(String, Result<f64, String>)> {
    use dtc_baselines::*;
    let mut out: Vec<(String, Result<f64, String>)> = Vec::new();
    let time =
        |k: &dyn SpmmEngine, n: usize| -> Result<f64, String> { Ok(k.simulate(n, device).time_ms) };

    out.push(("cuSPARSE".into(), time(&CusparseSpmm::new(a), n)));
    out.push((
        "TCGNN".into(),
        TcgnnSpmm::new(a).map_err(|e| e.to_string()).and_then(|k| time(&k, n)),
    ));
    out.push((
        "Sputnik".into(),
        SputnikSpmm::new(a).map_err(|e| e.to_string()).and_then(|k| time(&k, n)),
    ));
    out.push(("SparseTIR".into(), time(&SparseTirSpmm::new(a), n)));
    out.push((
        "Block-SpMM".into(),
        BlockSpmm::new(a, 32, device.global_mem_bytes)
            .map_err(|e| e.to_string())
            .and_then(|k| time(&k, n)),
    ));
    out.push((
        "VectorSparse".into(),
        VectorSparseSpmm::new(a, 8).map_err(|e| e.to_string()).and_then(|k| time(&k, n)),
    ));
    out.push((
        "Flash-LLM".into(),
        FlashLlmSpmm::new(a, device.global_mem_bytes)
            .map_err(|e| e.to_string())
            .and_then(|k| time(&k, n)),
    ));
    out.push((
        "SparTA".into(),
        SpartaSpmm::new(a, scaled_sparta_limit(scale))
            .map_err(|e| e.to_string())
            .and_then(|k| time(&k, n)),
    ));
    let dtc = dtc_core::DtcSpmm::builder().device(device.clone()).build(a);
    out.push(("DTC-SpMM".into(), time(&dtc, n)));
    out
}

/// The extended lineup: additional methods the paper cites but does not
/// plot (HP-SpMM §6, hybrid dense/sparse splitting §2.2), next to DTC.
pub fn extended_lineup(
    a: &dtc_formats::CsrMatrix,
    n: usize,
    device: &Device,
) -> Vec<(String, f64)> {
    use dtc_baselines::*;
    let time = |k: &dyn SpmmEngine| k.simulate(n, device).time_ms;
    vec![
        ("cuSPARSE".into(), time(&CusparseSpmm::new(a))),
        ("HP-SpMM".into(), time(&HpSpmm::new(a))),
        ("HybridSplit".into(), time(&HybridSplitSpmm::new(a))),
        ("DTC-SpMM".into(), time(&dtc_core::DtcSpmm::builder().device(device.clone()).build(a))),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn sparta_limit_scales() {
        assert_eq!(scaled_sparta_limit(1.0), 50_000);
        assert_eq!(scaled_sparta_limit(100.0), 500);
        // Scales below 1 clamp to the unscaled limit.
        assert_eq!(scaled_sparta_limit(0.5), 50_000);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_ms(2.5), "2.500");
        assert_eq!(fmt_ms(0.1234), "0.1234");
        assert_eq!(fmt_x(1.5), "1.50x");
    }
}
