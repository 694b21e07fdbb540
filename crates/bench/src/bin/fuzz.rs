//! `fuzz`: the differential fuzzing sweep over every kernel model.
//!
//! Generates adversarial cases (degenerate shapes, tile straddles,
//! duplicate triplets, power-law extremes, IEEE special values,
//! window-boundary edit scripts), runs each one differentially across all
//! 12 `SpmmEngine` models, both ME-TCF conversion paths, the
//! TCA-reordered pipeline, the two-tier conversion cache, and the
//! in-place delta-update path, and adjudicates with the `dtc-fuzz`
//! oracles (exact f64 reference, TF32 error envelope, `dtc-verify` lint
//! replay). Failures are shrunk to minimal reproducers.
//!
//! Modes: default runs the full 5,760-case sweep and writes `FUZZ.json`;
//! `--smoke` runs 200 cases for CI and writes `FUZZ_smoke.json` so the
//! committed full-sweep artifact is not clobbered by the gate. Both exit
//! nonzero on any failure — the dynamic counterpart to `tracelint`.

use dtc_fuzz::{run_sweep, SweepConfig};
use dtc_sim::Device;

/// Full-sweep case count: 576 rounds over the 10 generator families x 12
/// kernels ≈ 69k kernel executions (the acceptance bar is ≥ 5,000 cases).
const FULL_CASES: usize = 5760;

/// Smoke-mode case count (20 rounds over every family).
const SMOKE_CASES: usize = 200;

/// The fixed master seed: FUZZ.json is a pure function of this value.
const MASTER_SEED: u64 = 0xD7C5_B004;

fn main() {
    let _metrics = dtc_bench::metrics_flush_guard();
    let smoke = dtc_bench::cli::Args::parse().smoke();
    let num_cases = if smoke { SMOKE_CASES } else { FULL_CASES };

    // A panicking kernel is a recorded failure, not a sweep abort; keep
    // the default hook from spamming stderr with expected backtraces.
    std::panic::set_hook(Box::new(|_| {}));

    let config = SweepConfig {
        master_seed: MASTER_SEED,
        num_cases,
        device: Device::rtx4090(),
        shrink: true,
    };
    println!(
        "## fuzz — {} cases, seed {:#x}, device {}",
        num_cases, MASTER_SEED, config.device.name
    );
    let report = run_sweep(&config);
    let _ = std::panic::take_hook();

    let artifact = if smoke { "FUZZ_smoke.json" } else { "FUZZ.json" };
    std::fs::write(artifact, report.to_json()).expect("write fuzz report");
    println!(
        "{} cases ({} kernel runs): {} failures — wrote {}",
        report.cases_run,
        report.kernels_run,
        report.failures.len(),
        artifact,
    );
    for f in &report.failures {
        println!(
            "  [{}] case {} ({}, seed {:#x}): {} — {}",
            f.kind, f.index, f.family, f.seed, f.kernel, f.detail
        );
        println!("    fixture: {}", f.fixture);
    }
    if report.has_failures() {
        eprintln!("fuzz: differential failures found");
        std::process::exit(1);
    }
}
