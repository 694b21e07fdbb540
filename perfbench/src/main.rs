//! `perfbench` — the repository benchmark: end-to-end and per-layer host
//! wall time of the DTC-SpMM iterative and serving paths.
//!
//! ```text
//! perfbench --workload <iterate|serve_hot|serve_churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every line but the last is a human-readable report (provenance, then
//! each metric with its unit and sample count). The last line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`, where
//! `metrics` holds the end-to-end set with `--trace 0` and the per-layer
//! set with `--trace 1`. Exit code 0 means every output matched; 1 means
//! a mismatch or failed request (the JSON is still printed); 2 means the
//! run could not be carried out. See `README.md` for the workloads.

mod check;
mod iterate;
mod serve;
mod stats;

use dtc_telemetry::MetricsSnapshot;
use stats::Ledger;
use std::process::ExitCode;

/// End-to-end metrics in the JSON line with `--trace 0`, from every
/// workload. The tail percentiles (`lat_ms_p90`, `lat_ms_p99`) are printed
/// in the report lines but not gated: on a shared two-core host their
/// run-to-run spread is close to the largest bound a metric may have.
const END_TO_END: [&str; 4] = ["setup_s", "lat_ms_p50", "sat_qps", "peak_rss_mb"];

/// Per-layer metrics, printed with `--trace 1` by every workload. Layers a
/// workload does not reach report a count of 0; serve-only timings appear
/// in the report lines of the serving workloads.
const PER_LAYER: [&str; 19] = [
    "core.prepare.ms",
    "core.prepare.calls",
    "core.reorder.ms",
    "core.convert.ns_per_nnz",
    "core.convert.hit_ratio",
    "core.select.ms",
    "core.lower.ms",
    "core.keymat.ns_per_nnz",
    "core.execute.dtc.ns_per_mac",
    "core.execute.macs",
    "core.execute.computed_mb",
    "par.shard.tasks",
    "par.shard.steals",
    "par.max_imbalance",
    "serve.pool.evictions",
    "serve.pool.invalidations",
    "serve.pool.exhausted",
    "trace.overhead_frac",
    "trace.unattributed_frac",
];

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the figure (1 for a count or a single ratio).
    pub n: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, n: usize) -> Self {
        Metric { name, value, unit, n }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub ledger: Ledger,
    pub metrics: Vec<Metric>,
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: expected 0 < s <= 600"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A seed for one input, derived from `--seed` and a per-input tag.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    stats::Rng::new(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// A dense operand with entries uniform in `[-0.5, 0.5)`.
pub fn dense_operand(rows: usize, cols: usize, seed: u64) -> dtc_formats::DenseMatrix {
    let mut rng = stats::Rng::new(seed);
    dtc_formats::DenseMatrix::from_fn(rows, cols, |_, _| (rng.unit() - 0.5) as f32)
}

/// Bytes one SpMM reads and writes, computed from array sizes (CSR-sized
/// sparse operand, dense operand, output), not measured.
pub fn computed_bytes(a: &dtc_formats::CsrMatrix, n_cols: usize) -> f64 {
    let sparse = a.nnz() * (4 + 4) + (a.rows() + 1) * std::mem::size_of::<usize>();
    let dense = (a.cols() + a.rows()) * n_cols * 4;
    (sparse + dense) as f64
}

/// The `dtc-core` prepare and keying layers plus the `dtc-par` shard
/// counters, read from a traced pass's snapshot. `prepared_nnz` is the
/// non-zeros of every DTC engine the pass prepared and `keyed_nnz` those
/// of every `KeyMaterial::of` the benchmark timed itself.
pub fn core_layers(snap: &MetricsSnapshot, prepared_nnz: u64, keyed_nnz: u64) -> Vec<Metric> {
    let (calls, build_ns) = stats::span_total(snap, "pipeline.build");
    let mean_ms = |name: &str| {
        let (count, ns) = stats::span_total(snap, name);
        ns as f64 / count as f64 / 1e6
    };
    let (_, convert_ns) = stats::span_total(snap, "convert");
    let (_, keymat_ns) = stats::span_total(snap, "bench.keymat");
    let (_, probe_ns) = stats::span_total(snap, "bench.probe.keymat");
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let (hits, misses) =
        (counter("core.cache.conversion.hits"), counter("core.cache.conversion.misses"));
    let calls_n = calls as usize;
    vec![
        Metric::new("core.prepare.ms", build_ns as f64 / calls as f64 / 1e6, "ms", calls_n),
        Metric::new("core.prepare.calls", calls as f64, "count", 1),
        Metric::new("core.reorder.ms", mean_ms("reorder"), "ms", calls_n),
        Metric::new(
            "core.convert.ns_per_nnz",
            convert_ns as f64 / prepared_nnz as f64,
            "ns",
            calls_n,
        ),
        Metric::new(
            "core.convert.hit_ratio",
            hits / (hits + misses),
            "ratio",
            (hits + misses) as usize,
        ),
        Metric::new("core.select.ms", mean_ms("select"), "ms", calls_n),
        Metric::new("core.lower.ms", mean_ms("lower"), "ms", calls_n),
        Metric::new(
            "core.keymat.ns_per_nnz",
            (keymat_ns + probe_ns) as f64 / keyed_nnz as f64,
            "ns",
            (stats::span_total(snap, "bench.keymat").0
                + stats::span_total(snap, "bench.probe.keymat").0) as usize,
        ),
        Metric::new("par.shard.tasks", counter("par.shard.tasks"), "count", 1),
        Metric::new("par.shard.steals", counter("par.shard.steals"), "count", 1),
    ]
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `VmHWM` (peak resident set) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn json_line(ledger: &Ledger, correct: bool, metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.attempted,
        ledger.bad(),
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <iterate|serve_hot|serve_churn> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // Pin the worker count to the host's cores whatever DTC_THREADS says,
    // and force span timing off: DTC_METRICS in the environment would
    // otherwise switch it on for the end-to-end runs.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env_threads = std::env::var("DTC_THREADS").unwrap_or_else(|_| "unset".to_string());
    dtc_par::set_threads(Some(nproc));
    dtc_telemetry::set_enabled(false);
    println!(
        "provenance: git={} rustc=\"{}\" nproc={nproc} dtc_threads={} (env DTC_THREADS={env_threads}) seed={} workload={} seconds={} trace={}",
        // `--git-dir` stops git searching parent directories for a repository.
        command_line("git", &["--git-dir=.git", "rev-parse", "--short=12", "HEAD"]),
        command_line("rustc", &["-V"]),
        dtc_par::num_threads(),
        args.seed,
        args.workload,
        args.seconds,
        u8::from(args.trace),
    );

    let result = match args.workload.as_str() {
        "iterate" => iterate::run(&args),
        "serve_hot" => serve::run(&serve::hot(), &args),
        "serve_churn" => serve::run(&serve::churn(), &args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.trace {
        outcome.metrics.push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB", 1));
    }
    let ledger = outcome.ledger;
    outcome.metrics.push(Metric::new(
        "failed_frac",
        ledger.failed_frac(),
        "ratio",
        ledger.attempted as usize,
    ));

    println!(
        "requests: attempted={} completed={} failed={} rejected={} wrong_output={}",
        ledger.attempted, ledger.completed, ledger.failed, ledger.rejected, ledger.wrong
    );
    for m in &outcome.metrics {
        println!("metric {:<32} {:>16} {:<6} n={}", m.name, m.value, m.unit, m.n);
    }

    let wanted: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut chosen = Vec::with_capacity(wanted.len());
    for name in wanted {
        match outcome.metrics.iter().find(|m| m.name == *name) {
            Some(m) if m.value.is_finite() => chosen.push(m),
            Some(m) => {
                eprintln!("perfbench: metric {name} is not finite ({})", m.value);
                return ExitCode::from(2);
            }
            None => {
                eprintln!("perfbench: metric {name} was not measured");
                return ExitCode::from(2);
            }
        }
    }
    let correct = ledger.conserved() && ledger.bad() == 0 && ledger.attempted > 0;
    println!("{}", json_line(&ledger, correct, &chosen));
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: outputs did not all match (see the requests line)");
        ExitCode::from(1)
    }
}
