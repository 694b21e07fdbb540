//! `tracelint`: the static lint sweep over every kernel model.
//!
//! Lowers every kernel (DTC base + balanced and all ten baselines) over a
//! dataset suite and runs the full `dtc-verify` lint battery on each trace
//! — structural invariants, SM resource legality (paper eq. 6),
//! conservation laws, cost-table coverage — plus the speed-of-light and
//! counter-identity lints over a simulated report of the same trace.
//!
//! Modes: default sweeps the eight Table-1 representative matrices;
//! `--suite` sweeps the 120-matrix SuiteSparse stand-in corpus; `--smoke`
//! runs two small matrices for CI. Writes `TRACELINT.json`
//! (`TRACELINT_smoke.json` under `--smoke`) and exits nonzero when any
//! error-severity diagnostic is produced — this is the CI gate that keeps
//! lowering sites honest.
//!
//! Documentation modes (no sweep): `--explain <lint-id>` prints one
//! lint's id, severity and summary from either registry; `--lints-md`
//! regenerates `docs/LINTS.md` (run from the repo root; the
//! `lint_docs` test fails when the checked-in file drifts).

use dtc_baselines::util::distinct_col_count;
use dtc_baselines::*;
use dtc_core::{BalancedDtcKernel, DtcKernel};
use dtc_datasets::{representative, scaled_device, suite_corpus, Dataset};
use dtc_formats::CsrMatrix;
use dtc_sim::{simulate, Device, SimOptions};
use dtc_verify::{verify_report, verify_trace, CaseResult, LintReport, ProblemSpec, TraceCase};

/// Record B-access streams (and simulate the L2) only below this NNZ, to
/// keep the full-corpus sweep fast; smoke mode always records.
const RECORD_NNZ_LIMIT: usize = 200_000;

/// One lineup entry: kernel name, fallible constructor result, and whether
/// the modeled kernel double-buffers its A fetch with `cp.async` (the SDB
/// flag the gating lint checks `overlap_a_fetch` against).
type LineupEntry = (&'static str, Result<Box<dyn SpmmKernel>, String>, bool);

/// The kernel lineup on one matrix.
fn lineup(a: &CsrMatrix, device: &Device) -> Vec<LineupEntry> {
    let ok = |k: Box<dyn SpmmKernel>| -> Result<Box<dyn SpmmKernel>, String> { Ok(k) };
    vec![
        ("cuSPARSE", ok(Box::new(CusparseSpmm::new(a))), false),
        ("TCGNN", TcgnnSpmm::new(a).map(|k| Box::new(k) as _).map_err(|e| e.to_string()), false),
        (
            "Sputnik",
            SputnikSpmm::new(a).map(|k| Box::new(k) as _).map_err(|e| e.to_string()),
            false,
        ),
        ("SparseTIR", ok(Box::new(SparseTirSpmm::new(a))), false),
        ("HP-SpMM", ok(Box::new(HpSpmm::new(a))), false),
        (
            "Block-SpMM",
            BlockSpmm::new(a, 32, device.global_mem_bytes)
                .map(|k| Box::new(k) as _)
                .map_err(|e| e.to_string()),
            true,
        ),
        (
            "VectorSparse",
            VectorSparseSpmm::new(a, 8).map(|k| Box::new(k) as _).map_err(|e| e.to_string()),
            true,
        ),
        (
            "Flash-LLM",
            FlashLlmSpmm::new(a, device.global_mem_bytes)
                .map(|k| Box::new(k) as _)
                .map_err(|e| e.to_string()),
            true,
        ),
        (
            "SparTA",
            SpartaSpmm::new(a, SPARTA_DEFAULT_LIMIT)
                .map(|k| Box::new(k) as _)
                .map_err(|e| e.to_string()),
            true,
        ),
        ("HybridSplit", ok(Box::new(HybridSplitSpmm::new(a))), true),
        ("DTC-SpMM", ok(Box::new(DtcKernel::new(a))), true),
        ("DTC-SpMM-balanced", ok(Box::new(BalancedDtcKernel::new(a))), true),
    ]
}

/// Lints every kernel on one dataset, appending to the report.
fn lint_dataset(dataset: &Dataset, n: usize, device: &Device, report: &mut LintReport) {
    let a = dataset.matrix();
    let record = a.nnz() <= RECORD_NNZ_LIMIT;
    let b_rows_touched = distinct_col_count(&a);
    for (name, kernel, sdb) in lineup(&a, device) {
        let kernel = match kernel {
            Ok(k) => k,
            Err(reason) => {
                println!("  {name} on {}: skipped ({reason})", dataset.abbr);
                continue;
            }
        };
        let trace = kernel.trace(n, device, record);
        let problem =
            ProblemSpec { rows: a.rows(), cols: a.cols(), nnz: a.nnz(), n, b_rows_touched };
        let case = TraceCase::new(name, device, &trace).with_problem(problem).with_sdb(sdb);
        let mut diagnostics = verify_trace(&case);
        let opts = SimOptions { simulate_l2: record, ..SimOptions::default() };
        let sim = simulate(device, &trace, &opts);
        diagnostics.extend(verify_report(&case, &sim));
        for d in &diagnostics {
            println!("  {name} on {}: {d}", dataset.abbr);
        }
        report.cases.push(CaseResult {
            kernel: name.into(),
            dataset: dataset.abbr.clone(),
            num_tbs: trace.num_tbs(),
            num_classes: trace.classes().len(),
            diagnostics,
        });
    }
}

fn main() {
    let _metrics = dtc_bench::metrics_flush_guard();
    let args = dtc_bench::cli::Args::parse();
    if args.flag("explain") {
        let id = args.positional(0).unwrap_or("");
        match dtc_verify::explain_lint(id) {
            Some(doc) => {
                println!("{} ({})", doc.id, doc.severity.as_str());
                println!("  {}", doc.summary);
                return;
            }
            None => {
                eprintln!("tracelint: unknown lint id {id:?} (see docs/LINTS.md)");
                std::process::exit(2);
            }
        }
    }
    if args.flag("lints-md") {
        std::fs::write("docs/LINTS.md", dtc_verify::lints_markdown()).expect("write docs/LINTS.md");
        println!("wrote docs/LINTS.md");
        return;
    }
    let smoke = args.smoke();
    let suite = args.flag("suite");
    let device = scaled_device(Device::rtx4090());

    let (datasets, n) = if smoke {
        // Two small matrices, one per structure type.
        let ds = representative()
            .into_iter()
            .filter(|d| d.abbr == "DD" || d.abbr == "ddi")
            .collect::<Vec<_>>();
        (ds, 64)
    } else if suite {
        (suite_corpus(), 128)
    } else {
        (representative(), 128)
    };

    let mut report = LintReport::new(&device.name);
    println!("## tracelint — {} datasets, N={n}, device={}", datasets.len(), device.name);
    for dataset in &datasets {
        lint_dataset(dataset, n, &device, &mut report);
    }

    let json = report.to_json();
    let artifact = if smoke { "TRACELINT_smoke.json" } else { "TRACELINT.json" };
    std::fs::write(artifact, &json).expect("write tracelint artifact");
    println!(
        "{} cases: {} errors, {} warnings, {} infos — wrote {artifact}",
        report.cases.len(),
        report.count(dtc_verify::Severity::Error),
        report.count(dtc_verify::Severity::Warning),
        report.count(dtc_verify::Severity::Info),
    );
    if report.has_errors() {
        eprintln!("tracelint: error-severity diagnostics found");
        std::process::exit(1);
    }
}
