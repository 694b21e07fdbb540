//! The differential runner: one case against the whole lineup.
//!
//! Each case runs through three differential axes:
//!
//! 1. **Kernels** — all 12 `SpmmEngine` models execute the case and are
//!    checked against the [`Reference`] oracle;
//!    each kernel's lowered trace is replayed through the full `dtc-verify`
//!    lint battery (structural, resources, conservation, coverage,
//!    speed-of-light over a simulated report).
//! 2. **Conversion paths** — `MeTcfMatrix::from_csr` at 1 and at 4
//!    worker threads, and the ME-TCF a `DtcSpmm` engine builds on demand,
//!    plus the `to_csr` round-trip, must agree bit-for-bit.
//! 3. **Pipeline** — the end-to-end `DtcSpmm` engine with TCA reordering
//!    on and off (exercising the plan cache and the permutation undo)
//!    must also land inside the envelope.
//! 4. **Cache** — cold, near-duplicate and warm plan-cache lookups
//!    against a direct plan build, at 1 and 4 worker threads; the
//!    near-duplicate shares `a`'s shape and structure, so only the value
//!    checksum tells the two apart.
//! 5. **Delta updates** — a seed-derived edit script (inserts, updates,
//!    deletes, deletes of absent coordinates) is applied in place via
//!    `MeTcfMatrix::apply_delta` and checked bitwise against a full
//!    rebuild over the edited CSR, plus the `to_csr` round-trip of the
//!    patched format.
//!
//! Every step is wrapped in `catch_unwind`: a panic anywhere is a
//! reportable failure, not a sweep abort.

use crate::gen::FuzzCase;
use crate::oracle::{check_against, Reference};
use dtc_baselines::util::distinct_col_count;
use dtc_baselines::{
    BlockSpmm, CusparseSpmm, FlashLlmSpmm, HpSpmm, HybridSplitSpmm, SparseTirSpmm, SpartaSpmm,
    SpmmEngine, SputnikSpmm, TcgnnSpmm, SPARTA_DEFAULT_LIMIT,
};
use dtc_core::cache::{clear_conversion_cache, plan_for};
use dtc_core::{BalancedDtcKernel, DtcKernel, DtcSpmm, ExecPlan, KeyMaterial};
use dtc_formats::{CsrMatrix, DenseMatrix, MatrixDelta, MeTcfMatrix, Precision};
use dtc_sim::{simulate, Device, SimOptions};
use dtc_verify::{verify_report, verify_trace, ProblemSpec, Severity, TraceCase};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What went wrong in one differential step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The step panicked.
    Panic,
    /// `execute` returned a `FormatError` on a well-formed case.
    ExecError,
    /// An output element left the oracle envelope (or broke the special-
    /// value structure).
    ValueMismatch,
    /// The lowered trace produced error-severity `dtc-verify` diagnostics.
    LintError,
    /// ME-TCF conversions disagree (1 vs 4 workers, or the engine's
    /// on-demand build).
    ConversionDiverged,
    /// `MeTcfMatrix::to_csr` does not reproduce the operand.
    RoundTripBroken,
    /// The plan cache returned something other than a direct plan build
    /// of the looked-up matrix.
    CacheDiverged,
    /// In-place delta patching diverged from a full rebuild over the
    /// edited matrix.
    DeltaDiverged,
}

impl FailureKind {
    /// Stable kebab-case id for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::ExecError => "exec-error",
            FailureKind::ValueMismatch => "value-mismatch",
            FailureKind::LintError => "lint-error",
            FailureKind::ConversionDiverged => "conversion-diverged",
            FailureKind::RoundTripBroken => "round-trip-broken",
            FailureKind::CacheDiverged => "cache-diverged",
            FailureKind::DeltaDiverged => "delta-diverged",
        }
    }
}

/// One failure of one differential step.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The kernel (or pseudo-step, e.g. `convert/serial`) that failed.
    pub kernel: String,
    /// The failure class.
    pub kind: FailureKind,
    /// Human-readable detail (panic message, first mismatch, lints).
    pub detail: String,
}

/// The outcome of running one case through every differential axis.
#[derive(Debug, Clone, Default)]
pub struct CaseOutcome {
    /// Every failure, in deterministic step order.
    pub failures: Vec<Failure>,
    /// Kernels that actually ran (fallible constructors may opt out).
    pub kernels_run: usize,
}

/// Runs `f`, converting a panic into an `Err` with its message.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| e.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into())
    })
}

/// One lineup entry: name, fallible constructor result, SDB flag.
type LineupEntry = (&'static str, Result<Box<dyn SpmmEngine>, String>, bool);

/// The 12-kernel lineup on one matrix (mirrors the `tracelint` sweep).
fn lineup(a: &CsrMatrix, device: &Device) -> Vec<LineupEntry> {
    let ok = |k: Box<dyn SpmmEngine>| -> Result<Box<dyn SpmmEngine>, String> { Ok(k) };
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
            dtc_baselines::VectorSparseSpmm::new(a, 8)
                .map(|k| Box::new(k) as _)
                .map_err(|e| e.to_string()),
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

/// Bitwise ME-TCF equality: `PartialEq` on the value array says
/// `NaN != NaN`, which would flag every NaN-carrying matrix as a
/// conversion divergence. The differential bar is bit-identity.
fn metcf_bitwise_eq(a: &MeTcfMatrix, b: &MeTcfMatrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.nnz() == b.nnz()
        && a.row_window_offset() == b.row_window_offset()
        && a.tc_offset() == b.tc_offset()
        && a.tc_local_id() == b.tc_local_id()
        && a.sparse_a_to_b() == b.sparse_a_to_b()
        && a.values().len() == b.values().len()
        && a.values().iter().zip(b.values()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `a == b` up to NaN-equals-NaN and sign-of-zero (the bar the kernels are
/// held to; sign-of-zero is below TF32 interchangeability).
fn dense_equiv(a: &DenseMatrix, b: &DenseMatrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(&x, &y)| x == y || (x.is_nan() && y.is_nan()))
}

/// Runs one case through every differential axis.
pub fn run_case(case: &FuzzCase, device: &Device) -> CaseOutcome {
    let mut out = CaseOutcome::default();
    let a = &case.a;
    let b = &case.b;
    let n = b.cols();
    let reference = Reference::compute(a, b);

    // Axis 2: conversion paths (serial SGT vs parallel merge + round-trip).
    check_conversion(a, &mut out);

    // Axis 1: the 12-kernel lineup.
    let b_rows_touched = distinct_col_count(a);
    for (name, kernel, sdb) in lineup(a, device) {
        let kernel = match kernel {
            Ok(k) => k,
            Err(_) => continue, // documented opt-out, not a failure
        };
        out.kernels_run += 1;
        match guarded(|| kernel.execute(b)) {
            Err(msg) => out.push(name, FailureKind::Panic, format!("execute panicked: {msg}")),
            Ok(Err(e)) => out.push(name, FailureKind::ExecError, e.to_string()),
            Ok(Ok(c)) => {
                if let Some(m) = check_against(&reference, &c) {
                    out.push(name, FailureKind::ValueMismatch, m.to_string());
                }
            }
        }
        match guarded(|| kernel.trace(n, device, true)) {
            Err(msg) => out.push(name, FailureKind::Panic, format!("trace panicked: {msg}")),
            Ok(trace) => {
                let problem =
                    ProblemSpec { rows: a.rows(), cols: a.cols(), nnz: a.nnz(), n, b_rows_touched };
                let tc = TraceCase::new(name, device, &trace).with_problem(problem).with_sdb(sdb);
                let lints = guarded(|| {
                    let mut diags = verify_trace(&tc);
                    let opts = SimOptions { simulate_l2: true, ..SimOptions::default() };
                    let sim = simulate(device, &trace, &opts);
                    diags.extend(verify_report(&tc, &sim));
                    diags
                });
                match lints {
                    Err(msg) => {
                        out.push(name, FailureKind::Panic, format!("verify panicked: {msg}"))
                    }
                    Ok(diags) => {
                        let errors: Vec<String> = diags
                            .iter()
                            .filter(|d| d.severity == Severity::Error)
                            .map(|d| d.to_string())
                            .collect();
                        if !errors.is_empty() {
                            out.push(name, FailureKind::LintError, errors.join("; "));
                        }
                    }
                }
            }
        }
    }

    // Axis 3: the end-to-end pipeline, TCA reordering off and on.
    for (label, reorder) in [("pipeline/reorder-off", false), ("pipeline/reorder-on", true)] {
        match guarded(|| DtcSpmm::builder().reorder(reorder).build(a).execute(b)) {
            Err(msg) => out.push(label, FailureKind::Panic, msg),
            Ok(Err(e)) => out.push(label, FailureKind::ExecError, e.to_string()),
            Ok(Ok(c)) => {
                if let Some(m) = check_against(&reference, &c) {
                    out.push(label, FailureKind::ValueMismatch, m.to_string());
                }
            }
        }
    }

    // Axis 4: plan-cache lookups vs a direct plan build.
    check_cache(a, &mut out);

    // Axis 5: in-place delta patching vs full rebuild.
    check_delta(case, &mut out);
    out
}

/// The delta-update differential: a seed-derived edit script, applied in
/// place to the case matrix's ME-TCF, must be bitwise identical to
/// condensing the edited CSR from scratch — and the patched format must
/// still round-trip through `to_csr`.
fn check_delta(case: &FuzzCase, out: &mut CaseOutcome) {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    let a = &case.a;
    let mut rng = StdRng::seed_from_u64(case.seed ^ 0x00DE_17A5);
    let existing: Vec<(usize, usize, f32)> = a.iter().collect();
    let mut delta = MatrixDelta::new();
    for _ in 0..rng.random_range(1usize..24) {
        let at_existing = !existing.is_empty() && rng.random_range(0..2) == 0;
        let (r, c) = if at_existing {
            let (r, c, _) = existing[rng.random_range(0..existing.len())];
            (r, c)
        } else {
            (rng.random_range(0..a.rows()), rng.random_range(0..a.cols()))
        };
        match rng.random_range(0..4) {
            // Deletes of absent coordinates are legal no-ops.
            0 => delta.delete(r, c),
            1 => delta.update(r, c, rng.random_range(-2.0f32..2.0)),
            2 => delta.insert(r, c, 0.0), // explicit stored zero
            _ => delta.insert(r, c, rng.random_range(-2.0f32..2.0)),
        }
    }

    let result = guarded(|| {
        let mut patched = MeTcfMatrix::from_csr(a);
        let report = patched.apply_delta(&delta)?;
        let edited = delta.apply_to_csr(a)?;
        Ok::<_, dtc_formats::FormatError>((patched, report, edited))
    });
    match result {
        Err(msg) => out.push("delta/apply", FailureKind::Panic, msg),
        Ok(Err(e)) => out.push("delta/apply", FailureKind::ExecError, e.to_string()),
        Ok(Ok((patched, report, edited))) => {
            let rebuilt = MeTcfMatrix::from_csr(&edited);
            if !metcf_bitwise_eq(&patched, &rebuilt) {
                out.push(
                    "delta/apply",
                    FailureKind::DeltaDiverged,
                    format!(
                        "in-place patch: {} blocks / {} nnz vs rebuild {} blocks / {} nnz",
                        patched.num_tc_blocks(),
                        patched.nnz(),
                        rebuilt.num_tc_blocks(),
                        rebuilt.nnz()
                    ),
                );
            }
            if report.nnz_after != edited.nnz() {
                out.push(
                    "delta/report",
                    FailureKind::DeltaDiverged,
                    format!(
                        "report says {} nnz, edited CSR has {}",
                        report.nnz_after,
                        edited.nnz()
                    ),
                );
            }
            match guarded(|| patched.to_csr()) {
                Err(msg) => out.push("delta/round-trip", FailureKind::Panic, msg),
                Ok(Err(e)) => {
                    out.push("delta/round-trip", FailureKind::RoundTripBroken, e.to_string())
                }
                Ok(Ok(back)) => {
                    let same = dense_equiv(&back.to_dense(), &edited.to_dense());
                    if !same {
                        out.push(
                            "delta/round-trip",
                            FailureKind::RoundTripBroken,
                            format!(
                                "patched to_csr diverges from edited CSR ({} nnz vs {} nnz)",
                                back.nnz(),
                                edited.nnz()
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// The cache differential: the plan cache must serve exactly what a
/// direct plan build computes. For each thread count, the case matrix is
/// looked up cold, then a near-duplicate (one value bit flipped, so its
/// identity differs from `a`'s only in the value checksum), then `a` again
/// warm — and every result must be bitwise identical to its direct build
/// (`ExecPlan`'s equality compares floats by bits).
fn check_cache(a: &CsrMatrix, out: &mut CaseOutcome) {
    let variant = (a.nnz() > 0).then(|| {
        let mut triplets: Vec<(usize, usize, f32)> = a.iter().collect();
        let (r, c, v) = triplets[0];
        triplets[0] = (r, c, f32::from_bits(v.to_bits() ^ 1));
        CsrMatrix::from_triplets(a.rows(), a.cols(), &triplets).expect("in-bounds triplets")
    });
    let direct = |m: &CsrMatrix| {
        ExecPlan::from_csr(m, Precision::Tf32).expect("fuzz case within u32 bounds")
    };
    for threads in [1usize, 4] {
        let label = format!("cache/t{threads}");
        let result = guarded(|| {
            // Fuzz cases are far inside the u32 offset bounds, so a
            // conversion error here is a panic-worthy harness bug (and is
            // caught by `guarded` as a reportable failure either way).
            let plan = |m: &CsrMatrix| {
                plan_for(m, &KeyMaterial::of(m), Precision::Tf32)
                    .expect("fuzz case within u32 bounds")
            };
            dtc_par::set_threads(Some(threads));
            clear_conversion_cache();
            let cold_a = plan(a);
            let cached_v = variant.as_ref().map(&plan);
            let warm_a = plan(a);
            (cold_a, cached_v, warm_a, direct(a), variant.as_ref().map(direct))
        });
        dtc_par::set_threads(None);
        match result {
            Err(msg) => out.push(&label, FailureKind::Panic, msg),
            Ok((cold_a, cached_v, warm_a, direct_a, direct_v)) => {
                if *cold_a != direct_a {
                    out.push(&label, FailureKind::CacheDiverged, "cold lookup diverges".into());
                }
                if *warm_a != direct_a {
                    out.push(&label, FailureKind::CacheDiverged, "warm lookup diverges".into());
                }
                if let (Some(cv), Some(dv)) = (&cached_v, &direct_v) {
                    if **cv != *dv {
                        out.push(
                            &label,
                            FailureKind::CacheDiverged,
                            "near-duplicate cross-served a stale plan".into(),
                        );
                    }
                }
            }
        }
    }
}

/// The conversion-path differential: `from_csr` at 1 vs 4 worker threads
/// vs the engine's on-demand build, plus round-trip.
fn check_conversion(a: &CsrMatrix, out: &mut CaseOutcome) {
    let convert_at = |threads: usize| {
        let m = guarded(|| {
            dtc_par::set_threads(Some(threads));
            MeTcfMatrix::from_csr(a)
        });
        dtc_par::set_threads(None);
        m
    };
    let serial = match convert_at(1) {
        Err(msg) => {
            out.push("convert/serial", FailureKind::Panic, msg);
            return;
        }
        Ok(m) => m,
    };
    match convert_at(4) {
        Err(msg) => out.push("convert/parallel", FailureKind::Panic, msg),
        Ok(parallel) => {
            if !metcf_bitwise_eq(&parallel, &serial) {
                out.push(
                    "convert/parallel",
                    FailureKind::ConversionDiverged,
                    format!(
                        "4 workers: {} blocks vs 1 worker {} blocks",
                        parallel.num_tc_blocks(),
                        serial.num_tc_blocks()
                    ),
                );
            }
        }
    }
    match guarded(|| DtcSpmm::builder().build(a).metcf().clone()) {
        Err(msg) => out.push("convert/engine", FailureKind::Panic, msg),
        Ok(forced) => {
            if !metcf_bitwise_eq(&forced, &serial) {
                out.push(
                    "convert/engine",
                    FailureKind::ConversionDiverged,
                    format!(
                        "engine's on-demand ME-TCF: {} blocks vs serial {} blocks",
                        forced.num_tc_blocks(),
                        serial.num_tc_blocks()
                    ),
                );
            }
        }
    }
    match guarded(|| serial.to_csr()) {
        Err(msg) => out.push("convert/round-trip", FailureKind::Panic, msg),
        Ok(Err(e)) => out.push("convert/round-trip", FailureKind::RoundTripBroken, e.to_string()),
        Ok(Ok(back)) => {
            let same = guarded(|| dense_equiv(&back.to_dense(), &a.to_dense()));
            match same {
                Err(msg) => out.push("convert/round-trip", FailureKind::Panic, msg),
                Ok(true) => {}
                Ok(false) => out.push(
                    "convert/round-trip",
                    FailureKind::RoundTripBroken,
                    format!("to_csr round-trip diverges ({} nnz vs {} nnz)", back.nnz(), a.nnz()),
                ),
            }
        }
    }
}

impl CaseOutcome {
    fn push(&mut self, kernel: &str, kind: FailureKind, detail: String) {
        self.failures.push(Failure { kernel: kernel.into(), kind, detail });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtc_formats::gen;

    #[test]
    fn well_behaved_case_is_clean() {
        let a = gen::uniform(64, 64, 512, 42);
        let b = DenseMatrix::from_fn(64, 32, |r, c| ((r + c) % 7) as f32 * 0.25 - 0.5);
        let case = FuzzCase { family: "unit", seed: 0, a, b };
        let out = run_case(&case, &Device::rtx4090());
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert!(out.kernels_run >= 10);
    }

    #[test]
    fn skipped_constructors_are_not_failures() {
        // 1x1: several baselines decline tiny/irregular shapes — that must
        // not count as a failure.
        let a = CsrMatrix::from_triplets(1, 1, &[(0, 0, 1.0)]).expect("valid");
        let b = DenseMatrix::ones(1, 4);
        let case = FuzzCase { family: "unit", seed: 0, a, b };
        let out = run_case(&case, &Device::rtx4090());
        assert!(out.failures.is_empty(), "{:?}", out.failures);
    }
}
