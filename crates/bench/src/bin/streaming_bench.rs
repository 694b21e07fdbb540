//! `streaming_bench`: incremental delta updates vs full engine rebuilds.
//!
//! Streaming workloads (graph updates, online pruning) edit a few entries
//! of a resident matrix at a time. The paper's conversion-cost argument
//! cuts both ways there: a full rebuild pays CSR reconstruction, SGT
//! condensing and the simulation-based Selector on every edit batch,
//! while `DtcSpmm::apply_delta` re-condenses only the touched 16-row
//! windows, splices them in place, drops every stale cached artifact, and
//! re-runs the Selector only when the row-length stats drift.
//!
//! The sweep scales the number of touched windows per edit batch and
//! times both paths end to end (the rebuild path includes constructing
//! the edited CSR, which any rebuild consumer must also do). Reported per
//! point: ms per edit batch for each path and the delta-path speedup; the
//! summary locates the **crossover** — the smallest touched-window count
//! where patching stops beating rebuilding — which full-matrix sweeps
//! never reach. Writes `BENCH_streaming.json`.
//!
//! Every run first pins correctness: for each point the patched engine's
//! ME-TCF must be **bitwise identical** to a fresh build over the edited
//! matrix, and a post-delta execute must match the rebuilt engine's
//! output bit for bit.
//!
//! Gates (smoke and full): bitwise identity at every point, a ≥ 5x
//! single-window speedup (the acceptance bar for the delta path), and
//! crossover sanity — the single-window speedup must be at least the
//! all-windows speedup, so the curve trends the right way.

use dtc_core::{clear_conversion_cache, DeltaPolicy, DtcSpmm, MatrixDelta, SpmmEngine};
use dtc_formats::gen::uniform;
use dtc_formats::{CsrMatrix, DenseMatrix};
use dtc_telemetry::json::Json;
use std::time::Instant;

/// Timing repeats per (point, path); the minimum is reported. Nine reps
/// because the delta path's sub-millisecond timings are jitter-sensitive
/// on a loaded single-core host and the gate below is a hard assert.
const REPS: usize = 9;

/// One sweep point.
struct Point {
    windows_touched: usize,
    ops: usize,
    delta_ms: f64,
    rebuild_ms: f64,
    reselected: bool,
}

impl Point {
    fn speedup(&self) -> f64 {
        self.rebuild_ms / self.delta_ms
    }
}

/// An edit batch touching exactly `k` of the matrix's row windows, spread
/// evenly across the row space: per window two inserts at seed-dependent
/// columns, one update of a resident entry and one delete of a resident
/// entry (both fall back to inserts when the window is empty).
fn make_delta(a: &CsrMatrix, k: usize, seed: u64) -> MatrixDelta {
    let windows = a.rows().div_ceil(16).max(1);
    let k = k.min(windows);
    let mut delta = MatrixDelta::new();
    for i in 0..k {
        let w = i * windows / k;
        let base = w * 16;
        let rows = (a.rows() - base).min(16);
        let mix = seed ^ (w as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let col = |j: u64| ((mix.wrapping_mul(j * 2 + 1) >> 17) as usize) % a.cols();
        let row = |j: u64| base + ((mix.wrapping_mul(j * 2 + 7) >> 23) as usize) % rows;
        delta.insert(row(1), col(1), 0.5);
        delta.insert(row(2), col(2), -1.5);
        let resident: Vec<(usize, usize, f32)> = (base..base + rows)
            .flat_map(|r| {
                let (cols, vals) = a.row_entries(r);
                cols.iter().zip(vals).map(move |(&c, &v)| (r, c as usize, v)).collect::<Vec<_>>()
            })
            .collect();
        if resident.is_empty() {
            delta.insert(row(3), col(3), 2.0);
            delta.insert(row(4), col(4), -0.25);
        } else {
            let (r, c, v) = resident[(mix >> 11) as usize % resident.len()];
            delta.update(r, c, v * 2.0 + 1.0);
            let (r, c, _) = resident[(mix >> 29) as usize % resident.len()];
            delta.delete(r, c);
        }
    }
    delta
}

/// Pins the point's correctness: patching in place must equal a fresh
/// build over the edited matrix — format bitwise, output bitwise.
fn assert_bitwise(a: &CsrMatrix, delta: &MatrixDelta, policy: &DeltaPolicy) {
    let mut patched = DtcSpmm::new(a);
    patched.apply_delta(delta, policy).expect("apply_delta");
    let edited = delta.apply_to_csr(a).expect("apply_to_csr");
    clear_conversion_cache();
    let rebuilt = DtcSpmm::new(&edited);
    assert_eq!(patched.metcf(), rebuilt.metcf(), "patched ME-TCF must equal rebuild");
    let b = DenseMatrix::from_fn(a.cols(), 16, |r, c| ((r * 7 + c * 3) % 17) as f32 * 0.25 - 2.0);
    let via_patch = patched.execute(&b).expect("patched execute");
    let via_rebuild = rebuilt.execute(&b).expect("rebuilt execute");
    let bits = |m: &DenseMatrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&via_patch), bits(&via_rebuild), "post-delta execute diverged");
}

/// Times one edit-batch size: the delta path (in-place `apply_delta` on a
/// prepared engine) against the rebuild path (edited-CSR construction
/// plus a cold `DtcSpmm::new`). Both are best-of-[`REPS`]; the engine the
/// delta path patches is rebuilt untimed before every rep, since
/// `apply_delta` consumes the pre-edit state.
fn sweep_point(a: &CsrMatrix, k: usize, policy: &DeltaPolicy) -> Point {
    let delta = make_delta(a, k, 0x57AE_A41B ^ k as u64);
    assert_bitwise(a, &delta, policy);

    let mut delta_ms = f64::INFINITY;
    let mut reselected = false;
    for _ in 0..REPS {
        clear_conversion_cache();
        let mut engine = DtcSpmm::new(a);
        let t0 = Instant::now();
        let outcome = engine.apply_delta(&delta, policy).expect("apply_delta");
        delta_ms = delta_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        reselected = outcome.reselected;
        std::hint::black_box(&engine);
    }

    let mut rebuild_ms = f64::INFINITY;
    for _ in 0..REPS {
        clear_conversion_cache();
        let t0 = Instant::now();
        let edited = delta.apply_to_csr(a).expect("apply_to_csr");
        let engine = DtcSpmm::new(&edited);
        rebuild_ms = rebuild_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(&engine);
    }

    Point { windows_touched: k, ops: delta.len(), delta_ms, rebuild_ms, reselected }
}

fn json_point(p: &Point) -> Json {
    Json::obj_inline(vec![
        ("windows_touched", Json::usize(p.windows_touched)),
        ("ops", Json::usize(p.ops)),
        ("delta_ms", Json::f(p.delta_ms, 4)),
        ("rebuild_ms", Json::f(p.rebuild_ms, 4)),
        ("speedup", Json::f(p.speedup(), 3)),
        ("reselected", Json::bool(p.reselected)),
    ])
}

fn main() {
    let _metrics = dtc_bench::metrics_flush_guard();
    let args = dtc_bench::cli::Args::parse();
    let smoke = args.smoke();

    let (rows, nnz_per_row, ks): (usize, usize, Vec<usize>) = if smoke {
        (2048, 8, vec![1, 4, 16, 64])
    } else {
        (4096, 8, vec![1, 2, 4, 8, 16, 32, 64, 128, 256])
    };
    let a = uniform(rows, rows, rows * nnz_per_row, 0xD7C5_57AE);
    let windows = rows.div_ceil(16);
    let policy = DeltaPolicy::default();
    println!(
        "## streaming — {rows}x{rows}, {} nnz, {windows} windows, {} edit-batch sizes, \
         best of {REPS}",
        a.nnz(),
        ks.len()
    );

    let points: Vec<Point> = ks.iter().map(|&k| sweep_point(&a, k, &policy)).collect();

    println!("\n| windows touched | ops | delta ms | rebuild ms | speedup | reselected |");
    println!("|---|---|---|---|---|---|");
    for p in &points {
        println!(
            "| {} | {} | {:.4} | {:.4} | {:.2}x | {} |",
            p.windows_touched,
            p.ops,
            p.delta_ms,
            p.rebuild_ms,
            p.speedup(),
            p.reselected
        );
    }

    // The crossover: the smallest touched-window count where patching no
    // longer beats rebuilding (None when patching wins everywhere).
    let crossover = points.iter().find(|p| p.speedup() < 1.0).map(|p| p.windows_touched);
    match crossover {
        Some(k) => println!("\ncrossover at {k} touched windows (of {windows})"),
        None => println!("\nno crossover: the delta path won at every sweep point"),
    }

    // Gates. Bitwise identity already ran inside every sweep point.
    let single = &points[0];
    assert_eq!(single.windows_touched, 1, "sweep must start at one window");
    assert!(
        single.speedup() >= 5.0,
        "single-window delta speedup {:.2}x below the 5x acceptance bar \
         ({:.4} ms vs {:.4} ms)",
        single.speedup(),
        single.delta_ms,
        single.rebuild_ms
    );
    let widest = points.last().expect("non-empty sweep");
    assert!(
        single.speedup() >= widest.speedup(),
        "crossover sanity: speedup at 1 window ({:.2}x) must be >= at {} windows ({:.2}x)",
        single.speedup(),
        widest.windows_touched,
        widest.speedup()
    );

    let json = Json::obj(vec![
        ("bench", Json::str("streaming")),
        ("smoke", Json::bool(smoke)),
        ("timing_reps", Json::usize(REPS)),
        (
            "matrix",
            Json::obj_inline(vec![
                ("rows", Json::usize(rows)),
                ("cols", Json::usize(rows)),
                ("nnz", Json::usize(a.nnz())),
                ("windows", Json::usize(windows)),
            ]),
        ),
        ("reselect_drift", Json::f(policy.reselect_drift, 3)),
        ("points", Json::arr(points.iter().map(json_point).collect())),
        ("crossover_windows", crossover.map_or(Json::str("none"), Json::usize)),
    ])
    .render();
    let artifact = if smoke { "BENCH_streaming_smoke.json" } else { "BENCH_streaming.json" };
    std::fs::write(artifact, &json).expect("write streaming artifact");
    println!("wrote {artifact}");
}
