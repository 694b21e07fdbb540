//! `streaming_bench`: incremental ME-TCF delta patches vs full
//! conversions.
//!
//! Streaming workloads (graph updates, online pruning) edit a few entries
//! of a resident matrix at a time. The paper converts each 16-row window
//! on its own, which cuts both ways there: a full rebuild pays CSR
//! reconstruction and SGT condensing of every window on every edit batch,
//! while `MeTcfMatrix::apply_delta` re-condenses only the touched windows
//! and splices them into the resident format.
//!
//! The sweep scales the number of touched windows per edit batch and
//! times both paths at the format level, in interleaved pairs: the delta
//! path patches an untimed clone of the resident ME-TCF, and the rebuild
//! path constructs the edited CSR (which any rebuild consumer must also
//! do) and converts it. Reported per point: the median ms per edit batch
//! for each path and the median per-pair delta-path speedup; the summary
//! locates the **crossover** — the smallest touched-window count where
//! patching stops beating rebuilding — which full-matrix sweeps never
//! reach. Writes `BENCH_streaming.json`.
//!
//! One host point is recorded too, ungated: at one touched window,
//! `DtcSpmm::apply_delta` plus one N = 16 execute against the edited CSR,
//! a cold `DtcSpmm::new` and the same execute. An engine delta is an edit
//! plus a plan build, so the two sides differ only in how the edited
//! matrix is reached.
//!
//! Every run first pins correctness: for each point the patched ME-TCF
//! must be **bitwise identical** to a conversion of the edited matrix,
//! and an engine edited by `apply_delta` must match a fresh build over
//! the edited matrix bit for bit, in its ME-TCF and its execute output.
//!
//! Gates (smoke and full): bitwise identity at every point, a ≥ 5x
//! single-window speedup (the acceptance bar for the delta path), and
//! crossover sanity — the single-window speedup must be at least the
//! all-windows speedup, so the curve trends the right way.

use dtc_core::{clear_conversion_cache, DtcSpmm, MatrixDelta, SpmmEngine};
use dtc_formats::gen::uniform;
use dtc_formats::{CsrMatrix, DenseMatrix, MeTcfMatrix};
use dtc_telemetry::json::Json;
use std::time::Instant;

/// Interleaved (delta, rebuild) timing pairs per point. The gate reads
/// the median of the per-pair ratios: a stall on a loaded two-core host
/// lands in one pair, not in one path's best-of, so one odd rep cannot
/// decide a hard assert. Smoke points are ~10× cheaper and noisier, so
/// they take more pairs.
const REPS: usize = 21;
const SMOKE_REPS: usize = 81;

/// Operand width of the host point's execute.
const HOST_N: usize = 16;

/// One sweep point: median ms per path, and the median per-pair speedup.
struct Point {
    windows_touched: usize,
    ops: usize,
    delta_ms: f64,
    rebuild_ms: f64,
    speedup: f64,
}
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
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

/// The dense operand every execute here multiplies by.
fn operand(a: &CsrMatrix) -> DenseMatrix {
    DenseMatrix::from_fn(a.cols(), HOST_N, |r, c| ((r * 7 + c * 3) % 17) as f32 * 0.25 - 2.0)
}

/// Pins the point's correctness: the patched format must equal a
/// conversion of the edited matrix, and an engine edited in place must
/// equal a fresh build over it — format bitwise, output bitwise.
fn assert_bitwise(a: &CsrMatrix, resident: &MeTcfMatrix, delta: &MatrixDelta) {
    let edited = delta.apply_to_csr(a).expect("apply_to_csr");
    let mut patched = resident.clone();
    patched.apply_delta(delta).expect("apply_delta");
    assert_eq!(patched, MeTcfMatrix::from_csr(&edited), "patched ME-TCF must equal rebuild");

    let mut engine = DtcSpmm::new(a);
    engine.apply_delta(delta).expect("apply_delta");
    clear_conversion_cache();
    let rebuilt = DtcSpmm::new(&edited);
    assert_eq!(engine.metcf(), rebuilt.metcf(), "edited engine's ME-TCF must equal rebuild");
    let b = operand(a);
    let via_delta = engine.execute(&b).expect("edited execute");
    let via_rebuild = rebuilt.execute(&b).expect("rebuilt execute");
    let bits = |m: &DenseMatrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&via_delta), bits(&via_rebuild), "post-delta execute diverged");
}

/// Runs `reps` interleaved (delta, rebuild) pairs. Each closure does its
/// untimed set-up, then returns the ms its own path took. Returns each
/// path's median ms and the median per-pair ratio (rebuild over delta).
fn time_pairs(
    reps: usize,
    mut delta: impl FnMut() -> f64,
    mut rebuild: impl FnMut() -> f64,
) -> (f64, f64, f64) {
    let (mut delta_ms, mut rebuild_ms, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        let (d, r) = (delta(), rebuild());
        delta_ms.push(d);
        rebuild_ms.push(r);
        ratios.push(r / d);
    }
    (median(delta_ms), median(rebuild_ms), median(ratios))
}

fn elapsed_ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Times one edit-batch size: the delta path (`MeTcfMatrix::apply_delta`
/// on an untimed clone of the resident format, since a patch consumes the
/// pre-edit state) against the rebuild path (edited-CSR construction plus
/// `MeTcfMatrix::from_csr`).
fn sweep_point(a: &CsrMatrix, resident: &MeTcfMatrix, k: usize, reps: usize) -> Point {
    let delta = make_delta(a, k, 0x57AE_A41B ^ k as u64);
    assert_bitwise(a, resident, &delta);
    let (delta_ms, rebuild_ms, speedup) = time_pairs(
        reps,
        || {
            let mut patched = resident.clone();
            let t0 = Instant::now();
            patched.apply_delta(&delta).expect("apply_delta");
            let ms = elapsed_ms(t0);
            std::hint::black_box(patched);
            ms
        },
        || {
            let t0 = Instant::now();
            let edited = delta.apply_to_csr(a).expect("apply_to_csr");
            let rebuilt = MeTcfMatrix::from_csr(&edited);
            let ms = elapsed_ms(t0);
            std::hint::black_box(rebuilt);
            ms
        },
    );
    Point { windows_touched: k, ops: delta.len(), delta_ms, rebuild_ms, speedup }
}

/// The host point: one-window `DtcSpmm::apply_delta` plus an execute on
/// a prepared engine (rebuilt untimed before every pair) against
/// `apply_to_csr` plus a cold `DtcSpmm::new` plus the same execute.
fn host_point(a: &CsrMatrix, reps: usize) -> (f64, f64, f64) {
    let delta = make_delta(a, 1, 0x57AE_A41B ^ 1);
    let b = operand(a);
    time_pairs(
        reps,
        || {
            clear_conversion_cache();
            let mut engine = DtcSpmm::new(a);
            let t0 = Instant::now();
            engine.apply_delta(&delta).expect("apply_delta");
            std::hint::black_box(engine.execute(&b).expect("execute"));
            elapsed_ms(t0)
        },
        || {
            clear_conversion_cache();
            let t0 = Instant::now();
            let edited = delta.apply_to_csr(a).expect("apply_to_csr");
            let engine = DtcSpmm::new(&edited);
            std::hint::black_box(engine.execute(&b).expect("execute"));
            elapsed_ms(t0)
        },
    )
}

fn json_point(p: &Point) -> Json {
    Json::obj_inline(vec![
        ("windows_touched", Json::usize(p.windows_touched)),
        ("ops", Json::usize(p.ops)),
        ("delta_ms", Json::f(p.delta_ms, 4)),
        ("rebuild_ms", Json::f(p.rebuild_ms, 4)),
        ("speedup", Json::f(p.speedup, 3)),
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
    let resident = MeTcfMatrix::from_csr(&a);
    let reps = if smoke { SMOKE_REPS } else { REPS };
    println!(
        "## streaming — {rows}x{rows}, {} nnz, {windows} windows, {} edit-batch sizes, \
         medians of {reps} interleaved pairs",
        a.nnz(),
        ks.len()
    );

    let points: Vec<Point> = ks.iter().map(|&k| sweep_point(&a, &resident, k, reps)).collect();

    println!("\n| windows touched | ops | delta ms | rebuild ms | speedup |");
    println!("|---|---|---|---|---|");
    for p in &points {
        println!(
            "| {} | {} | {:.4} | {:.4} | {:.2}x |",
            p.windows_touched, p.ops, p.delta_ms, p.rebuild_ms, p.speedup
        );
    }

    let (host_delta_ms, host_rebuild_ms, host_ratio) = host_point(&a, reps);
    println!(
        "\nhost point (1 window, N = {HOST_N}, ungated): engine delta + execute {host_delta_ms:.4} ms, \
         apply_to_csr + new + execute {host_rebuild_ms:.4} ms, ratio {host_ratio:.2}x"
    );

    // The crossover: the smallest touched-window count where patching no
    // longer beats rebuilding (None when patching wins everywhere).
    let crossover = points.iter().find(|p| p.speedup < 1.0).map(|p| p.windows_touched);
    match crossover {
        Some(k) => println!("\ncrossover at {k} touched windows (of {windows})"),
        None => println!("\nno crossover: the delta path won at every sweep point"),
    }

    // Gates. Bitwise identity already ran inside every sweep point.
    let single = &points[0];
    assert_eq!(single.windows_touched, 1, "sweep must start at one window");
    assert!(
        single.speedup >= 5.0,
        "single-window delta speedup {:.2}x below the 5x acceptance bar \
         ({:.4} ms vs {:.4} ms)",
        single.speedup,
        single.delta_ms,
        single.rebuild_ms
    );
    let widest = points.last().expect("non-empty sweep");
    assert!(
        single.speedup >= widest.speedup,
        "crossover sanity: speedup at 1 window ({:.2}x) must be >= at {} windows ({:.2}x)",
        single.speedup,
        widest.windows_touched,
        widest.speedup
    );

    let json = Json::obj(vec![
        ("bench", Json::str("streaming")),
        ("smoke", Json::bool(smoke)),
        ("timing_reps", Json::usize(reps)),
        ("timing_statistic", Json::str("median of interleaved delta/rebuild pairs")),
        (
            "matrix",
            Json::obj_inline(vec![
                ("rows", Json::usize(rows)),
                ("cols", Json::usize(rows)),
                ("nnz", Json::usize(a.nnz())),
                ("windows", Json::usize(windows)),
            ]),
        ),
        ("points", Json::arr(points.iter().map(json_point).collect())),
        ("crossover_windows", crossover.map_or(Json::str("none"), Json::usize)),
        (
            "host_point",
            Json::obj_inline(vec![
                ("windows_touched", Json::usize(1)),
                ("n", Json::usize(HOST_N)),
                ("delta_execute_ms", Json::f(host_delta_ms, 4)),
                ("rebuild_execute_ms", Json::f(host_rebuild_ms, 4)),
                ("ratio", Json::f(host_ratio, 3)),
            ]),
        ),
    ])
    .render();
    let artifact = if smoke { "BENCH_streaming_smoke.json" } else { "BENCH_streaming.json" };
    std::fs::write(artifact, &json).expect("write streaming artifact");
    println!("wrote {artifact}");
}
