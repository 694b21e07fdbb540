//! Thread-scaling sweep for the `dtc-par` execution layer.
//!
//! Runs the full host-side pipeline — execute-plan build, exact kernel
//! execution — end to end on a representative matrix under a
//! range of `dtc_par` thread counts, and writes the speedup curve (relative
//! to the single-thread baseline) to `BENCH_parallel.json`.
//!
//! Two clocks are reported per phase:
//!
//! - **wall** — real threaded execution. On a host with fewer cores than
//!   workers this says little about the substrate (threads time-slice one
//!   core), but it guards against regressions: parallel must never be
//!   slower than serial.
//! - **critical path** — the engine's virtual-time mode replays the exact
//!   work-stealing schedule while chunks execute one at a time, so each
//!   chunk's service time is measured without core contention. The phase's
//!   critical path is `wall − par_wall + par_crit` (the parallel sections'
//!   wall replaced by their schedule-limited lower bound): the time the
//!   phase would take on a host with one core per worker.
//!
//! Per-shard steal counts and the busy-time imbalance ratio come from the
//! `par.shard.*` telemetry. The plan cache is cleared before every
//! repetition so each run pays the real plan build; a separate pair of
//! timings demonstrates the cache instead (second build must be ~free).
//!
//! `--smoke` runs a reduced sweep (threads 1 and 4, smaller matrix), skips
//! the JSON dump, and exits non-zero unless the 4-thread critical-path
//! speedup reaches 1.5x — the CI scaling gate.

use dtc_core::{clear_conversion_cache, conversion_cache_stats, DtcSpmm, SpmmEngine};
use dtc_formats::{gen, CsrMatrix, DenseMatrix};
use dtc_telemetry::json::Json;
use std::time::Instant;

const FULL_SWEEP: &[usize] = &[1, 2, 4, 8, 16];
const SMOKE_SWEEP: &[usize] = &[1, 4];
const N: usize = 64;
const SMOKE_GATE: f64 = 1.5;

/// One thread count's measurements.
struct Sample {
    threads: usize,
    total_ms: f64,
    build_ms: f64,
    exec_ms: f64,
    build_crit_ms: f64,
    exec_crit_ms: f64,
    steals: u64,
    max_imbalance: f64,
}

impl Sample {
    fn crit_ms(&self) -> f64 {
        self.build_crit_ms + self.exec_crit_ms
    }
}

/// Times `f`, attributing the parallel sections inside it: returns the
/// result, the phase wall time, and the phase critical path (wall with the
/// engine sections replaced by their schedule-limited time — meaningful in
/// virtual-time mode, equal to wall in serial mode up to noise).
fn timed_phase<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    dtc_par::reset_par_stats();
    let t = Instant::now();
    let r = f();
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let s = dtc_par::par_stats();
    let par_wall_ms = s.wall_ns as f64 / 1e6;
    let par_crit_ms = s.crit_ns as f64 / 1e6;
    (r, wall_ms, (wall_ms - par_wall_ms + par_crit_ms).max(0.0))
}

/// One full pipeline run (cold plan build): returns the result matrix and
/// per-phase `(wall, crit)` pairs for build and execute.
fn run_pipeline(a: &CsrMatrix, b: &DenseMatrix) -> (DenseMatrix, [f64; 2], [f64; 2]) {
    clear_conversion_cache();
    let (engine, build_ms, build_crit) = timed_phase(|| DtcSpmm::new(a));
    let (c, exec_ms, exec_crit) = timed_phase(|| engine.execute(b).expect("execute"));
    (c, [build_ms, build_crit], [exec_ms, exec_crit])
}

fn assert_bits_identical(got: &DenseMatrix, want: &DenseMatrix, what: &str) {
    assert_eq!(got.rows(), want.rows(), "{what}: row mismatch");
    let same = got.as_slice().iter().zip(want.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits());
    assert!(same, "{what}: output differs bitwise from the serial baseline");
}

fn measure(a: &CsrMatrix, b: &DenseMatrix, sweep: &[usize], reps: usize) -> Vec<Sample> {
    let steals_counter = dtc_telemetry::counter("par.shard.steals");
    let imbalance_gauge = dtc_telemetry::gauge("par.shard.max_imbalance");
    let mut serial_c: Option<DenseMatrix> = None;
    let mut samples = Vec::new();
    for &threads in sweep {
        dtc_par::set_threads(Some(threads));

        // Real threaded runs: wall times + steal telemetry.
        let steals0 = steals_counter.get();
        let mut best = (f64::INFINITY, 0.0, 0.0);
        for _ in 0..reps {
            let (c, [build_ms, _], [exec_ms, _]) = run_pipeline(a, b);
            match &serial_c {
                None => serial_c = Some(c),
                Some(want) => assert_bits_identical(&c, want, "threaded run"),
            }
            if build_ms + exec_ms < best.0 {
                best = (build_ms + exec_ms, build_ms, exec_ms);
            }
        }
        let steals = steals_counter.get() - steals0;
        let max_imbalance = imbalance_gauge.get();

        // Virtual-time run: the schedule's critical path, one chunk at a
        // time (deterministic work, so one repetition suffices — timing
        // noise cancels in the wall-vs-par_wall subtraction).
        dtc_par::set_virtual_time(true);
        let (c, [_, build_crit], [_, exec_crit]) = run_pipeline(a, b);
        dtc_par::set_virtual_time(false);
        assert_bits_identical(&c, serial_c.as_ref().unwrap(), "virtual-time run");

        samples.push(Sample {
            threads,
            total_ms: best.0,
            build_ms: best.1,
            exec_ms: best.2,
            build_crit_ms: build_crit,
            exec_crit_ms: exec_crit,
            steals,
            max_imbalance,
        });
    }
    dtc_par::set_threads(None);
    samples
}

fn main() {
    let _metrics = dtc_bench::metrics_flush_guard();
    let smoke = dtc_bench::cli::Args::parse().smoke();

    // Representative of the paper's mid-size graph suite: power-law-ish
    // community structure (smaller in smoke mode, same shape).
    let rows = if smoke { 4 * 1024 } else { 12 * 1024 };
    let a = if smoke {
        gen::community(rows, rows, 32, 48.0, 0.9, 2024)
    } else {
        gen::community(rows, rows, 48, 64.0, 0.9, 2024)
    };
    let b = DenseMatrix::from_fn(rows, N, |r, c| ((r * 13 + c * 5) % 17) as f32 * 0.25 - 2.0);
    let host_threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let (sweep, reps) = if smoke { (SMOKE_SWEEP, 2) } else { (FULL_SWEEP, 5) };

    eprintln!(
        "parallel_scaling{}: {} x {} matrix, {} nnz, N={}, host threads={}",
        if smoke { " (smoke)" } else { "" },
        a.rows(),
        a.cols(),
        a.nnz(),
        N,
        host_threads
    );

    let samples = measure(&a, &b, sweep, reps);
    let serial_ms = samples[0].total_ms;
    let serial_crit_ms = samples[0].crit_ms();
    for s in &samples {
        let speedup = serial_ms / s.total_ms;
        let crit_speedup = serial_crit_ms / s.crit_ms();
        eprintln!(
            "  threads={:2}: wall {:8.1} ms (build {:.1} + execute {:.1})  speedup {:.2}x | \
             crit {:8.1} ms (build {:.1} + execute {:.1})  crit speedup {:.2}x | \
             steals {}  imbalance {:.2}",
            s.threads,
            s.total_ms,
            s.build_ms,
            s.exec_ms,
            speedup,
            s.crit_ms(),
            s.build_crit_ms,
            s.exec_crit_ms,
            crit_speedup,
            s.steals,
            s.max_imbalance,
        );
    }

    if smoke {
        let four = samples.iter().find(|s| s.threads == 4).expect("smoke sweep has 4 threads");
        let crit_speedup = serial_crit_ms / four.crit_ms();
        if crit_speedup < SMOKE_GATE {
            eprintln!(
                "FAIL: 4-thread critical-path speedup {crit_speedup:.2}x < {SMOKE_GATE:.1}x gate"
            );
            std::process::exit(1);
        }
        println!("smoke OK: 4-thread critical-path speedup {crit_speedup:.2}x >= {SMOKE_GATE:.1}x");
        return;
    }

    // Plan-cache demonstration: a repeated build over the same matrix must
    // skip the plan build entirely (observable via the miss counter).
    clear_conversion_cache();
    let (_, misses0) = conversion_cache_stats();
    let t0 = Instant::now();
    let _first = DtcSpmm::new(&a);
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let _second = DtcSpmm::new(&a);
    let warm_ms = t1.elapsed().as_secs_f64() * 1e3;
    let (_, misses1) = conversion_cache_stats();
    assert_eq!(misses1, misses0 + 1, "second build must not rebuild the plan");
    eprintln!("  cache: cold build {cold_ms:.1} ms, warm build {warm_ms:.1} ms");

    let max_speedup = samples.iter().map(|s| serial_ms / s.total_ms).fold(0.0f64, f64::max);
    let max_crit_speedup =
        samples.iter().map(|s| serial_crit_ms / s.crit_ms()).fold(0.0f64, f64::max);
    let json = Json::obj(vec![
        ("bench", Json::str("parallel_scaling")),
        (
            "matrix",
            Json::obj_inline(vec![
                ("rows", Json::usize(a.rows())),
                ("cols", Json::usize(a.cols())),
                ("nnz", Json::usize(a.nnz())),
            ]),
        ),
        ("n", Json::raw(N.to_string())),
        ("reps", Json::raw(reps.to_string())),
        ("host_threads", Json::raw(host_threads.to_string())),
        ("serial_ms", Json::f(serial_ms, 3)),
        ("serial_crit_ms", Json::f(serial_crit_ms, 3)),
        (
            "sweep",
            Json::arr(
                samples
                    .iter()
                    .map(|s| {
                        Json::obj_inline(vec![
                            ("threads", Json::usize(s.threads)),
                            ("total_ms", Json::f(s.total_ms, 3)),
                            ("build_ms", Json::f(s.build_ms, 3)),
                            ("execute_ms", Json::f(s.exec_ms, 3)),
                            ("speedup", Json::f(serial_ms / s.total_ms, 3)),
                            ("critical_path_ms", Json::f(s.crit_ms(), 3)),
                            ("build_crit_ms", Json::f(s.build_crit_ms, 3)),
                            ("execute_crit_ms", Json::f(s.exec_crit_ms, 3)),
                            ("crit_speedup", Json::f(serial_crit_ms / s.crit_ms(), 3)),
                            ("steals", Json::raw(s.steals.to_string())),
                            ("max_imbalance", Json::f(s.max_imbalance, 3)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("max_speedup", Json::f(max_speedup, 3)),
        ("max_crit_speedup", Json::f(max_crit_speedup, 3)),
        (
            "conversion_cache",
            Json::obj_inline(vec![
                ("cold_build_ms", Json::f(cold_ms, 3)),
                ("warm_build_ms", Json::f(warm_ms, 3)),
            ]),
        ),
    ])
    .render();
    std::fs::write("BENCH_parallel.json", &json).expect("write BENCH_parallel.json");
    println!(
        "wrote BENCH_parallel.json (wall max {max_speedup:.2}x, critical path max \
         {max_crit_speedup:.2}x on {host_threads}-thread host)"
    );
}
