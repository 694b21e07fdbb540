//! Churn sweep of the two-tier (lossy front + exact) caches on both hot
//! paths that carry one: the ME-TCF conversion cache and the
//! duration-class interning table.
//!
//! For each path and each working-set size W, the benchmark warms W keys,
//! then times a repeated-key lookup loop twice — exact-only
//! (`set_front_tier_enabled(false)`) and two-tier — reporting ns/lookup
//! (best of several repeats) and the front-tier hit rate. Writes
//! `BENCH_cache.json` (`BENCH_cache_smoke.json` under `--smoke`).
//!
//! Every run first pins correctness: an end-to-end pipeline execute must
//! be **bitwise identical** with the front tier off and on (at 1 and 4
//! worker threads), and a crafted same-slot collision must be verify-
//! rejected, never cross-served.
//!
//! Gates (smoke and full): two-tier ns/lookup ≤ exact-only on the
//! steady-state (W=1) repeated-key workload on both paths, and
//! `verify_rejects > 0` under the crafted collision. The full run
//! additionally requires ≥ 2x steady-state speedup on both paths.

use dtc_core::cache::metcf_for;
use dtc_core::DtcSpmm;
use dtc_formats::gen::uniform;
use dtc_formats::{CsrMatrix, DenseMatrix};
use dtc_par::{set_front_tier_enabled, FrontTier};
use dtc_sim::{KernelTrace, TbWork};
use dtc_telemetry::json::Json;
use std::time::Instant;

/// Timing repeats per (path, W, mode); the minimum is reported.
const REPS: usize = 7;

/// One sweep point.
struct Point {
    working_set: usize,
    exact_ns: f64,
    two_tier_ns: f64,
    l1_hit_rate: f64,
}

impl Point {
    fn speedup(&self) -> f64 {
        self.exact_ns / self.two_tier_ns
    }
}

/// Best-of-[`REPS`] ns per lookup for `run` (one full timed loop per call).
fn ns_per_lookup(total_lookups: usize, mut run: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        run();
        best = best.min(t0.elapsed().as_nanos() as f64 / total_lookups as f64);
    }
    best
}

/// Front-tier hit rate observed across one extra two-tier pass, read from
/// the `cache.<name>.*` counters.
fn l1_hit_rate(name: &str, mut run: impl FnMut()) -> f64 {
    let hits = dtc_telemetry::counter(&format!("cache.{name}.l1_hits"));
    let misses = dtc_telemetry::counter(&format!("cache.{name}.l1_misses"));
    let (h0, m0) = (hits.get(), misses.get());
    run();
    let (h, m) = (hits.get() - h0, misses.get() - m0);
    if h + m == 0 {
        0.0
    } else {
        h as f64 / (h + m) as f64
    }
}

/// Times one path at one working-set size: `run(iters)` performs `iters`
/// cycles over the W warmed keys, in both modes.
fn sweep_point(name: &str, w: usize, lookups: usize, mut run: impl FnMut(usize)) -> Point {
    let iters = (lookups / w).max(1);
    let total = iters * w;
    set_front_tier_enabled(false);
    let exact_ns = ns_per_lookup(total, || run(iters));
    set_front_tier_enabled(true);
    run(1); // re-warm the front slots after the exact-only phase
    let two_tier_ns = ns_per_lookup(total, || run(iters));
    let hit_rate = l1_hit_rate(name, || run(iters));
    Point { working_set: w, exact_ns, two_tier_ns, l1_hit_rate: hit_rate }
}

/// ME-TCF conversion cache: repeated `metcf_for` over W resident matrices.
/// A front hit skips the second set of full-matrix passes (`matrix_key`).
fn bench_conversion(sets: &[usize], lookups: usize) -> Vec<Point> {
    sets.iter()
        .map(|&w| {
            dtc_core::clear_conversion_cache();
            let mats: Vec<CsrMatrix> =
                (0..w).map(|i| uniform(96, 96, 600, 0xC0DE + i as u64)).collect();
            for m in &mats {
                let _ = metcf_for(m);
            }
            sweep_point("conversion", w, lookups, |iters| {
                for _ in 0..iters {
                    for m in &mats {
                        let _ = std::hint::black_box(metcf_for(m));
                    }
                }
            })
        })
        .collect()
}

/// A distinct duration class per `i` (field values chosen so no two
/// classes are bitwise equal).
fn tb_class(i: usize) -> TbWork {
    TbWork {
        alu_ops: (i * 3 + 1) as f64,
        hmma_ops: (i % 7 + 1) as f64,
        lsu_a_sectors: (i * 5 + 2) as f64,
        iters: (i + 1) as f64,
        ..TbWork::default()
    }
}

/// Duration-class interning: repeated `KernelTrace::push` cycling W
/// classes. A front hit replaces the byte-granular exact key (104 fold
/// steps) with a 13-word hash. Working sets past the 128 front slots
/// exercise the thrash fallback.
fn bench_intern(sets: &[usize], lookups: usize) -> Vec<Point> {
    sets.iter()
        .map(|&w| {
            let mut trace = KernelTrace::new(6, 8);
            for i in 0..w {
                trace.push(tb_class(i));
            }
            sweep_point("intern", w, lookups, |iters| {
                for _ in 0..iters {
                    for i in 0..w {
                        trace.push(tb_class(i));
                    }
                }
            })
        })
        .collect()
}

/// End-to-end bitwise identity: the same pipeline execute with the front
/// tier off and on (cold and warm caches) at 1 and 4 worker threads.
fn assert_bitwise_identical() {
    let a = uniform(160, 160, 1400, 0xB17);
    let b = DenseMatrix::from_fn(160, 8, |r, c| ((r * 13 + c * 5) % 19) as f32 - 9.0);
    let bits = |m: &DenseMatrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for threads in [1usize, 4] {
        dtc_par::set_threads(Some(threads));
        set_front_tier_enabled(false);
        dtc_core::clear_conversion_cache();
        let exact = DtcSpmm::new(&a).execute(&b).expect("exact-only execute");
        set_front_tier_enabled(true);
        dtc_core::clear_conversion_cache();
        let cold = DtcSpmm::new(&a).execute(&b).expect("two-tier cold execute");
        let warm = DtcSpmm::new(&a).execute(&b).expect("two-tier warm execute");
        assert_eq!(bits(&exact), bits(&cold), "two-tier (cold) diverged at T={threads}");
        assert_eq!(bits(&exact), bits(&warm), "two-tier (warm) diverged at T={threads}");
    }
    dtc_par::set_threads(None);
    println!("bitwise identity: exact-only == two-tier (cold+warm) at T=1 and T=4");
}

/// Crafted same-slot collision on a dedicated tier: the foreign probe must
/// be verify-rejected, and the resident entry must survive it.
fn crafted_collision_rejects() -> u64 {
    let rejects = dtc_telemetry::counter("cache.bench_collide.verify_rejects");
    let before = rejects.get();
    let mut t: FrontTier<u64, u64> = FrontTier::new("bench_collide", 16);
    t.insert(3, 111, 1);
    assert_eq!(t.get(3 + 16, &222), None, "colliding key must not be cross-served");
    assert_eq!(t.get(3, &111), Some(1), "resident entry must survive the reject");
    rejects.get() - before
}

fn json_point(p: &Point) -> Json {
    Json::obj_inline(vec![
        ("working_set", Json::usize(p.working_set)),
        ("exact_ns", Json::f(p.exact_ns, 1)),
        ("two_tier_ns", Json::f(p.two_tier_ns, 1)),
        ("speedup", Json::f(p.speedup(), 3)),
        ("l1_hit_rate", Json::f(p.l1_hit_rate, 4)),
    ])
}

fn main() {
    let _metrics = dtc_bench::metrics_flush_guard();
    let args = dtc_bench::cli::Args::parse();
    let smoke = args.smoke();

    assert_bitwise_identical();
    let rejects = crafted_collision_rejects();
    assert!(rejects > 0, "crafted collision must be verify-rejected (got {rejects})");
    println!("crafted collision: {rejects} verify reject(s), zero cross-serves");

    // Working-set sweeps. The conversion sweep stays under the exact
    // tier's 64-entry cap (past it every lookup reconverts and the
    // benchmark measures conversion, not lookup). The intern sweep's 512
    // point oversubscribes the 128 front slots to show thrash fallback.
    let (lookups, conv_sets, intern_sets): (usize, Vec<usize>, Vec<usize>) = if smoke {
        (2_000, vec![1, 8], vec![1, 64, 512])
    } else {
        (20_000, vec![1, 4, 16, 48], vec![1, 16, 64, 512])
    };

    let paths: Vec<(&str, Vec<Point>)> = vec![
        ("conversion", bench_conversion(&conv_sets, lookups)),
        ("intern", bench_intern(&intern_sets, lookups)),
    ];

    println!("\n| path | W | exact ns | two-tier ns | speedup | l1 hit rate |");
    println!("|---|---|---|---|---|---|");
    for (name, points) in &paths {
        for p in points {
            println!(
                "| {name} | {} | {:.0} | {:.0} | {:.2}x | {:.1}% |",
                p.working_set,
                p.exact_ns,
                p.two_tier_ns,
                p.speedup(),
                100.0 * p.l1_hit_rate
            );
        }
    }

    // Gates: steady state (W=1) must never regress on either path; the
    // full run additionally requires a 2x speedup there.
    for gated in ["conversion", "intern"] {
        let steady = paths
            .iter()
            .find(|(n, _)| n == &gated)
            .and_then(|(_, pts)| pts.iter().find(|p| p.working_set == 1))
            .expect("steady-state point");
        assert!(
            steady.two_tier_ns <= steady.exact_ns,
            "{gated}: two-tier steady state ({:.1} ns) must not exceed exact-only ({:.1} ns)",
            steady.two_tier_ns,
            steady.exact_ns
        );
        if !smoke {
            assert!(
                steady.speedup() >= 2.0,
                "{gated}: steady-state speedup {:.2}x below the 2x acceptance bar",
                steady.speedup()
            );
        }
    }
    // Thrash fallback: oversubscribing the intern front tier must engage
    // the exact tier (low hit rate), not degrade into wrong answers (the
    // bitwise check above) or a large slowdown.
    if let Some(thrash) = paths
        .iter()
        .find(|(n, _)| n == &"intern")
        .and_then(|(_, pts)| pts.iter().find(|p| p.working_set == 512))
    {
        assert!(
            thrash.l1_hit_rate < 0.9,
            "a 4x-oversubscribed front tier should mostly miss (hit rate {:.2})",
            thrash.l1_hit_rate
        );
    }

    let json = Json::obj(vec![
        ("bench", Json::str("cache")),
        ("smoke", Json::bool(smoke)),
        ("timing_reps", Json::usize(REPS)),
        ("collision_verify_rejects", Json::u64(rejects)),
        (
            "paths",
            Json::arr(
                paths
                    .iter()
                    .map(|(name, points)| {
                        Json::obj(vec![
                            ("path", Json::str(*name)),
                            ("sweep", Json::arr(points.iter().map(json_point).collect())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .render();
    let artifact = if smoke { "BENCH_cache_smoke.json" } else { "BENCH_cache.json" };
    std::fs::write(artifact, &json).expect("write cache artifact");
    println!("\nwrote {artifact}");
}
