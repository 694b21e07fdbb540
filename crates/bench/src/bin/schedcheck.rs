//! `schedcheck`: the schedule-space model-checker CI gate.
//!
//! Exhaustively enumerates the steal schedules of a lineup of small
//! [`ShardPlan`] shapes (sleep-set partial-order reduction, see
//! `dtc_sched::explore`), replays every schedule on the real engine
//! substrate, and asserts slot-write exclusivity, chunk coverage,
//! bitwise output identity against the serial reference, arena lease
//! cleanliness and — via the counting allocator this bin installs —
//! steady-state allocation freedom. The workspace lock-order graph is
//! audited in the same run.
//!
//! Modes: default sweeps the full shape lineup (≥ 8 shapes, ≥ 10⁴
//! schedules — the run fails if either floor is missed); `--smoke` runs
//! three small shapes for CI. Writes `SCHEDCHECK.json`
//! (`SCHEDCHECK_smoke.json` under `--smoke`) and exits nonzero on any
//! error-severity diagnostic.

use dtc_par::ShardPlan;
use dtc_sched::{check_plan, workspace_lock_graph, CheckOptions, SchedReport};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static HOT_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Counts every allocation made while a replay holds the hot-loop flag —
/// the probe behind the `sched-alloc-steady-state` assertion.
struct HotCountingAlloc;

// SAFETY: delegates every operation to `System`; the only addition is a
// relaxed counter bump keyed on a const-initialized thread-local flag.
unsafe impl GlobalAlloc for HotCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if dtc_par::hot_loop_active() {
            HOT_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if dtc_par::hot_loop_active() {
            HOT_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if dtc_par::hot_loop_active() {
            HOT_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: HotCountingAlloc = HotCountingAlloc;

/// One lineup entry: shape name, the plan, and (for weighted shapes) the
/// item weights handed back to the weight-conservation lints.
type Shape = (&'static str, ShardPlan, Option<Vec<u64>>);

/// The plan-shape lineup. Even cuts at several item/band ratios, plus
/// weighted cuts covering the planner's edge cases: a quadratic profile,
/// a heavy-tailed profile, all-zero weights and a single mega-weight.
fn shapes(smoke: bool) -> Vec<Shape> {
    let even = |name, n, threads| (name, ShardPlan::even(n, threads), None);
    let weighted = |name, threads, weights: Vec<u64>| {
        (name, ShardPlan::weighted(threads, &weights), Some(weights))
    };
    if smoke {
        return vec![
            even("even-6x2", 6, 2),
            even("even-12x3", 12, 3),
            weighted("weighted-quad-10x2", 2, (0..10).map(|i| i * i % 13).collect()),
        ];
    }
    let mut mega = vec![1u64; 12];
    mega[5] = 1 << 20;
    vec![
        even("even-7x2", 7, 2),
        even("even-16x2", 16, 2),
        even("even-9x3", 9, 3),
        even("even-24x3", 24, 3),
        even("even-20x4", 20, 4),
        weighted("weighted-quad-20x2", 2, (0..20).map(|i| i * i % 13).collect()),
        weighted("weighted-skew-24x3", 3, (0..24).map(|i| if i == 0 { 64 } else { 1 }).collect()),
        weighted("weighted-zero-16x2", 2, vec![0; 16]),
        weighted("weighted-mega-12x2", 2, mega),
    ]
}

fn main() {
    let _metrics = dtc_bench::metrics_flush_guard();
    let args = dtc_bench::cli::Args::parse();
    let smoke = args.smoke();
    let cap: u64 = if smoke { 2_000 } else { 40_000 };

    let probe = || HOT_ALLOCS.load(Ordering::Relaxed);
    let opts = CheckOptions { max_schedules: cap, alloc_probe: Some(&probe) };
    let lineup = shapes(smoke);

    println!("## schedcheck — {} plan shapes, cap {cap} schedules/plan", lineup.len());
    let mut report = SchedReport::new();
    for (name, plan, weights) in &lineup {
        let check = check_plan(name, plan, weights.as_deref(), &opts);
        println!(
            "  {name}: {} items / {} chunks / {} bands — {} schedules ({}), {} diagnostics",
            check.items,
            check.chunks,
            check.bands,
            check.schedules,
            if check.exhaustive { "exhaustive" } else { "capped" },
            check.diagnostics.len(),
        );
        for d in &check.diagnostics {
            println!("    {d}");
        }
        report.plans.push(check);
    }

    report.lock_diagnostics = dtc_verify::verify_lock_graph("workspace", &workspace_lock_graph());
    for d in &report.lock_diagnostics {
        println!("  lock graph: {d}");
    }

    let json = report.to_json();
    let artifact = if smoke { "SCHEDCHECK_smoke.json" } else { "SCHEDCHECK.json" };
    std::fs::write(artifact, &json).expect("write schedcheck artifact");
    println!(
        "{} plans, {} schedules explored, {} errors — wrote {artifact}",
        report.plans.len(),
        report.schedules_total(),
        report.errors(),
    );

    let mut failed = report.errors() > 0;
    if failed {
        eprintln!("schedcheck: error-severity diagnostics found");
    }
    if !smoke {
        if report.plans.len() < 8 {
            eprintln!("schedcheck: shape floor missed ({} < 8 plans)", report.plans.len());
            failed = true;
        }
        if report.schedules_total() < 10_000 {
            eprintln!(
                "schedcheck: exploration floor missed ({} < 10000 schedules)",
                report.schedules_total()
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
