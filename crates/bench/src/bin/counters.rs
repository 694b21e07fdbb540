//! Dumps the simulator's full performance-counter set for one matrix —
//! the Nsight-Compute-style view behind every table: instruction mix,
//! per-SM cycles and occupancy, L2 sectors and DRAM traffic.
//!
//! Usage: `counters [abbr] [n]` (defaults: `DD`, 128). With
//! `DTC_METRICS=<path>` the registry snapshot (pipeline-phase spans and
//! cache counters included) is also written as JSON on exit.

use dtc_baselines::{CusparseSpmm, SpmmEngine, TcgnnSpmm};
use dtc_core::DtcSpmm;
use dtc_datasets::{representative, scaled_device};
use dtc_sim::{CounterSet, Device, SimOptions, SimReport};

fn dump(name: &str, report: &SimReport) {
    let c: &CounterSet = &report.counters;
    let i = &c.instructions;
    println!("\n### {name}");
    println!("  time            {:10.4} ms  ({} TBs)", report.time_ms, report.num_tbs);
    println!(
        "  sm cycles       {:10.0} total over {} SMs (max {:.0})",
        c.total_sm_cycles(),
        c.sm_cycles.len(),
        c.sm_cycles.iter().cloned().fold(0.0, f64::max)
    );
    let occ_mean = c.sm_occupancy.iter().sum::<f64>() / c.sm_occupancy.len().max(1) as f64;
    println!(
        "  occupancy       {:10.3} mean achieved (effective {})",
        occ_mean, c.effective_occupancy
    );
    println!("  HMMA            {:10.0}", i.hmma);
    println!("  IMAD            {:10.0}  ({:.1} per HMMA)", i.imad, report.imad_per_hmma);
    println!("  FFMA            {:10.0}", i.ffma);
    println!("  LDG sectors     {:10.0}", i.ldg_sectors);
    println!("  cp.async sectors{:10.0}", i.cp_async_sectors);
    println!("  STG sectors     {:10.0}", i.stg_sectors);
    println!("  STS/LDS         {:10.0}", i.sts);
    println!("  SHFL            {:10.0}", i.shfl);
    println!("  ATOM            {:10.0}", i.atom);
    println!(
        "  L2 sectors      {:10.0} hits / {:.0} misses ({:.1}% hit)",
        c.l2_sector_hits,
        c.l2_sector_misses,
        100.0 * c.l2_hit_rate()
    );
    println!("  DRAM traffic    {:10.2} MB", c.dram_bytes / (1024.0 * 1024.0));
    println!("  stall cycles    {:10.0}", c.stall_cycles);
}

fn main() {
    let _metrics = dtc_bench::metrics_flush_guard();
    let args = dtc_bench::cli::Args::parse();
    let abbr = args.positional(0).unwrap_or("DD").to_owned();
    let n: usize = args.parsed(1, 128);

    let device = scaled_device(Device::rtx4090());
    let d = representative()
        .into_iter()
        .find(|d| d.abbr == abbr)
        .unwrap_or_else(|| panic!("unknown dataset abbreviation {abbr:?}"));
    let a = d.matrix();
    println!(
        "## Performance counters — {} (rows={}, nnz={}), N={}, device={}",
        d.abbr,
        a.rows(),
        a.nnz(),
        n,
        device.name
    );

    let opts = SimOptions { simulate_l2: true, ..SimOptions::default() };
    let dtc = DtcSpmm::builder().device(device.clone()).build(&a);
    dump("DTC-SpMM", &dtc.simulate_with(n, &device, &opts));
    dump("cuSPARSE", &CusparseSpmm::new(&a).simulate_with(n, &device, &opts));
    if let Ok(tcgnn) = TcgnnSpmm::new(&a) {
        dump("TCGNN-SpMM", &tcgnn.simulate_with(n, &device, &opts));
    }
    dump_caches();
    dump_par();
}

/// Every cache in the stack: the totals (`core.cache.*` — each lookup
/// counted once whichever tier resolved it) alongside the `cache.<name>.*`
/// counters of the two lossy front tiers, conversion and intern.
fn dump_caches() {
    println!(
        "\n### caches (front tier {})",
        if dtc_par::front_tier_enabled() { "on" } else { "off" }
    );
    let c = |name: &str| dtc_telemetry::counter(name).get();
    println!(
        "  conversion      {:10} hits / {} misses / {} collisions (total)",
        c("core.cache.conversion.hits"),
        c("core.cache.conversion.misses"),
        c("core.cache.conversion.collisions")
    );
    println!(
        "  trace           {:10} hits / {} misses (total)",
        c("core.cache.trace.hits"),
        c("core.cache.trace.misses")
    );
    for name in ["conversion", "intern"] {
        let hits = c(&format!("cache.{name}.l1_hits"));
        let misses = c(&format!("cache.{name}.l1_misses"));
        if hits + misses == 0 {
            continue; // tier never probed in this run
        }
        println!(
            "  {name:<15} {hits:10} l1 hits / {} l1 misses / {} evictions / {} verify rejects ({:.0} ns/lookup sampled)",
            misses,
            c(&format!("cache.{name}.l1_evictions")),
            c(&format!("cache.{name}.verify_rejects")),
            dtc_telemetry::gauge(&format!("cache.{name}.ns_per_lookup")).get()
        );
    }
}

/// The host-side parallel substrate's own counters, accumulated over every
/// lowering/simulation above: shard tasks and steals, busy-time imbalance,
/// arena reuse, and the engine's wall/busy/critical-path clocks.
fn dump_par() {
    let s = dtc_par::par_stats();
    println!("\n### dtc-par");
    println!("  threads         {:10}", dtc_par::num_threads());
    println!(
        "  invocations     {:10}  ({:.2} ms wall, {:.2} ms busy, {:.2} ms critical path)",
        s.invocations,
        s.wall_ns as f64 / 1e6,
        s.busy_ns as f64 / 1e6,
        s.crit_ns as f64 / 1e6
    );
    println!("  shard tasks     {:10}", dtc_telemetry::counter("par.shard.tasks").get());
    println!("  shard steals    {:10}", dtc_telemetry::counter("par.shard.steals").get());
    println!(
        "  max imbalance   {:10.3}  (busy_max x workers / busy_sum, last invocation)",
        dtc_telemetry::gauge("par.shard.max_imbalance").get()
    );
    println!("  arena leases    {:10}", dtc_telemetry::counter("par.arena.resets").get());
    println!(
        "  arena peak      {:10.1} KiB retained",
        dtc_telemetry::gauge("par.arena.bytes_peak").get() / 1024.0
    );
}
