//! Simulator-throughput benchmark for the compressed trace path.
//!
//! Measures the two levers this layer adds:
//!
//! 1. **Class interning** — a duplicate-heavy trace (≥10⁴ blocks drawn from
//!    a few dozen work shapes, the structure of large uniform launches)
//!    simulated with interning on vs off, in both `TimingMode`s. Timing
//!    work is O(classes) when on, O(blocks) when off; reports are pinned
//!    bit-identical by the equivalence tests, so only the wall clock moves.
//! 2. **Set-sharded L2 replay** — the same recorded sector streams replayed
//!    through the cache model under a thread sweep, counting sectors/sec.
//!
//! Writes `BENCH_sim_perf.json`. `--smoke` runs a small trace once with no
//! timing assertions, so CI can exercise the whole path cheaply, and
//! writes `BENCH_sim_perf_smoke.json` instead.

use dtc_sim::{
    l2_counts_over_trace, l2_shard_counts, simulate, Device, KernelTrace, SectorStream, SimOptions,
    TbWork, TimingMode,
};
use dtc_telemetry::json::Json;
use std::time::Instant;

const L2_THREADS: [usize; 4] = [1, 2, 4, 8];
const REPS: usize = 5;

/// A duplicate-heavy launch: `blocks` thread blocks drawn from `shapes`
/// distinct work classes, each recording one contiguous B-tile run plus a
/// shape-dependent scattered tail (so streams exercise both run shapes).
fn synthetic_trace(blocks: usize, shapes: usize, record_streams: bool) -> KernelTrace {
    let mut trace = KernelTrace::new(6, 8);
    for i in 0..blocks {
        let s = i % shapes;
        let mut stream = SectorStream::new();
        if record_streams {
            stream.push_run((s as u64 % 64) * 32, 32);
            stream.push((i as u64 * 131) % 100_000); // scattered tail sector
        }
        trace.push(TbWork {
            alu_ops: 40.0 + s as f64,
            fp_ops: (s % 3) as f64 * 16.0,
            lsu_a_sectors: 24.0,
            lsu_b_sectors: 33.0,
            hmma_ops: 64.0 + (s % 5) as f64 * 32.0,
            hmma_count: 128.0,
            iters: 40.0, // long main loop: event-driven replay is expensive
            overlap_a_fetch: s.is_multiple_of(2),
            b_stream: stream,
            ..TbWork::default()
        });
    }
    trace
}

/// Best-of-`REPS` wall time of `simulate` over `trace`, in ms.
fn time_simulate(device: &Device, trace: &KernelTrace, opts: &SimOptions) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let r = simulate(device, trace, opts);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(r.time_ms >= 0.0);
        best = best.min(ms);
    }
    best
}

fn main() {
    let smoke = dtc_bench::cli::Args::parse().smoke();
    let _metrics = dtc_bench::metrics_flush_guard();
    let device = Device::rtx4090();
    let blocks = if smoke { 2_000 } else { 50_000 };
    let shapes = 64;

    // Interned (default) and legacy (one class per block) variants of the
    // same launch. Streams are recorded once, on the trace used for L2.
    let interned = synthetic_trace(blocks, shapes, true);
    let legacy = interned.expanded();
    let sectors: usize = (0..interned.num_tbs()).map(|i| interned.stream(i).len()).sum();
    eprintln!(
        "sim_throughput: {blocks} blocks, {} classes, {sectors} recorded sectors{}",
        interned.num_classes(),
        if smoke { " (smoke)" } else { "" }
    );

    // Timing-path speedup, both modes, L2 off (isolates the class lever).
    let mut timing_rows = Vec::new();
    for (name, timing) in
        [("analytical", TimingMode::Analytical), ("event_driven", TimingMode::EventDriven)]
    {
        let opts = SimOptions { simulate_l2: false, timing };
        let legacy_ms = time_simulate(&device, &legacy, &opts);
        let interned_ms = time_simulate(&device, &interned, &opts);
        let speedup = legacy_ms / interned_ms.max(1e-9);
        let blocks_per_sec = blocks as f64 / (interned_ms * 1e-3).max(1e-12);
        eprintln!(
            "  {name:>12}: legacy {legacy_ms:8.3} ms, interned {interned_ms:8.3} ms  ({speedup:.2}x, {blocks_per_sec:.3e} blocks/s)"
        );
        timing_rows.push((name, legacy_ms, interned_ms, speedup, blocks_per_sec));
    }

    // L2 replay thread sweep over the compressed streams. Counts must not
    // move with the thread count (set sharding is exact). Wall time only
    // scales with real cores, so each shard is also timed on its own: the
    // slowest shard is the critical path a T-core host would pay.
    let host_threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let serial_counts = l2_counts_over_trace(&device, &interned, 1);
    let mut l2_rows = Vec::new();
    let mut l2_serial_ms = 0.0f64;
    for &threads in &L2_THREADS {
        let mut best_wall = f64::INFINITY;
        for _ in 0..REPS {
            let t0 = Instant::now();
            let counts = l2_counts_over_trace(&device, &interned, threads);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            assert_eq!(counts, serial_counts, "sharded counts diverged at T={threads}");
            best_wall = best_wall.min(ms);
        }
        // Critical path: slowest single shard (and exactness of the sum).
        let mut max_shard_ms = 0.0f64;
        let mut summed = (0u64, 0u64);
        for shard in 0..threads {
            let mut best_shard = f64::INFINITY;
            let mut counts = (0, 0);
            for _ in 0..REPS {
                let t0 = Instant::now();
                counts = l2_shard_counts(&device, &interned, shard, threads);
                best_shard = best_shard.min(t0.elapsed().as_secs_f64() * 1e3);
            }
            summed.0 += counts.0;
            summed.1 += counts.1;
            max_shard_ms = max_shard_ms.max(best_shard);
        }
        assert_eq!(summed, serial_counts, "shard sum diverged at T={threads}");
        if threads == 1 {
            l2_serial_ms = best_wall;
        }
        let wall_speedup = l2_serial_ms / best_wall.max(1e-9);
        let cp_speedup = l2_serial_ms / max_shard_ms.max(1e-9);
        let sectors_per_sec = sectors as f64 / (max_shard_ms * 1e-3).max(1e-12);
        eprintln!(
            "  l2 threads={threads}: wall {best_wall:8.3} ms ({wall_speedup:.2}x), critical path {max_shard_ms:8.3} ms ({cp_speedup:.2}x, {sectors_per_sec:.3e} sectors/s)"
        );
        l2_rows.push((threads, best_wall, wall_speedup, max_shard_ms, cp_speedup, sectors_per_sec));
    }

    // Trace construction: every push is one interning lookup.
    let mut build_ms = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let t = synthetic_trace(blocks, shapes, false);
        build_ms = build_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(t.num_classes(), interned.num_classes());
    }
    eprintln!("  interned trace build {build_ms:8.3} ms");

    // Memory: encoded trace vs the raw u64 sector addresses it replaces.
    let raw_stream_bytes = sectors * std::mem::size_of::<u64>();
    let trace_bytes = interned.memory_bytes();
    eprintln!(
        "  memory: interned trace {trace_bytes} B, raw sector addresses {raw_stream_bytes} B, compression {:.1}x blocks/class",
        interned.compression_ratio()
    );

    if !smoke {
        // Acceptance: ≥3x blocks/sec from interning on a duplicate-heavy
        // trace. The event-driven path (where per-block timing is costly)
        // is the one the class lever targets; the analytical path is bound
        // by the shared O(blocks) schedule/accounting work either way.
        let best_speedup = timing_rows.iter().map(|r| r.3).fold(0.0f64, f64::max);
        assert!(best_speedup >= 3.0, "acceptance: interning speedup {best_speedup:.2}x < 3x");
    }

    let json = Json::obj(vec![
        ("bench", Json::str("sim_throughput")),
        ("smoke", Json::bool(smoke)),
        (
            "trace",
            Json::obj_inline(vec![
                ("blocks", Json::raw(blocks.to_string())),
                ("classes", Json::usize(interned.num_classes())),
                ("build_ms", Json::f(build_ms, 4)),
                ("sectors", Json::raw(sectors.to_string())),
                ("bytes", Json::raw(trace_bytes.to_string())),
                ("raw_stream_bytes", Json::raw(raw_stream_bytes.to_string())),
            ]),
        ),
        (
            "timing",
            Json::arr(
                timing_rows
                    .iter()
                    .map(|(name, legacy_ms, interned_ms, speedup, bps)| {
                        Json::obj_inline(vec![
                            ("mode", Json::str(*name)),
                            ("legacy_ms", Json::f(*legacy_ms, 4)),
                            ("interned_ms", Json::f(*interned_ms, 4)),
                            ("speedup", Json::f(*speedup, 3)),
                            ("blocks_per_sec", Json::f(*bps, 1)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("host_threads", Json::raw(host_threads.to_string())),
        (
            "l2_sweep",
            Json::arr(
                l2_rows
                    .iter()
                    .map(|(threads, wall, wall_speedup, cp_ms, cp_speedup, sps)| {
                        Json::obj_inline(vec![
                            ("threads", Json::raw(threads.to_string())),
                            ("wall_ms", Json::f(*wall, 4)),
                            ("wall_speedup", Json::f(*wall_speedup, 3)),
                            ("critical_path_ms", Json::f(*cp_ms, 4)),
                            ("critical_path_speedup", Json::f(*cp_speedup, 3)),
                            ("sectors_per_sec", Json::f(*sps, 1)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .render();
    let artifact = if smoke { "BENCH_sim_perf_smoke.json" } else { "BENCH_sim_perf.json" };
    std::fs::write(artifact, &json).expect("write sim-perf artifact");
    println!("wrote {artifact}");
}
