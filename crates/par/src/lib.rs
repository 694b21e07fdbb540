//! Deterministic scoped parallelism for the DTC-SpMM workspace.
//!
//! DTC-SpMM's GPU kernels decompose work into independent row windows (one
//! thread block per 16-row window); this crate mirrors that decomposition on
//! the host so exact execution, trace lowering, conversion, and simulation
//! fan out across CPU cores **without changing any result bit**. The rules
//! that make that hold:
//!
//! - **Slot-indexed results.** [`par_map_collect`] (and the planned variant
//!   [`par_map_collect_plan`]) write each result `f(i)` into slot `i` of one
//!   pre-sized output buffer. Every index is evaluated exactly once by the
//!   same per-unit code path as the serial loop, so the collected `Vec` is
//!   bit-identical to `(0..n).map(f).collect()` **regardless of which worker
//!   computed which index or in what order** — the steal schedule cannot
//!   influence results, only timing.
//! - **Disjoint outputs.** [`par_chunks_mut`] hands each work unit a
//!   disjoint `&mut` chunk of one output buffer (e.g. 16 output rows of C
//!   per window), so there is no accumulation across threads at all.
//! - **Weighted shards + work stealing.** A [`ShardPlan`] splits the index
//!   space into ~4 chunks per worker at nnz-weighted cut points, groups the
//!   chunks into equal-weight contiguous bands (one deque per worker), and
//!   lets idle workers steal whole chunks from the back of other bands.
//!   Skew that the planner's static weights miss is absorbed dynamically;
//!   determinism is unaffected (see above).
//! - **Allocation-free hot loops.** Workers lease a pooled [`ScratchArena`]
//!   for per-item scratch, and results land in pre-sized slots, so
//!   steady-state shard execution performs zero heap allocations (pinned by
//!   a counting-allocator test via [`hot_loop_active`]).
//!
//! Thread count resolution order: [`set_threads`] override (used by bench
//! sweeps), then the `DTC_THREADS` environment variable, then
//! `std::thread::available_parallelism()`; the last two are read once per
//! process. `threads == 1` runs the exact serial loop on the calling
//! thread — no spawn, no overhead. With more bands, the calling thread
//! runs band 0 itself, as a worker, and spawns one scoped thread per other
//! band: a section of `b` bands costs `b − 1` spawns. Parallel sections
//! never nest OS threads: an engine entered from inside a worker (band 0
//! on the caller included) runs its indices serially on that worker
//! (results are identical either way, and nested spawning only ever added
//! overhead).
//!
//! # Measuring on small hosts
//!
//! Wall-clock speedups are invisible on CI boxes with fewer cores than
//! workers, so the engine also accounts the **critical path**: per
//! invocation, `crit = wall - (busy_sum - busy_max)` — the time that could
//! not have been shortened by more cores. In the default threaded mode,
//! per-worker busy times are wall-clock and thus only meaningful when
//! cores ≥ workers; [`set_virtual_time`] switches to a single-threaded
//! replay of the work-stealing schedule under per-chunk service times
//! (virtual-time simulation), which measures the true critical path of the
//! schedule on any host. Accumulated numbers are read with [`par_stats`].

#![forbid(unsafe_code)]

mod arena;
pub mod hash;
pub mod replay;

pub use arena::{with_arena, ScratchArena};
pub use replay::{replay_assignments, Replay};

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// `0` means "no override"; anything else wins over `DTC_THREADS`.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker-thread count process-wide (`None` clears it).
///
/// Meant for tools that sweep thread counts in one process (see
/// `bench/src/bin/parallel_scaling.rs`); normal callers rely on
/// `DTC_THREADS` or the detected core count.
pub fn set_threads(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::Relaxed);
}

/// Resolves the number of worker threads to use right now.
///
/// Order: [`set_threads`] override, then `DTC_THREADS` (positive integer;
/// unparsable or zero values are ignored), then the detected parallelism.
/// Always at least 1. The environment and the detected parallelism are
/// read on the first call only: detection reads cgroup files on Linux,
/// which cost far more than a small parallel section.
pub fn num_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("DTC_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Splits `n` work units into at most `threads` contiguous bands.
///
/// Returns `(start, end)` half-open bands covering `0..n` in order. Earlier
/// bands are never smaller than later ones (remainder spread one-per-band
/// from the front), and empty bands are omitted.
pub fn bands(n: usize, threads: usize) -> Vec<(usize, usize)> {
    let threads = threads.max(1).min(n.max(1));
    let base = n / threads;
    let extra = n % threads;
    let mut out = Vec::with_capacity(threads);
    let mut start = 0;
    for t in 0..threads {
        let len = base + usize::from(t < extra);
        if len == 0 {
            break;
        }
        out.push((start, start + len));
        start += len;
    }
    out
}

// ---------------------------------------------------------------------------
// Shard planning
// ---------------------------------------------------------------------------

/// Chunks handed to each worker's deque. More chunks = finer stealing
/// granularity; 4 keeps per-chunk overhead negligible while leaving three
/// steal opportunities per band.
const CHUNKS_PER_WORKER: usize = 4;

/// A two-level decomposition of `0..n`: contiguous *chunks* (the steal
/// granule) grouped into contiguous *bands* (one deque per worker).
///
/// Build one with [`ShardPlan::even`] (uniform item cost) or
/// [`ShardPlan::weighted`] (size-estimated items, e.g. nnz per row window
/// computed from CSR row offsets). The plan only shapes the schedule; any
/// plan yields bit-identical results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    n: usize,
    /// Half-open item ranges, contiguous and in order, covering `0..n`.
    chunks: Vec<(usize, usize)>,
    /// Half-open ranges of chunk indices, one band per worker deque.
    bands: Vec<(usize, usize)>,
}

impl ShardPlan {
    /// Plans `n` uniform-cost items across `threads` workers.
    pub fn even(n: usize, threads: usize) -> Self {
        let threads = threads.max(1);
        let chunks = bands(n, threads.saturating_mul(CHUNKS_PER_WORKER));
        let band_ranges = bands(chunks.len(), threads);
        ShardPlan { n, chunks, bands: band_ranges }
    }

    /// Plans `weights.len()` items across `threads` workers, cutting chunk
    /// and band boundaries at equal-weight quantiles of the running weight
    /// sum (weights are per-item cost estimates such as nnz; an implicit
    /// `+1` per item keeps zero-weight runs splittable).
    pub fn weighted(threads: usize, weights: &[u64]) -> Self {
        let n = weights.len();
        let threads = threads.max(1);
        if threads == 1 || n <= 1 {
            return Self::even(n, threads);
        }
        let item_w = |i: usize| weights[i] as u128 + 1;
        let chunks = weighted_cuts(n, threads.saturating_mul(CHUNKS_PER_WORKER), item_w);
        let chunk_w: Vec<u128> = chunks.iter().map(|&(s, e)| (s..e).map(item_w).sum()).collect();
        let band_ranges = weighted_cuts(chunks.len(), threads, |c| chunk_w[c]);
        ShardPlan { n, chunks, bands: band_ranges }
    }

    /// Number of items planned.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the plan covers zero items.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The contiguous item ranges at chunk (steal-granule) level, in order.
    /// Callers that shard derived structures (e.g. conversion sub-matrices)
    /// reuse these cut points.
    pub fn chunk_ranges(&self) -> &[(usize, usize)] {
        &self.chunks
    }

    /// Number of worker bands (deques) the plan will run with.
    pub fn num_bands(&self) -> usize {
        self.bands.len()
    }

    /// The half-open *chunk-index* ranges grouped into each worker band, in
    /// order. `band_ranges()[w]` is the initial content of worker `w`'s
    /// deque; the sched lints audit these against [`ShardPlan::chunk_ranges`]
    /// for coverage, disjointness and weight conservation.
    pub fn band_ranges(&self) -> &[(usize, usize)] {
        &self.bands
    }

    /// Builds a plan directly from its parts, **without validation**.
    ///
    /// For the schedule checker and for mutation tests that need to seed a
    /// deliberately illegal plan (overlapping chunks, gapped bands) and
    /// prove the sched lints catch it. An invalid plan fails those lints —
    /// it is never undefined behavior — but feeding one to the execution
    /// engines is a caller bug.
    pub fn from_raw_parts(
        n: usize,
        chunks: Vec<(usize, usize)>,
        bands: Vec<(usize, usize)>,
    ) -> Self {
        ShardPlan { n, chunks, bands }
    }
}

/// Cuts `0..n` into at most `parts` contiguous ranges of approximately
/// equal total weight: a cut lands wherever the running sum crosses the
/// next `total/parts` quantile.
fn weighted_cuts(n: usize, parts: usize, weight: impl Fn(usize) -> u128) -> Vec<(usize, usize)> {
    let parts = parts.max(1).min(n.max(1));
    if n == 0 {
        return Vec::new();
    }
    let total: u128 = (0..n).map(&weight).sum();
    if total == 0 {
        return bands(n, parts);
    }
    let mut out: Vec<(usize, usize)> = Vec::with_capacity(parts);
    let mut acc: u128 = 0;
    let mut start = 0usize;
    for i in 0..n {
        acc += weight(i);
        if acc * parts as u128 >= total * (out.len() as u128 + 1) {
            out.push((start, i + 1));
            start = i + 1;
        }
    }
    // acc == total at i = n-1 always crosses the final quantile.
    debug_assert_eq!(start, n);
    out
}

// ---------------------------------------------------------------------------
// Execution-state flags (per thread) and global knobs
// ---------------------------------------------------------------------------

thread_local! {
    /// True while this thread is inside a shard-execution hot loop.
    static HOT_LOOP: Cell<bool> = const { Cell::new(false) };
    /// True while this thread is a dtc-par worker (suppresses nested spawns).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is currently inside a shard-execution hot
/// loop. The counting-allocator test keys on this to pin the zero
/// steady-state allocation guarantee; engine orchestration (slot buffers,
/// deques, thread spawns) deliberately runs with the flag off.
pub fn hot_loop_active() -> bool {
    HOT_LOOP.with(Cell::get)
}

fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Saves a thread-local flag, sets it, and restores it on drop.
struct FlagGuard {
    key: &'static std::thread::LocalKey<Cell<bool>>,
    prev: bool,
}

impl FlagGuard {
    fn set(key: &'static std::thread::LocalKey<Cell<bool>>, value: bool) -> Self {
        let prev = key.with(|c| c.replace(value));
        FlagGuard { key, prev }
    }
}

impl Drop for FlagGuard {
    fn drop(&mut self) {
        self.key.with(|c| c.set(self.prev));
    }
}

/// `0` = unseeded (fixed ring order); odd values carry a user seed.
static STEAL_SEED: AtomicU64 = AtomicU64::new(0);

/// Seeds the victim-scan order used when a worker's own deque runs dry
/// (`None` restores the default fixed ring order). Any seed produces the
/// same results — stealing only moves *where* a chunk executes — so tests
/// sweep seeds to exercise schedule diversity, not to pin outputs.
pub fn set_steal_seed(seed: Option<u64>) {
    STEAL_SEED.store(seed.map_or(0, |s| splitmix64(s) | 1), Ordering::Relaxed);
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

static VIRTUAL_TIME: AtomicBool = AtomicBool::new(false);

/// Switches the engine into virtual-time measurement mode (see the module
/// docs): chunks execute one at a time on the calling thread while the
/// work-stealing schedule is replayed against per-chunk service times, so
/// [`par_stats`] reports the schedule's true critical path even on hosts
/// with fewer cores than workers. Results are bit-identical to both the
/// serial and the threaded mode.
pub fn set_virtual_time(on: bool) {
    VIRTUAL_TIME.store(on, Ordering::Relaxed);
}

/// Whether virtual-time measurement mode is active.
pub fn virtual_time_enabled() -> bool {
    VIRTUAL_TIME.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Execution log (for the sched lints)
// ---------------------------------------------------------------------------

/// One engine invocation as observed by the execution log: enough to audit
/// the nested-parallelism rule (`in_worker` ⇒ exactly one band) and steal
/// activity after the fact. See [`set_exec_log`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecRecord {
    /// Items the invocation covered.
    pub n: usize,
    /// Worker bands the invocation actually ran with (1 = serial path).
    pub bands_used: usize,
    /// Whether the calling thread was already a dtc-par worker.
    pub in_worker_at_entry: bool,
    /// Chunks obtained by stealing rather than from the own deque.
    pub steals: u64,
    /// Whether the invocation ran in virtual-time replay mode.
    pub virtual_mode: bool,
}

static EXEC_LOG_ON: AtomicBool = AtomicBool::new(false);

fn exec_log() -> &'static Mutex<Vec<ExecRecord>> {
    static LOG: OnceLock<Mutex<Vec<ExecRecord>>> = OnceLock::new();
    LOG.get_or_init(|| Mutex::new(Vec::new()))
}

/// Turns the execution log on or off (off by default: logging takes a
/// process-wide lock per invocation, so it is a diagnostic mode, not a
/// production one). Enabling does not clear records already held.
pub fn set_exec_log(on: bool) {
    EXEC_LOG_ON.store(on, Ordering::Relaxed);
}

/// Takes every record logged since the last drain.
pub fn drain_exec_log() -> Vec<ExecRecord> {
    std::mem::take(&mut *exec_log().lock().unwrap_or_else(PoisonError::into_inner))
}

fn log_exec(record: ExecRecord) {
    if EXEC_LOG_ON.load(Ordering::Relaxed) {
        exec_log().lock().unwrap_or_else(PoisonError::into_inner).push(record);
    }
}

// ---------------------------------------------------------------------------
// Critical-path accounting
// ---------------------------------------------------------------------------

static PAR_WALL_NS: AtomicU64 = AtomicU64::new(0);
static PAR_BUSY_NS: AtomicU64 = AtomicU64::new(0);
static PAR_CRIT_NS: AtomicU64 = AtomicU64::new(0);
static PAR_INVOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Accumulated timing of every engine invocation since the last
/// [`reset_par_stats`]. Benches difference two snapshots around a phase to
/// attribute that phase's parallel wall/critical-path time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParStats {
    /// Total wall time spent inside engine invocations.
    pub wall_ns: u64,
    /// Total per-worker busy time (the work itself).
    pub busy_ns: u64,
    /// Total critical path: `wall - (busy_sum - busy_max)` per invocation —
    /// what an infinitely-wide host would still have to wait for.
    pub crit_ns: u64,
    /// Number of engine invocations (serial fast paths included).
    pub invocations: u64,
}

/// Reads the accumulated engine timing counters.
pub fn par_stats() -> ParStats {
    ParStats {
        wall_ns: PAR_WALL_NS.load(Ordering::Relaxed),
        busy_ns: PAR_BUSY_NS.load(Ordering::Relaxed),
        crit_ns: PAR_CRIT_NS.load(Ordering::Relaxed),
        invocations: PAR_INVOCATIONS.load(Ordering::Relaxed),
    }
}

/// Zeroes the accumulated engine timing counters.
pub fn reset_par_stats() {
    PAR_WALL_NS.store(0, Ordering::Relaxed);
    PAR_BUSY_NS.store(0, Ordering::Relaxed);
    PAR_CRIT_NS.store(0, Ordering::Relaxed);
    PAR_INVOCATIONS.store(0, Ordering::Relaxed);
}

fn shard_telemetry(
) -> (&'static dtc_telemetry::Counter, &'static dtc_telemetry::Counter, &'static dtc_telemetry::Gauge)
{
    static HANDLES: OnceLock<(
        &'static dtc_telemetry::Counter,
        &'static dtc_telemetry::Counter,
        &'static dtc_telemetry::Gauge,
    )> = OnceLock::new();
    *HANDLES.get_or_init(|| {
        (
            dtc_telemetry::counter("par.shard.tasks"),
            dtc_telemetry::counter("par.shard.steals"),
            dtc_telemetry::gauge("par.shard.max_imbalance"),
        )
    })
}

fn record_invocation(
    wall_ns: u64,
    busy_sum: u64,
    busy_max: u64,
    steals: u64,
    tasks: u64,
    workers: usize,
) {
    PAR_WALL_NS.fetch_add(wall_ns, Ordering::Relaxed);
    PAR_BUSY_NS.fetch_add(busy_sum, Ordering::Relaxed);
    PAR_CRIT_NS
        .fetch_add(wall_ns.saturating_sub(busy_sum.saturating_sub(busy_max)), Ordering::Relaxed);
    PAR_INVOCATIONS.fetch_add(1, Ordering::Relaxed);
    let (tasks_c, steals_c, imbalance_g) = shard_telemetry();
    tasks_c.add(tasks);
    if steals > 0 {
        steals_c.add(steals);
    }
    if workers > 1 && busy_sum > 0 {
        // busiest worker relative to the mean: 1.0 = perfectly balanced.
        imbalance_g.set(busy_max as f64 * workers as f64 / busy_sum as f64);
    }
}

// ---------------------------------------------------------------------------
// The work-stealing engine
// ---------------------------------------------------------------------------

/// Scans victims in a ring starting at a (possibly seeded) offset from `w`,
/// stealing a whole chunk from the *back* of another band's deque — the
/// opposite end from the owner, minimizing contention and keeping stolen
/// chunks far from the victim's current locality window.
fn steal_from<J>(queues: &[Mutex<VecDeque<J>>], w: usize, seed: u64) -> Option<J> {
    let nbands = queues.len();
    let start = victim_start(seed, w, nbands)?;
    for k in 0..nbands {
        let v = (w + start + k) % nbands;
        if v == w {
            continue;
        }
        let stolen = queues[v].lock().unwrap_or_else(PoisonError::into_inner).pop_back();
        if stolen.is_some() {
            return stolen;
        }
    }
    None
}

/// Single-threaded twin of [`steal_from`] for virtual-time replay.
fn steal_from_local<J>(queues: &mut [VecDeque<J>], w: usize, seed: u64) -> Option<J> {
    let nbands = queues.len();
    let start = victim_start(seed, w, nbands)?;
    for k in 0..nbands {
        let v = (w + start + k) % nbands;
        if v != w {
            if let Some(job) = queues[v].pop_back() {
                return Some(job);
            }
        }
    }
    None
}

fn victim_start(seed: u64, w: usize, nbands: usize) -> Option<usize> {
    if nbands <= 1 {
        return None;
    }
    Some(if seed == 0 {
        1
    } else {
        1 + (splitmix64(seed ^ ((w as u64) << 32 | nbands as u64)) % (nbands as u64 - 1)) as usize
    })
}

/// Runs one deque of jobs per band with work stealing: bands `1..` on
/// scoped worker threads, band 0 on the calling thread, which would
/// otherwise sit idle in the join. Returns `(busy_sum, busy_max, steals)`
/// in nanoseconds/events.
///
/// The caller runs its band as a worker: `IN_WORKER` is set (nested
/// sections run serially), jobs run under `HOT_LOOP`, and it leases the
/// band-0 arena; both flags are restored on return or unwind. It opens no
/// `par.shard` span, because its time already sits inside its own spans.
/// A panic in any band re-raises on the caller with the job's own payload
/// once every band has stopped.
///
/// Per-worker busy time is wall-clock over the worker's lifetime, which
/// overstates busy time when the host has fewer cores than workers — use
/// virtual-time mode for honest critical paths on such hosts.
fn run_threads<J, F>(queues: Vec<VecDeque<J>>, exec: &F) -> (u64, u64, u64)
where
    J: Send,
    F: Fn(J, &mut ScratchArena) + Sync,
{
    let nbands = queues.len();
    let seed = STEAL_SEED.load(Ordering::Relaxed);
    let queues: Vec<Mutex<VecDeque<J>>> = queues.into_iter().map(Mutex::new).collect();
    let queues = &queues;
    let band = move |w: usize| {
        let _worker = FlagGuard::set(&IN_WORKER, true);
        let started = Instant::now();
        let mut steals = 0u64;
        arena::with_worker_arena(w, |scratch| loop {
            let own = queues[w].lock().unwrap_or_else(PoisonError::into_inner).pop_front();
            let job = match own {
                Some(job) => job,
                None => match steal_from(queues, w, seed) {
                    Some(job) => {
                        steals += 1;
                        job
                    }
                    None => break,
                },
            };
            let _hot = FlagGuard::set(&HOT_LOOP, true);
            exec(job, scratch);
        });
        (started.elapsed().as_nanos() as u64, steals)
    };
    let mut outcomes: Vec<(u64, u64)> = Vec::with_capacity(nbands);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..nbands)
            .map(|w| {
                scope.spawn(move || {
                    // Shard timing: aggregated across worker threads by the
                    // telemetry registry (no-op unless a sink is enabled).
                    let _shard = dtc_telemetry::span("par.shard");
                    band(w)
                })
            })
            .collect();
        outcomes.push(band(0));
        for h in handles {
            outcomes.push(h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)));
        }
    });
    let busy_sum = outcomes.iter().map(|o| o.0).sum();
    let busy_max = outcomes.iter().map(|o| o.0).max().unwrap_or(0);
    let steals = outcomes.iter().map(|o| o.1).sum();
    (busy_sum, busy_max, steals)
}

/// Virtual-time twin of [`run_threads`]: replays the stealing schedule on
/// the calling thread, always advancing the virtual worker with the least
/// accumulated service time. Chunk service times are measured without any
/// core contention, so `busy_max` is the schedule's honest critical path.
fn run_virtual<J, F>(mut queues: Vec<VecDeque<J>>, exec: &F) -> (u64, u64, u64)
where
    F: Fn(J, &mut ScratchArena),
{
    let nbands = queues.len();
    let seed = STEAL_SEED.load(Ordering::Relaxed);
    let mut vtime = vec![0u64; nbands];
    let mut busy = vec![0u64; nbands];
    let mut live = vec![true; nbands];
    let mut steals = 0u64;
    arena::with_worker_arena(0, |scratch| {
        let _worker = FlagGuard::set(&IN_WORKER, true);
        while let Some(w) = (0..nbands).filter(|&w| live[w]).min_by_key(|&w| vtime[w]) {
            let job = match queues[w].pop_front() {
                Some(job) => Some(job),
                None => {
                    let stolen = steal_from_local(&mut queues, w, seed);
                    if stolen.is_some() {
                        steals += 1;
                    }
                    stolen
                }
            };
            match job {
                Some(job) => {
                    let started = Instant::now();
                    {
                        let _hot = FlagGuard::set(&HOT_LOOP, true);
                        exec(job, scratch);
                    }
                    let ns = started.elapsed().as_nanos() as u64;
                    vtime[w] += ns;
                    busy[w] += ns;
                }
                None => live[w] = false,
            }
        }
    });
    let busy_sum = busy.iter().sum();
    let busy_max = busy.iter().copied().max().unwrap_or(0);
    (busy_sum, busy_max, steals)
}

// ---------------------------------------------------------------------------
// Public mapping APIs
// ---------------------------------------------------------------------------

/// A contiguous run of result slots: `out[k]` receives `f(first + k)`.
struct SlotJob<'a, R> {
    first: usize,
    out: &'a mut [Option<R>],
}

/// Maps `f` over the plan's index space in parallel with work stealing,
/// collecting results in index order. `f` receives the worker's
/// [`ScratchArena`] for per-item scratch buffers.
///
/// Bit-identical to a serial `(0..plan.len()).map(|i| f(i, arena)).collect()`
/// for any thread count, plan, or steal schedule: each index is evaluated
/// exactly once into its own pre-sized slot.
pub fn par_map_collect_plan<R, F>(plan: &ShardPlan, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, &mut ScratchArena) -> R + Sync,
{
    let _cold = FlagGuard::set(&HOT_LOOP, false);
    let n = plan.n;
    let entered_in_worker = in_worker();
    let started = Instant::now();
    if plan.bands.len() <= 1 || entered_in_worker {
        let mut out = Vec::with_capacity(n);
        arena::with_worker_arena(0, |scratch| {
            let _worker = FlagGuard::set(&IN_WORKER, true);
            let _hot = FlagGuard::set(&HOT_LOOP, true);
            for i in 0..n {
                out.push(f(i, scratch));
            }
        });
        let wall = started.elapsed().as_nanos() as u64;
        record_invocation(wall, wall, wall, 0, n as u64, 1);
        log_exec(ExecRecord {
            n,
            bands_used: 1,
            in_worker_at_entry: entered_in_worker,
            steals: 0,
            virtual_mode: virtual_time_enabled(),
        });
        return out;
    }
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let queues = slot_queues(plan, &mut slots);
    let f = &f;
    let exec = |job: SlotJob<'_, R>, scratch: &mut ScratchArena| {
        let SlotJob { first, out } = job;
        for (k, slot) in out.iter_mut().enumerate() {
            *slot = Some(f(first + k, scratch));
        }
    };
    let (busy_sum, busy_max, steals) = if virtual_time_enabled() {
        run_virtual(queues, &exec)
    } else {
        run_threads(queues, &exec)
    };
    let wall = started.elapsed().as_nanos() as u64;
    record_invocation(wall, busy_sum, busy_max, steals, n as u64, plan.bands.len());
    log_exec(ExecRecord {
        n,
        bands_used: plan.bands.len(),
        in_worker_at_entry: entered_in_worker,
        steals,
        virtual_mode: virtual_time_enabled(),
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("engine invariant: every index computed exactly once"))
        .collect()
}

/// Splits the slot buffer along the plan's chunk boundaries into per-band
/// deques of [`SlotJob`]s.
fn slot_queues<'a, R>(
    plan: &ShardPlan,
    slots: &'a mut [Option<R>],
) -> Vec<VecDeque<SlotJob<'a, R>>> {
    let mut queues = Vec::with_capacity(plan.bands.len());
    let mut rest = slots;
    let mut chunk_iter = plan.chunks.iter();
    for &(cb, ce) in &plan.bands {
        let mut deque = VecDeque::with_capacity(ce - cb);
        for _ in cb..ce {
            let &(s, e) = chunk_iter.next().expect("plan bands cover all chunks");
            let (head, tail) = rest.split_at_mut(e - s);
            rest = tail;
            deque.push_back(SlotJob { first: s, out: head });
        }
        queues.push(deque);
    }
    queues
}

/// Maps `f` over `0..n` in parallel, collecting results in index order.
///
/// Bit-identical to `(0..n).map(f).collect()` for any thread count: each
/// index is evaluated exactly once into slot `i` of the pre-sized result
/// buffer, so a later fold over the returned `Vec` sees serial order.
pub fn par_map_collect<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let _cold = FlagGuard::set(&HOT_LOOP, false);
    let plan = ShardPlan::even(n, num_threads());
    par_map_collect_plan(&plan, |i, _| f(i))
}

/// [`par_map_collect`] over a weight-estimated index space: shard cut
/// points follow the per-item weights (e.g. nnz per row window), so skewed
/// inputs start out balanced and stealing only has to absorb the residue.
pub fn par_map_collect_weighted<R, F>(weights: &[u64], f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let _cold = FlagGuard::set(&HOT_LOOP, false);
    let plan = ShardPlan::weighted(num_threads(), weights);
    par_map_collect_plan(&plan, |i, _| f(i))
}

/// A contiguous run of data chunks: `f(first + k, chunk_k)`.
struct ChunkJob<'a, T> {
    first: usize,
    data: &'a mut [T],
}

/// Runs `f(chunk_index, chunk)` over `chunk_size`-sized chunks of `data` in
/// parallel (last chunk may be short), each chunk visited exactly once.
///
/// Every chunk sees the same `f` invocation it would in a serial
/// `data.chunks_mut(chunk_size)` loop; outputs are disjoint `&mut` slices,
/// making the parallel run bit-identical under any steal schedule.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_size: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    let _cold = FlagGuard::set(&HOT_LOOP, false);
    let n_chunks = data.len().div_ceil(chunk_size);
    let plan = ShardPlan::even(n_chunks, num_threads());
    par_chunks_mut_plan(data, chunk_size, &plan, f);
}

/// [`par_chunks_mut`] with one cost weight per chunk (e.g. nnz per row
/// window for the SpMM output strips).
pub fn par_chunks_mut_weighted<T, F>(data: &mut [T], chunk_size: usize, weights: &[u64], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    let n_chunks = data.len().div_ceil(chunk_size);
    assert_eq!(weights.len(), n_chunks, "one weight per chunk");
    let _cold = FlagGuard::set(&HOT_LOOP, false);
    let plan = ShardPlan::weighted(num_threads(), weights);
    par_chunks_mut_plan(data, chunk_size, &plan, f);
}

fn par_chunks_mut_plan<T, F>(data: &mut [T], chunk_size: usize, plan: &ShardPlan, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let entered_in_worker = in_worker();
    let started = Instant::now();
    if plan.bands.len() <= 1 || entered_in_worker {
        let n_chunks = plan.n as u64;
        {
            let _worker = FlagGuard::set(&IN_WORKER, true);
            let _hot = FlagGuard::set(&HOT_LOOP, true);
            for (i, chunk) in data.chunks_mut(chunk_size).enumerate() {
                f(i, chunk);
            }
        }
        let wall = started.elapsed().as_nanos() as u64;
        record_invocation(wall, wall, wall, 0, n_chunks, 1);
        log_exec(ExecRecord {
            n: plan.n,
            bands_used: 1,
            in_worker_at_entry: entered_in_worker,
            steals: 0,
            virtual_mode: virtual_time_enabled(),
        });
        return;
    }
    let len = data.len();
    let mut queues = Vec::with_capacity(plan.bands.len());
    {
        let mut rest = data;
        let mut chunk_iter = plan.chunks.iter();
        for &(cb, ce) in &plan.bands {
            let mut deque = VecDeque::with_capacity(ce - cb);
            for _ in cb..ce {
                let &(s, e) = chunk_iter.next().expect("plan bands cover all chunks");
                let elems = (e * chunk_size).min(len) - s * chunk_size;
                let (head, tail) = rest.split_at_mut(elems);
                rest = tail;
                deque.push_back(ChunkJob { first: s, data: head });
            }
            queues.push(deque);
        }
    }
    let f = &f;
    let exec = |job: ChunkJob<'_, T>, _scratch: &mut ScratchArena| {
        let ChunkJob { first, data } = job;
        for (k, chunk) in data.chunks_mut(chunk_size).enumerate() {
            f(first + k, chunk);
        }
    };
    let (busy_sum, busy_max, steals) = if virtual_time_enabled() {
        run_virtual(queues, &exec)
    } else {
        run_threads(queues, &exec)
    };
    let wall = started.elapsed().as_nanos() as u64;
    record_invocation(wall, busy_sum, busy_max, steals, plan.n as u64, plan.bands.len());
    log_exec(ExecRecord {
        n: plan.n,
        bands_used: plan.bands.len(),
        in_worker_at_entry: entered_in_worker,
        steals,
        virtual_mode: virtual_time_enabled(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that mutate the process-wide override/seed/mode.
    static OVERRIDE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        OVERRIDE_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn bands_cover_range_in_order() {
        for n in [0usize, 1, 2, 7, 16, 33, 1000] {
            for threads in [1usize, 2, 3, 7, 16, 64] {
                let bands = bands(n, threads);
                let mut expect = 0;
                for &(s, e) in &bands {
                    assert_eq!(s, expect);
                    assert!(e > s);
                    expect = e;
                }
                assert_eq!(expect, n);
                assert_eq!(bands.iter().map(|&(s, e)| e - s).sum::<usize>(), n);
                assert!(bands.len() <= threads.max(1));
            }
        }
    }

    fn assert_plan_covers(plan: &ShardPlan, n: usize, threads: usize) {
        let mut expect = 0;
        for &(s, e) in &plan.chunks {
            assert_eq!(s, expect);
            assert!(e > s);
            expect = e;
        }
        assert_eq!(expect, n, "chunks must cover 0..n in order");
        let mut cexpect = 0;
        for &(cb, ce) in &plan.bands {
            assert_eq!(cb, cexpect);
            assert!(ce > cb);
            cexpect = ce;
        }
        assert_eq!(cexpect, plan.chunks.len(), "bands must cover all chunks");
        assert!(plan.bands.len() <= threads.max(1));
    }

    #[test]
    fn even_plans_cover_everything() {
        for n in [0usize, 1, 5, 16, 100, 1031] {
            for threads in [1usize, 2, 7, 16] {
                assert_plan_covers(&ShardPlan::even(n, threads), n, threads);
            }
        }
    }

    #[test]
    fn weighted_plans_cover_everything() {
        for n in [0usize, 1, 5, 100, 513] {
            for threads in [1usize, 2, 7, 16] {
                let uniform = vec![3u64; n];
                assert_plan_covers(&ShardPlan::weighted(threads, &uniform), n, threads);
                let zeros = vec![0u64; n];
                assert_plan_covers(&ShardPlan::weighted(threads, &zeros), n, threads);
                let skew: Vec<u64> =
                    (0..n as u64).map(|i| if i == 0 { 1_000_000 } else { i % 7 }).collect();
                assert_plan_covers(&ShardPlan::weighted(threads, &skew), n, threads);
            }
        }
    }

    #[test]
    fn weighted_plan_isolates_heavy_items() {
        // One item carries ~all the weight: the planner must not lump many
        // light items into its chunk, so stealing can rebalance the rest.
        let mut weights = vec![1u64; 256];
        weights[0] = 1 << 40;
        let plan = ShardPlan::weighted(4, &weights);
        let (s, e) = plan.chunks[0];
        assert_eq!((s, e), (0, 1), "the heavy item must sit alone in its chunk");
        // And the heavy band holds a minority of the remaining items.
        let (cb, ce) = plan.bands[0];
        let heavy_band_items: usize = plan.chunks[cb..ce].iter().map(|&(s, e)| e - s).sum();
        assert!(heavy_band_items < 64, "heavy band took {heavy_band_items} items");
    }

    #[test]
    fn map_collect_matches_serial_for_every_thread_count() {
        let _guard = lock();
        let serial: Vec<usize> = (0..1000).map(|i| i * i).collect();
        for threads in [1usize, 2, 7, 16] {
            set_threads(Some(threads));
            assert_eq!(par_map_collect(1000, |i| i * i), serial, "threads={threads}");
        }
        set_threads(None);
    }

    #[test]
    fn weighted_map_and_plan_match_serial_under_steal_seeds() {
        let _guard = lock();
        let weights: Vec<u64> = (0..777u64).map(|i| (i * i) % 97).collect();
        let serial: Vec<u64> = (0..777u64).collect();
        for threads in [2usize, 5, 16] {
            set_threads(Some(threads));
            for seed in [None, Some(0), Some(1), Some(0xdead_beef)] {
                set_steal_seed(seed);
                let out = par_map_collect_weighted(&weights, |i| i as u64);
                assert_eq!(out, serial, "threads={threads} seed={seed:?}");
            }
        }
        set_steal_seed(None);
        set_threads(None);
    }

    #[test]
    fn virtual_time_mode_is_bit_identical_and_accounts_critical_path() {
        let _guard = lock();
        set_threads(Some(4));
        set_virtual_time(true);
        reset_par_stats();
        let serial: Vec<usize> = (0..500).map(|i| i * 3).collect();
        assert_eq!(par_map_collect(500, |i| i * 3), serial);
        let stats = par_stats();
        assert_eq!(stats.invocations, 1);
        assert!(stats.crit_ns <= stats.wall_ns);
        assert!(stats.busy_ns <= stats.wall_ns, "virtual mode serializes chunks");
        set_virtual_time(false);
        set_threads(None);
    }

    #[test]
    fn plan_variant_threads_arena_through() {
        let _guard = lock();
        set_threads(Some(3));
        let plan = ShardPlan::even(64, 3);
        let out = par_map_collect_plan(&plan, |i, scratch| {
            let mut buf = scratch.usize_buf();
            buf.extend(0..=i);
            let sum: usize = buf.iter().sum();
            scratch.recycle_usize(buf);
            sum
        });
        let expect: Vec<usize> = (0..64).map(|i| i * (i + 1) / 2).collect();
        assert_eq!(out, expect);
        set_threads(None);
    }

    #[test]
    fn nested_parallel_sections_run_serial_not_spawned() {
        let _guard = lock();
        set_threads(Some(4));
        // Outer parallel map; each item runs another map. The inner maps
        // must take the serial path (no nested spawn) and still be exact.
        let out = par_map_collect(8, |i| par_map_collect(10, move |j| i * 10 + j));
        for (i, inner) in out.iter().enumerate() {
            let expect: Vec<usize> = (0..10).map(|j| i * 10 + j).collect();
            assert_eq!(inner, &expect);
        }
        set_threads(None);
    }

    /// Two one-chunk bands.
    fn two_band_plan() -> ShardPlan {
        ShardPlan::from_raw_parts(2, vec![(0, 1), (1, 2)], vec![(0, 1), (1, 2)])
    }

    /// Marks item `i` of [`two_band_plan`] started, then waits for the
    /// other. Each band pops its own chunk before it steals, and neither
    /// chunk can finish before the other has started, so item 0 runs on
    /// the caller's band 0 and item 1 on the spawned worker.
    fn rendezvous(started: &[AtomicBool; 2], i: usize) {
        started[i].store(true, Ordering::SeqCst);
        while !started[1 - i].load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn caller_runs_band_zero_as_a_worker_and_restores_its_flags() {
        let _guard = lock();
        set_threads(Some(2));
        set_exec_log(true);
        let _ = drain_exec_log();
        let caller = std::thread::current().id();
        for _ in 0..2 {
            let started = [AtomicBool::new(false), AtomicBool::new(false)];
            let out = par_map_collect_plan(&two_band_plan(), |i, _| {
                rendezvous(&started, i);
                if i == 0 {
                    // A nested section inside band 0 runs serially.
                    let nested = par_map_collect(10, |j| j * 2);
                    assert_eq!(nested, (0..10).map(|j| j * 2).collect::<Vec<_>>());
                }
                (std::thread::current().id(), in_worker(), hot_loop_active())
            });
            assert_eq!(out[0], (caller, true, true), "band 0 runs on the caller, as a worker");
            assert_ne!(out[1].0, caller);
            assert!(!in_worker() && !hot_loop_active(), "caller flags restored");
        }
        set_exec_log(false);
        let log = drain_exec_log();
        set_threads(None);
        // Per call: the nested section (serial, entered in a worker), then
        // the outer one, which fanned out both times.
        let shape: Vec<_> = log.iter().map(|r| (r.n, r.bands_used, r.in_worker_at_entry)).collect();
        assert_eq!(shape, [(10, 1, true), (2, 2, false), (10, 1, true), (2, 2, false)]);
    }

    #[test]
    fn a_panic_in_any_band_surfaces_with_its_own_payload() {
        let _guard = lock();
        set_threads(Some(2));
        for panicking in [0usize, 1] {
            let started = [AtomicBool::new(false), AtomicBool::new(false)];
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                par_map_collect_plan(&two_band_plan(), |i, _| {
                    rendezvous(&started, i);
                    if i == panicking {
                        std::panic::panic_any(format!("job {i} failed"));
                    }
                    i
                })
            }));
            let payload = caught.expect_err("the job panic must propagate");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some(format!("job {panicking} failed").as_str())
            );
            assert!(!in_worker() && !hot_loop_active(), "flags restored on unwind");
            // The caller stays usable, and its pooled arena is not lost.
            assert_eq!(par_map_collect(100, |i| i + 1), (1..=100).collect::<Vec<_>>());
            with_arena(|scratch| {
                let v = scratch.usize_buf();
                scratch.recycle_usize(v);
            });
        }
        set_threads(None);
    }

    #[test]
    fn chunks_mut_visits_every_chunk_once() {
        let _guard = lock();
        for threads in [1usize, 2, 7, 16] {
            set_threads(Some(threads));
            for len in [0usize, 1, 15, 16, 17, 160, 163] {
                let mut data = vec![0u32; len];
                par_chunks_mut(&mut data, 16, |ci, chunk| {
                    for (j, x) in chunk.iter_mut().enumerate() {
                        *x += (ci * 16 + j) as u32 + 1;
                    }
                });
                let expect: Vec<u32> = (0..len as u32).map(|i| i + 1).collect();
                assert_eq!(data, expect, "threads={threads} len={len}");
            }
        }
        set_threads(None);
    }

    #[test]
    fn weighted_chunks_mut_matches_serial() {
        let _guard = lock();
        set_threads(Some(5));
        for len in [0usize, 1, 33, 256, 300] {
            let n_chunks = len.div_ceil(8);
            let weights: Vec<u64> = (0..n_chunks as u64).map(|i| i * i % 13).collect();
            let mut data = vec![0u64; len];
            par_chunks_mut_weighted(&mut data, 8, &weights, |ci, chunk| {
                for (j, x) in chunk.iter_mut().enumerate() {
                    *x = (ci * 8 + j) as u64 * 2 + 1;
                }
            });
            let expect: Vec<u64> = (0..len as u64).map(|i| i * 2 + 1).collect();
            assert_eq!(data, expect, "len={len}");
        }
        set_threads(None);
    }

    #[test]
    fn override_beats_env() {
        let _guard = lock();
        set_threads(Some(3));
        assert_eq!(num_threads(), 3);
        set_threads(None);
        assert!(num_threads() >= 1);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let _guard = lock();
        set_threads(Some(2));
        reset_par_stats();
        let _ = par_map_collect(256, |i| i + 1);
        let stats = par_stats();
        assert_eq!(stats.invocations, 1);
        assert!(stats.wall_ns > 0);
        reset_par_stats();
        assert_eq!(par_stats(), ParStats::default());
        set_threads(None);
    }

    #[test]
    fn hot_loop_flag_is_scoped_to_execution() {
        let _guard = lock();
        assert!(!hot_loop_active());
        set_threads(Some(1));
        let flags = par_map_collect(4, |_| hot_loop_active());
        assert_eq!(flags, vec![true; 4], "items run under the hot-loop flag");
        assert!(!hot_loop_active(), "flag restored after the engine returns");
        set_threads(None);
    }
}
