//! A sectored, set-associative LRU model of the GPU L2 cache.
//!
//! Used for the Fig 13(c) experiment: Hierarchy II of TCU-Cache-Aware
//! reordering groups row clusters with similar column sets so that
//! *concurrently resident* thread blocks touch overlapping rows of B and
//! hit in the (SM-shared) L2. To capture that, the trace's per-TB B-access
//! streams are replayed in scheduled-wave order with round-robin
//! interleaving between the blocks of a wave.
//!
//! # Set sharding
//!
//! A set-associative cache decomposes *exactly* by set index: an access to
//! sector `a` touches only set `a mod S`, and each set's LRU state depends
//! only on the subsequence of accesses mapped to it, in order. Partitioning
//! the sets across `T` workers (worker `t` owns sets `s ≡ t (mod T)`) and
//! having every worker walk the full interleaved stream — keeping only its
//! own sets — therefore reproduces the serial model's per-set histories
//! verbatim. Hit and access counts are integers, so their sum over shards
//! is bit-identical to the serial count at any thread count; the serial
//! path is the 1-shard case of the same code.
//!
//! Sharding would be useless if every worker paid the full decode cost, so
//! workers never materialize foreign addresses: inside one encoded run
//! (consecutive addresses), the members of shard `t` are an arithmetic
//! progression of stride `T` (between multiples of `S`, where `a mod S`
//! advances with `a`), and `advance_chunk` steps directly between them.
//! Per-shard work is `O(members + runs)`, not `O(sectors)`.

use crate::{Device, KernelTrace};

/// Round-robin chunk size for interleaving the streams of one wave.
const CHUNK: usize = 16;

/// A set-associative, 32-byte-sector LRU cache.
#[derive(Debug)]
pub struct L2Cache {
    sets: Vec<Vec<u64>>, // each set: most-recent-last list of sector tags
    ways: usize,
    num_sets: usize,
    hits: u64,
    accesses: u64,
}

impl L2Cache {
    /// Builds a cache model for the given device's L2 parameters.
    pub fn for_device(device: &Device) -> Self {
        let (num_sets, ways) = l2_geometry(device);
        Self::with_geometry(num_sets, ways)
    }

    /// Builds a cache with explicit geometry (for tests).
    pub fn with_geometry(num_sets: usize, ways: usize) -> Self {
        L2Cache {
            sets: vec![Vec::new(); num_sets.max(1)],
            ways: ways.max(1),
            num_sets: num_sets.max(1),
            hits: 0,
            accesses: 0,
        }
    }

    /// Accesses a sector address; returns `true` on hit.
    pub fn access(&mut self, sector_addr: u64) -> bool {
        self.accesses += 1;
        let set = (sector_addr as usize) % self.num_sets;
        let lines = &mut self.sets[set];
        if let Some(pos) = lines.iter().position(|&t| t == sector_addr) {
            // Move to MRU position.
            let tag = lines.remove(pos);
            lines.push(tag);
            self.hits += 1;
            true
        } else {
            if lines.len() >= self.ways {
                lines.remove(0); // evict LRU
            }
            lines.push(sector_addr);
            false
        }
    }

    /// Number of accesses so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Number of hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Hit rate so far (0 when no accesses were made).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// The device's L2 geometry as `(num_sets, ways)`.
fn l2_geometry(device: &Device) -> (usize, usize) {
    let lines = (device.l2_bytes / device.sector_bytes as u64).max(1) as usize;
    let ways = device.l2_ways.max(1);
    ((lines / ways).max(1), ways)
}

/// Replays a trace's recorded B-sector streams through the device's L2.
///
/// Thread blocks are grouped into waves of `num_sms × occupancy` (the set
/// of concurrently resident blocks); within a wave, accesses interleave
/// round-robin in chunks, approximating concurrent execution. The replay
/// is sharded by set index over [`dtc_par::num_threads`] workers (see the
/// module docs) — hit counts are bit-identical to the serial model at any
/// thread count. Returns the overall hit rate; 0.0 when the trace recorded
/// no addresses.
pub fn simulate_l2_over_trace(device: &Device, trace: &KernelTrace) -> f64 {
    let (hits, accesses) = l2_counts_over_trace(device, trace, dtc_par::num_threads());
    if accesses == 0 {
        0.0
    } else {
        hits as f64 / accesses as f64
    }
}

/// [`simulate_l2_over_trace`] with an explicit shard count, returning the
/// exact `(hits, accesses)` counters. `threads == 1` is the serial model.
pub fn l2_counts_over_trace(device: &Device, trace: &KernelTrace, threads: usize) -> (u64, u64) {
    if !trace.has_streams() || trace.num_tbs() == 0 {
        return (0, 0);
    }
    let (num_sets, ways) = l2_geometry(device);
    debug_assert!(
        trace.occupancy > 0,
        "occupancy must be positive (legal occupancy is fixed at trace construction)"
    );
    let wave = (device.num_sms * trace.occupancy).max(1);
    let shards = threads.max(1).min(num_sets);
    // Shards own interleaved set residues, so their work is near-uniform; an
    // even plan suffices. The replay's set tables and wave cursors lease
    // worker-arena scratch — steady-state replay performs no heap
    // allocation.
    let plan = dtc_par::ShardPlan::even(shards, shards);
    let per_shard: Vec<(u64, u64)> = dtc_par::par_map_collect_plan(&plan, |shard, scratch| {
        replay_shard(trace, wave, num_sets, ways, shard, shards, scratch)
    });
    let mut hits = 0u64;
    let mut accesses = 0u64;
    for (h, a) in per_shard {
        hits += h;
        accesses += a;
    }
    (hits, accesses)
}

/// Counts `(hits, accesses)` of one shard — the unit of parallel work
/// inside [`l2_counts_over_trace`]. Summing over `shard in 0..num_shards`
/// reproduces the serial counts exactly. Public so benchmarks can measure
/// per-shard critical paths independently of the host's core count.
pub fn l2_shard_counts(
    device: &Device,
    trace: &KernelTrace,
    shard: usize,
    num_shards: usize,
) -> (u64, u64) {
    if !trace.has_streams() || trace.num_tbs() == 0 || shard >= num_shards {
        return (0, 0);
    }
    let (num_sets, ways) = l2_geometry(device);
    debug_assert!(
        trace.occupancy > 0,
        "occupancy must be positive (legal occupancy is fixed at trace construction)"
    );
    let wave = (device.num_sms * trace.occupancy).max(1);
    dtc_par::with_arena(|scratch| {
        replay_shard(trace, wave, num_sets, ways, shard, num_shards, scratch)
    })
}

/// A thread block's replay position inside its encoded stream:
/// `(run index, offset within run)`.
type TbPos = (usize, u64);

/// Consumes up to `budget` decoded positions from `runs` starting at `pos`,
/// visiting — in stream order — only the addresses whose set index belongs
/// to shard `shard` of `num_shards`.
///
/// Within a run, `a mod num_sets` increases with `a` between multiples of
/// `num_sets`, so the shard's members satisfy a fixed residue `a ≡ r (mod
/// num_shards)` per segment and are enumerated by stepping `num_shards` —
/// foreign addresses are skipped arithmetically, never decoded.
fn advance_chunk(
    runs: &[crate::SectorRun],
    pos: &mut TbPos,
    mut budget: u64,
    num_sets: u64,
    shard: u64,
    num_shards: u64,
    mut visit: impl FnMut(u64),
) {
    while budget > 0 {
        let Some(run) = runs.get(pos.0) else { return };
        let len = run.len as u64;
        let take = (len - pos.1).min(budget);
        let a0 = run.start + pos.1;
        let a1 = a0 + take;
        // Split at multiples of num_sets: the wrap changes the residue.
        let mut a = a0;
        while a < a1 {
            let k = a / num_sets;
            let seg_end = a1.min((k + 1).saturating_mul(num_sets));
            // a belongs to the shard iff (a - k·S) ≡ shard (mod T), i.e.
            // a ≡ shard + k·S (mod T).
            let residue = (shard + (k % num_shards) * (num_sets % num_shards)) % num_shards;
            let mut x = a + (residue + num_shards - a % num_shards) % num_shards;
            while x < seg_end {
                visit(x);
                x += num_shards;
            }
            a = seg_end;
        }
        pos.1 += take;
        budget -= take;
        if pos.1 == len {
            pos.0 += 1;
            pos.1 = 0;
        }
    }
}

/// Replays the interleaved access stream, modeling only the sets
/// `s ≡ shard (mod num_shards)` and counting their hits and accesses.
fn replay_shard(
    trace: &KernelTrace,
    wave: usize,
    num_sets: usize,
    ways: usize,
    shard: usize,
    num_shards: usize,
    scratch: &mut dtc_par::ScratchArena,
) -> (u64, u64) {
    // Local storage for the shard's sets: global set `s` (with
    // `s % num_shards == shard`) lives at local index `s / num_shards`.
    // Both the set table and the per-wave cursor list are leased from the
    // worker's arena: repeated replays (tracelint sweeps, the Fig 13c
    // ablation grid) reuse the same capacity instead of reallocating.
    let local_sets = (num_sets - shard).div_ceil(num_shards);
    let mut sets: Vec<Vec<u64>> = scratch.u64_table(local_sets);
    let mut pos: Vec<TbPos> = scratch.pair_buf();
    let mut hits = 0u64;
    let mut accesses = 0u64;

    let n = trace.num_tbs();
    let mut wave_start = 0usize;
    while wave_start < n {
        let wave_end = (wave_start + wave).min(n);
        pos.clear();
        pos.resize(wave_end - wave_start, (0, 0));
        loop {
            let mut progressed = false;
            for (j, p) in pos.iter_mut().enumerate() {
                let runs = trace.stream(wave_start + j).runs();
                if p.0 >= runs.len() {
                    continue;
                }
                progressed = true;
                advance_chunk(
                    runs,
                    p,
                    CHUNK as u64,
                    num_sets as u64,
                    shard as u64,
                    num_shards as u64,
                    |addr| {
                        accesses += 1;
                        let set = (addr as usize) % num_sets;
                        let lines = &mut sets[set / num_shards];
                        if let Some(i) = lines.iter().position(|&t| t == addr) {
                            let tag = lines.remove(i);
                            lines.push(tag);
                            hits += 1;
                        } else {
                            if lines.len() >= ways {
                                lines.remove(0); // evict LRU
                            }
                            lines.push(addr);
                        }
                    },
                );
            }
            if !progressed {
                break;
            }
        }
        wave_start = wave_end;
    }
    scratch.recycle_pair(pos);
    scratch.recycle_u64_table(sets);
    (hits, accesses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TbWork;

    #[test]
    fn repeat_access_hits() {
        let mut c = L2Cache::with_geometry(16, 4);
        assert!(!c.access(42));
        assert!(c.access(42));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.accesses(), 2);
    }

    #[test]
    fn lru_eviction() {
        let mut c = L2Cache::with_geometry(1, 2);
        c.access(0);
        c.access(1);
        c.access(2); // evicts 0
        assert!(!c.access(0)); // miss: 0 was evicted (and now evicts 1)
        assert!(c.access(2)); // 2 still resident
    }

    #[test]
    fn mru_update_prevents_eviction() {
        let mut c = L2Cache::with_geometry(1, 2);
        c.access(0);
        c.access(1);
        c.access(0); // 0 becomes MRU
        c.access(2); // evicts 1, not 0
        assert!(c.access(0));
    }

    #[test]
    fn hit_rate_zero_without_accesses() {
        assert_eq!(L2Cache::with_geometry(4, 4).hit_rate(), 0.0);
    }

    #[test]
    fn shared_streams_hit_in_same_wave() {
        let device = Device::rtx4090();
        let mut trace = KernelTrace::new(1, 8);
        // Two TBs in the same wave touching identical sectors: second
        // pass over the stream hits.
        for _ in 0..2 {
            trace.push(TbWork { b_stream: (0..1000).collect(), ..TbWork::default() });
        }
        let hit = simulate_l2_over_trace(&device, &trace);
        assert!(hit > 0.4, "hit={hit}");
    }

    #[test]
    fn disjoint_streams_do_not_hit() {
        let device = Device::rtx4090();
        let mut trace = KernelTrace::new(1, 8);
        trace.push(TbWork { b_stream: (0..1000).collect(), ..TbWork::default() });
        trace.push(TbWork { b_stream: (1_000_000..1_001_000).collect(), ..TbWork::default() });
        let hit = simulate_l2_over_trace(&device, &trace);
        assert!(hit < 0.05, "hit={hit}");
    }

    #[test]
    fn sharded_counts_match_serial_exactly() {
        let device = Device::rtx4090();
        let mut trace = KernelTrace::new(1, 8);
        // Mixed reuse: overlapping strided streams across several waves.
        for i in 0..300u64 {
            let base = (i % 7) * 512;
            trace.push(TbWork {
                hmma_ops: (i % 3) as f64,
                b_stream: (base..base + 96).chain((i * 31) % 4096..(i * 31) % 4096 + 8).collect(),
                ..TbWork::default()
            });
        }
        let serial = l2_counts_over_trace(&device, &trace, 1);
        assert!(serial.1 > 0);
        for threads in [2usize, 3, 4, 8, 16] {
            assert_eq!(l2_counts_over_trace(&device, &trace, threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn sharded_replay_matches_flat_l2cache_on_one_wave() {
        // With a wave larger than the trace and a single shard, the replay
        // must agree with pushing the interleaved stream through L2Cache.
        let device = Device::rtx4090();
        let mut trace = KernelTrace::new(1, 8);
        let streams: Vec<Vec<u64>> =
            (0..5u64).map(|i| (i * 100..i * 100 + 40).chain(0..20).collect()).collect();
        for s in &streams {
            trace.push(TbWork { b_stream: s.clone().into(), ..TbWork::default() });
        }
        let (hits, accesses) = l2_counts_over_trace(&device, &trace, 1);

        let mut flat = L2Cache::for_device(&device);
        let mut cursors: Vec<usize> = vec![0; streams.len()];
        let mut remaining = streams.len();
        while remaining > 0 {
            remaining = 0;
            for (s, cur) in streams.iter().zip(cursors.iter_mut()) {
                if *cur >= s.len() {
                    continue;
                }
                let end = (*cur + CHUNK).min(s.len());
                for &a in &s[*cur..end] {
                    flat.access(a);
                }
                *cur = end;
                if end < s.len() {
                    remaining += 1;
                }
            }
        }
        assert_eq!((hits, accesses), (flat.hits(), flat.accesses()));
    }
}
