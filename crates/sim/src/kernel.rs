//! Kernel traces: per-thread-block work descriptors, compressed by
//! interning duplicate descriptors into *duration classes*.
//!
//! Real launches of the paper's kernels put 10⁵–10⁶ thread blocks on the
//! device, but the work descriptors are overwhelmingly duplicates (every
//! full row window of the same shape lowers to the same instruction mix).
//! [`KernelTrace`] therefore stores one [`TbWork`] per *unique* descriptor
//! (the class table) plus a per-block class id, so the simulator computes
//! durations and stalls once per class instead of once per block, while
//! the per-block launch order — which scheduling and cache replay depend
//! on — is fully preserved.

use crate::occupancy::KernelResources;
use crate::stream::SectorStream;
use dtc_par::hash::fnv1a;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// The per-thread-block work descriptor a kernel implementation lowers to.
///
/// All `*_ops` fields are warp-level instruction counts for the whole
/// thread block; `*_sectors` fields are 32-byte global-memory transactions.
/// `hmma_ops` is in `m16n8k8`-equivalent units (time), while `hmma_count`
/// is the raw executed-instruction count used for the `#IMAD/#HMMA` ratio
/// (e.g. one `m16n8k4` contributes 0.5 to `hmma_ops` but 1.0 to
/// `hmma_count`).
#[derive(Debug, Clone, Default)]
pub struct TbWork {
    /// Warp IMAD / integer-ALU instructions (coordinate computation).
    pub alu_ops: f64,
    /// Warp FFMA CUDA-core instructions (for CUDA-core kernels).
    pub fp_ops: f64,
    /// Global sectors fetched for the sparse operand A.
    pub lsu_a_sectors: f64,
    /// Global sectors fetched for the dense operand B.
    pub lsu_b_sectors: f64,
    /// Shared-memory warp instructions (STS + LDS staging).
    pub smem_ops: f64,
    /// Tensor-Core work in `m16n8k8`-equivalents (determines TC-pipe time).
    pub hmma_ops: f64,
    /// Raw HMMA instruction count (for the `#IMAD/#HMMA` metric).
    pub hmma_count: f64,
    /// Raw IMAD instruction count (defaults to `alu_ops` when lowering).
    pub imad_count: f64,
    /// Warp shuffle instructions (`shfl_sync` transposes).
    pub shfl_ops: f64,
    /// Global sectors written for the output C (plus balanced-kernel extras).
    pub epilogue_sectors: f64,
    /// Warp atomic operations (strict-balance accumulation).
    pub atom_ops: f64,
    /// Main-loop iterations — used for dependency-stall modeling.
    pub iters: f64,
    /// Sparse-A fetch is prefetched with `cp.async` double buffering and
    /// overlaps Tensor-Core compute (§4.4.2).
    pub overlap_a_fetch: bool,
    /// Run-length-encoded B-access sector stream for L2 simulation
    /// (optional; only populated when the caller wants a cache simulation).
    /// Not part of the duration class — the trace stores it per block.
    pub b_stream: SectorStream,
}

impl TbWork {
    /// The twelve numeric work fields, in the fixed hashing order. Shared
    /// by the interning key and external analyzers (`dtc-verify`) so both
    /// agree on what "the work" of a block is.
    pub fn numeric_fields(&self) -> [(&'static str, f64); 12] {
        [
            ("alu_ops", self.alu_ops),
            ("fp_ops", self.fp_ops),
            ("lsu_a_sectors", self.lsu_a_sectors),
            ("lsu_b_sectors", self.lsu_b_sectors),
            ("smem_ops", self.smem_ops),
            ("hmma_ops", self.hmma_ops),
            ("hmma_count", self.hmma_count),
            ("imad_count", self.imad_count),
            ("shfl_ops", self.shfl_ops),
            ("epilogue_sectors", self.epilogue_sectors),
            ("atom_ops", self.atom_ops),
            ("iters", self.iters),
        ]
    }

    /// Debug-build sanity check for lowering sites: every work field must
    /// be finite and non-negative at the moment the block is frozen into a
    /// trace. Compiled out in release builds; the full (release-mode)
    /// enforcement lives in `dtc-verify`'s `nonfinite-count` lint.
    #[inline]
    pub fn debug_validate(&self) {
        if cfg!(debug_assertions) {
            for (name, v) in self.numeric_fields() {
                debug_assert!(
                    v.is_finite() && v >= 0.0,
                    "TbWork::{name} = {v} must be finite and non-negative"
                );
            }
        }
    }
}

/// The duration class identity as 13 plain words: the bit patterns
/// (`f64::to_bits`) of every duration-determining field — everything but
/// the sector stream — plus the overlap flag. Derived `Eq` on the words is
/// exact class identity, so interning never conflates values that would
/// time differently (`0.0` and `-0.0` are two classes).
#[derive(Debug, Clone, PartialEq, Eq)]
struct WorkClassKey([u64; 13]);

impl WorkClassKey {
    fn of(tb: &TbWork) -> Self {
        let mut w = [0u64; 13];
        for (slot, (_, v)) in w.iter_mut().zip(tb.numeric_fields()) {
            *slot = v.to_bits();
        }
        w[12] = tb.overlap_a_fetch as u64;
        WorkClassKey(w)
    }

    /// Word-wise FNV-1a digest: 13 fold steps.
    ///
    /// Each word is pre-folded with `x ^ (x >> 32)` first: the words are
    /// `f64` bit patterns of small counts, whose entropy sits in the
    /// exponent and high mantissa bits, and FNV's multiply only carries
    /// entropy upward — without the fold every class's digest would share
    /// its low 32 bits.
    fn digest(&self) -> u64 {
        fnv1a(dtc_par::hash::FNV_OFFSET, self.0.iter().map(|&x| x ^ (x >> 32)))
    }
}

/// Feeds the map one word, the [`WorkClassKey::digest`], rather than 13:
/// equality still compares every word.
impl Hash for WorkClassKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.digest());
    }
}

static EMPTY_STREAM: SectorStream = SectorStream::new();

/// A lowered kernel: launch-wide configuration plus a *compressed* block
/// list — a class table of unique [`TbWork`] descriptors, a per-block
/// class id in launch order, and per-block sector streams when recorded.
#[derive(Debug, Clone)]
pub struct KernelTrace {
    /// Unique work descriptors (their `b_stream` is always empty).
    classes: Vec<TbWork>,
    /// Per thread block, in launch order: index into `classes`.
    class_ids: Vec<u32>,
    /// Per-block B-sector streams; empty vector when no block recorded any.
    streams: Vec<SectorStream>,
    /// Class identity → index into `classes`.
    index: HashMap<WorkClassKey, u32>,
    /// When false, `push` appends a fresh class per block (the legacy
    /// uncompressed layout of [`expanded`](KernelTrace::expanded)).
    interning: bool,
    /// Thread blocks resident per SM (the paper measures 6 for DTC-SpMM).
    pub occupancy: usize,
    /// Warps per thread block.
    pub warps_per_tb: usize,
    /// L2 hit rate assumed for B traffic when the cache is not simulated.
    pub assumed_l2_hit_rate: f64,
    /// Per-block resource usage of the kernel this trace was lowered from
    /// (registers, shared memory, warps). Optional: lowering sites attach
    /// it so `dtc-verify` can re-derive the legal occupancy (paper eq. 6)
    /// and check the trace's `occupancy` against it.
    resources: Option<KernelResources>,
}

impl KernelTrace {
    /// Creates an empty trace with the given occupancy and warp count.
    ///
    /// Both must be positive: an occupancy of 0 means the kernel cannot
    /// launch at all, and downstream timing (which divides per-SM capacity
    /// by the resident-block count) no longer silently clamps it to 1.
    pub fn new(occupancy: usize, warps_per_tb: usize) -> Self {
        assert!(
            occupancy > 0,
            "kernel occupancy must be positive (a 0 means the block cannot fit on an SM)"
        );
        assert!(warps_per_tb > 0, "warps_per_tb must be positive");
        KernelTrace {
            classes: Vec::new(),
            class_ids: Vec::new(),
            streams: Vec::new(),
            index: HashMap::new(),
            interning: true,
            occupancy,
            warps_per_tb,
            assumed_l2_hit_rate: 0.5,
            resources: None,
        }
    }

    /// Attaches the per-block resource usage this trace was lowered from.
    pub fn set_resources(&mut self, resources: KernelResources) {
        self.resources = Some(resources);
    }

    /// The per-block resource usage, when the lowering site attached it.
    pub fn resources(&self) -> Option<&KernelResources> {
        self.resources.as_ref()
    }

    /// Whether class interning is enabled for this trace.
    pub fn interning(&self) -> bool {
        self.interning
    }

    /// The one-class-per-block copy of this trace: the same blocks,
    /// streams, occupancy, warps, assumed L2 hit rate and resources, with
    /// interning off (later [`push`]es append a class each). This is the exact
    /// pre-compression layout, kept as the benchmark baseline and the
    /// reference side of the equivalence tests.
    ///
    /// [`push`]: KernelTrace::push
    pub fn expanded(&self) -> KernelTrace {
        let mut legacy = KernelTrace {
            classes: Vec::new(),
            class_ids: Vec::new(),
            streams: Vec::new(),
            index: HashMap::new(),
            interning: false,
            ..*self
        };
        for i in 0..self.num_tbs() {
            legacy.push(TbWork { b_stream: self.stream(i).clone(), ..self.tb(i).clone() });
        }
        legacy
    }

    /// Appends a thread block (defaulting `imad_count` to `alu_ops` when
    /// the caller left it zero but issued ALU work), interning its work
    /// descriptor into the class table and storing its sector stream — if
    /// any — per block.
    pub fn push(&mut self, mut tb: TbWork) {
        if tb.imad_count == 0.0 && tb.alu_ops > 0.0 {
            tb.imad_count = tb.alu_ops;
        }
        let mut stream = std::mem::take(&mut tb.b_stream);
        stream.shrink_to_fit(); // frozen once stored: footprint == runs
        let class = if self.interning { self.intern(tb) } else { self.append_class(tb) };
        self.class_ids.push(class);
        // Streams are stored lazily: traces lowered without address
        // recording never allocate the per-block vector at all.
        if !stream.is_empty() {
            self.streams.resize(self.class_ids.len() - 1, SectorStream::new());
            self.streams.push(stream);
        } else if !self.streams.is_empty() {
            self.streams.push(SectorStream::new());
        }
    }

    fn intern(&mut self, tb: TbWork) -> u32 {
        let next = self.classes.len() as u32;
        let c = *self.index.entry(WorkClassKey::of(&tb)).or_insert(next);
        if c == next {
            self.classes.push(tb);
        }
        c
    }

    fn append_class(&mut self, tb: TbWork) -> u32 {
        let c = self.classes.len() as u32;
        self.classes.push(tb);
        c
    }

    /// Number of thread blocks.
    pub fn num_tbs(&self) -> usize {
        self.class_ids.len()
    }

    /// Number of unique duration classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// The class table: one [`TbWork`] per unique descriptor.
    pub fn classes(&self) -> &[TbWork] {
        &self.classes
    }

    /// Per-block class ids, in launch order.
    pub fn class_ids(&self) -> &[u32] {
        &self.class_ids
    }

    /// How many blocks each class represents (indexed like
    /// [`classes`](KernelTrace::classes)).
    pub fn class_multiplicities(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.classes.len()];
        for &c in &self.class_ids {
            counts[c as usize] += 1;
        }
        counts
    }

    /// The work descriptor of block `i` (its interned class).
    pub fn tb(&self, i: usize) -> &TbWork {
        &self.classes[self.class_ids[i] as usize]
    }

    /// Iterates the per-block work descriptors in launch order — the view
    /// the uncompressed trace used to expose directly.
    pub fn iter_tbs(&self) -> impl Iterator<Item = &TbWork> + '_ {
        self.class_ids.iter().map(|&c| &self.classes[c as usize])
    }

    /// The recorded B-sector stream of block `i` (empty when the trace was
    /// lowered without address recording).
    pub fn stream(&self, i: usize) -> &SectorStream {
        self.streams.get(i).unwrap_or(&EMPTY_STREAM)
    }

    /// Whether any block recorded a sector stream.
    pub fn has_streams(&self) -> bool {
        !self.streams.is_empty()
    }

    /// Blocks-per-class compression ratio (1.0 when every block is unique).
    pub fn compression_ratio(&self) -> f64 {
        if self.classes.is_empty() {
            1.0
        } else {
            self.class_ids.len() as f64 / self.classes.len() as f64
        }
    }

    /// Approximate heap footprint of the trace in bytes: class table,
    /// class-id vector and encoded sector streams.
    pub fn memory_bytes(&self) -> usize {
        self.classes.capacity() * std::mem::size_of::<TbWork>()
            + self.class_ids.capacity() * std::mem::size_of::<u32>()
            + self.streams.capacity() * std::mem::size_of::<SectorStream>()
            + self.streams.iter().map(|s| s.memory_bytes()).sum::<usize>()
    }

    /// Total Tensor-Core work across all blocks (`m16n8k8`-equivalents),
    /// summed in launch order (bit-compatible with the per-block layout).
    pub fn total_hmma_ops(&self) -> f64 {
        self.iter_tbs().map(|tb| tb.hmma_ops).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_defaults_imad_count() {
        let mut t = KernelTrace::new(6, 8);
        t.push(TbWork { alu_ops: 42.0, ..TbWork::default() });
        assert_eq!(t.tb(0).imad_count, 42.0);
        t.push(TbWork { alu_ops: 42.0, imad_count: 7.0, ..TbWork::default() });
        assert_eq!(t.tb(1).imad_count, 7.0);
        // The two differ in imad_count, so they are distinct classes.
        assert_eq!(t.num_classes(), 2);
    }

    #[test]
    fn totals() {
        let mut t = KernelTrace::new(6, 8);
        t.push(TbWork { hmma_ops: 1.5, ..TbWork::default() });
        t.push(TbWork { hmma_ops: 2.5, ..TbWork::default() });
        assert_eq!(t.num_tbs(), 2);
        assert_eq!(t.total_hmma_ops(), 4.0);
    }

    #[test]
    fn duplicate_blocks_intern_to_one_class() {
        let mut t = KernelTrace::new(6, 8);
        for _ in 0..1000 {
            t.push(TbWork { hmma_ops: 3.0, alu_ops: 5.0, iters: 4.0, ..TbWork::default() });
        }
        for _ in 0..500 {
            t.push(TbWork { hmma_ops: 7.0, alu_ops: 5.0, iters: 4.0, ..TbWork::default() });
        }
        assert_eq!(t.num_tbs(), 1500);
        assert_eq!(t.num_classes(), 2);
        assert_eq!(t.class_multiplicities(), vec![1000, 500]);
        assert!((t.compression_ratio() - 750.0).abs() < 1e-12);
    }

    #[test]
    fn interning_distinguishes_every_work_field() {
        // Each single-field perturbation must create a new class.
        let base = TbWork { iters: 2.0, ..TbWork::default() };
        let variants: Vec<TbWork> = vec![
            TbWork { alu_ops: 1.0, ..base.clone() },
            TbWork { fp_ops: 1.0, ..base.clone() },
            TbWork { lsu_a_sectors: 1.0, ..base.clone() },
            TbWork { lsu_b_sectors: 1.0, ..base.clone() },
            TbWork { smem_ops: 1.0, ..base.clone() },
            TbWork { hmma_ops: 1.0, ..base.clone() },
            TbWork { hmma_count: 1.0, ..base.clone() },
            TbWork { imad_count: 1.0, ..base.clone() },
            TbWork { shfl_ops: 1.0, ..base.clone() },
            TbWork { epilogue_sectors: 1.0, ..base.clone() },
            TbWork { atom_ops: 1.0, ..base.clone() },
            TbWork { iters: 3.0, ..base.clone() },
            TbWork { overlap_a_fetch: true, ..base.clone() },
            // Equal as `f64` to the base's `0.0`, but bit-distinct.
            TbWork { fp_ops: -0.0, ..base.clone() },
        ];
        let mut t = KernelTrace::new(6, 8);
        t.push(base);
        let n = variants.len();
        for v in variants {
            t.push(v);
        }
        assert_eq!(t.num_classes(), n + 1);
    }

    #[test]
    fn streams_stay_per_block_under_interning() {
        let mut t = KernelTrace::new(6, 8);
        let mk = |addr: u64| TbWork {
            hmma_ops: 2.0,
            b_stream: (addr..addr + 4).collect(),
            ..TbWork::default()
        };
        t.push(mk(0));
        t.push(mk(100));
        t.push(mk(0));
        assert_eq!(t.num_classes(), 1, "same work interns to one class");
        assert_eq!(t.stream(0).to_vec(), (0..4).collect::<Vec<u64>>());
        assert_eq!(t.stream(1).to_vec(), (100..104).collect::<Vec<u64>>());
        assert_eq!(t.stream(2).to_vec(), (0..4).collect::<Vec<u64>>());
    }

    #[test]
    fn no_streams_means_no_per_block_allocation() {
        let mut t = KernelTrace::new(6, 8);
        for _ in 0..100 {
            t.push(TbWork { hmma_ops: 1.0, ..TbWork::default() });
        }
        assert!(!t.has_streams());
        assert!(t.stream(50).is_empty());
    }

    #[test]
    fn late_first_stream_backfills_empties() {
        let mut t = KernelTrace::new(6, 8);
        t.push(TbWork::default());
        t.push(TbWork { b_stream: vec![9, 10].into(), ..TbWork::default() });
        assert!(t.has_streams());
        assert!(t.stream(0).is_empty());
        assert_eq!(t.stream(1).len(), 2);
    }

    #[test]
    fn expanded_keeps_one_class_per_block() {
        let mut t = KernelTrace::new(6, 8);
        for _ in 0..10 {
            t.push(TbWork { hmma_ops: 1.0, ..TbWork::default() });
        }
        let t = t.expanded();
        assert!(!t.interning());
        assert_eq!(t.num_classes(), 10);
        assert_eq!(t.compression_ratio(), 1.0);
    }

    #[test]
    fn compressed_memory_is_smaller_on_duplicate_heavy_traces() {
        let mut interned = KernelTrace::new(6, 8);
        for i in 0..10_000 {
            interned.push(TbWork { hmma_ops: (i % 8) as f64, iters: 4.0, ..TbWork::default() });
        }
        let legacy = interned.expanded();
        assert!(
            interned.memory_bytes() * 10 <= legacy.memory_bytes(),
            "interned {} vs legacy {}",
            interned.memory_bytes(),
            legacy.memory_bytes()
        );
    }
}
