//! The workspace's one FNV-1a implementation.
//!
//! Every keyed structure in the stack — the execute-plan cache, the
//! engine-pool primary hash, `EngineConfig`/`Device` fingerprints, the
//! duration-class interning key, the LSH band buckets — hashes with FNV-1a
//! over 64-bit words. Before this module
//! each crate carried its own copy of the same two constants and fold loop;
//! now they all share one, and the digests they persist as cache keys are
//! pinned byte-identical by the `hash_pins` test in `dtc-core`.
//!
//! Three entry points:
//!
//! - [`fnv1a`] — fold a `u64` stream from a caller-chosen seed (the offset
//!   basis is just the default seed);
//! - [`Fnv1a`] — the incremental form for call sites that interleave field
//!   kinds (e.g. name bytes then numeric fields in `Device::fingerprint`);
//! - [`fnv1a_slice`] — the chunked-parallel form for long arrays: fixed
//!   64 Ki-element chunks hashed independently on the worker pool and the
//!   per-chunk digests combined in chunk order, so the digest is identical
//!   for any `DTC_THREADS`.

/// The FNV-1a 64-bit offset basis (the default seed).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Incremental FNV-1a over 64-bit words: `word` is one xor-multiply fold
/// step.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// Starts from the standard offset basis.
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    /// Starts from a caller-chosen seed (decorrelated digest streams).
    pub fn with_seed(seed: u64) -> Self {
        Fnv1a(seed)
    }

    /// Folds one 64-bit word.
    #[inline]
    pub fn word(&mut self, x: u64) {
        self.0 ^= x;
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }

    /// The digest so far.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// FNV-1a over a `u64` stream, from a caller-chosen seed.
#[inline]
pub fn fnv1a(seed: u64, stream: impl Iterator<Item = u64>) -> u64 {
    let mut h = Fnv1a::with_seed(seed);
    for x in stream {
        h.word(x);
    }
    h.finish()
}

/// Chunked-parallel FNV-1a over a projected slice: fixed 64 Ki-element
/// chunks are hashed independently (fanned over the `dtc-par` workers) and
/// the per-chunk digests combined in chunk order. The chunk size is a
/// constant — never the thread count — so the digest is identical for any
/// `DTC_THREADS`. Keying a large matrix was two full serial passes before;
/// on big inputs those passes showed up in the build critical path.
pub fn fnv1a_slice<T: Sync>(seed: u64, data: &[T], proj: impl Fn(&T) -> u64 + Sync) -> u64 {
    const CHUNK: usize = 64 * 1024;
    if data.len() <= CHUNK {
        return fnv1a(seed, data.iter().map(&proj));
    }
    let digests = crate::par_map_collect(data.len().div_ceil(CHUNK), |i| {
        let lo = i * CHUNK;
        let hi = (lo + CHUNK).min(data.len());
        fnv1a(seed, data[lo..hi].iter().map(&proj))
    });
    fnv1a(seed.rotate_left(17), digests.into_iter())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference fold loop every migrated call site used to inline.
    fn reference(seed: u64, xs: &[u64]) -> u64 {
        let mut h = seed;
        for &x in xs {
            h ^= x;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }

    #[test]
    fn word_stream_matches_reference_and_goldens() {
        assert_eq!(fnv1a(FNV_OFFSET, [].into_iter()), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, [1, 2, 3].into_iter()), 0xb1ce_bb18_672c_f5ab);
        assert_eq!(fnv1a(0x9e37_79b9_7f4a_7c15, [42].into_iter()), 0x8007_c633_4b91_1f0d);
        for seed in [FNV_OFFSET, 0, u64::MAX, 0x1234] {
            let xs = [0u64, 1, u64::MAX, 0xdead_beef, 7];
            assert_eq!(fnv1a(seed, xs.iter().copied()), reference(seed, &xs));
        }
    }

    #[test]
    fn incremental_equals_batch() {
        let xs = [3u64, 1, 4, 1, 5, 9, 2, 6];
        let mut h = Fnv1a::with_seed(0xabcd);
        for &x in &xs {
            h.word(x);
        }
        assert_eq!(h.finish(), fnv1a(0xabcd, xs.iter().copied()));
    }

    #[test]
    fn slice_digest_is_thread_count_invariant() {
        // Long enough to take the chunked-parallel path (> 64 Ki elements).
        let data: Vec<u32> = (0..200_000u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        let serial = {
            // The chunk combine must be reproducible by hand: per-chunk
            // digests in order under the rotated seed.
            let chunks: Vec<u64> = data
                .chunks(64 * 1024)
                .map(|c| fnv1a(0x5eed, c.iter().map(|&x| x as u64)))
                .collect();
            fnv1a(0x5eed_u64.rotate_left(17), chunks.into_iter())
        };
        for threads in [1, 2, 4] {
            crate::set_threads(Some(threads));
            assert_eq!(fnv1a_slice(0x5eed, &data, |&x| x as u64), serial, "T={threads}");
        }
        crate::set_threads(None);
    }

    #[test]
    fn short_slice_takes_the_serial_path() {
        let data = [7u64, 8, 9];
        assert_eq!(fnv1a_slice(0x11, &data, |&x| x), fnv1a(0x11, data.iter().copied()));
    }
}
