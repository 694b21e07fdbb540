//! Keyed conversion cache: repeated pipeline builds over the same matrix
//! reuse the ME-TCF conversion instead of recomputing it.
//!
//! The paper's §6 point is that conversion overhead amortizes across the
//! thousands of SpMM calls an iterative workload makes; this cache makes
//! the host-side analogue concrete. Lookup is **two-tier**:
//!
//! 1. a lossy [`FrontTier`] keyed by [`KeyMaterial::fingerprint`] and
//!    verified by full [`KeyMaterial`] equality on every hit. A front hit
//!    skips [`matrix_key`] entirely — the three full-array passes the
//!    exact tier's primary key costs — so a steady-state repeated build
//!    pays only the material checksums plus one direct-mapped probe;
//! 2. the exact tier: the primary key is a 64-bit FNV-1a hash over the
//!    full matrix structure (shape, `row_ptr`, `col_idx`, value bits) —
//!    but a bare 64-bit hash is not an identity: a collision would
//!    silently return *another matrix's* conversion and corrupt every
//!    downstream result. Each entry therefore stores independent key
//!    material ([`KeyMaterial`]: dims, nnz, and second-hash checksums of
//!    the index and value arrays) that is verified on every hit;
//!    mismatches are counted in `core.cache.conversion.collisions` and
//!    fall through to a fresh conversion stored alongside the colliding
//!    entry.
//!
//! Both tiers resolve to the same `Arc`, so results are bitwise identical
//! with the front tier on, off (`dtc_par::set_front_tier_enabled`), or
//! thrashing. Front-tier traffic is counted under `cache.conversion.*`
//! (l1 hits/misses/evictions/verify rejects); total hit/miss counts live
//! in the process-wide [`dtc_telemetry`] registry
//! (`core.cache.conversion.hits` / `.misses`) and count each lookup once
//! regardless of which tier resolved it, so [`conversion_cache_stats`] —
//! the thin PR-2-era reader over the registry — needs no caller changes
//! and never double-counts.

use crate::error::DtcError;
use crate::telemetry::{
    conversion_cache_collisions, conversion_cache_hits, conversion_cache_invalidations,
    conversion_cache_misses,
};
use dtc_formats::{CsrMatrix, MeTcfMatrix, BLOCK_WIDTH, WINDOW_HEIGHT};
use dtc_par::hash::{fnv1a, fnv1a_slice, Fnv1a};
use dtc_par::FrontTier;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// One cached conversion: the ME-TCF build plus the distinct-column count
/// the L2 model needs (both derived from the same CSR walk).
#[derive(Debug)]
pub struct CachedConversion {
    /// The converted matrix.
    pub metcf: MeTcfMatrix,
    /// Number of distinct columns of the source matrix.
    pub distinct_cols: usize,
}

/// Matrix identity material, verified on every primary-key hit — and the
/// identity the serving layer computes from each request's matrix to key
/// its engine pool (engines themselves carry none).
///
/// Dims and nnz are stored outright; the three arrays are summarized by
/// FNV-1a checksums seeded differently from [`matrix_key`], so a
/// primary-key collision and a simultaneous three-checksum collision would
/// need independent 64-bit coincidences.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KeyMaterial {
    rows: usize,
    cols: usize,
    nnz: usize,
    row_ptr_sum: u64,
    col_idx_sum: u64,
    value_sum: u64,
}

impl KeyMaterial {
    /// Computes the identity material of a matrix (three chunked-parallel
    /// checksum passes; digests are independent of `DTC_THREADS`).
    pub fn of(a: &CsrMatrix) -> Self {
        // Distinct offset bases decorrelate the checksums from the primary
        // key (all use the same FNV prime over the same streams).
        KeyMaterial {
            rows: a.rows(),
            cols: a.cols(),
            nnz: a.nnz(),
            row_ptr_sum: fnv1a_slice(0x6c62_272e_07bb_0142, a.row_ptr(), |&p| p as u64),
            col_idx_sum: fnv1a_slice(0xdead_beef_cafe_f00d, a.col_idx(), |&c| c as u64),
            value_sum: fnv1a_slice(0x0123_4567_89ab_cdef, a.values(), |v| v.to_bits() as u64),
        }
    }

    /// Computes the identity material of an ME-TCF matrix, bit-identical
    /// to [`KeyMaterial::of`] over its reconstructed CSR form — but
    /// without the triplet sort a full [`MeTcfMatrix::to_csr`] rebuild
    /// would pay, so a matrix patched in place by `apply_delta` keys
    /// identically to a fresh conversion of the edited CSR at a fraction
    /// of the cost. Pinned by `of_metcf_matches_of_over_the_roundtripped_csr`.
    ///
    /// Small matrices (every array at or below `fnv1a_slice`'s 64 Ki
    /// chunk, where that function is a plain serial fold) hash the three
    /// CSR-order streams straight out of the per-window row buckets with
    /// nothing materialized. Larger ones materialize via
    /// [`MeTcfMatrix::csr_arrays`] and defer to [`fnv1a_slice`], whose
    /// chunked-parallel digest a streaming fold could not reproduce.
    pub fn of_metcf(m: &MeTcfMatrix) -> Self {
        const CHUNK: usize = 64 * 1024; // fnv1a_slice's serial/chunked split
        let (rows, cols, nnz) = (m.rows(), m.cols(), m.nnz());
        if rows + 1 > CHUNK || nnz > CHUNK {
            let (row_ptr, col_idx, values) = m.csr_arrays();
            return KeyMaterial {
                rows,
                cols,
                nnz,
                row_ptr_sum: fnv1a_slice(0x6c62_272e_07bb_0142, &row_ptr, |&p| p as u64),
                col_idx_sum: fnv1a_slice(0xdead_beef_cafe_f00d, &col_idx, |&c| c as u64),
                value_sum: fnv1a_slice(0x0123_4567_89ab_cdef, &values, |v| v.to_bits() as u64),
            };
        }
        let mut row_hash = Fnv1a::with_seed(0x6c62_272e_07bb_0142);
        let mut col_hash = Fnv1a::with_seed(0xdead_beef_cafe_f00d);
        let mut val_hash = Fnv1a::with_seed(0x0123_4567_89ab_cdef);
        row_hash.word(0); // row_ptr[0]
                          // Same per-window bucketing pass as `MeTcfMatrix::csr_arrays`,
                          // folded straight into the hashers instead of materialized.
        let mut buckets: [Vec<(u32, u32)>; WINDOW_HEIGHT] = Default::default();
        let mut prefix = 0u64;
        for w in 0..m.num_windows() {
            for bucket in &mut buckets {
                bucket.clear();
            }
            for t in m.window_blocks(w) {
                let bcols = m.block_cols(t);
                let (ids, vals) = m.block_entries(t);
                for (&id, &v) in ids.iter().zip(vals) {
                    let local_row = (id / BLOCK_WIDTH as u8) as usize;
                    let local_col = (id % BLOCK_WIDTH as u8) as usize;
                    buckets[local_row].push((bcols[local_col], v.to_bits()));
                }
            }
            let base = w * WINDOW_HEIGHT;
            for (local_row, bucket) in buckets.iter().enumerate() {
                if base + local_row >= rows {
                    break;
                }
                prefix += bucket.len() as u64;
                row_hash.word(prefix);
                for &(c, bits) in bucket {
                    col_hash.word(c as u64);
                    val_hash.word(bits as u64);
                }
            }
        }
        KeyMaterial {
            rows,
            cols,
            nnz,
            row_ptr_sum: row_hash.finish(),
            col_idx_sum: col_hash.finish(),
            value_sum: val_hash.finish(),
        }
    }

    /// Rows of the identified matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the identified matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Structural non-zeros of the identified matrix.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// A single 64-bit digest of the full material (dims, nnz and all
    /// three checksums), for callers that bucket by one word and verify
    /// with the full `KeyMaterial` equality — the conversion cache's and
    /// the serve pool's discipline.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(
            0xa135_2969_7a6b_11c4,
            [
                self.rows as u64,
                self.cols as u64,
                self.nnz as u64,
                self.row_ptr_sum,
                self.col_idx_sum,
                self.value_sum,
            ]
            .into_iter(),
        )
    }
}

/// Bound on resident exact-tier entries; reaching it clears both tiers
/// (the workloads we serve cycle over small dataset suites, so wholesale
/// eviction is fine and keeps the bookkeeping trivial).
const CACHE_CAP: usize = 64;

/// Front-tier slots: comfortably above [`CACHE_CAP`], so a working set the
/// exact tier retains can also be fully front-resident.
const FRONT_SLOTS: usize = 256;

/// Each primary key holds a small bucket so verified non-matches
/// (collisions) can coexist instead of evicting each other.
type Bucket = Vec<(KeyMaterial, Arc<CachedConversion>)>;

/// Both tiers under one lock: the front tier can never disagree with the
/// exact store about what is resident.
struct ConvCache {
    front: FrontTier<KeyMaterial, Arc<CachedConversion>>,
    exact: HashMap<u64, Bucket>,
}

static CACHE: OnceLock<Mutex<ConvCache>> = OnceLock::new();

fn cache() -> &'static Mutex<ConvCache> {
    CACHE.get_or_init(|| {
        Mutex::new(ConvCache {
            front: FrontTier::new("conversion", FRONT_SLOTS),
            exact: HashMap::new(),
        })
    })
}

/// FNV-1a over the matrix's full structure and value bits (each array
/// digested by the chunked-parallel pass, digests combined in order).
pub fn matrix_key(a: &CsrMatrix) -> u64 {
    let shape = fnv1a(
        0xcbf2_9ce4_8422_2325,
        [a.rows() as u64, a.cols() as u64, a.nnz() as u64].into_iter(),
    );
    let parts = [
        fnv1a_slice(0x84222325_cbf29ce4, a.row_ptr(), |&p| p as u64),
        fnv1a_slice(0x9ce48422_2325cbf2, a.col_idx(), |&c| c as u64),
        fnv1a_slice(0x2325cbf2_9ce48422, a.values(), |v| v.to_bits() as u64),
    ];
    fnv1a(shape, parts.into_iter())
}

/// Returns the cached conversion for `a`, converting (and inserting) on
/// miss. The front tier is probed first on the material fingerprint alone:
/// a verified front hit never computes [`matrix_key`] (three more full
/// passes over the matrix), which is where the steady-state 2x comes from.
///
/// # Errors
///
/// Propagates the converter's `u32` offset-overflow guard
/// ([`DtcError::Format`]); nothing is cached on error.
pub fn metcf_for(a: &CsrMatrix) -> Result<Arc<CachedConversion>, DtcError> {
    let material = KeyMaterial::of(a);
    let fp = material.fingerprint();
    if let Some(hit) = cache().lock().unwrap().front.get(fp, &material) {
        conversion_cache_hits().incr();
        return Ok(hit);
    }
    lookup_or_convert_inner(matrix_key(a), a, material, fp)
}

/// The exact-tier core, keyed explicitly so tests can force primary-key
/// collisions: a hit requires both the primary key *and* the stored
/// [`KeyMaterial`] to match; a key match with foreign material counts a
/// collision and converts fresh.
#[cfg(test)]
fn lookup_or_convert(key: u64, a: &CsrMatrix) -> Arc<CachedConversion> {
    let material = KeyMaterial::of(a);
    let fp = material.fingerprint();
    lookup_or_convert_inner(key, a, material, fp).expect("test matrices stay within u32 bounds")
}

fn lookup_or_convert_inner(
    key: u64,
    a: &CsrMatrix,
    material: KeyMaterial,
    fp: u64,
) -> Result<Arc<CachedConversion>, DtcError> {
    {
        let mut c = cache().lock().unwrap();
        if let Some(bucket) = c.exact.get(&key) {
            if let Some((_, hit)) = bucket.iter().find(|(m, _)| *m == material) {
                conversion_cache_hits().incr();
                let hit = Arc::clone(hit);
                // Refill the front slot so the next lookup is one probe.
                c.front.insert(fp, material, Arc::clone(&hit));
                return Ok(hit);
            }
            conversion_cache_collisions().incr();
        }
    }
    conversion_cache_misses().incr();
    // Convert outside the lock: conversion fans out over worker threads and
    // other engines' lookups should not wait on it. The parallel converter
    // packs per-range sub-matrices inside the fan-out (bit-identical to
    // `MeTcfMatrix::from_csr`, pinned by the convert tests) — the plain
    // `from_csr` path condenses in parallel but packed serially, which
    // Amdahl-capped every cold engine build.
    let built = Arc::new(CachedConversion {
        metcf: crate::convert::convert_to_metcf_parallel(a, dtc_par::num_threads())?,
        distinct_cols: dtc_baselines::util::distinct_col_count(a),
    });
    let mut c = cache().lock().unwrap();
    if c.exact.len() >= CACHE_CAP {
        c.exact.clear();
        c.front.clear();
    }
    c.exact.entry(key).or_default().push((material.clone(), Arc::clone(&built)));
    c.front.insert(fp, material, Arc::clone(&built));
    Ok(built)
}

/// Purges every cached conversion whose stored [`KeyMaterial`] equals
/// `material`, from both tiers, returning the number of exact-tier entries
/// removed. The front tier is purged **by key** ([`FrontTier::invalidate`]
/// drops the slot only if the resident entry verifies against `material`)
/// — purging by slot index would evict an innocent collision neighbor and,
/// worse, leave a stale entry behind if the slot had been overwritten.
///
/// This is the conversion-cache arm of the delta-update invalidation
/// contract: after [`crate::DtcSpmm::apply_delta`] mutates a matrix, a
/// lookup under the pre-edit identity must miss.
pub fn invalidate_conversion(material: &KeyMaterial) -> usize {
    let Some(cache) = CACHE.get() else {
        return 0;
    };
    let mut c = cache.lock().unwrap();
    let mut removed = 0;
    c.exact.retain(|_, bucket| {
        let before = bucket.len();
        bucket.retain(|(m, _)| m != material);
        removed += before - bucket.len();
        !bucket.is_empty()
    });
    c.front.invalidate(material.fingerprint(), material);
    if removed > 0 {
        conversion_cache_invalidations().add(removed as u64);
    }
    removed
}

/// Seeds the cache with an already-built conversion for `a` (both tiers),
/// e.g. the freshly patched ME-TCF a delta update produced. Sound because
/// ME-TCF packing is a pure function of the CSR content and the delta path
/// is bitwise-identical to a rebuild, so the seeded entry equals what a
/// cold conversion of `a` would compute.
pub fn admit_conversion(a: &CsrMatrix, conversion: Arc<CachedConversion>) {
    let material = KeyMaterial::of(a);
    let fp = material.fingerprint();
    let key = matrix_key(a);
    let mut c = cache().lock().unwrap();
    if c.exact.len() >= CACHE_CAP {
        c.exact.clear();
        c.front.clear();
    }
    let bucket = c.exact.entry(key).or_default();
    bucket.retain(|(m, _)| *m != material);
    bucket.push((material.clone(), Arc::clone(&conversion)));
    c.front.insert(fp, material, conversion);
}

/// `(hits, misses)` of the process-wide conversion cache — a thin wrapper
/// over the `core.cache.conversion.*` registry counters. Each lookup is
/// counted once whether the front or the exact tier resolved it, so this
/// legacy reader needs no tier awareness.
pub fn conversion_cache_stats() -> (u64, u64) {
    (conversion_cache_hits().get(), conversion_cache_misses().get())
}

/// Empties both tiers (counters are left running; tests diff them instead).
pub fn clear_conversion_cache() {
    if let Some(cache) = CACHE.get() {
        let mut c = cache.lock().unwrap();
        c.exact.clear();
        c.front.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtc_formats::gen::uniform;

    #[test]
    fn same_matrix_hits_distinct_matrix_misses() {
        let a = uniform(128, 128, 900, 321);
        let first = metcf_for(&a).unwrap();
        let (_, misses0) = conversion_cache_stats();
        let again = metcf_for(&a).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "expected the cached Arc back");
        let (_, misses1) = conversion_cache_stats();
        assert_eq!(misses1, misses0, "second lookup must not convert");

        let b = uniform(128, 128, 900, 322); // same shape, different structure
        let other = metcf_for(&b).unwrap();
        assert!(!Arc::ptr_eq(&first, &other));
        let (_, misses2) = conversion_cache_stats();
        assert_eq!(misses2, misses1 + 1);
    }

    #[test]
    fn invalidate_purges_both_tiers_and_admit_reseeds() {
        let a = uniform(144, 144, 1000, 8181);
        let first = metcf_for(&a).unwrap();
        let material = KeyMaterial::of(&a);

        assert_eq!(invalidate_conversion(&material), 1);
        // Post-invalidation lookup must reconvert (a fresh Arc), not serve
        // the purged entry from either tier.
        let (_, misses0) = conversion_cache_stats();
        let again = metcf_for(&a).unwrap();
        assert!(!Arc::ptr_eq(&first, &again), "invalidated entry must not be served");
        let (_, misses1) = conversion_cache_stats();
        assert_eq!(misses1, misses0 + 1);

        // Invalidating a non-resident identity is a no-op.
        assert_eq!(invalidate_conversion(&KeyMaterial::of(&uniform(32, 32, 60, 9))), 0);

        // Seeding an externally built conversion makes the next lookup hit
        // without converting.
        invalidate_conversion(&material);
        let seeded = Arc::new(CachedConversion {
            metcf: MeTcfMatrix::from_csr(&a),
            distinct_cols: dtc_baselines::util::distinct_col_count(&a),
        });
        admit_conversion(&a, Arc::clone(&seeded));
        let (_, misses2) = conversion_cache_stats();
        let hit = metcf_for(&a).unwrap();
        assert!(Arc::ptr_eq(&hit, &seeded), "admitted conversion must be served");
        assert_eq!(conversion_cache_stats().1, misses2, "admitted entry must not reconvert");
    }

    #[test]
    fn of_metcf_matches_of_over_the_roundtripped_csr() {
        // The delta path keys a patched ME-TCF with `of_metcf` while every
        // other consumer keys the CSR with `of`; the two must agree bit
        // for bit or a post-edit lookup could serve a pre-edit artifact.
        // The last case crosses fnv1a_slice's 64 Ki chunk boundary, so it
        // exercises the materializing fallback, not the streaming fold.
        for (rows, cols, nnz, seed) in [
            (16, 16, 0, 1u64),
            (33, 40, 90, 2),
            (256, 256, 2000, 3),
            (100, 700, 4000, 4),
            (1200, 800, 70_000, 5),
        ] {
            let a = if nnz == 0 {
                CsrMatrix::from_triplets(rows, cols, &[]).unwrap()
            } else {
                uniform(rows, cols, nnz, seed)
            };
            let m = MeTcfMatrix::from_csr(&a);
            assert_eq!(KeyMaterial::of_metcf(&m), KeyMaterial::of(&a), "seed {seed}");
        }
    }

    #[test]
    fn key_depends_on_values_not_just_shape() {
        let a = CsrMatrix::from_triplets(4, 4, &[(0, 1, 1.0), (2, 3, 2.0)]).unwrap();
        let b = CsrMatrix::from_triplets(4, 4, &[(0, 1, 1.0), (2, 3, 2.5)]).unwrap();
        assert_ne!(matrix_key(&a), matrix_key(&b));
        assert_eq!(matrix_key(&a), matrix_key(&a.clone()));
    }

    #[test]
    fn cached_conversion_matches_direct() {
        let a = uniform(200, 150, 1200, 323);
        let cached = metcf_for(&a).unwrap();
        assert_eq!(cached.metcf, MeTcfMatrix::from_csr(&a));
        assert_eq!(cached.distinct_cols, dtc_baselines::util::distinct_col_count(&a));
    }

    #[test]
    fn crafted_collision_is_detected_not_served() {
        // Two different matrices forced onto the SAME primary key: before
        // hit verification, the second lookup silently returned the first
        // matrix's conversion. Now the material mismatch is detected,
        // counted, and both conversions coexist in the bucket.
        let a = uniform(96, 96, 500, 77);
        let b = uniform(64, 64, 300, 78);
        let forced_key = 0xC011_1DED_C011_1DED;
        let collisions_before = conversion_cache_collisions().get();
        let conv_a = lookup_or_convert(forced_key, &a);
        let conv_b = lookup_or_convert(forced_key, &b);
        assert_eq!(conv_a.metcf.rows(), 96);
        assert_eq!(conv_b.metcf.rows(), 64, "collision must not serve a's conversion");
        assert_eq!(conversion_cache_collisions().get(), collisions_before + 1);
        // Both entries now hit without further collisions or conversions.
        let (_, misses0) = conversion_cache_stats();
        assert!(Arc::ptr_eq(&conv_a, &lookup_or_convert(forced_key, &a)));
        assert!(Arc::ptr_eq(&conv_b, &lookup_or_convert(forced_key, &b)));
        let (_, misses1) = conversion_cache_stats();
        assert_eq!(misses1, misses0);
        assert_eq!(conversion_cache_collisions().get(), collisions_before + 1);
    }

    #[test]
    fn front_tier_resolves_repeats_to_the_same_arc() {
        // Second lookup must resolve in the front tier — observable via the
        // l1 hit counter — and hand back the exact tier's Arc (bitwise
        // identity is Arc identity here).
        let a = uniform(112, 112, 800, 4242);
        let first = metcf_for(&a).unwrap();
        let l1_hits = dtc_telemetry::counter("cache.conversion.l1_hits");
        let before = l1_hits.get();
        let again = metcf_for(&a).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        assert!(l1_hits.get() > before, "repeat lookup must hit the front tier");
    }

    #[test]
    fn exact_only_mode_is_bitwise_identical() {
        // The same lookups with the front tier disabled must resolve to
        // the very same cached conversion (Arc identity), at 1 and 4
        // worker threads (checksums are DTC_THREADS-invariant).
        let a = uniform(104, 104, 700, 5150);
        for threads in [1usize, 4] {
            dtc_par::set_threads(Some(threads));
            let two_tier = metcf_for(&a).unwrap();
            dtc_par::set_front_tier_enabled(false);
            let exact_only = metcf_for(&a).unwrap();
            dtc_par::set_front_tier_enabled(true);
            assert!(
                Arc::ptr_eq(&two_tier, &exact_only),
                "exact-only and two-tier lookups must agree (threads={threads})"
            );
        }
        dtc_par::set_threads(None);
    }
}
