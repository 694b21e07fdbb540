//! Banded Locality-Sensitive Hashing over MinHash signatures: candidate
//! row-pair generation for the priority-queue merging of Algorithm 1.

use crate::MinHasher;
use dtc_par::hash::fnv1a;

/// LSH banding parameters.
#[derive(Debug, Clone, Copy)]
pub struct LshParams {
    /// Number of bands the signature is cut into.
    pub bands: usize,
    /// Signature components per band (`bands * rows_per_band <= k`).
    pub rows_per_band: usize,
    /// Cap on the number of items paired within one bucket (large buckets
    /// pair consecutively instead of quadratically).
    pub max_bucket_pairs: usize,
}

impl Default for LshParams {
    fn default() -> Self {
        // 2-row bands: a pair with Jaccard J collides in a band with
        // probability J^2, so even the weakly similar rows of 2-nnz
        // molecule graphs (J ~ 1/3) surface as candidates.
        LshParams { bands: 16, rows_per_band: 2, max_bucket_pairs: 48 }
    }
}

/// Generates candidate similar pairs among `items` (each item is an index
/// set, e.g. a row's columns) via banded LSH over MinHash signatures.
///
/// Returns deduplicated `(i, j)` pairs with `i < j`, sorted. Items whose
/// sets are empty never enter any bucket.
///
/// Bands are independent, so they fan out over `dtc_par` workers, one
/// wave of `num_threads()` bands at a time: only one wave's pair lists are
/// held next to the growing result. The result is the same set at any
/// thread count, and the final sort fixes its order.
///
/// # Panics
///
/// Panics if `bands * rows_per_band` exceeds the signature length, or if
/// there are more than 2^32 items.
pub fn lsh_candidate_pairs(
    hasher: &MinHasher,
    signatures: &[Vec<u64>],
    params: &LshParams,
) -> Vec<(usize, usize)> {
    let k = hasher.k();
    assert!(
        params.bands * params.rows_per_band <= k,
        "banding needs bands*rows_per_band <= k ({} * {} > {k})",
        params.bands,
        params.rows_per_band,
    );
    assert!(signatures.len() as u64 <= 1 << 32, "LSH packs item indices into 32 bits");
    let wave = dtc_par::num_threads();
    let mut pairs: Vec<u64> = Vec::new();
    for first in (0..params.bands).step_by(wave) {
        let plan = dtc_par::ShardPlan::even(wave.min(params.bands - first), wave);
        let lists = dtc_par::par_map_collect_plan(&plan, |b, scratch| {
            band_pairs(signatures, first + b, params, scratch)
        });
        for list in lists {
            pairs.extend(list);
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs.into_iter().map(|p| ((p >> 32) as usize, (p & 0xffff_ffff) as usize)).collect()
}

/// A pair `(i, j)` as one word, `i` in the high half, so that sorting the
/// words sorts the pairs.
fn pack(i: usize, j: usize) -> u64 {
    (i as u64) << 32 | j as u64
}

/// The candidate pairs of one band, packed with [`pack`]. Buckets are the
/// runs of equal band hash after sorting `(hash, item)`, so each bucket's
/// members are in ascending item order; a large bucket chains consecutive
/// members.
fn band_pairs(
    signatures: &[Vec<u64>],
    band: usize,
    params: &LshParams,
    scratch: &mut dtc_par::ScratchArena,
) -> Vec<u64> {
    let lo = band * params.rows_per_band;
    let hi = lo + params.rows_per_band;
    let mut keyed = scratch.pair_buf();
    for (idx, sig) in signatures.iter().enumerate() {
        let slice = &sig[lo..hi];
        if slice.iter().all(|&s| s == u64::MAX) {
            continue; // empty set
        }
        // Shared word-wise FNV over the band slice (the slice length is
        // fixed per call, so no length prefix is needed). Collisions
        // only add candidate pairs — the merge phase re-verifies
        // similarity — so a 64-bit bucket hash needs no key material.
        keyed.push((idx, fnv1a(dtc_par::hash::FNV_OFFSET, slice.iter().copied())));
    }
    keyed.sort_unstable_by_key(|&(idx, h)| (h, idx));
    let mut pairs = Vec::new();
    for bucket in keyed.chunk_by(|x, y| x.1 == y.1) {
        let m = bucket.len();
        if m < 2 {
            continue;
        }
        if m * (m - 1) / 2 <= params.max_bucket_pairs {
            for (a_pos, &(a, _)) in bucket.iter().enumerate() {
                pairs.extend(bucket[a_pos + 1..].iter().map(|&(b, _)| pack(a, b)));
            }
        } else {
            // Large bucket: chain consecutive members (linear work).
            pairs.extend(bucket.windows(2).map(|w| pack(w[0].0, w[1].0)));
        }
    }
    scratch.recycle_pair(keyed);
    pairs
}

/// Candidate pairs as first written — one `HashMap` of buckets per band,
/// serial. Test oracle for [`lsh_candidate_pairs`].
#[cfg(test)]
pub(crate) fn lsh_candidate_pairs_hashmap(
    signatures: &[Vec<u64>],
    params: &LshParams,
) -> Vec<(usize, usize)> {
    use std::collections::HashMap;
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for band in 0..params.bands {
        let lo = band * params.rows_per_band;
        let hi = lo + params.rows_per_band;
        let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
        for (idx, sig) in signatures.iter().enumerate() {
            let slice = &sig[lo..hi];
            if slice.iter().all(|&s| s == u64::MAX) {
                continue;
            }
            let h = fnv1a(dtc_par::hash::FNV_OFFSET, slice.iter().copied());
            buckets.entry(h).or_default().push(idx);
        }
        for members in buckets.values() {
            if members.len() < 2 {
                continue;
            }
            if members.len() * (members.len() - 1) / 2 <= params.max_bucket_pairs {
                for (a_pos, &a) in members.iter().enumerate() {
                    for &b in &members[a_pos + 1..] {
                        pairs.push((a.min(b), a.max(b)));
                    }
                }
            } else {
                for w in members.windows(2) {
                    pairs.push((w[0].min(w[1]), w[0].max(w[1])));
                }
            }
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signatures_for(hasher: &MinHasher, sets: &[Vec<u32>]) -> Vec<Vec<u64>> {
        sets.iter().map(|s| hasher.signature(s)).collect()
    }

    #[test]
    fn identical_sets_are_candidates() {
        let h = MinHasher::new(32, 1);
        let sets = vec![vec![1, 2, 3], vec![100, 200], vec![1, 2, 3]];
        let sigs = signatures_for(&h, &sets);
        let pairs = lsh_candidate_pairs(&h, &sigs, &LshParams::default());
        assert!(pairs.contains(&(0, 2)), "pairs={pairs:?}");
    }

    #[test]
    fn disjoint_sets_rarely_pair() {
        let h = MinHasher::new(32, 2);
        let sets: Vec<Vec<u32>> = (0..20).map(|i| vec![i * 100, i * 100 + 1]).collect();
        let sigs = signatures_for(&h, &sets);
        let pairs = lsh_candidate_pairs(&h, &sigs, &LshParams::default());
        // With the default 2-row bands a spurious collision needs two
        // matching MinHash components, which is rare for disjoint sets.
        assert!(pairs.len() <= 2, "pairs={pairs:?}");
    }

    #[test]
    fn empty_sets_never_pair() {
        let h = MinHasher::new(32, 3);
        let sets = vec![vec![], vec![], vec![1u32]];
        let sigs = signatures_for(&h, &sets);
        let pairs = lsh_candidate_pairs(&h, &sigs, &LshParams::default());
        assert!(pairs.is_empty());
    }

    #[test]
    fn pairs_are_canonical_and_deduped() {
        let h = MinHasher::new(32, 4);
        let sets = vec![vec![5, 6, 7]; 4];
        let sigs = signatures_for(&h, &sets);
        let pairs = lsh_candidate_pairs(&h, &sigs, &LshParams::default());
        let mut sorted = pairs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(pairs, sorted);
        assert!(pairs.iter().all(|&(i, j)| i < j));
    }

    #[test]
    #[should_panic(expected = "banding needs")]
    fn oversized_banding_panics() {
        let h = MinHasher::new(8, 5);
        let sigs: Vec<Vec<u64>> = vec![];
        lsh_candidate_pairs(
            &h,
            &sigs,
            &LshParams { bands: 4, rows_per_band: 4, max_bucket_pairs: 8 },
        );
    }
}
