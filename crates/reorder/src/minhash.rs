//! MinHash signatures over row column-sets.
//!
//! The paper accelerates these on GPU with MinHashCuda (§6); here they run
//! on the CPU with the same algorithmic role: a `k`-component signature per
//! row whose component-wise match probability equals the Jaccard
//! similarity.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const MERSENNE_PRIME: u64 = (1 << 61) - 1;

/// `v % MERSENNE_PRIME` without a division: `2^61 ≡ 1 (mod P)`, so the
/// high three bits fold onto the low 61 and one conditional subtraction
/// lands in `0..P`. Equal to `%` for every `u64`.
#[inline]
fn mersenne_mod(v: u64) -> u64 {
    let r = (v & MERSENNE_PRIME) + (v >> 61);
    if r >= MERSENNE_PRIME {
        r - MERSENNE_PRIME
    } else {
        r
    }
}

/// A family of `k` universal hash functions producing MinHash signatures.
#[derive(Debug, Clone)]
pub struct MinHasher {
    coeff_a: Vec<u64>,
    coeff_b: Vec<u64>,
}

impl MinHasher {
    /// Creates a hasher with `k` signature components from a seed.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k > 0, "need at least one hash function");
        let mut rng = StdRng::seed_from_u64(seed);
        let coeff_a = (0..k).map(|_| rng.random_range(1..MERSENNE_PRIME)).collect();
        let coeff_b = (0..k).map(|_| rng.random_range(0..MERSENNE_PRIME)).collect();
        MinHasher { coeff_a, coeff_b }
    }

    /// Number of signature components.
    pub fn k(&self) -> usize {
        self.coeff_a.len()
    }

    /// Signature of an index set. Empty sets produce all-`u64::MAX`
    /// signatures (the sentinel [`crate::jaccard_estimate`] never matches).
    pub fn signature(&self, set: &[u32]) -> Vec<u64> {
        // One hash function at a time: each component is an independent
        // min-reduction over the set, which keeps the multiplies of
        // successive elements in flight together.
        self.coeff_a
            .iter()
            .zip(&self.coeff_b)
            .map(|(&a, &b)| {
                set.iter()
                    .map(|&x| mersenne_mod(a.wrapping_mul(x as u64 + 1).wrapping_add(b)))
                    .fold(u64::MAX, u64::min)
            })
            .collect()
    }

    /// Combines two signatures into the signature of the *union* of the
    /// underlying sets (component-wise min). Hierarchy II does not use it:
    /// its cluster signatures come from a separately seeded hasher over the
    /// deduplicated cluster column sets.
    pub fn union_signature(a: &[u64], b: &[u64]) -> Vec<u64> {
        assert_eq!(a.len(), b.len(), "signature length mismatch");
        a.iter().zip(b).map(|(&x, &y)| x.min(y)).collect()
    }
}

#[cfg(test)]
impl MinHasher {
    /// The signature as first written — `%` per hash, one pass over the
    /// set with every component updated per element. Test oracle for
    /// [`MinHasher::signature`].
    pub(crate) fn signature_by_remainder(&self, set: &[u32]) -> Vec<u64> {
        let mut sig = vec![u64::MAX; self.k()];
        for &x in set {
            for (i, slot) in sig.iter_mut().enumerate() {
                let h = (self.coeff_a[i].wrapping_mul(x as u64 + 1).wrapping_add(self.coeff_b[i]))
                    % MERSENNE_PRIME;
                if h < *slot {
                    *slot = h;
                }
            }
        }
        sig
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jaccard_estimate;

    #[test]
    fn identical_sets_identical_signatures() {
        let h = MinHasher::new(32, 1);
        let s1 = h.signature(&[1, 5, 9, 200]);
        let s2 = h.signature(&[1, 5, 9, 200]);
        assert_eq!(s1, s2);
        assert_eq!(jaccard_estimate(&s1, &s2), 1.0);
    }

    #[test]
    fn estimate_tracks_true_jaccard() {
        let h = MinHasher::new(256, 7);
        // Sets with true Jaccard 1/3: {0..20} vs {10..30}.
        let a: Vec<u32> = (0..20).collect();
        let b: Vec<u32> = (10..30).collect();
        let est = jaccard_estimate(&h.signature(&a), &h.signature(&b));
        assert!((est - 1.0 / 3.0).abs() < 0.12, "est={est}");
    }

    #[test]
    fn empty_set_sentinel() {
        let h = MinHasher::new(8, 2);
        assert!(h.signature(&[]).iter().all(|&s| s == u64::MAX));
    }

    #[test]
    fn union_signature_matches_direct_hash() {
        let h = MinHasher::new(64, 3);
        let a: Vec<u32> = vec![1, 2, 3];
        let b: Vec<u32> = vec![3, 4, 5];
        let u: Vec<u32> = vec![1, 2, 3, 4, 5];
        assert_eq!(MinHasher::union_signature(&h.signature(&a), &h.signature(&b)), h.signature(&u));
    }

    #[test]
    fn mersenne_fold_matches_remainder() {
        const P: u64 = MERSENNE_PRIME;
        for v in [0, 1, P - 1, P, P + 1, 2 * P - 1, 2 * P, 2 * P + 1, u64::MAX - 1, u64::MAX] {
            assert_eq!(mersenne_mod(v), v % P, "v = {v:#x}");
        }
        // Both sides of every multiple of P that fits in a u64.
        for m in 1..=(u64::MAX / P) {
            for v in [m * P - 1, m * P, m * P + 1] {
                assert_eq!(mersenne_mod(v), v % P, "v = {v:#x}");
            }
        }
        let mut rng = StdRng::seed_from_u64(0x6d65_7273);
        for _ in 0..100_000 {
            let v = rng.random_range(0..=u64::MAX);
            assert_eq!(mersenne_mod(v), v % P, "v = {v:#x}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let s1 = MinHasher::new(8, 1).signature(&[1, 2, 3]);
        let s2 = MinHasher::new(8, 2).signature(&[1, 2, 3]);
        assert_ne!(s1, s2);
    }
}
