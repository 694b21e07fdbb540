//! Jaccard similarity between rows (by their column-index sets).

/// Exact Jaccard index `|A ∩ B| / |A ∪ B|` of two *sorted* index slices.
///
/// Returns 0 when both sets are empty (two empty rows gain nothing from
/// being clustered together, so treating them as dissimilar is harmless).
///
/// # Example
///
/// ```
/// use dtc_reorder::jaccard_sorted;
///
/// assert_eq!(jaccard_sorted(&[1, 2, 3], &[2, 3, 4]), 0.5);
/// assert_eq!(jaccard_sorted(&[1, 2], &[1, 2]), 1.0);
/// assert_eq!(jaccard_sorted(&[1], &[2]), 0.0);
/// ```
pub fn jaccard_sorted(a: &[u32], b: &[u32]) -> f64 {
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    jaccard_from_counts(a.len(), b.len(), inter)
}

/// Jaccard index of two sets from their sizes and intersection size — the
/// one formula every exact scorer in this crate shares, so that all of
/// them produce the same `f64` bits. Two empty sets score 0.
pub(crate) fn jaccard_from_counts(a_len: usize, b_len: usize, inter: usize) -> f64 {
    if a_len == 0 && b_len == 0 {
        return 0.0;
    }
    inter as f64 / (a_len + b_len - inter) as f64
}

/// MinHash estimate of the Jaccard index from two equal-length signatures:
/// the fraction of matching components. Signature slots equal to
/// `u64::MAX` (empty-set sentinel) never match.
///
/// # Panics
///
/// Panics if the signatures have different lengths.
pub fn jaccard_estimate(sig_a: &[u64], sig_b: &[u64]) -> f64 {
    assert_eq!(sig_a.len(), sig_b.len(), "signature length mismatch");
    if sig_a.is_empty() {
        return 0.0;
    }
    let matches = sig_a.iter().zip(sig_b).filter(|(&x, &y)| x == y && x != u64::MAX).count();
    matches as f64 / sig_a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_cases() {
        assert_eq!(jaccard_sorted(&[], &[]), 0.0);
        assert_eq!(jaccard_sorted(&[1], &[]), 0.0);
        assert_eq!(jaccard_sorted(&[0, 5, 9], &[0, 5, 9]), 1.0);
        assert!((jaccard_sorted(&[0, 1, 2, 3], &[2, 3, 4, 5]) - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn estimate_of_identical_sets_is_one() {
        let sig = vec![3u64, 7, 11, 15];
        assert_eq!(jaccard_estimate(&sig, &sig), 1.0);
    }

    #[test]
    fn estimate_sentinels_never_match() {
        let a = vec![u64::MAX; 4];
        assert_eq!(jaccard_estimate(&a, &a), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn estimate_length_mismatch() {
        jaccard_estimate(&[1], &[1, 2]);
    }
}
