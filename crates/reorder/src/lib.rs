//! Row-reordering algorithms for TC-based SpMM.
//!
//! The paper's §4.3 proposes **TCU-Cache-Aware (TCA) reordering** — a
//! two-level hierarchy that first groups Jaccard-similar rows into clusters
//! of at most 16 rows (one TC row window), then regroups those clusters
//! into clusters-of-clusters of at most `SM_NUM` to improve L2 locality —
//! and compares it against METIS, Louvain and a single-level LSH with
//! cluster cap 64 (§5.3, Fig 13). All five are implemented here behind the
//! [`Reorderer`] trait.
//!
//! # Example
//!
//! ```
//! use dtc_formats::gen::community;
//! use dtc_formats::Condensed;
//! use dtc_reorder::{Reorderer, TcaReorderer};
//!
//! let a = community(256, 256, 16, 12.0, 0.9, 1);
//! let perm = TcaReorderer::default().reorder(&a);
//! let reordered = a.permute_rows(&perm);
//! // TCA raises the density of TC blocks.
//! let before = Condensed::from_csr(&a).mean_nnz_tc();
//! let after = Condensed::from_csr(&reordered).mean_nnz_tc();
//! assert!(after >= before);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod degree;
mod jaccard;
mod louvain;
mod lsh;
mod marker;
mod metis_like;
mod minhash;
mod tca;

pub use degree::{DegreeOrder, DegreeSortReorderer};
pub use jaccard::{jaccard_estimate, jaccard_sorted};
pub use louvain::LouvainReorderer;
pub use lsh::{lsh_candidate_pairs, LshParams};
pub use metis_like::MetisLikeReorderer;
pub use minhash::MinHasher;
pub use tca::{Lsh64Reorderer, TcaReorderer, TcuOnlyReorderer};

use dtc_formats::CsrMatrix;

/// A row-reordering algorithm: produces a permutation `perm` such that row
/// `r` of the reordered matrix is row `perm[r]` of the original
/// (the argument convention of [`CsrMatrix::permute_rows`]).
pub trait Reorderer {
    /// Short display name for tables and figures.
    fn name(&self) -> &str;

    /// Computes the row permutation for the given matrix.
    ///
    /// Implementations must return a valid permutation of `0..a.rows()`.
    fn reorder(&self, a: &CsrMatrix) -> Vec<usize>;
}

/// The identity (no-op) reordering — the "SGT only" baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityReorderer;

impl Reorderer for IdentityReorderer {
    fn name(&self) -> &str {
        "identity"
    }

    fn reorder(&self, a: &CsrMatrix) -> Vec<usize> {
        (0..a.rows()).collect()
    }
}

/// Checks that `perm` is a permutation of `0..n` (used by tests and
/// defensive call sites).
pub fn is_permutation(perm: &[usize], n: usize) -> bool {
    if perm.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for &p in perm {
        if p >= n || seen[p] {
            return false;
        }
        seen[p] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtc_formats::gen::{community, power_law, uniform};

    #[test]
    fn identity_is_permutation() {
        let a = uniform(100, 100, 400, 1);
        let perm = IdentityReorderer.reorder(&a);
        assert!(is_permutation(&perm, 100));
        assert_eq!(a.permute_rows(&perm), a);
    }

    #[test]
    fn is_permutation_detects_errors() {
        assert!(is_permutation(&[2, 0, 1], 3));
        assert!(!is_permutation(&[0, 0, 1], 3));
        assert!(!is_permutation(&[0, 1], 3));
        assert!(!is_permutation(&[0, 1, 3], 3));
    }

    #[test]
    fn all_reorderers_produce_permutations() {
        let matrices = vec![
            uniform(130, 130, 600, 2),
            power_law(130, 130, 6.0, 2.2, 3),
            community(130, 130, 8, 8.0, 0.9, 4),
        ];
        let reorderers: Vec<Box<dyn Reorderer>> = vec![
            Box::new(IdentityReorderer),
            Box::new(DegreeSortReorderer::default()),
            Box::new(TcaReorderer::default()),
            Box::new(TcuOnlyReorderer::default()),
            Box::new(Lsh64Reorderer::default()),
            Box::new(MetisLikeReorderer::default()),
            Box::new(LouvainReorderer::default()),
        ];
        for m in &matrices {
            for r in &reorderers {
                let perm = r.reorder(m);
                assert!(is_permutation(&perm, m.rows()), "{} broke permutation", r.name());
            }
        }
    }

    #[test]
    fn reorderers_handle_empty_matrix() {
        let a = CsrMatrix::from_triplets(0, 0, &[]).unwrap();
        let reorderers: Vec<Box<dyn Reorderer>> = vec![
            Box::new(TcaReorderer::default()),
            Box::new(Lsh64Reorderer::default()),
            Box::new(MetisLikeReorderer::default()),
            Box::new(LouvainReorderer::default()),
        ];
        for r in &reorderers {
            assert!(r.reorder(&a).is_empty());
        }
    }
}
