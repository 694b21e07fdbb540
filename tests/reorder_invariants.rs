//! Property tests on the reordering algorithms: every reorderer returns a
//! valid permutation, TCA never regresses TC-block density (its guard),
//! and reordering never changes SpMM results.

use dtc_spmm::core::{DtcSpmm, SpmmEngine};
use dtc_spmm::formats::{Condensed, CsrMatrix, DenseMatrix};
use dtc_spmm::reorder::{
    is_permutation, LouvainReorderer, Lsh64Reorderer, MetisLikeReorderer, Reorderer, TcaReorderer,
    TcuOnlyReorderer,
};
use proptest::prelude::*;

fn arb_matrix() -> impl Strategy<Value = CsrMatrix> {
    (1usize..64).prop_flat_map(|n| {
        proptest::collection::vec(
            (0..n, 0..n, 1i32..4).prop_map(|(r, c, v)| (r, c, v as f32)),
            0..200,
        )
        .prop_map(move |t| CsrMatrix::from_triplets(n, n, &t).expect("in range"))
    })
}

fn all_reorderers() -> Vec<Box<dyn Reorderer>> {
    vec![
        Box::new(TcaReorderer::default()),
        Box::new(TcuOnlyReorderer::default()),
        Box::new(Lsh64Reorderer::default()),
        Box::new(MetisLikeReorderer::default()),
        Box::new(LouvainReorderer::default()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reorderers_always_produce_permutations(a in arb_matrix()) {
        for r in all_reorderers() {
            let perm = r.reorder(&a);
            prop_assert!(is_permutation(&perm, a.rows()), "{} broke", r.name());
        }
    }

    #[test]
    fn tca_never_regresses_block_count(a in arb_matrix()) {
        // The no-regression guard: TCA's permutation never yields more TC
        // blocks than the original order.
        let before = Condensed::from_csr(&a).num_tc_blocks();
        let perm = TcaReorderer::default().reorder(&a);
        let after = Condensed::from_csr(&a.permute_rows(&perm)).num_tc_blocks();
        prop_assert!(after <= before, "after={after} before={before}");
    }

    #[test]
    fn reordered_pipeline_preserves_results(a in arb_matrix()) {
        let b = DenseMatrix::from_fn(a.cols(), 4, |r, c| ((r + c) % 5) as f32 * 0.25);
        let plain = DtcSpmm::builder().reorder(false).build(&a).execute(&b).expect("ok");
        let reordered = DtcSpmm::builder().reorder(true).build(&a).execute(&b).expect("ok");
        // Same TF32 sums in a possibly different association order.
        let max_row = (0..a.rows()).map(|r| a.row_len(r)).max().unwrap_or(0) as f32;
        let bound = (max_row * 16.0).max(1.0) * dtc_spmm::formats::tf32::TF32_UNIT_ROUNDOFF + 1e-6;
        prop_assert!(plain.max_abs_diff(&reordered) <= bound);
    }

    #[test]
    fn permuted_matrix_keeps_row_multiset(a in arb_matrix()) {
        let perm = TcaReorderer::default().reorder(&a);
        let m = a.permute_rows(&perm);
        prop_assert_eq!(m.nnz(), a.nnz());
        // Row r of m equals row perm[r] of a.
        for (new_row, &orig) in perm.iter().enumerate() {
            prop_assert_eq!(m.row_entries(new_row), a.row_entries(orig));
        }
    }
}
