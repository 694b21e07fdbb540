//! Property test: every SpMM engine in the workspace computes the same
//! product as the FP32 CSR reference, within TF32 tolerance for
//! Tensor-Core paths.

use dtc_spmm::baselines::{
    BlockSpmm, CusparseSpmm, FlashLlmSpmm, HpSpmm, SparseTirSpmm, SpartaSpmm, SpmmEngine,
    SputnikSpmm, TcgnnSpmm, VectorSparseSpmm,
};
use dtc_spmm::core::{BalancedDtcKernel, DtcKernel, DtcSpmm, KernelOpts};
use dtc_spmm::formats::tf32::TF32_UNIT_ROUNDOFF;
use dtc_spmm::formats::{CsrMatrix, DenseMatrix};
use proptest::prelude::*;

fn arb_square() -> impl Strategy<Value = CsrMatrix> {
    (1usize..40).prop_flat_map(|n| {
        proptest::collection::vec(
            (0..n, 0..n, -4i32..4).prop_map(|(r, c, v)| (r, c, v as f32 * 0.5)),
            0..100,
        )
        .prop_map(move |t| CsrMatrix::from_triplets(n, n, &t).expect("in range"))
    })
}

fn arb_b(k: usize) -> impl Strategy<Value = DenseMatrix> {
    (1usize..12).prop_flat_map(move |n| {
        proptest::collection::vec(-2.0f32..2.0, k * n)
            .prop_map(move |data| DenseMatrix::from_vec(k, n, data).expect("len matches"))
    })
}

/// Worst-case absolute error bound: each output element accumulates at
/// most `max_row_len` products, each with <= 2 TF32 roundings of relative
/// size 2^-11 on operands bounded by the actual data magnitudes.
fn tf32_bound(a: &CsrMatrix, b: &DenseMatrix) -> f32 {
    let max_row = (0..a.rows()).map(|r| a.row_len(r)).max().unwrap_or(0) as f32;
    let max_a = a.values().iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let max_b = b.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
    (max_row * max_a * max_b * 3.0).max(1.0) * TF32_UNIT_ROUNDOFF + 1e-6
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_engine_matches_reference((a, b) in arb_square().prop_flat_map(|a| {
        let k = a.cols();
        (Just(a), arb_b(k))
    })) {
        let reference = a.spmm_reference(&b).expect("dims agree");
        let bound = tf32_bound(&a, &b);
        let engines: Vec<(&str, DenseMatrix)> = vec![
            ("cusparse", CusparseSpmm::new(&a).execute(&b).expect("ok")),
            ("sputnik", SputnikSpmm::new(&a).expect("small").execute(&b).expect("ok")),
            ("hpspmm", HpSpmm::new(&a).execute(&b).expect("ok")),
            ("sparsetir", SparseTirSpmm::new(&a).execute(&b).expect("ok")),
            ("tcgnn", TcgnnSpmm::new(&a).expect("square").execute(&b).expect("ok")),
            ("blockspmm", BlockSpmm::new(&a, 8, u64::MAX).expect("fits").execute(&b).expect("ok")),
            ("vectorsparse", VectorSparseSpmm::new(&a, 4).expect("ok").execute(&b).expect("ok")),
            ("flashllm", FlashLlmSpmm::new(&a, u64::MAX).expect("fits").execute(&b).expect("ok")),
            ("sparta", SpartaSpmm::new(&a, 50_000).expect("small").execute(&b).expect("ok")),
            ("dtc", DtcKernel::new(&a).execute(&b).expect("ok")),
            ("dtc-balanced", BalancedDtcKernel::new(&a).execute(&b).expect("ok")),
            ("dtc-pipeline", DtcSpmm::builder().reorder(true).build(&a).execute(&b).expect("ok")),
        ];
        for (name, c) in engines {
            let diff = c.max_abs_diff(&reference);
            prop_assert!(diff <= bound, "{name} deviates {diff} > {bound}");
        }
    }

    #[test]
    fn ablation_variants_agree_numerically((a, b) in arb_square().prop_flat_map(|a| {
        let k = a.cols();
        (Just(a), arb_b(k))
    })) {
        // Kernel optimizations are performance-only: all ablation rungs
        // must produce bit-identical outputs.
        let all = DtcKernel::with_opts(&a, KernelOpts::all()).execute(&b).expect("ok");
        for (label, opts) in KernelOpts::ablation_ladder() {
            let c = DtcKernel::with_opts(&a, opts).execute(&b).expect("ok");
            prop_assert_eq!(&c, &all, "{} changed numerics", label);
        }
    }
}
