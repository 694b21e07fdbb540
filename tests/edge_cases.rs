//! Edge cases and failure injection across the whole stack: degenerate
//! shapes, odd N values, hostile devices, empty rows/windows — everything
//! a downstream user can throw at the library must either work or fail
//! with a typed error, never panic.

use dtc_spmm::baselines::{CusparseSpmm, HpSpmm, SpmmEngine, SputnikSpmm, TcgnnSpmm};
use dtc_spmm::core::{DtcKernel, DtcSpmm, Selector};
use dtc_spmm::formats::{CsrMatrix, DenseMatrix, MeTcfMatrix};
use dtc_spmm::sim::{cache::L2Cache, sm_for_block, Device};

fn tiny(rows: usize, cols: usize, entries: &[(usize, usize, f32)]) -> CsrMatrix {
    CsrMatrix::from_triplets(rows, cols, entries).expect("valid entries")
}

#[test]
fn empty_matrix_through_full_pipeline() {
    let a = tiny(0, 0, &[]);
    let engine = DtcSpmm::builder().reorder(true).build(&a);
    let c = engine.execute(&DenseMatrix::zeros(0, 8)).expect("empty SpMM works");
    assert_eq!(c.rows(), 0);
    let r = engine.simulate(8, &Device::rtx4090());
    assert_eq!(r.num_tbs, 0);
}

#[test]
fn all_zero_rows_matrix() {
    // Rows exist but carry no non-zeros: windows are empty.
    let a = tiny(64, 64, &[]);
    let b = DenseMatrix::ones(64, 16);
    for k in [
        Box::new(DtcKernel::new(&a)) as Box<dyn SpmmEngine>,
        Box::new(CusparseSpmm::new(&a)),
        Box::new(HpSpmm::new(&a)),
    ] {
        let c = k.execute(&b).expect("zero matrix works");
        assert_eq!(c.max_abs_diff(&DenseMatrix::zeros(64, 16)), 0.0, "{}", k.name());
        let r = k.simulate(16, &Device::rtx4090());
        assert!(r.time_ms.is_finite(), "{}", k.name());
    }
}

#[test]
fn single_entry_matrix() {
    let a = tiny(1, 1, &[(0, 0, 3.0)]);
    let b = DenseMatrix::from_vec(1, 1, vec![2.0]).expect("1x1");
    let engine = DtcSpmm::new(&a);
    assert_eq!(engine.execute(&b).expect("works").get(0, 0), 6.0);
}

#[test]
fn dense_single_row_matrix() {
    // One fully dense row among empties: the extreme of skew.
    let t: Vec<(usize, usize, f32)> = (0..256).map(|c| (5, c, 1.0)).collect();
    let a = tiny(64, 256, &t);
    let b = DenseMatrix::ones(256, 8);
    let c = DtcKernel::new(&a).execute(&b).expect("works");
    assert!((c.get(5, 0) - 256.0).abs() < 0.5);
    assert_eq!(c.get(4, 0), 0.0);
    // Selector must see extreme imbalance.
    let d = Selector::default().decide(&MeTcfMatrix::from_csr(&a), &Device::rtx4090());
    assert!(d.approximation_ratio > 1.0);
}

#[test]
fn odd_n_values_simulate_and_execute() {
    let a = tiny(32, 32, &[(0, 1, 1.0), (17, 30, 2.0), (31, 0, 3.0)]);
    let device = Device::rtx4090();
    for n in [1usize, 3, 7, 17, 33, 100] {
        let b = DenseMatrix::ones(32, n);
        let c = DtcKernel::new(&a).execute(&b).expect("odd N works");
        assert_eq!(c.cols(), n);
        let r = DtcKernel::new(&a).simulate(n, &device);
        assert!(r.time_ms > 0.0 && r.time_ms.is_finite(), "n={n}");
        let r2 = CusparseSpmm::new(&a).simulate(n, &device);
        assert!(r2.time_ms.is_finite(), "n={n}");
    }
}

#[test]
fn dimension_mismatch_is_an_error_not_a_panic() {
    let a = tiny(8, 8, &[(0, 0, 1.0)]);
    let b = DenseMatrix::zeros(9, 4);
    assert!(DtcKernel::new(&a).execute(&b).is_err());
    assert!(CusparseSpmm::new(&a).execute(&b).is_err());
    assert!(SputnikSpmm::new(&a).expect("small").execute(&b).is_err());
    assert!(TcgnnSpmm::new(&a).expect("square").execute(&b).is_err());
}

#[test]
fn hostile_device_configurations() {
    let a = tiny(64, 64, &[(0, 0, 1.0), (40, 63, 2.0)]);
    // One-SM device.
    let mut one_sm = Device::rtx4090();
    one_sm.num_sms = 1;
    let r = DtcKernel::new(&a).simulate(16, &one_sm);
    assert!(r.time_ms.is_finite() && r.sm_busy_cycles().len() == 1);
    // Odd SM count: the generalized eq. (1) must stay in range.
    for nsm in [1usize, 2, 3, 7, 41, 82, 127, 128] {
        for blk in 0..500 {
            let sm = sm_for_block(blk, nsm);
            assert!(sm < nsm, "policy out of range for nsm={nsm} blk={blk}");
        }
    }
    // Tiny L2.
    let mut small_l2 = Device::rtx4090();
    small_l2.l2_bytes = 1024;
    let r = DtcKernel::new(&a).simulate_with_l2(16, &small_l2);
    let hit = r.l2_hit_rate.expect("simulated");
    assert!((0.0..=1.0).contains(&hit));
}

#[test]
fn l2_cache_degenerate_geometries() {
    // 1 set, 1 way: every distinct address evicts.
    let mut c = L2Cache::with_geometry(1, 1);
    assert!(!c.access(1));
    assert!(!c.access(2));
    assert!(!c.access(1));
    assert!(c.access(1));
    // Zero-ish geometry clamps to 1.
    let mut c = L2Cache::with_geometry(0, 0);
    assert!(!c.access(9));
    assert!(c.access(9));
}

#[test]
fn selector_extremes() {
    let device = Device::rtx4090();
    let s = Selector::default();
    // All-empty windows.
    let d = s.decide_from_counts(&[0, 0, 0], &device);
    assert!(d.approximation_ratio.is_finite());
    // One window.
    let d = s.decide_from_counts(&[1000], &device);
    assert!(d.approximation_ratio > 1.0);
    // Gigantic uniform workload: AR near 1.
    let counts = vec![10usize; 128 * 6 * 50];
    let d = s.decide_from_counts(&counts, &device);
    assert!(d.approximation_ratio < 1.2, "AR={}", d.approximation_ratio);
}

#[test]
fn non_square_matrices_work_where_supported() {
    let a = tiny(16, 64, &[(0, 63, 1.0), (15, 0, 2.0)]);
    let b = DenseMatrix::ones(64, 8);
    // DTC, cuSPARSE, HP handle rectangular; TCGNN must refuse.
    assert!(DtcKernel::new(&a).execute(&b).is_ok());
    assert!(CusparseSpmm::new(&a).execute(&b).is_ok());
    assert!(TcgnnSpmm::new(&a).is_err());
}

#[test]
fn nan_and_infinity_values_propagate_not_panic() {
    let a = tiny(4, 4, &[(0, 0, f32::NAN), (1, 1, f32::INFINITY), (2, 2, 1.0)]);
    let b = DenseMatrix::ones(4, 2);
    let c = DtcKernel::new(&a).execute(&b).expect("executes");
    assert!(c.get(0, 0).is_nan());
    assert_eq!(c.get(1, 0), f32::INFINITY);
    assert_eq!(c.get(2, 0), 1.0);
}

#[test]
fn reorder_on_degenerate_inputs() {
    use dtc_spmm::reorder::{Reorderer, TcaReorderer};
    for a in [tiny(0, 0, &[]), tiny(1, 1, &[]), tiny(5, 5, &[(2, 2, 1.0)])] {
        let perm = TcaReorderer::default().reorder(&a);
        assert_eq!(perm.len(), a.rows());
    }
}
