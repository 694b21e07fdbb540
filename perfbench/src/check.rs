//! Output checks, all run off the clock.

use dtc_formats::tf32::TF32_UNIT_ROUNDOFF;
use dtc_formats::{CsrMatrix, DenseMatrix};

/// Same shape and the same bit pattern in every element.
pub fn bits_equal(a: &DenseMatrix, b: &DenseMatrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether `got` lies inside the TF32 error envelope around
/// [`CsrMatrix::spmm_reference`]: per element, one TF32 rounding of each
/// multiplicand (`2·u_tf32`) plus f32 accumulation in any order
/// (`(k + 4)·eps`, charged to both sides), relative to `Σ|a·b|`, plus a
/// subnormal-flush allowance.
pub fn within_tf32_envelope(a: &CsrMatrix, b: &DenseMatrix, got: &DenseMatrix) -> bool {
    let Ok(want) = a.spmm_reference(b) else { return false };
    if got.rows() != want.rows() || got.cols() != want.cols() {
        return false;
    }
    let n = b.cols();
    let mut abs_sum = vec![0.0f64; n];
    for r in 0..a.rows() {
        let (cols, vals) = a.row_entries(r);
        abs_sum.iter_mut().for_each(|s| *s = 0.0);
        for (&c, &v) in cols.iter().zip(vals) {
            for (s, &bv) in abs_sum.iter_mut().zip(b.row(c as usize)) {
                *s += (v as f64 * bv as f64).abs();
            }
        }
        let rel =
            2.0 * TF32_UNIT_ROUNDOFF as f64 + 2.0 * (cols.len() as f64 + 4.0) * f32::EPSILON as f64;
        let flush = f32::MIN_POSITIVE as f64 * (cols.len() as f64 + 1.0);
        for (j, s) in abs_sum.iter().enumerate() {
            let diff = (got.get(r, j) as f64 - want.get(r, j) as f64).abs();
            if diff.is_nan() || diff > s * rel + flush {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_accepts_the_reference_and_rejects_a_perturbation() {
        let a = dtc_formats::gen::power_law(64, 64, 6.0, 2.2, 3);
        let b = DenseMatrix::from_fn(64, 8, |r, c| (r * 7 + c) as f32 * 0.01 - 0.3);
        let c = a.spmm_reference(&b).unwrap();
        assert!(within_tf32_envelope(&a, &b, &c));
        assert!(bits_equal(&c, &c.clone()));
        let mut off = c.clone();
        off.row_mut(0)[0] += 1.0;
        assert!(!within_tf32_envelope(&a, &b, &off));
        assert!(!bits_equal(&c, &off));
    }
}
