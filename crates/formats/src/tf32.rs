//! TF32 numerics emulation.
//!
//! NVIDIA's TF32 format keeps the 8-bit exponent of FP32 but truncates the
//! mantissa to 10 bits. Tensor Core `mma` instructions round their *inputs*
//! to TF32 and accumulate in FP32. Every kernel in this workspace that
//! models a Tensor Core path rounds its multiplicands through
//! [`round_to_tf32`] so that the numerical behaviour of the reproduction
//! matches what an RTX4090 would produce.

/// Rounds an `f32` to TF32 precision (10-bit mantissa, round-to-nearest-even,
/// subnormal inputs flushed to same-signed zero).
///
/// # Example
///
/// ```
/// use dtc_formats::tf32::round_to_tf32;
///
/// // 1.0 is exactly representable.
/// assert_eq!(round_to_tf32(1.0), 1.0);
/// // A value needing more than 10 mantissa bits is perturbed.
/// let x = 1.0 + f32::EPSILON;
/// assert_eq!(round_to_tf32(x), 1.0);
/// // Subnormals flush to zero, keeping the sign.
/// assert_eq!(round_to_tf32(-1.0e-39).to_bits(), (-0.0f32).to_bits());
/// ```
#[inline]
pub fn round_to_tf32(x: f32) -> f32 {
    if !x.is_finite() {
        return x; // NaN and ±Inf pass through, as `mma` inputs do.
    }
    let bits = x.to_bits();
    // Tensor Cores flush subnormal inputs to same-signed zero. This must
    // precede the RNE bit-twiddle, which would otherwise round the largest
    // subnormals *up* into the min-normal (0x007FFFFF -> 0x00800000).
    if bits & 0x7F80_0000 == 0 {
        return f32::from_bits(bits & 0x8000_0000);
    }
    // FP32 has 23 mantissa bits; TF32 keeps 10, so 13 bits are dropped.
    const DROP: u32 = 13;
    let halfway = 1u32 << (DROP - 1);
    let truncated = bits & !((1u32 << DROP) - 1);
    let rem = bits & ((1u32 << DROP) - 1);
    let round_up = rem > halfway || (rem == halfway && (bits >> DROP) & 1 == 1);
    let rounded = if round_up { truncated.wrapping_add(1 << DROP) } else { truncated };
    f32::from_bits(rounded)
}

/// A TF32 multiply-accumulate: inputs rounded to TF32, product and
/// accumulation in FP32 — the contract of `mma.sync.*.tf32`.
#[inline]
pub fn tf32_fma(a: f32, b: f32, acc: f32) -> f32 {
    round_to_tf32(a) * round_to_tf32(b) + acc
}

/// The worst-case relative error introduced by a single TF32 rounding:
/// half a unit in the last (10th) mantissa place.
pub const TF32_UNIT_ROUNDOFF: f32 = 1.0 / 2048.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_values_unchanged() {
        for v in [0.0f32, 1.0, -1.0, 2.0, 0.5, 1024.0, -0.25, 1.5] {
            assert_eq!(round_to_tf32(v), v);
        }
    }

    #[test]
    fn non_finite_passthrough() {
        assert!(round_to_tf32(f32::NAN).is_nan());
        assert_eq!(round_to_tf32(f32::INFINITY), f32::INFINITY);
        assert_eq!(round_to_tf32(f32::NEG_INFINITY), f32::NEG_INFINITY);
    }

    #[test]
    fn subnormals_flush_to_signed_zero() {
        // Includes the largest subnormal, which the RNE step alone would
        // round UP into the min-normal instead of flushing.
        for s in [f32::from_bits(1), 1.0e-39, f32::from_bits(0x007F_FFFF)] {
            assert_eq!(round_to_tf32(s).to_bits(), 0, "{s:e}");
            assert_eq!(round_to_tf32(-s).to_bits(), 0x8000_0000, "-{s:e}");
        }
        // The smallest normal is exactly representable and must survive.
        assert_eq!(round_to_tf32(f32::MIN_POSITIVE), f32::MIN_POSITIVE);
        assert_eq!(round_to_tf32(-f32::MIN_POSITIVE), -f32::MIN_POSITIVE);
    }

    #[test]
    fn signed_zero_is_preserved() {
        assert_eq!(round_to_tf32(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(round_to_tf32(-0.0).to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn mantissa_has_at_most_10_bits() {
        // After rounding, the low 13 mantissa bits must be zero.
        for i in 0..1000 {
            let x = (i as f32).sin() * 1000.0;
            let r = round_to_tf32(x);
            assert_eq!(r.to_bits() & 0x1FFF, 0, "x={x} r={r}");
        }
    }

    #[test]
    fn rounding_error_is_bounded() {
        for i in 1..1000 {
            let x = (i as f32).sqrt() * 3.7;
            let r = round_to_tf32(x);
            let rel = ((x - r) / x).abs();
            assert!(rel <= TF32_UNIT_ROUNDOFF, "x={x} r={r} rel={rel}");
        }
    }

    #[test]
    fn rounding_is_monotone_nondecreasing() {
        let mut prev = round_to_tf32(0.0);
        for i in 1..10_000 {
            let x = i as f32 * 0.001;
            let r = round_to_tf32(x);
            assert!(r >= prev, "monotonicity violated at {x}");
            prev = r;
        }
    }

    #[test]
    fn fma_matches_manual() {
        let a = 1.234_567_9_f32;
        let b = 9.876_543_f32;
        let expect = round_to_tf32(a) * round_to_tf32(b) + 10.0;
        assert_eq!(tf32_fma(a, b, 10.0), expect);
    }
}
