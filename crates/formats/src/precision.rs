//! Tensor-Core input precisions.
//!
//! The paper targets TF32 ("a more favorable alternative to FP32") but
//! closes by noting its "insights and optimizations can be extended to
//! support other precisions". This module provides the three TC input
//! precisions relevant to SpMM — TF32, FP16 and BF16 — as rounding
//! functions plus their Tensor-Core throughput multipliers.

use crate::tf32::round_to_tf32;
use crate::DenseMatrix;

/// Elements per task when [`Precision::round_dense`] fans out (64 KiB of
/// `f32`: each task copies and rounds an L2-resident run).
const ROUND_CHUNK: usize = 1 << 14;

/// A Tensor-Core multiplicand precision. Accumulation is FP32 in all cases
/// (the `*.f32.<in>.<in>.f32` `mma` variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// 8-bit exponent, 10-bit mantissa (FP32 range, reduced precision) —
    /// the paper's choice for GNN and scientific workloads.
    #[default]
    Tf32,
    /// IEEE half: 5-bit exponent, 10-bit mantissa. Twice the TC throughput
    /// of TF32, but overflows beyond ±65504.
    Fp16,
    /// bfloat16: 8-bit exponent, 7-bit mantissa. Twice the TC throughput,
    /// FP32 range, coarser mantissa.
    Bf16,
}

impl Precision {
    /// Rounds an `f32` to this precision's representable set (returned as
    /// `f32`, the way TC inputs are materialized before conversion).
    #[inline]
    pub fn round(self, x: f32) -> f32 {
        match self {
            Precision::Tf32 => round_to_tf32(x),
            Precision::Fp16 => round_to_fp16(x),
            Precision::Bf16 => round_to_bf16(x),
        }
    }

    /// Rounds every element of `xs` in place — the bulk form of
    /// [`Precision::round`], with the precision dispatch hoisted out of the
    /// element loop.
    pub fn round_slice(self, xs: &mut [f32]) {
        match self {
            Precision::Tf32 => xs.iter_mut().for_each(|x| *x = round_to_tf32(*x)),
            Precision::Fp16 => xs.iter_mut().for_each(|x| *x = round_to_fp16(*x)),
            Precision::Bf16 => xs.iter_mut().for_each(|x| *x = round_to_bf16(*x)),
        }
    }

    /// A copy of `m` with every element rounded to this precision: the
    /// Tensor-Core B operand, staged once per execute so a kernel's
    /// multiply-add loop reads already-rounded values. Copy and rounding
    /// run together over `dtc_par` chunks, so both scale with the threads.
    pub fn round_dense(self, m: &DenseMatrix) -> DenseMatrix {
        let src = m.as_slice();
        let mut out = DenseMatrix::zeros(m.rows(), m.cols());
        dtc_par::par_chunks_mut(out.as_mut_slice(), ROUND_CHUNK, |i, chunk| {
            let start = i * ROUND_CHUNK;
            chunk.copy_from_slice(&src[start..start + chunk.len()]);
            self.round_slice(chunk);
        });
        out
    }

    /// The slices `srcs`, back to back, rounded to this precision into
    /// `out`, which is resized to their total length. Reusing `out`
    /// between calls stages operands without mapping fresh pages each
    /// time. Fans out over `dtc_par` chunks like
    /// [`Precision::round_dense`]; a chunk may span several sources.
    pub fn round_concat_into(self, srcs: &[&[f32]], out: &mut Vec<f32>) {
        out.resize(srcs.iter().map(|s| s.len()).sum(), 0.0);
        dtc_par::par_chunks_mut(out, ROUND_CHUNK, |i, chunk| {
            let mut skip = i * ROUND_CHUNK;
            let mut filled = 0;
            for src in srcs {
                if filled == chunk.len() {
                    break;
                }
                if skip >= src.len() {
                    skip -= src.len();
                    continue;
                }
                let take = (src.len() - skip).min(chunk.len() - filled);
                chunk[filled..filled + take].copy_from_slice(&src[skip..skip + take]);
                (filled, skip) = (filled + take, 0);
            }
            self.round_slice(chunk);
        });
    }

    /// Worst-case relative rounding error (half a ULP of the mantissa).
    pub fn unit_roundoff(self) -> f32 {
        match self {
            Precision::Tf32 | Precision::Fp16 => 1.0 / 2048.0, // 10-bit mantissa
            Precision::Bf16 => 1.0 / 256.0,                    // 7-bit mantissa
        }
    }

    /// Tensor-Core throughput relative to TF32 (Ampere/Ada: FP16/BF16 run
    /// at twice the TF32 rate).
    pub fn tc_throughput_multiplier(self) -> f64 {
        match self {
            Precision::Tf32 => 1.0,
            Precision::Fp16 | Precision::Bf16 => 2.0,
        }
    }

    /// Display name matching the PTX modifier.
    pub fn name(self) -> &'static str {
        match self {
            Precision::Tf32 => "tf32",
            Precision::Fp16 => "f16",
            Precision::Bf16 => "bf16",
        }
    }
}

/// Rounds through IEEE binary16 (round-to-nearest-even), returning the
/// value as `f32`. Overflow saturates to ±inf; subnormals flush to zero
/// (the Tensor-Core behaviour).
#[inline]
pub fn round_to_fp16(x: f32) -> f32 {
    if !x.is_finite() {
        return x;
    }
    let bits = x.to_bits();
    let sign = bits & 0x8000_0000;
    let abs = f32::from_bits(bits & 0x7FFF_FFFF);
    if abs == 0.0 {
        return f32::from_bits(sign); // preserve signed zero
    }
    // Magnitude beyond f16 max rounds to infinity.
    if abs >= 65520.0 {
        return f32::from_bits(sign | 0x7F80_0000);
    }
    // Subnormal range of f16: flush to zero (TC behaviour).
    if abs < 6.103_515_6e-5 {
        return f32::from_bits(sign);
    }
    // Normal range: RNE on the 13 dropped mantissa bits — identical
    // machinery to TF32 (both keep 10 mantissa bits).
    round_to_tf32(x)
}

/// Rounds to bfloat16 (round-to-nearest-even on the low 16 bits).
#[inline]
pub fn round_to_bf16(x: f32) -> f32 {
    if !x.is_finite() {
        return x;
    }
    let bits = x.to_bits();
    let halfway = 1u32 << 15;
    let truncated = bits & 0xFFFF_0000;
    let rem = bits & 0xFFFF;
    let round_up = rem > halfway || (rem == halfway && (bits >> 16) & 1 == 1);
    let rounded = if round_up { truncated.wrapping_add(1 << 16) } else { truncated };
    f32::from_bits(rounded)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_small_integers_survive_everywhere() {
        for p in [Precision::Tf32, Precision::Fp16, Precision::Bf16] {
            for v in [0.0f32, 1.0, -2.0, 0.5, 64.0] {
                assert_eq!(p.round(v), v, "{p:?} {v}");
            }
        }
    }

    #[test]
    fn fp16_overflows_to_infinity() {
        assert_eq!(round_to_fp16(1e6), f32::INFINITY);
        assert_eq!(round_to_fp16(-1e6), f32::NEG_INFINITY);
        // TF32 and BF16 keep FP32 range.
        assert!(Precision::Tf32.round(1e6).is_finite());
        assert!(Precision::Bf16.round(1e6).is_finite());
    }

    #[test]
    fn fp16_flushes_subnormals() {
        assert_eq!(round_to_fp16(1e-6), 0.0);
        assert_eq!(round_to_fp16(-1e-6), -0.0);
        assert!(round_to_fp16(-1e-6).is_sign_negative());
    }

    #[test]
    fn bf16_keeps_7_mantissa_bits() {
        for i in 1..500 {
            let x = (i as f32).ln() + 1.0;
            let r = round_to_bf16(x);
            assert_eq!(r.to_bits() & 0xFFFF, 0, "x={x}");
            let rel = ((x - r) / x).abs();
            assert!(rel <= Precision::Bf16.unit_roundoff(), "x={x} rel={rel}");
        }
    }

    #[test]
    fn bf16_coarser_than_tf32() {
        let mut bf_worse = 0;
        for i in 1..1000 {
            let x = (i as f32).sqrt() * 1.37;
            let e_tf = (Precision::Tf32.round(x) - x).abs();
            let e_bf = (Precision::Bf16.round(x) - x).abs();
            if e_bf > e_tf {
                bf_worse += 1;
            }
            assert!(e_bf + 1e-12 >= e_tf, "bf16 cannot beat tf32 at {x}");
        }
        assert!(bf_worse > 500, "bf16 should usually be coarser ({bf_worse})");
    }

    #[test]
    fn throughput_multipliers() {
        assert_eq!(Precision::Tf32.tc_throughput_multiplier(), 1.0);
        assert_eq!(Precision::Fp16.tc_throughput_multiplier(), 2.0);
        assert_eq!(Precision::Bf16.tc_throughput_multiplier(), 2.0);
    }

    /// Bit patterns where rounding is easiest to get wrong: signed zeros,
    /// NaN, ±Inf, f32 subnormals (incl. the largest), FP16 overflow and
    /// its boundary, FP16 subnormals, and exact round-to-nearest-even ties
    /// at both the 13-bit (TF32/FP16) and 16-bit (BF16) cut.
    fn edge_values() -> Vec<f32> {
        let mut v = vec![
            0.0,
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            f32::from_bits(0x007F_FFFF),
            -f32::from_bits(0x007F_FFFF),
            f32::MIN_POSITIVE,
            65504.0,
            f32::from_bits(0x477F_EFFF), // just below the FP16 overflow cut
            65520.0,
            -1e6,
            f32::MAX,
            1e-6,
            -6.1e-5,
            f32::from_bits(0x3F80_1000), // TF32 tie, even mantissa: rounds down
            f32::from_bits(0x3F80_3000), // TF32 tie, odd mantissa: rounds up
            f32::from_bits(0xBF80_1000),
            f32::from_bits(0x3F80_8000), // BF16 tie, even
            f32::from_bits(0x3F81_8000), // BF16 tie, odd
            f32::from_bits(0x7F7F_F000), // tie just below f32::MAX
        ];
        v.extend((0..200).map(|i| ((i as f32) * 0.731).sin() * 1e3));
        v
    }

    #[test]
    fn round_slice_matches_elementwise_round() {
        for p in [Precision::Tf32, Precision::Fp16, Precision::Bf16] {
            let xs = edge_values();
            let mut bulk = xs.clone();
            p.round_slice(&mut bulk);
            for (&x, &r) in xs.iter().zip(&bulk) {
                assert_eq!(r.to_bits(), p.round(x).to_bits(), "{p:?} at {:#010x}", x.to_bits());
            }
        }
    }

    #[test]
    fn round_dense_matches_round_slice_at_any_thread_count() {
        let xs = edge_values();
        // More rows than one chunk, with a short final chunk.
        let m = DenseMatrix::from_fn(ROUND_CHUNK / 7 + 3, 7, |r, c| xs[(r * 7 + c) % xs.len()]);
        for p in [Precision::Tf32, Precision::Fp16, Precision::Bf16] {
            let mut want = m.as_slice().to_vec();
            p.round_slice(&mut want);
            for threads in [1, 4] {
                dtc_par::set_threads(Some(threads));
                let got = p.round_dense(&m);
                dtc_par::set_threads(None);
                assert_eq!((got.rows(), got.cols()), (m.rows(), m.cols()));
                let bits = |s: &[f32]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(got.as_slice()), bits(&want), "{p:?} threads={threads}");
            }
        }
    }

    #[test]
    fn round_concat_into_matches_round_slice_across_source_boundaries() {
        let xs = edge_values();
        // Sources shorter and longer than a chunk, one empty, so chunks
        // start mid-source and span several sources.
        let lens = [5, ROUND_CHUNK + 9, 0, ROUND_CHUNK / 3, 2 * ROUND_CHUNK + 1];
        let srcs: Vec<Vec<f32>> = (0..lens.len())
            .map(|s| (0..lens[s]).map(|i| xs[(i * 7 + s) % xs.len()]).collect())
            .collect();
        let views: Vec<&[f32]> = srcs.iter().map(Vec::as_slice).collect();
        let bits = |s: &[f32]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for p in [Precision::Tf32, Precision::Fp16, Precision::Bf16] {
            let mut want = srcs.concat();
            p.round_slice(&mut want);
            // A reused buffer, longer than needed on the second call.
            let mut out = vec![f32::NAN; 3];
            for threads in [1, 4] {
                dtc_par::set_threads(Some(threads));
                p.round_concat_into(&views, &mut out);
                dtc_par::set_threads(None);
                assert_eq!(bits(&out), bits(&want), "{p:?} threads={threads}");
                out.push(f32::NAN);
            }
        }
    }

    #[test]
    fn non_finite_passthrough() {
        for p in [Precision::Tf32, Precision::Fp16, Precision::Bf16] {
            assert!(p.round(f32::NAN).is_nan());
            assert_eq!(p.round(f32::INFINITY), f32::INFINITY);
        }
    }
}
