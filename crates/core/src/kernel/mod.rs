//! The DTC-SpMM runtime kernels (§4.4, §4.5.1).

mod balanced;
mod base;
mod opts;

pub use balanced::BalancedDtcKernel;
pub use base::DtcKernel;
pub use opts::KernelOpts;

use dtc_formats::{DenseMatrix, MeTcfMatrix, Precision, BLOCK_WIDTH, WINDOW_HEIGHT};

/// Shared exact-execution body: walks ME-TCF blocks performing
/// precision-rounded multiply, FP32 accumulate — the numeric contract of
/// `mma.sync.aligned.m16n8k4.f32.<p>.<p>.f32`.
///
/// B is rounded once per execute into a staged copy (K·N rounding work
/// instead of nnz·N), so the inner loop is a branch-free axpy. Rounding is
/// a pure function and the accumulation order is unchanged, so the output
/// is bitwise identical to rounding B at every multiply-add (a NaN stays a
/// NaN; its sign and payload are code generation's choice either way).
///
/// Mirrors the GPU decomposition on the host: one task per 16-row window,
/// fanned out over `dtc_par::num_threads()` scoped threads. Each window owns
/// a disjoint 16-row strip of C and runs the exact serial per-entry
/// accumulation order, so the result is bit-identical to a serial walk for
/// any thread count (see DESIGN.md, "Parallel host substrate").
pub(crate) fn execute_metcf(
    metcf: &MeTcfMatrix,
    b: &DenseMatrix,
    precision: Precision,
) -> DenseMatrix {
    let n = b.cols();
    let mut c = DenseMatrix::zeros(metcf.rows(), n);
    if n == 0 {
        return c;
    }
    let b_tc = precision.round_dense(b);
    // A window's strip costs ~(nnz + blocks) regardless of which worker
    // runs it; nnz-weighted shard cuts plus chunk stealing keep skewed
    // matrices from serializing on the heavy windows.
    let weights = metcf.window_nnz_weights();
    dtc_par::par_chunks_mut_weighted(c.as_mut_slice(), WINDOW_HEIGHT * n, &weights, |w, strip| {
        execute_window(metcf, &b_tc, precision, w, strip, n);
    });
    c
}

/// Executes one row window into its 16-row output strip (`strip` is shorter
/// for a final partial window). `b_tc` is B already rounded to `precision`.
fn execute_window(
    metcf: &MeTcfMatrix,
    b_tc: &DenseMatrix,
    precision: Precision,
    w: usize,
    strip: &mut [f32],
    n: usize,
) {
    for t in metcf.window_blocks(w) {
        let cols = metcf.block_cols(t);
        let (ids, vals) = metcf.block_entries(t);
        for (&id, &v) in ids.iter().zip(vals) {
            let local_row = (id as usize) / BLOCK_WIDTH;
            let local_col = (id as usize) % BLOCK_WIDTH;
            let col = cols[local_col] as usize;
            let a_v = precision.round(v);
            let out = &mut strip[local_row * n..(local_row + 1) * n];
            for (o, &bv) in out.iter_mut().zip(b_tc.row(col)) {
                *o += a_v * bv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DtcSpmm, EngineConfig, KernelChoice, SpmmEngine};
    use dtc_formats::gen::{community, power_law};
    use dtc_formats::tf32::TF32_UNIT_ROUNDOFF;

    /// The execute body before B was staged: `precision.round(bv)` at every
    /// multiply-add, one serial walk over the windows. The bitwise oracle
    /// for [`execute_metcf`].
    fn execute_metcf_per_mac(
        metcf: &MeTcfMatrix,
        b: &DenseMatrix,
        precision: Precision,
    ) -> DenseMatrix {
        let n = b.cols();
        let mut c = DenseMatrix::zeros(metcf.rows(), n);
        if n == 0 {
            return c;
        }
        for (w, strip) in c.as_mut_slice().chunks_mut(WINDOW_HEIGHT * n).enumerate() {
            execute_window_per_mac(metcf, b, precision, w, strip, n);
        }
        c
    }

    fn execute_window_per_mac(
        metcf: &MeTcfMatrix,
        b: &DenseMatrix,
        precision: Precision,
        w: usize,
        strip: &mut [f32],
        n: usize,
    ) {
        for t in metcf.window_blocks(w) {
            let cols = metcf.block_cols(t);
            let (ids, vals) = metcf.block_entries(t);
            for (&id, &v) in ids.iter().zip(vals) {
                let local_row = (id as usize) / BLOCK_WIDTH;
                let local_col = (id as usize) % BLOCK_WIDTH;
                let col = cols[local_col] as usize;
                let a_v = precision.round(v);
                let out = &mut strip[local_row * n..(local_row + 1) * n];
                for (o, &bv) in out.iter_mut().zip(b.row(col)) {
                    *o += a_v * precision.round(bv);
                }
            }
        }
    }

    /// A dense operand whose entries stress every rounding path: about one
    /// in eleven is an edge value (NaN, ±Inf, f32 subnormal, FP16 overflow,
    /// signed zero), one in five of the rest is an exact TF32/FP16 RNE tie
    /// (low 13 bits `0x1000`), and the remainder are arbitrary-mantissa
    /// normals of either sign.
    fn hostile_b(rows: usize, n: usize) -> DenseMatrix {
        const EDGES: [f32; 10] = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            f32::from_bits(0x807F_FFFF),
            65520.0,
            -1e6,
            -0.0,
            f32::MIN_POSITIVE,
            f32::from_bits(0x3F80_8000),
        ];
        DenseMatrix::from_fn(rows, n, |r, c| {
            let h = (r as u64 * 0x9E37_79B9 + c as u64 * 0x85EB_CA6B).wrapping_mul(0xC2B2_AE35);
            let h = (h ^ (h >> 29)) as u32;
            if h.is_multiple_of(11) {
                return EDGES[(h as usize / 11) % EDGES.len()];
            }
            // Exponent 118..=137 keeps most products finite.
            let bits = (h & 0x8000_0000) | ((118 + (h >> 8) % 20) << 23) | (h & 0x007F_FFFF);
            if h.is_multiple_of(5) {
                f32::from_bits((bits & !0x1FFF) | 0x1000)
            } else {
                f32::from_bits(bits)
            }
        })
    }

    /// Bitwise equality, except that any NaN matches any NaN. Which NaN
    /// operand an `f32` add propagates is left to code generation (x86
    /// returns the first operand, and LLVM may commute an add), so NaN
    /// sign and payload are not a property of the source loop.
    fn same_bits(x: &DenseMatrix, y: &DenseMatrix) -> bool {
        (x.rows(), x.cols()) == (y.rows(), y.cols())
            && x.as_slice()
                .iter()
                .zip(y.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()))
    }

    #[test]
    fn staged_b_is_bitwise_identical_to_per_mac_rounding() {
        let a = community(400, 400, 8, 10.0, 0.85, 14);
        for precision in [Precision::Tf32, Precision::Fp16, Precision::Bf16] {
            for choice in [KernelChoice::Base, KernelChoice::Balanced] {
                for reorder in [false, true] {
                    let config = EngineConfig {
                        precision,
                        reorder,
                        force: Some(choice),
                        ..EngineConfig::default()
                    };
                    let engine = DtcSpmm::builder().config(config).build(&a);
                    assert_eq!(engine.choice(), choice);
                    assert_eq!(engine.permutation().is_some(), reorder);
                    for n in [1, 7, 64] {
                        let b = hostile_b(a.cols(), n);
                        let kernel_out = execute_metcf_per_mac(engine.metcf(), &b, precision);
                        let mut want = kernel_out.clone();
                        if let Some(perm) = engine.permutation() {
                            for (new_row, &orig_row) in perm.iter().enumerate() {
                                want.row_mut(orig_row).copy_from_slice(kernel_out.row(new_row));
                            }
                        }
                        for threads in [1, 4] {
                            dtc_par::set_threads(Some(threads));
                            let got = engine.execute(&b).expect("execute");
                            dtc_par::set_threads(None);
                            assert!(
                                same_bits(&got, &want),
                                "{precision:?} {choice:?} reorder={reorder} n={n} threads={threads}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn execute_metcf_matches_reference() {
        let a = power_law(100, 100, 6.0, 2.2, 51);
        let metcf = MeTcfMatrix::from_csr(&a);
        let b = DenseMatrix::from_fn(100, 16, |r, c| ((r + c) % 8) as f32 * 0.5);
        let got = execute_metcf(&metcf, &b, Precision::Tf32);
        let want = a.spmm_reference(&b).unwrap();
        assert!(got.max_abs_diff(&want) < 50.0 * TF32_UNIT_ROUNDOFF);
    }
}
