//! The DTC-SpMM runtime kernels (§4.4, §4.5.1).

mod balanced;
mod base;
mod opts;

pub use balanced::BalancedDtcKernel;
pub use base::DtcKernel;
pub use opts::KernelOpts;

use crate::error::DtcError;
use dtc_formats::{CsrMatrix, DenseMatrix, FormatError, MeTcfMatrix, Precision, WINDOW_HEIGHT};
use std::cell::Cell;

thread_local! {
    /// The calling thread's rounded-B staging buffer, kept between
    /// executes (at the size of the largest B staged on the thread): a
    /// stream of executes rounds B into pages already mapped instead of
    /// allocating, and faulting in, K·N floats on every call. Taken for
    /// the length of one execute, so a re-entrant call stages into a fresh
    /// buffer.
    static STAGED_B: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// The host analogue of the paper's *index precomputing* (§4.4): every
/// per-non-zero quantity the exact execute needs, resolved once.
///
/// Row `r` owns `col[row_ptr[r]..row_ptr[r + 1]]` (the B row each
/// non-zero reads) and the matching `val` (its A value, already rounded to
/// the plan's precision). The entries are the CSR's own, in CSR order:
/// within a row that is ascending column order, which is also the order
/// the ME-TCF block walk visits them (a window's condensed columns are
/// sorted, and its blocks take them eight at a time), so each output
/// element sees the same sequence of f32 adds as the Tensor-Core kernel.
///
/// The plan also keeps the unrounded values, so the matrix it was built
/// from can be recovered exactly: an engine that holds only its plan
/// converts that matrix to ME-TCF when its simulator side is first used.
///
/// Size: 12 B per non-zero, 4 B per row, and one shard weight per 16-row
/// window.
#[derive(Debug, Clone)]
pub struct ExecPlan {
    cols: usize,
    precision: Precision,
    row_ptr: Vec<u32>,
    col: Vec<u32>,
    val: Vec<f32>,
    raw: Vec<f32>,
    /// Per 16-row window its non-zeros plus one, for every execute's
    /// shard cuts.
    window_weights: Vec<u64>,
}

/// Bitwise equality: every array, floats by their bit patterns (so a NaN
/// value equals itself).
impl PartialEq for ExecPlan {
    fn eq(&self, other: &Self) -> bool {
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        (self.cols, self.precision, &self.row_ptr, &self.col, &self.window_weights)
            == (other.cols, other.precision, &other.row_ptr, &other.col, &other.window_weights)
            && bits(&self.val) == bits(&other.val)
            && bits(&self.raw) == bits(&other.raw)
    }
}

impl ExecPlan {
    /// The plan of `a` at `precision`: its column indices copied, its
    /// values copied and rounded once here instead of on every execute.
    ///
    /// # Errors
    ///
    /// [`DtcError::Format`] ([`FormatError::IndexOverflow`]) when `a` has
    /// more non-zeros than the plan's `u32` row offsets address.
    pub fn from_csr(a: &CsrMatrix, precision: Precision) -> Result<ExecPlan, DtcError> {
        Self::from_parts(
            a.cols(),
            a.row_ptr(),
            a.col_idx().to_vec(),
            a.values().to_vec(),
            precision,
        )
    }

    /// The plan of an ME-TCF matrix, over the CSR arrays it reconstructs
    /// ([`MeTcfMatrix::csr_arrays`]): bitwise the plan of the CSR it was
    /// converted from.
    pub fn from_metcf(metcf: &MeTcfMatrix, precision: Precision) -> ExecPlan {
        let (row_ptr, col, raw) = metcf.csr_arrays();
        Self::from_parts(metcf.cols(), &row_ptr, col, raw, precision)
            .expect("ME-TCF offsets are u32, so its non-zeros fit the plan's")
    }

    fn from_parts(
        cols: usize,
        row_ptr: &[usize],
        col: Vec<u32>,
        raw: Vec<f32>,
        precision: Precision,
    ) -> Result<ExecPlan, DtcError> {
        let nnz = raw.len();
        if u32::try_from(nnz).is_err() {
            return Err(DtcError::Format(FormatError::IndexOverflow { what: "nnz", count: nnz }));
        }
        // Every offset is at most `nnz`, which fits `u32` (checked above).
        let row_ptr: Vec<u32> = row_ptr.iter().map(|&p| p as u32).collect();
        let rows = row_ptr.len() - 1;
        let window_weights = (0..rows.div_ceil(WINDOW_HEIGHT))
            .map(|w| {
                let (lo, hi) = (w * WINDOW_HEIGHT, ((w + 1) * WINDOW_HEIGHT).min(rows));
                u64::from(row_ptr[hi] - row_ptr[lo]) + 1
            })
            .collect();
        let mut val = Vec::new();
        precision.round_concat_into(&[&raw], &mut val);
        Ok(ExecPlan { cols, precision, row_ptr, col, val, raw, window_weights })
    }

    /// The matrix this plan was built from, bit for bit.
    pub(crate) fn to_csr(&self) -> CsrMatrix {
        let row_ptr = self.row_ptr.iter().map(|&p| p as usize).collect();
        CsrMatrix::from_parts(self.rows(), self.cols, row_ptr, self.col.clone(), self.raw.clone())
            .expect("a plan holds a canonical CSR's arrays")
    }

    /// Rows of the planned matrix.
    pub(crate) fn rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Exact execute: precision-rounded multiply, FP32 accumulate — the
    /// numeric contract of `mma.sync.aligned.m16n8k4.f32.<p>.<p>.f32`.
    /// `perm[r]` is the output row of plan row `r` (`None`: identity), so a
    /// reordered engine's C comes back in original row order with no copy.
    ///
    /// B is rounded once per call (K·N work), into the calling thread's
    /// staging buffer. Each row then runs column tiles of 32, 16 and 8
    /// lanes and a scalar tail; a tile's accumulators start at `+0.0`,
    /// take the row's products in plan order and are stored once. One task
    /// per 16-row window, in plan order so a reordered engine keeps the
    /// locality reordering bought, fanned out over `dtc_par` with
    /// nnz-weighted cuts. Every task writes its own rows, so the result is
    /// bit-identical for any thread count (see DESIGN.md, "Parallel host
    /// substrate").
    pub(crate) fn execute(&self, b: &DenseMatrix, perm: Option<&[usize]>) -> DenseMatrix {
        let mut staged = STAGED_B.take();
        self.precision.round_concat_into(&[b.as_slice()], &mut staged);
        let mut c = [DenseMatrix::zeros(self.rows(), b.cols())];
        self.run(&staged, b.rows(), &mut c, perm);
        STAGED_B.set(staged);
        let [c] = c;
        c
    }

    /// [`ExecPlan::execute`] against several operands (all K rows) in one
    /// pass over the plan: each row's entries are walked once per operand
    /// while they are cache-resident, and every output is written in
    /// place. All operands are rounded into the staging buffer back to
    /// back; after that B is read only from there, so each output takes
    /// its operand's allocation and the batch maps no fresh pages for its
    /// results. Output `i` takes the same products in the same order as
    /// `execute(&bs[i])`, so it is bitwise that result.
    pub(crate) fn execute_many(
        &self,
        bs: Vec<DenseMatrix>,
        perm: Option<&[usize]>,
    ) -> Vec<DenseMatrix> {
        let (rows, b_rows) = (self.rows(), bs.first().map_or(0, DenseMatrix::rows));
        let mut staged = STAGED_B.take();
        let srcs: Vec<&[f32]> = bs.iter().map(DenseMatrix::as_slice).collect();
        self.precision.round_concat_into(&srcs, &mut staged);
        let mut cs: Vec<DenseMatrix> = bs
            .into_iter()
            .map(|b| {
                let n = b.cols();
                let mut data = b.into_vec();
                data.resize(rows * n, 0.0);
                DenseMatrix::from_vec(rows, n, data).expect("rows * n elements")
            })
            .collect();
        self.run(&staged, b_rows, &mut cs, perm);
        STAGED_B.set(staged);
        cs
    }

    /// Writes every output in `cs` from its rounded operand. `staged`
    /// holds the operands back to back, operand `i` being `b_rows ×
    /// cs[i].cols()` row-major. One operand in plan order fans out over
    /// contiguous window strips of its output; otherwise every output row
    /// is taken as one slice per operand, in plan order, so each window's
    /// task holds its own rows' slices.
    fn run(&self, staged: &[f32], b_rows: usize, cs: &mut [DenseMatrix], perm: Option<&[usize]>) {
        let rows = self.rows();
        let mut rest = staged;
        let mut live = Vec::with_capacity(cs.len());
        for c in cs.iter_mut() {
            let (b_tc, tail) = rest.split_at(b_rows * c.cols());
            rest = tail;
            if c.cols() > 0 {
                live.push((b_tc, c));
            }
        }
        if live.is_empty() || rows == 0 {
            return;
        }
        let weights = &self.window_weights;
        if let ([(b_tc, c)], None) = (live.as_mut_slice(), perm) {
            let n = c.cols();
            dtc_par::par_chunks_mut_weighted(
                c.as_mut_slice(),
                WINDOW_HEIGHT * n,
                weights,
                |w, strip| {
                    for (r, out) in (w * WINDOW_HEIGHT..).zip(strip.chunks_exact_mut(n)) {
                        self.row_product(r, b_tc, out);
                    }
                },
            );
            return;
        }
        let k = live.len();
        let (operands, outputs): (Vec<&[f32]>, Vec<&mut DenseMatrix>) = live.into_iter().unzip();
        let mut row_iters: Vec<_> = outputs
            .into_iter()
            .map(|c| {
                let n = c.cols();
                c.as_mut_slice().chunks_exact_mut(n)
            })
            .collect();
        let mut slots: Vec<&mut [f32]> = Vec::with_capacity(rows * k);
        for _ in 0..rows {
            slots.extend(row_iters.iter_mut().map(|it| it.next().expect("`rows` rows per output")));
        }
        if let Some(perm) = perm {
            let mut by_output: Vec<Option<&mut [f32]>> = slots.into_iter().map(Some).collect();
            slots = Vec::with_capacity(rows * k);
            for &o in perm {
                slots.extend(
                    by_output[o * k..(o + 1) * k]
                        .iter_mut()
                        .map(|slot| slot.take().expect("perm is a permutation")),
                );
            }
        }
        dtc_par::par_chunks_mut_weighted(&mut slots, WINDOW_HEIGHT * k, weights, |w, slots| {
            for (r, outs) in (w * WINDOW_HEIGHT..).zip(slots.chunks_exact_mut(k)) {
                for (out, b_tc) in outs.iter_mut().zip(&operands) {
                    self.row_product(r, b_tc, out);
                }
            }
        });
    }

    /// Plan row `r` against rounded `b` into `out`.
    fn row_product(&self, r: usize, b: &[f32], out: &mut [f32]) {
        let entries = self.row_ptr[r] as usize..self.row_ptr[r + 1] as usize;
        row_product(&self.col[entries.clone()], &self.val[entries], b, out);
    }
}

/// `out = Σ val[e] · B[col[e], :]` over one output row, in entry order.
fn row_product(cols: &[u32], vals: &[f32], b: &[f32], out: &mut [f32]) {
    let n = out.len();
    let mut j = 0;
    while j + 32 <= n {
        tile::<32>(cols, vals, b, n, j, out);
        j += 32;
    }
    if j + 16 <= n {
        tile::<16>(cols, vals, b, n, j, out);
        j += 16;
    }
    if j + 8 <= n {
        tile::<8>(cols, vals, b, n, j, out);
        j += 8;
    }
    for (jj, o) in out.iter_mut().enumerate().skip(j) {
        let mut acc = 0.0f32;
        for (&c, &v) in cols.iter().zip(vals) {
            acc += v * b[c as usize * n + jj];
        }
        *o = acc;
    }
}

/// Columns `j..j + T` of one output row, accumulated in registers.
#[inline(always)]
fn tile<const T: usize>(
    cols: &[u32],
    vals: &[f32],
    b: &[f32],
    n: usize,
    j: usize,
    out: &mut [f32],
) {
    let mut acc = [0.0f32; T];
    for (&c, &v) in cols.iter().zip(vals) {
        let src: &[f32; T] = b[c as usize * n + j..][..T].try_into().expect("tile width");
        for (a, &x) in acc.iter_mut().zip(src) {
            *a += v * x;
        }
    }
    out[j..j + T].copy_from_slice(&acc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DtcSpmm, EngineConfig, KernelChoice, SpmmEngine};
    use dtc_formats::gen::{community, power_law};
    use dtc_formats::tf32::TF32_UNIT_ROUNDOFF;
    use dtc_formats::BLOCK_WIDTH;

    /// The block-order execute walk the plan replaced, with A and B both
    /// rounded at every multiply-add, one serial pass over the windows: the
    /// bitwise oracle for [`ExecPlan::execute`].
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

    /// Every tile width (32, 16, 8), their combinations, and the scalar
    /// tail on its own and after each tile.
    const ORACLE_NS: [usize; 13] = [1, 7, 8, 9, 16, 17, 24, 31, 32, 33, 40, 64, 100];

    #[test]
    fn staged_b_is_bitwise_identical_to_per_mac_rounding() {
        // Row 5 and the whole window of rows 32..48 are empty, so the plan
        // has empty rows and, unreordered, an empty window.
        let full = community(400, 400, 8, 10.0, 0.85, 14);
        let kept: Vec<_> =
            full.iter().filter(|&(r, _, _)| r != 5 && !(32..48).contains(&r)).collect();
        let a = CsrMatrix::from_triplets(400, 400, &kept).unwrap();
        assert!(a.row_len(5) == 0 && (32..48).all(|r| a.row_len(r) == 0));
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
                    for n in ORACLE_NS {
                        let b = hostile_b(a.cols(), n);
                        let kernel_out = execute_metcf_per_mac(engine.metcf(), &b, precision);
                        let mut want = kernel_out.clone();
                        if let Some(perm) = engine.permutation() {
                            for (new_row, &orig_row) in perm.iter().enumerate() {
                                want.row_mut(orig_row).copy_from_slice(kernel_out.row(new_row));
                            }
                        }
                        for threads in [1, 2, 4] {
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

    /// One pass over the plan for several operands (zero-width ones among
    /// them) gives each operand exactly its solo execute, reordered or not,
    /// on square matrices and on either rectangular shape (an output is
    /// then longer or shorter than the operand whose allocation it takes).
    #[test]
    fn execute_many_is_bitwise_execute_per_operand() {
        let square = community(400, 400, 8, 10.0, 0.85, 15);
        let tall = power_law(300, 180, 6.0, 2.2, 16);
        let wide = power_law(180, 300, 6.0, 2.2, 17);
        for a in [&square, &tall, &wide] {
            for (precision, reorder) in
                [(Precision::Tf32, false), (Precision::Tf32, true), (Precision::Fp16, false)]
            {
                let config = EngineConfig { precision, reorder, ..EngineConfig::default() };
                let engine = DtcSpmm::builder().config(config).build(a);
                let bs: Vec<DenseMatrix> =
                    [33, 0, 8, 1, 64].iter().map(|&n| hostile_b(a.cols(), n)).collect();
                let solo: Vec<DenseMatrix> =
                    bs.iter().map(|b| engine.execute(b).expect("execute")).collect();
                for threads in [1, 2, 4] {
                    dtc_par::set_threads(Some(threads));
                    let many = engine.execute_many(bs.clone()).expect("execute_many");
                    dtc_par::set_threads(None);
                    assert_eq!(many.len(), solo.len());
                    for (i, (got, want)) in many.iter().zip(&solo).enumerate() {
                        assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()));
                        assert!(
                            same_bits(got, want),
                            "{precision:?} reorder={reorder} {}x{} operand {i} threads={threads}",
                            a.rows(),
                            a.cols()
                        );
                    }
                }
            }
            // The bare kernel's entry point agrees too.
            let kernel = DtcKernel::new(a);
            let bs: Vec<DenseMatrix> = [16, 3].iter().map(|&n| hostile_b(a.cols(), n)).collect();
            let many = kernel.execute_many(bs.clone()).expect("kernel execute_many");
            for (got, b) in many.iter().zip(&bs) {
                assert!(same_bits(got, &kernel.execute(b).expect("kernel execute")));
            }
        }
        let engine = DtcSpmm::builder().build(&square);
        assert!(engine.execute_many(vec![hostile_b(400, 8), hostile_b(399, 8)]).is_err());
        assert!(engine.execute_many(Vec::new()).expect("no operands").is_empty());
        let empty = engine.execute(&hostile_b(400, 0)).expect("zero-width execute");
        assert_eq!((empty.rows(), empty.cols()), (400, 0));
    }

    #[test]
    fn plan_from_csr_is_bitwise_plan_from_metcf() {
        // The plan built straight from the CSR equals the one built over
        // ME-TCF's reconstructed arrays, so the (block, entry) order the
        // Tensor-Core walk adds in is CSR order: checked on empty rows and
        // windows, special values and every precision.
        let full = community(300, 280, 8, 10.0, 0.85, 18);
        let hostile = hostile_b(300, 280);
        let kept: Vec<_> = full
            .iter()
            .filter(|&(r, _, _)| r != 5 && !(32..48).contains(&r))
            .map(|(r, c, _)| (r, c, hostile.get(r, c)))
            .collect();
        let empty = CsrMatrix::from_triplets(40, 24, &[]).unwrap();
        for a in [
            CsrMatrix::from_triplets(300, 280, &kept).unwrap(),
            power_law(97, 211, 5.0, 2.2, 19),
            empty,
        ] {
            let metcf = MeTcfMatrix::from_csr(&a);
            for precision in [Precision::Tf32, Precision::Fp16, Precision::Bf16] {
                let plan = ExecPlan::from_csr(&a, precision).unwrap();
                assert_eq!(plan, ExecPlan::from_metcf(&metcf, precision), "{precision:?}");
                let back = plan.to_csr();
                assert!(back.row_ptr() == a.row_ptr() && back.col_idx() == a.col_idx());
                assert!(back
                    .values()
                    .iter()
                    .zip(a.values())
                    .all(|(x, y)| x.to_bits() == y.to_bits()));
            }
        }
    }

    #[test]
    fn exec_plan_matches_reference() {
        let a = power_law(100, 100, 6.0, 2.2, 51);
        let metcf = MeTcfMatrix::from_csr(&a);
        let b = DenseMatrix::from_fn(100, 16, |r, c| ((r + c) % 8) as f32 * 0.5);
        let got = ExecPlan::from_metcf(&metcf, Precision::Tf32).execute(&b, None);
        let want = a.spmm_reference(&b).unwrap();
        assert!(got.max_abs_diff(&want) < 50.0 * TF32_UNIT_ROUNDOFF);
    }
}
