use crate::{Condensed, CsrMatrix, FormatError, TcBlock, BLOCK_WIDTH, WINDOW_HEIGHT};

/// Sentinel marking a padded (absent) column slot in `SparseAtoB`.
pub const PAD_COL: u32 = u32::MAX;

/// The paper's Memory-Efficient TCF format (ME-TCF, §4.2).
///
/// Four index arrays represent an SGT-condensed matrix:
///
/// - `row_window_offset[w]` — index of window `w`'s first TC block in
///   `tc_offset` (`⌈M/16⌉ + 1` elements);
/// - `tc_offset[t]` — index of TC block `t`'s first non-zero in
///   `tc_local_id` (`NumTCBlock + 1` elements);
/// - `tc_local_id[i]` — 8-bit local position (`local_row * 8 + local_col`,
///   0..=127) of non-zero `i` inside its TC block (`NNZ` bytes — `NNZ/4`
///   32-bit elements);
/// - `sparse_a_to_b[t*8 + j]` — original column of block `t`'s column `j`
///   (`NumTCBlock × 8` elements, padded with [`PAD_COL`]).
///
/// Total: `⌈M/16⌉ + 9·NumTCBlock + NNZ/4 + 2` 32-bit elements, versus
/// `M + 1 + NNZ` for CSR and `⌈M/16⌉ + M + 1 + 3·NNZ` for TCF.
///
/// # Example
///
/// ```
/// use dtc_formats::{CsrMatrix, MeTcfMatrix};
///
/// # fn main() -> Result<(), dtc_formats::FormatError> {
/// let a = CsrMatrix::from_triplets(16, 64, &[(0, 3, 1.0), (5, 3, 2.0), (9, 60, 3.0)])?;
/// let m = MeTcfMatrix::from_csr(&a);
/// assert_eq!(m.num_tc_blocks(), 1);
/// assert_eq!(m.to_csr()?, a);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MeTcfMatrix {
    rows: usize,
    cols: usize,
    row_window_offset: Vec<u32>,
    tc_offset: Vec<u32>,
    tc_local_id: Vec<u8>,
    sparse_a_to_b: Vec<u32>,
    values: Vec<f32>,
}

impl MeTcfMatrix {
    /// Converts a CSR matrix to ME-TCF (SGT condensing + array packing).
    pub fn from_csr(a: &CsrMatrix) -> Self {
        Self::from_condensed(&Condensed::from_csr(a))
    }

    /// Packs an already-condensed matrix into ME-TCF arrays.
    pub fn from_condensed(condensed: &Condensed) -> Self {
        let num_blocks = condensed.num_tc_blocks();
        let mut row_window_offset = Vec::with_capacity(condensed.num_windows() + 1);
        let mut tc_offset = Vec::with_capacity(num_blocks + 1);
        let mut tc_local_id = Vec::with_capacity(condensed.nnz());
        let mut sparse_a_to_b = Vec::with_capacity(num_blocks * BLOCK_WIDTH);
        let mut values = Vec::with_capacity(condensed.nnz());
        row_window_offset.push(0);
        tc_offset.push(0);
        for w in condensed.windows() {
            for block in w.blocks() {
                for e in block.entries {
                    tc_local_id.push(TcBlock::local_id(e));
                    values.push(e.value);
                }
                tc_offset.push(tc_local_id.len() as u32);
                sparse_a_to_b.extend_from_slice(block.cols);
                sparse_a_to_b.extend(std::iter::repeat_n(PAD_COL, BLOCK_WIDTH - block.cols.len()));
            }
            row_window_offset.push(tc_offset.len() as u32 - 1);
        }
        MeTcfMatrix {
            rows: condensed.rows(),
            cols: condensed.cols(),
            row_window_offset,
            tc_offset,
            tc_local_id,
            sparse_a_to_b,
            values,
        }
    }

    /// Assembles an ME-TCF matrix from raw arrays (a delta patch splices
    /// its arrays this way).
    ///
    /// # Panics
    ///
    /// Panics when the array lengths are mutually inconsistent:
    /// `row_window_offset` must cover `⌈rows/16⌉` windows and end at the
    /// block count, `tc_offset` must end at the non-zero count, and
    /// `sparse_a_to_b` must hold 8 slots per block. Empty offset arrays are
    /// accepted as the zero-window / zero-block degenerate encodings and
    /// normalized to the canonical `[0]` form (a zero-nnz matrix would
    /// otherwise underflow the block count below).
    pub(crate) fn from_raw_parts(
        rows: usize,
        cols: usize,
        row_window_offset: Vec<u32>,
        tc_offset: Vec<u32>,
        tc_local_id: Vec<u8>,
        sparse_a_to_b: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        let mut row_window_offset = row_window_offset;
        let mut tc_offset = tc_offset;
        if row_window_offset.is_empty() {
            row_window_offset.push(0);
        }
        if tc_offset.is_empty() {
            tc_offset.push(0);
        }
        assert_eq!(row_window_offset.len(), rows.div_ceil(WINDOW_HEIGHT) + 1);
        assert_eq!(row_window_offset[0], 0);
        let num_blocks = tc_offset.len() - 1;
        assert_eq!(*row_window_offset.last().unwrap() as usize, num_blocks);
        assert_eq!(*tc_offset.last().unwrap() as usize, tc_local_id.len());
        assert_eq!(sparse_a_to_b.len(), num_blocks * BLOCK_WIDTH);
        assert_eq!(values.len(), tc_local_id.len());
        MeTcfMatrix { rows, cols, row_window_offset, tc_offset, tc_local_id, sparse_a_to_b, values }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of non-zeros.
    pub fn nnz(&self) -> usize {
        self.tc_local_id.len()
    }

    /// Number of 16-row windows.
    pub fn num_windows(&self) -> usize {
        self.row_window_offset.len() - 1
    }

    /// Total number of TC blocks.
    pub fn num_tc_blocks(&self) -> usize {
        self.tc_offset.len() - 1
    }

    /// *RowWindowOffset* array.
    pub fn row_window_offset(&self) -> &[u32] {
        &self.row_window_offset
    }

    /// *TCOffset* array.
    pub fn tc_offset(&self) -> &[u32] {
        &self.tc_offset
    }

    /// *TCLocalId* array (8-bit local indices).
    pub fn tc_local_id(&self) -> &[u8] {
        &self.tc_local_id
    }

    /// *SparseAtoB* array (original column per block column slot).
    pub fn sparse_a_to_b(&self) -> &[u32] {
        &self.sparse_a_to_b
    }

    /// Non-zero values aligned with `tc_local_id`.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// The range of global TC-block indices belonging to window `w`.
    ///
    /// # Panics
    ///
    /// Panics if `w >= self.num_windows()`.
    pub fn window_blocks(&self, w: usize) -> std::ops::Range<usize> {
        self.row_window_offset[w] as usize..self.row_window_offset[w + 1] as usize
    }

    /// Number of TC blocks in window `w`.
    pub fn window_block_count(&self, w: usize) -> usize {
        self.window_blocks(w).len()
    }

    /// Per-window TC block counts.
    pub fn window_block_counts(&self) -> Vec<usize> {
        (0..self.num_windows()).map(|w| self.window_block_count(w)).collect()
    }

    /// Per-window cost estimates for `dtc_par::ShardPlan::weighted`: the
    /// non-zeros plus TC blocks of each window (+1 floor so empty windows
    /// still carry the loop-iteration cost). Both trace lowering and host
    /// SpMM execution scale with this sum, so it is the shared shard weight
    /// for every per-window parallel loop.
    pub fn window_nnz_weights(&self) -> Vec<u64> {
        (0..self.num_windows())
            .map(|w| {
                let blocks = self.window_blocks(w);
                let nnz = self.tc_offset[blocks.end] - self.tc_offset[blocks.start];
                nnz as u64 + blocks.len() as u64 + 1
            })
            .collect()
    }

    /// `MeanNnzTC` for this matrix.
    pub fn mean_nnz_tc(&self) -> f64 {
        let blocks = self.num_tc_blocks();
        if blocks == 0 {
            0.0
        } else {
            self.nnz() as f64 / blocks as f64
        }
    }

    /// The (up to 8) original column indices of global TC block `t`,
    /// excluding padding.
    pub fn block_cols(&self, t: usize) -> &[u32] {
        let slots = &self.sparse_a_to_b[t * BLOCK_WIDTH..(t + 1) * BLOCK_WIDTH];
        let valid = slots.iter().position(|&c| c == PAD_COL).unwrap_or(BLOCK_WIDTH);
        &slots[..valid]
    }

    /// The `(local_ids, values)` of global TC block `t`.
    pub fn block_entries(&self, t: usize) -> (&[u8], &[f32]) {
        let range = self.tc_offset[t] as usize..self.tc_offset[t + 1] as usize;
        (&self.tc_local_id[range.clone()], &self.values[range])
    }

    /// Number of distinct column indices among stored entries, read
    /// straight from the per-window column maps (every column in
    /// `sparse_a_to_b` backs at least one stored entry, so marking the
    /// non-padding slots counts exactly what a CSR scan would).
    pub fn distinct_cols(&self) -> usize {
        // One byte per column plus a spare slot that absorbs the padding:
        // plain stores, where a bitmap's read-modify-write chains and the
        // padding branch measured twice as slow on 16k-nnz matrices.
        let mut seen = vec![0u8; self.cols + 1];
        for &c in &self.sparse_a_to_b {
            seen[(c as usize).min(self.cols)] = 1;
        }
        seen[..self.cols].iter().map(|&s| usize::from(s)).sum()
    }

    /// Index-array element count in 32-bit units (§4.2):
    /// `⌈M/16⌉ + 9·NumTCBlock + NNZ/4 + 2`.
    pub fn index_elements(&self) -> u64 {
        self.rows.div_ceil(WINDOW_HEIGHT) as u64
            + 9 * self.num_tc_blocks() as u64
            + self.nnz() as u64 / 4
            + 2
    }

    /// Reconstructs the canonical CSR arrays — `(row_ptr, col_idx,
    /// values)` in row-major, column-ascending order — **without
    /// sorting**. SGT condensing stores each window's distinct columns
    /// sorted, emits TC blocks in ascending column-range order and orders
    /// entries within a block by `(local_row, local_col)`, so one
    /// bucketing pass per window (one bucket per local row) recovers
    /// exact CSR order: a row's entries arrive block by block with
    /// strictly increasing columns.
    ///
    /// This is the cheap identity path for incremental updates: hashing
    /// or rebuilding a CSR view of a patched ME-TCF costs `O(nnz)` here
    /// versus the `O(nnz log nnz)` triplet sort of a generic rebuild.
    pub fn csr_arrays(&self) -> (Vec<usize>, Vec<u32>, Vec<f32>) {
        let mut row_ptr = vec![0usize; self.rows + 1];
        let mut col_idx = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        let mut buckets: [Vec<(u32, f32)>; WINDOW_HEIGHT] = Default::default();
        for w in 0..self.num_windows() {
            for bucket in &mut buckets {
                bucket.clear();
            }
            for t in self.window_blocks(w) {
                let cols = self.block_cols(t);
                let (ids, vals) = self.block_entries(t);
                for (&id, &v) in ids.iter().zip(vals) {
                    let local_row = (id / BLOCK_WIDTH as u8) as usize;
                    let local_col = (id % BLOCK_WIDTH as u8) as usize;
                    buckets[local_row].push((cols[local_col], v));
                }
            }
            let base = w * WINDOW_HEIGHT;
            for (local_row, bucket) in buckets.iter().enumerate() {
                let r = base + local_row;
                if r >= self.rows {
                    break;
                }
                row_ptr[r + 1] = row_ptr[r] + bucket.len();
                for &(c, v) in bucket {
                    col_idx.push(c);
                    values.push(v);
                }
            }
        }
        (row_ptr, col_idx, values)
    }

    /// Reconstructs the original CSR matrix.
    ///
    /// # Errors
    ///
    /// Never fails for a value built by [`MeTcfMatrix::from_csr`].
    pub fn to_csr(&self) -> Result<CsrMatrix, FormatError> {
        let (row_ptr, col_idx, values) = self.csr_arrays();
        CsrMatrix::from_parts(self.rows, self.cols, row_ptr, col_idx, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        CsrMatrix::from_triplets(
            33,
            40,
            &[
                (0, 1, 1.0),
                (0, 20, 2.0),
                (3, 1, 3.0),
                (15, 39, 4.0),
                (16, 0, 5.0),
                (31, 0, 6.0),
                (32, 32, 7.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn array_lengths() {
        let m = MeTcfMatrix::from_csr(&sample());
        assert_eq!(m.row_window_offset().len(), m.num_windows() + 1);
        assert_eq!(m.tc_offset().len(), m.num_tc_blocks() + 1);
        assert_eq!(m.tc_local_id().len(), m.nnz());
        assert_eq!(m.sparse_a_to_b().len(), m.num_tc_blocks() * BLOCK_WIDTH);
    }

    #[test]
    fn roundtrip() {
        let a = sample();
        let m = MeTcfMatrix::from_csr(&a);
        assert_eq!(m.to_csr().unwrap(), a);
    }

    #[test]
    fn distinct_cols_counts_what_a_csr_scan_would() {
        for (rows, cols, nnz, seed) in [(33, 40, 7, 0u64), (100, 64, 900, 3), (50, 300, 1200, 9)] {
            let a = crate::gen::uniform(rows, cols, nnz, seed);
            let m = MeTcfMatrix::from_csr(&a);
            let scan: std::collections::HashSet<u32> = a.col_idx().iter().copied().collect();
            assert_eq!(m.distinct_cols(), scan.len(), "seed {seed}");
        }
        assert_eq!(MeTcfMatrix::from_csr(&sample()).distinct_cols(), 5);
    }

    #[test]
    fn csr_arrays_match_the_source_arrays_without_sorting() {
        for (rows, cols, nnz, seed) in
            [(33, 40, 7, 0u64), (100, 64, 900, 3), (16, 16, 0, 4), (50, 300, 1200, 9)]
        {
            let a = if nnz == 0 {
                CsrMatrix::from_triplets(rows, cols, &[]).unwrap()
            } else {
                crate::gen::uniform(rows, cols, nnz, seed)
            };
            let m = MeTcfMatrix::from_csr(&a);
            let (row_ptr, col_idx, values) = m.csr_arrays();
            assert_eq!(row_ptr, a.row_ptr());
            assert_eq!(col_idx, a.col_idx());
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&values), bits(a.values()));
        }
    }

    #[test]
    fn zero_nnz_roundtrip() {
        // No stored entries at all: every window is empty, tc arrays are
        // empty, and the round-trip must reproduce the shape.
        for (rows, cols) in [(1, 1), (16, 8), (33, 7), (161, 129)] {
            let a = CsrMatrix::from_triplets(rows, cols, &[]).unwrap();
            let m = MeTcfMatrix::from_csr(&a);
            assert_eq!(m.num_tc_blocks(), 0);
            assert_eq!(m.nnz(), 0);
            assert_eq!(m.num_windows(), rows.div_ceil(WINDOW_HEIGHT));
            assert_eq!(m.to_csr().unwrap(), a);
        }
    }

    #[test]
    fn from_raw_parts_accepts_empty_offset_arrays() {
        // The zero-block degenerate encodings: empty offset vectors stand
        // in for the canonical `[0]` and previously underflowed the block
        // count. A 0-row matrix has zero windows, so `row_window_offset`
        // may itself be empty.
        let m = MeTcfMatrix::from_raw_parts(0, 5, vec![], vec![], vec![], vec![], vec![]);
        assert_eq!(m.num_windows(), 0);
        assert_eq!(m.num_tc_blocks(), 0);
        let m = MeTcfMatrix::from_raw_parts(12, 5, vec![0, 0], vec![], vec![], vec![], vec![]);
        assert_eq!(m.num_windows(), 1);
        assert_eq!(m.num_tc_blocks(), 0);
        assert_eq!(m.to_csr().unwrap(), CsrMatrix::from_triplets(12, 5, &[]).unwrap());
    }

    #[test]
    fn all_empty_windows_except_one_roundtrip() {
        // Entries confined to one interior window; the empty windows before
        // and after must carry zero blocks through conversion and back.
        let a = CsrMatrix::from_triplets(80, 20, &[(35, 3, 1.5), (38, 19, -2.0)]).unwrap();
        let m = MeTcfMatrix::from_csr(&a);
        assert_eq!(m.num_windows(), 5);
        assert_eq!(m.window_block_counts(), vec![0, 0, 1, 0, 0]);
        assert_eq!(m.to_csr().unwrap(), a);
    }

    #[test]
    fn matches_condensed_block_count() {
        let a = sample();
        let c = Condensed::from_csr(&a);
        let m = MeTcfMatrix::from_condensed(&c);
        assert_eq!(m.num_tc_blocks(), c.num_tc_blocks());
        assert_eq!(m.mean_nnz_tc(), c.mean_nnz_tc());
        assert_eq!(m.window_block_counts(), c.window_block_counts());
    }

    #[test]
    fn index_elements_formula() {
        let m = MeTcfMatrix::from_csr(&sample());
        let expect = 33u64.div_ceil(16) + 9 * m.num_tc_blocks() as u64 + 7 / 4 + 2;
        assert_eq!(m.index_elements(), expect);
    }

    #[test]
    fn metcf_cheaper_than_tcf() {
        use crate::TcfMatrix;
        // A larger random-ish matrix: ME-TCF must beat TCF on index memory.
        let t: Vec<(usize, usize, f32)> =
            (0..2000).map(|i| ((i * 7) % 300, (i * 13) % 300, 1.0)).collect();
        let a = CsrMatrix::from_triplets(300, 300, &t).unwrap();
        let me = MeTcfMatrix::from_csr(&a);
        let tcf = TcfMatrix::from_csr(&a).unwrap();
        assert!(me.index_elements() < tcf.index_elements());
    }

    #[test]
    fn block_cols_strip_padding() {
        let a = CsrMatrix::from_triplets(16, 100, &[(0, 10, 1.0), (2, 50, 2.0)]).unwrap();
        let m = MeTcfMatrix::from_csr(&a);
        assert_eq!(m.block_cols(0), &[10, 50]);
    }

    #[test]
    fn local_ids_are_within_block_bounds() {
        let m = MeTcfMatrix::from_csr(&sample());
        for &id in m.tc_local_id() {
            assert!(id < 128);
        }
    }
}
