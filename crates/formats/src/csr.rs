use crate::{CooMatrix, DenseMatrix, FormatError};
use dtc_par::hash::fnv1a_slice;
use std::fmt;
use std::sync::OnceLock;

/// A sparse matrix in Compressed Sparse Row (CSR) format.
///
/// CSR is the reference format of the workspace: cuSPARSE's SpMM consumes
/// it directly, every other format converts from it, and
/// [`CsrMatrix::spmm_reference`] is the ground-truth SpMM every kernel is
/// checked against.
///
/// Memory complexity (in 32-bit elements, values excluded, as the paper
/// counts in Observation 1): `M + 1 + NNZ`.
///
/// A matrix never changes after it is constructed: its fields are private
/// and no method takes `&mut self`. So the three identity checksums the
/// caches key on ([`CsrMatrix::checksums`]) are computed on first use and
/// memoised inside the value; every later key of the same matrix, or of a
/// clone of it, is a load. Replacing a matrix (`*m = other`, also through
/// `Arc::make_mut`) replaces the memo with the arrays. Equality and the
/// `Debug` form ignore the memo.
///
/// # Example
///
/// ```
/// use dtc_formats::{CsrMatrix, DenseMatrix};
///
/// # fn main() -> Result<(), dtc_formats::FormatError> {
/// let a = CsrMatrix::from_triplets(2, 3, &[(0, 1, 2.0), (1, 0, 1.0), (1, 2, 4.0)])?;
/// let b = DenseMatrix::ones(3, 2);
/// let c = a.spmm_reference(&b)?;
/// assert_eq!(c.get(0, 0), 2.0);
/// assert_eq!(c.get(1, 1), 5.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
    checksums: OnceLock<[u64; 3]>,
}

impl PartialEq for CsrMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.row_ptr == other.row_ptr
            && self.col_idx == other.col_idx
            && self.values == other.values
    }
}

impl fmt::Debug for CsrMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CsrMatrix")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("row_ptr", &self.row_ptr)
            .field("col_idx", &self.col_idx)
            .field("values", &self.values)
            .finish()
    }
}

impl CsrMatrix {
    /// FNV-1a seeds of the three identity checksums, in array order
    /// (`row_ptr`, `col_idx`, `values`). Distinct offset bases decorrelate
    /// the three streams, which share the FNV prime.
    const CHECKSUM_SEEDS: [u64; 3] =
        [0x6c62_272e_07bb_0142, 0xdead_beef_cafe_f00d, 0x0123_4567_89ab_cdef];

    /// The three identity checksums of CSR arrays: [`fnv1a_slice`] under
    /// `CHECKSUM_SEEDS` over each `row_ptr` entry and column index
    /// widened to `u64` and each value's bit pattern. Digests are
    /// independent of `DTC_THREADS`. [`CsrMatrix::checksums`] memoises
    /// this for a constructed matrix.
    fn array_checksums(row_ptr: &[usize], col_idx: &[u32], values: &[f32]) -> [u64; 3] {
        let [row_seed, col_seed, value_seed] = Self::CHECKSUM_SEEDS;
        [
            fnv1a_slice(row_seed, row_ptr, |&p| p as u64),
            fnv1a_slice(col_seed, col_idx, |&c| c as u64),
            fnv1a_slice(value_seed, values, |v| v.to_bits() as u64),
        ]
    }

    /// This matrix's identity checksums (`array_checksums` of its
    /// arrays), computed on the first call and read from the memo
    /// after it. Concurrent first calls agree: the digest is a pure
    /// function of the arrays.
    pub fn checksums(&self) -> [u64; 3] {
        *self
            .checksums
            .get_or_init(|| Self::array_checksums(&self.row_ptr, &self.col_idx, &self.values))
    }

    /// Builds a CSR matrix from raw arrays.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::MalformedRowPtr`] when `row_ptr` has the wrong
    /// length, is not monotone, or disagrees with `col_idx.len()`;
    /// [`FormatError::IndexOutOfBounds`] when a column index exceeds `cols`;
    /// and [`FormatError::DimensionMismatch`] when `values` and `col_idx`
    /// lengths differ. Column indices within each row must be strictly
    /// increasing (canonical CSR).
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Self, FormatError> {
        if row_ptr.len() != rows + 1 {
            return Err(FormatError::MalformedRowPtr(format!(
                "row_ptr length {} != rows + 1 = {}",
                row_ptr.len(),
                rows + 1
            )));
        }
        if row_ptr[0] != 0 {
            return Err(FormatError::MalformedRowPtr("row_ptr[0] != 0".into()));
        }
        if *row_ptr.last().unwrap() != col_idx.len() {
            return Err(FormatError::MalformedRowPtr(format!(
                "row_ptr[last] {} != nnz {}",
                row_ptr.last().unwrap(),
                col_idx.len()
            )));
        }
        if col_idx.len() != values.len() {
            return Err(FormatError::DimensionMismatch {
                op: "CsrMatrix::from_parts",
                lhs: (col_idx.len(), 1),
                rhs: (values.len(), 1),
            });
        }
        for w in row_ptr.windows(2) {
            if w[1] < w[0] {
                return Err(FormatError::MalformedRowPtr("row_ptr not monotone".into()));
            }
        }
        for r in 0..rows {
            let range = row_ptr[r]..row_ptr[r + 1];
            let mut prev: Option<u32> = None;
            for &c in &col_idx[range] {
                if c as usize >= cols {
                    return Err(FormatError::IndexOutOfBounds {
                        row: r,
                        col: c as usize,
                        rows,
                        cols,
                    });
                }
                if let Some(p) = prev {
                    if c <= p {
                        return Err(FormatError::MalformedRowPtr(format!(
                            "columns not strictly increasing in row {r}"
                        )));
                    }
                }
                prev = Some(c);
            }
        }
        Ok(CsrMatrix { rows, cols, row_ptr, col_idx, values, checksums: OnceLock::new() })
    }

    /// Builds a CSR matrix from `(row, col, value)` triplets (via COO).
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::IndexOutOfBounds`] for entries outside the shape.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f32)],
    ) -> Result<Self, FormatError> {
        Ok(CooMatrix::from_triplets(rows, cols, triplets)?.to_csr())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// The row-pointer array (`rows + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The column-index array (`nnz` entries).
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// The value array (`nnz` entries).
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Length (number of stored entries) of row `r`.
    #[inline]
    pub fn row_len(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// The `(columns, values)` of row `r`.
    #[inline]
    pub fn row_entries(&self, r: usize) -> (&[u32], &[f32]) {
        let range = self.row_ptr[r]..self.row_ptr[r + 1];
        (&self.col_idx[range.clone()], &self.values[range])
    }

    /// Iterator over `(row, col, value)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        (0..self.rows).flat_map(move |r| {
            let (cols, vals) = self.row_entries(r);
            cols.iter().zip(vals).map(move |(&c, &v)| (r, c as usize, v))
        })
    }

    /// Converts back to COO.
    pub fn to_coo(&self) -> CooMatrix {
        CooMatrix::from_triplets(self.rows, self.cols, &self.iter().collect::<Vec<_>>())
            .expect("CSR invariants guarantee valid COO")
    }

    /// Materializes densely. Intended for small test matrices.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            out.set(r, c, v);
        }
        out
    }

    /// Transposed copy (CSC of the original, expressed as CSR).
    pub fn transposed(&self) -> CsrMatrix {
        let triplets: Vec<(usize, usize, f32)> = self.iter().map(|(r, c, v)| (c, r, v)).collect();
        CsrMatrix::from_triplets(self.cols, self.rows, &triplets)
            .expect("transposed entries stay in bounds")
    }

    /// Extracts the contiguous row range `range` as its own CSR matrix
    /// (column count unchanged) — zero-copy-in-spirit: one pass over the
    /// range's entries.
    ///
    /// # Panics
    ///
    /// Panics if the range end exceeds the row count.
    pub fn sub_rows(&self, range: std::ops::Range<usize>) -> CsrMatrix {
        assert!(range.end <= self.rows, "row range out of bounds");
        let base = self.row_ptr[range.start];
        let row_ptr: Vec<usize> =
            self.row_ptr[range.start..=range.end].iter().map(|&p| p - base).collect();
        let col_idx = self.col_idx[base..self.row_ptr[range.end]].to_vec();
        let values = self.values[base..self.row_ptr[range.end]].to_vec();
        let rows = range.end - range.start;
        CsrMatrix { rows, cols: self.cols, row_ptr, col_idx, values, checksums: OnceLock::new() }
    }

    /// Applies a row permutation: row `r` of the result is row `perm[r]` of
    /// `self`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..rows`.
    pub fn permute_rows(&self, perm: &[usize]) -> CsrMatrix {
        assert_eq!(perm.len(), self.rows, "permutation length mismatch");
        let mut seen = vec![false; self.rows];
        for &p in perm {
            assert!(p < self.rows && !seen[p], "not a permutation");
            seen[p] = true;
        }
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_idx = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        row_ptr.push(0);
        for &src in perm {
            let (cols, vals) = self.row_entries(src);
            col_idx.extend_from_slice(cols);
            values.extend_from_slice(vals);
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
            checksums: OnceLock::new(),
        }
    }

    /// Ground-truth SpMM in full FP32: `C = A * B`.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::DimensionMismatch`] when `self.cols != b.rows`.
    pub fn spmm_reference(&self, b: &DenseMatrix) -> Result<DenseMatrix, FormatError> {
        if self.cols != b.rows() {
            return Err(FormatError::DimensionMismatch {
                op: "spmm",
                lhs: (self.rows, self.cols),
                rhs: (b.rows(), b.cols()),
            });
        }
        let n = b.cols();
        let mut c = DenseMatrix::zeros(self.rows, n);
        if n == 0 {
            return Ok(c);
        }
        // Row-parallel: each output row is owned by exactly one chunk and
        // accumulated in the serial entry order, so any thread count yields
        // bit-identical results (this is also the cuSPARSE/Sputnik row-split
        // decomposition the baselines model). Shard cut points follow the
        // per-row nnz so power-law rows don't pile onto one worker.
        let weights: Vec<u64> = (0..self.rows).map(|r| self.row_len(r) as u64).collect();
        dtc_par::par_chunks_mut_weighted(c.as_mut_slice(), n, &weights, |r, out| {
            let (cols, vals) = self.row_entries(r);
            for (&col, &val) in cols.iter().zip(vals) {
                let brow = b.row(col as usize);
                for (o, &bv) in out.iter_mut().zip(brow) {
                    *o += val * bv;
                }
            }
        });
        Ok(c)
    }

    /// Total floating point operations of one SpMM against an `N`-column
    /// dense matrix: `2 * N * NNZ` (the paper's definition, §3).
    pub fn spmm_flops(&self, n: usize) -> u64 {
        2 * n as u64 * self.nnz() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        CsrMatrix::from_triplets(
            4,
            4,
            &[(0, 0, 1.0), (0, 3, 2.0), (1, 1, 3.0), (3, 0, 4.0), (3, 2, 5.0)],
        )
        .unwrap()
    }

    #[test]
    fn shape_and_nnz() {
        let m = sample();
        assert_eq!((m.rows(), m.cols(), m.nnz()), (4, 4, 5));
        assert_eq!(m.row_len(0), 2);
        assert_eq!(m.row_len(2), 0);
    }

    #[test]
    fn from_parts_validation() {
        // wrong row_ptr length
        assert!(CsrMatrix::from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // non-monotone
        assert!(CsrMatrix::from_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]).is_err());
        // col out of bounds
        assert!(CsrMatrix::from_parts(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
        // duplicate column in row
        assert!(CsrMatrix::from_parts(1, 4, vec![0, 2], vec![1, 1], vec![1.0, 1.0]).is_err());
        // decreasing columns
        assert!(CsrMatrix::from_parts(1, 4, vec![0, 2], vec![2, 1], vec![1.0, 1.0]).is_err());
        // valid
        assert!(CsrMatrix::from_parts(1, 4, vec![0, 2], vec![1, 2], vec![1.0, 1.0]).is_ok());
    }

    #[test]
    fn spmm_matches_dense_matmul() {
        let m = sample();
        let b = DenseMatrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.5);
        let sparse = m.spmm_reference(&b).unwrap();
        let dense = m.to_dense().matmul(&b).unwrap();
        assert!(sparse.max_abs_diff(&dense) < 1e-6);
    }

    #[test]
    fn spmm_dim_mismatch() {
        let m = sample();
        assert!(m.spmm_reference(&DenseMatrix::zeros(5, 2)).is_err());
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn permute_rows_identity_and_reverse() {
        let m = sample();
        let id: Vec<usize> = (0..4).collect();
        assert_eq!(m.permute_rows(&id), m);
        let rev: Vec<usize> = (0..4).rev().collect();
        let p = m.permute_rows(&rev);
        assert_eq!(p.row_entries(0), m.row_entries(3));
        assert_eq!(p.nnz(), m.nnz());
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn permute_rows_rejects_duplicates() {
        sample().permute_rows(&[0, 0, 1, 2]);
    }

    #[test]
    fn sub_rows_extracts_correctly() {
        let m = sample();
        let sub = m.sub_rows(1..4);
        assert_eq!(sub.rows(), 3);
        assert_eq!(sub.cols(), m.cols());
        assert_eq!(sub.row_entries(0), m.row_entries(1));
        assert_eq!(sub.row_entries(2), m.row_entries(3));
        // Degenerate: empty range.
        assert_eq!(m.sub_rows(2..2).rows(), 0);
        // Whole matrix.
        assert_eq!(m.sub_rows(0..4), m);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn sub_rows_rejects_overrun() {
        sample().sub_rows(2..5);
    }

    #[test]
    fn coo_roundtrip() {
        let m = sample();
        assert_eq!(m.to_coo().to_csr(), m);
    }

    #[test]
    fn memo_takes_no_part_in_equality_or_debug() {
        let keyed = CsrMatrix::from_parts(2, 3, vec![0, 1, 1], vec![2], vec![1.5]).unwrap();
        let unkeyed = keyed.clone();
        let sums = keyed.checksums();
        assert_eq!(sums, CsrMatrix::array_checksums(&[0, 1, 1], &[2], &[1.5]));
        assert_eq!(keyed, unkeyed);
        let printed =
            "CsrMatrix { rows: 2, cols: 3, row_ptr: [0, 1, 1], col_idx: [2], values: [1.5] }";
        assert_eq!(format!("{keyed:?}"), printed);
        assert_eq!(format!("{unkeyed:?}"), printed);
        assert_eq!(unkeyed.checksums(), sums);
    }

    #[test]
    fn derived_matrices_key_their_own_arrays() {
        let m = sample();
        m.checksums();
        let rev: Vec<usize> = (0..4).rev().collect();
        for d in [m.permute_rows(&rev), m.sub_rows(1..4), m.transposed()] {
            assert_eq!(
                d.checksums(),
                CsrMatrix::array_checksums(d.row_ptr(), d.col_idx(), d.values())
            );
        }
    }

    #[test]
    fn flops_formula() {
        assert_eq!(sample().spmm_flops(128), 2 * 128 * 5);
    }
}
