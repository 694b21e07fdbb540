//! Incremental edits against an existing [`MeTcfMatrix`].
//!
//! A [`MatrixDelta`] is a batch of COO-level edits (insert / update /
//! delete of single entries). Applying it to an ME-TCF matrix re-condenses
//! **only the 16-row windows that contain an edited row** and splices the
//! freshly packed windows into the existing arrays, re-basing the offset
//! arrays locally. Because SGT condenses each window independently of
//! every other window, the patched matrix is bitwise identical to a full
//! rebuild from the edited CSR (`MeTcfMatrix::from_csr(&delta.apply_to_csr(a)?)`)
//! — the fuzz harness pins this for random edit scripts.
//!
//! The returned [`DeltaReport`] carries before/after non-zero and TC-block
//! counts per touched window.

use crate::{CsrMatrix, FormatError, MeTcfMatrix, WINDOW_HEIGHT};
use std::collections::BTreeMap;

/// One pending edit: set the entry to a value, or remove it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum DeltaOp {
    /// Insert the entry, or overwrite it if already present.
    Upsert(f32),
    /// Remove the entry (a no-op if it is absent).
    Delete,
}

/// A batch of COO-level edits to apply to a sparse matrix.
///
/// Edits are keyed by coordinate with **last-op-wins** semantics: queueing
/// a delete after an insert at the same `(row, col)` leaves a delete.
/// Iteration order (and therefore application) is deterministic.
///
/// # Example
///
/// ```
/// use dtc_formats::{CsrMatrix, MatrixDelta, MeTcfMatrix};
///
/// # fn main() -> Result<(), dtc_formats::FormatError> {
/// let a = CsrMatrix::from_triplets(32, 32, &[(0, 1, 1.0), (20, 3, 2.0)])?;
/// let mut m = MeTcfMatrix::from_csr(&a);
/// let mut delta = MatrixDelta::new();
/// delta.insert(0, 5, 9.0);
/// delta.delete(20, 3);
/// let report = m.apply_delta(&delta)?;
/// assert_eq!(report.touched_windows(), 2);
/// assert_eq!(m, MeTcfMatrix::from_csr(&delta.apply_to_csr(&a)?));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MatrixDelta {
    ops: BTreeMap<(usize, usize), DeltaOp>,
}

impl MatrixDelta {
    /// An empty edit batch.
    pub fn new() -> Self {
        MatrixDelta::default()
    }

    /// True when no edits are queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of distinct coordinates edited (after last-op-wins folding).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Queues an insert of `value` at `(row, col)`; overwrites the entry if
    /// it already exists (sparse matrices store no explicit zeros, so
    /// insert and update are the same upsert).
    pub fn insert(&mut self, row: usize, col: usize, value: f32) {
        self.ops.insert((row, col), DeltaOp::Upsert(value));
    }

    /// Queues an update of the entry at `(row, col)` to `value`. Alias of
    /// [`MatrixDelta::insert`]: updating an absent coordinate inserts it.
    pub fn update(&mut self, row: usize, col: usize, value: f32) {
        self.insert(row, col, value);
    }

    /// Queues a delete of the entry at `(row, col)`; a no-op at apply time
    /// if the entry is absent.
    pub fn delete(&mut self, row: usize, col: usize) {
        self.ops.insert((row, col), DeltaOp::Delete);
    }

    /// Iterates the folded edits in coordinate order as `(row, col, op)`,
    /// where `Some(value)` is an upsert and `None` a delete. Callers that
    /// need to re-express a delta in another row space (e.g. through a
    /// reordering permutation) rebuild one from this.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, Option<f32>)> + '_ {
        self.ops.iter().map(|(&(r, c), &op)| match op {
            DeltaOp::Upsert(v) => (r, c, Some(v)),
            DeltaOp::Delete => (r, c, None),
        })
    }

    /// The sorted, deduplicated indices of the 16-row windows containing at
    /// least one edited coordinate.
    pub fn touched_windows(&self) -> Vec<usize> {
        let mut ws: Vec<usize> = self.ops.keys().map(|&(r, _)| r / WINDOW_HEIGHT).collect();
        ws.dedup(); // BTreeMap keys are row-sorted, so duplicates are adjacent
        ws
    }

    /// Edits grouped by window index, in coordinate order within each
    /// window. Keys are absolute `(row, col)`.
    fn ops_by_window(&self) -> BTreeMap<usize, Vec<(usize, usize, DeltaOp)>> {
        let mut by_window: BTreeMap<usize, Vec<(usize, usize, DeltaOp)>> = BTreeMap::new();
        for (&(r, c), &op) in &self.ops {
            by_window.entry(r / WINDOW_HEIGHT).or_default().push((r, c, op));
        }
        by_window
    }

    /// Returns the first out-of-bounds coordinate as an error.
    fn check_bounds(&self, rows: usize, cols: usize) -> Result<(), FormatError> {
        for &(r, c) in self.ops.keys() {
            if r >= rows || c >= cols {
                return Err(FormatError::IndexOutOfBounds { row: r, col: c, rows, cols });
            }
        }
        Ok(())
    }

    /// Applies the batch to a CSR matrix, producing the edited matrix by a
    /// full rebuild (per-row sorted merge). This is the reference semantics
    /// that [`MeTcfMatrix::apply_delta`] must match bitwise, and the
    /// "rebuild from scratch" arm of the streaming benchmark.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::IndexOutOfBounds`] when an edit lies outside
    /// `a`'s shape.
    pub fn apply_to_csr(&self, a: &CsrMatrix) -> Result<CsrMatrix, FormatError> {
        self.check_bounds(a.rows(), a.cols())?;
        let mut by_row: BTreeMap<usize, Vec<(usize, DeltaOp)>> = BTreeMap::new();
        for (&(r, c), &op) in &self.ops {
            by_row.entry(r).or_default().push((c, op));
        }
        let mut row_ptr = Vec::with_capacity(a.rows() + 1);
        let mut col_idx = Vec::with_capacity(a.nnz() + self.len());
        let mut values = Vec::with_capacity(a.nnz() + self.len());
        row_ptr.push(0usize);
        for r in 0..a.rows() {
            let (cols, vals) = a.row_entries(r);
            match by_row.get(&r) {
                None => {
                    col_idx.extend_from_slice(cols);
                    values.extend_from_slice(vals);
                }
                Some(edits) => {
                    // Sorted two-pointer merge of the existing row with its
                    // (column-sorted) edits; an edit at an existing column
                    // replaces or deletes it.
                    let mut e = edits.iter().peekable();
                    for (&c, &v) in cols.iter().zip(vals) {
                        while let Some(&&(ec, eop)) = e.peek() {
                            if ec >= c as usize {
                                break;
                            }
                            e.next();
                            if let DeltaOp::Upsert(ev) = eop {
                                col_idx.push(ec as u32);
                                values.push(ev);
                            }
                        }
                        match e.peek() {
                            Some(&&(ec, eop)) if ec == c as usize => {
                                e.next();
                                if let DeltaOp::Upsert(ev) = eop {
                                    col_idx.push(c);
                                    values.push(ev);
                                }
                            }
                            _ => {
                                col_idx.push(c);
                                values.push(v);
                            }
                        }
                    }
                    for &(ec, eop) in e {
                        if let DeltaOp::Upsert(ev) = eop {
                            col_idx.push(ec as u32);
                            values.push(ev);
                        }
                    }
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix::from_parts(a.rows(), a.cols(), row_ptr, col_idx, values)
    }
}

/// Before/after shape of one window touched by a delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowDeltaStat {
    /// Index of the 16-row window.
    pub window: usize,
    /// Stored non-zeros in the window before the edit.
    pub nnz_before: usize,
    /// Stored non-zeros in the window after the edit.
    pub nnz_after: usize,
    /// TC blocks in the window before the edit.
    pub blocks_before: usize,
    /// TC blocks in the window after the edit.
    pub blocks_after: usize,
}

/// What an [`MeTcfMatrix::apply_delta`] call changed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeltaReport {
    /// Per-window before/after stats, one entry per touched window, in
    /// window order.
    pub windows: Vec<WindowDeltaStat>,
    /// Whole-matrix non-zero count before the edit.
    pub nnz_before: usize,
    /// Whole-matrix non-zero count after the edit.
    pub nnz_after: usize,
    /// Whole-matrix TC-block count before the edit.
    pub blocks_before: usize,
    /// Whole-matrix TC-block count after the edit.
    pub blocks_after: usize,
}

impl DeltaReport {
    /// Number of windows the delta re-condensed.
    pub fn touched_windows(&self) -> usize {
        self.windows.len()
    }
}

impl MeTcfMatrix {
    /// The `(row, col, value)` triplets of window `w`, with rows local to
    /// the window.
    fn window_triplets(&self, w: usize) -> Vec<(usize, usize, f32)> {
        let blocks = self.window_blocks(w);
        let window_nnz = (self.tc_offset()[blocks.end] - self.tc_offset()[blocks.start]) as usize;
        let mut triplets = Vec::with_capacity(window_nnz);
        for t in blocks {
            let cols = self.block_cols(t);
            let (ids, vals) = self.block_entries(t);
            for (&id, &v) in ids.iter().zip(vals) {
                let local_row = (id / crate::BLOCK_WIDTH as u8) as usize;
                let local_col = (id % crate::BLOCK_WIDTH as u8) as usize;
                triplets.push((local_row, cols[local_col] as usize, v));
            }
        }
        triplets
    }

    /// Applies a batch of edits in place, re-condensing only the touched
    /// 16-row windows and splicing them into the packed arrays (offsets
    /// re-based locally). Untouched windows are copied verbatim, so the
    /// result is **bitwise identical** to rebuilding from the edited CSR.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::IndexOutOfBounds`] when an edit lies outside
    /// the matrix shape, and [`FormatError::IndexOverflow`] if the edited
    /// matrix would exceed the format's `u32` offset range. The matrix is
    /// unchanged on error.
    pub fn apply_delta(&mut self, delta: &MatrixDelta) -> Result<DeltaReport, FormatError> {
        delta.check_bounds(self.rows(), self.cols())?;
        let mut report = DeltaReport {
            windows: Vec::new(),
            nnz_before: self.nnz(),
            nnz_after: self.nnz(),
            blocks_before: self.num_tc_blocks(),
            blocks_after: self.num_tc_blocks(),
        };
        if delta.is_empty() {
            return Ok(report);
        }

        // Re-condense each touched window through the same per-window SGT
        // path a full conversion uses: condensing is a pure function of a
        // window's triplets, so the sub-result is that window's exact slice
        // of a full rebuild.
        let mut patched: BTreeMap<usize, MeTcfMatrix> = BTreeMap::new();
        for (w, ops) in delta.ops_by_window() {
            let base_row = w * WINDOW_HEIGHT;
            let window_rows = WINDOW_HEIGHT.min(self.rows() - base_row);
            let mut entries: BTreeMap<(usize, usize), f32> =
                self.window_triplets(w).into_iter().map(|(r, c, v)| ((r, c), v)).collect();
            for (row, col, op) in ops {
                match op {
                    DeltaOp::Upsert(v) => {
                        entries.insert((row - base_row, col), v);
                    }
                    DeltaOp::Delete => {
                        entries.remove(&(row - base_row, col));
                    }
                }
            }
            let triplets: Vec<(usize, usize, f32)> =
                entries.into_iter().map(|((r, c), v)| (r, c, v)).collect();
            let sub = CsrMatrix::from_triplets(window_rows, self.cols(), &triplets)
                .expect("window triplets stay in bounds");
            patched.insert(w, MeTcfMatrix::from_csr(&sub));
        }

        // Both totals are checked up front: offsets are monotone, so every
        // spliced offset is bounded by its array's final total.
        let (mut new_nnz, mut new_blocks) = (self.nnz() as i64, self.num_tc_blocks() as i64);
        for (&w, sub) in &patched {
            let blocks = self.window_blocks(w);
            let before = self.tc_offset()[blocks.end] - self.tc_offset()[blocks.start];
            new_nnz += sub.nnz() as i64 - i64::from(before);
            new_blocks += sub.num_tc_blocks() as i64 - blocks.len() as i64;
        }
        let (new_nnz, new_blocks) = (new_nnz as usize, new_blocks as usize);
        u32::try_from(new_nnz)
            .map_err(|_| FormatError::IndexOverflow { what: "nnz", count: new_nnz })?;
        u32::try_from(new_blocks)
            .map_err(|_| FormatError::IndexOverflow { what: "tc blocks", count: new_blocks })?;

        // One splice pass over the windows: untouched windows copy their
        // array slices with offsets re-based; touched windows take the
        // freshly packed single-window arrays.
        let mut row_window_offset: Vec<u32> = Vec::with_capacity(self.num_windows() + 1);
        let mut tc_offset: Vec<u32> = Vec::with_capacity(new_blocks + 1);
        let mut tc_local_id: Vec<u8> = Vec::with_capacity(new_nnz);
        let mut sparse_a_to_b: Vec<u32> = Vec::with_capacity(new_blocks * crate::BLOCK_WIDTH);
        let mut values: Vec<f32> = Vec::with_capacity(new_nnz);
        row_window_offset.push(0);
        tc_offset.push(0);
        for w in 0..self.num_windows() {
            let blocks = self.window_blocks(w);
            // Where this window's entries start in the spliced arrays.
            let base = tc_local_id.len() as u32;
            match patched.get(&w) {
                Some(sub) => {
                    report.windows.push(WindowDeltaStat {
                        window: w,
                        nnz_before: (self.tc_offset()[blocks.end] - self.tc_offset()[blocks.start])
                            as usize,
                        nnz_after: sub.nnz(),
                        blocks_before: blocks.len(),
                        blocks_after: sub.num_tc_blocks(),
                    });
                    tc_offset.extend(sub.tc_offset()[1..].iter().map(|&o| o + base));
                    tc_local_id.extend_from_slice(sub.tc_local_id());
                    values.extend_from_slice(sub.values());
                    sparse_a_to_b.extend_from_slice(sub.sparse_a_to_b());
                }
                None => {
                    let from = self.tc_offset()[blocks.start];
                    let old = from as usize..self.tc_offset()[blocks.end] as usize;
                    tc_offset.extend(
                        self.tc_offset()[blocks.start + 1..=blocks.end]
                            .iter()
                            .map(|&o| o - from + base),
                    );
                    tc_local_id.extend_from_slice(&self.tc_local_id()[old.clone()]);
                    values.extend_from_slice(&self.values()[old]);
                    sparse_a_to_b.extend_from_slice(
                        &self.sparse_a_to_b()
                            [blocks.start * crate::BLOCK_WIDTH..blocks.end * crate::BLOCK_WIDTH],
                    );
                }
            }
            debug_assert_eq!(*tc_offset.last().unwrap() as usize, tc_local_id.len());
            row_window_offset.push((tc_offset.len() - 1) as u32);
        }
        report.nnz_after = tc_local_id.len();
        report.blocks_after = tc_offset.len() - 1;
        *self = MeTcfMatrix::from_raw_parts(
            self.rows(),
            self.cols(),
            row_window_offset,
            tc_offset,
            tc_local_id,
            sparse_a_to_b,
            values,
        );
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // 3 windows, entries spread unevenly, one empty window in front of
        // the last.
        CsrMatrix::from_triplets(
            40,
            64,
            &[
                (0, 1, 1.0),
                (0, 20, 2.0),
                (3, 1, 3.0),
                (7, 9, -1.5),
                (15, 63, 4.0),
                (33, 0, 7.0),
                (39, 12, -8.0),
            ],
        )
        .unwrap()
    }

    fn assert_matches_rebuild(a: &CsrMatrix, delta: &MatrixDelta) -> DeltaReport {
        let mut m = MeTcfMatrix::from_csr(a);
        let report = m.apply_delta(delta).unwrap();
        let rebuilt = MeTcfMatrix::from_csr(&delta.apply_to_csr(a).unwrap());
        assert_eq!(m, rebuilt, "patched ME-TCF must equal rebuild-from-scratch");
        assert_eq!(report.nnz_after, rebuilt.nnz());
        assert_eq!(report.blocks_after, rebuilt.num_tc_blocks());
        report
    }

    #[test]
    fn empty_delta_is_identity() {
        let a = sample();
        let mut m = MeTcfMatrix::from_csr(&a);
        let before = m.clone();
        let report = m.apply_delta(&MatrixDelta::new()).unwrap();
        assert_eq!(m, before);
        assert_eq!(report.touched_windows(), 0);
    }

    #[test]
    fn single_window_insert_update_delete() {
        let a = sample();
        let mut delta = MatrixDelta::new();
        delta.insert(1, 5, 10.0); // new entry
        delta.update(0, 20, -2.0); // overwrite existing
        delta.delete(3, 1); // remove existing
        delta.delete(2, 2); // absent: no-op
        let report = assert_matches_rebuild(&a, &delta);
        assert_eq!(report.touched_windows(), 1);
        assert_eq!(report.windows[0].window, 0);
        assert_eq!(report.nnz_after, report.nnz_before); // +1 insert, -1 delete
    }

    #[test]
    fn multi_window_script_matches_rebuild() {
        let a = sample();
        let mut delta = MatrixDelta::new();
        for i in 0..30 {
            let (r, c) = ((i * 13) % 40, (i * 29) % 64);
            if i % 3 == 0 {
                delta.delete(r, c);
            } else {
                delta.insert(r, c, i as f32 - 7.5);
            }
        }
        let report = assert_matches_rebuild(&a, &delta);
        assert!(report.touched_windows() >= 2);
    }

    #[test]
    fn insert_into_empty_window_and_empty_matrix() {
        // The empty third window (rows 32..40 hold rows 33/39 — so use a
        // truly empty one: delete everything first, then insert).
        let a = CsrMatrix::from_triplets(48, 16, &[(1, 1, 1.0)]).unwrap();
        let mut delta = MatrixDelta::new();
        delta.insert(40, 3, 5.0); // window 2 was empty
        assert_matches_rebuild(&a, &delta);

        let empty = CsrMatrix::from_triplets(20, 20, &[]).unwrap();
        let mut delta = MatrixDelta::new();
        delta.insert(17, 2, 1.0);
        assert_matches_rebuild(&empty, &delta);
    }

    #[test]
    fn delete_everything_in_a_window() {
        let a = sample();
        let mut delta = MatrixDelta::new();
        for (r, c, _) in a.iter().filter(|&(r, _, _)| r < WINDOW_HEIGHT) {
            delta.delete(r, c);
        }
        let report = assert_matches_rebuild(&a, &delta);
        assert_eq!(report.windows[0].nnz_after, 0);
        assert_eq!(report.windows[0].blocks_after, 0);
    }

    #[test]
    fn ragged_last_window() {
        // 40 rows: the last window has only 8 rows; edits there must use
        // the short window height.
        let a = sample();
        let mut delta = MatrixDelta::new();
        delta.insert(39, 63, 1.25);
        delta.delete(33, 0);
        let report = assert_matches_rebuild(&a, &delta);
        assert_eq!(report.windows[0].window, 2);
    }

    #[test]
    fn last_op_wins_per_coordinate() {
        let mut delta = MatrixDelta::new();
        delta.insert(0, 0, 1.0);
        delta.delete(0, 0);
        assert_eq!(delta.len(), 1);
        let a = CsrMatrix::from_triplets(16, 16, &[(0, 0, 9.0)]).unwrap();
        let edited = delta.apply_to_csr(&a).unwrap();
        assert_eq!(edited.nnz(), 0);
        assert_matches_rebuild(&a, &delta);

        delta.insert(0, 0, 2.0); // re-queue after the delete: upsert wins
        let edited = delta.apply_to_csr(&a).unwrap();
        assert_eq!(edited.nnz(), 1);
        assert_eq!(edited.values()[0], 2.0);
    }

    #[test]
    fn out_of_bounds_edit_is_rejected_and_matrix_unchanged() {
        let a = sample();
        let mut m = MeTcfMatrix::from_csr(&a);
        let before = m.clone();
        let mut delta = MatrixDelta::new();
        delta.insert(0, 0, 1.0);
        delta.insert(40, 0, 1.0); // row out of bounds
        let err = m.apply_delta(&delta).unwrap_err();
        assert!(matches!(err, FormatError::IndexOutOfBounds { row: 40, .. }));
        assert_eq!(m, before);
        assert!(delta.apply_to_csr(&a).is_err());
    }

    #[test]
    fn touched_windows_sorted_dedup() {
        let mut delta = MatrixDelta::new();
        delta.insert(35, 0, 1.0);
        delta.insert(0, 3, 1.0);
        delta.insert(2, 9, 1.0);
        delta.insert(34, 1, 1.0);
        assert_eq!(delta.touched_windows(), vec![0, 2]);
    }

    #[test]
    fn report_tracks_per_window_reshaping() {
        let a = sample();
        let mut small = MatrixDelta::new();
        small.update(0, 1, 5.0); // value-only change: same shape
        let r = assert_matches_rebuild(&a, &small);
        let w = r.windows[0];
        assert_eq!((w.nnz_before, w.blocks_before), (w.nnz_after, w.blocks_after));

        let mut big = MatrixDelta::new();
        for c in 0..40 {
            big.insert(4, c, 1.0); // one dense row: many new blocks
        }
        let r = assert_matches_rebuild(&a, &big);
        let w = r.windows[0];
        assert!(w.blocks_after > w.blocks_before + 2, "{w:?}");
        assert!(r.blocks_after > r.blocks_before);
    }
}
