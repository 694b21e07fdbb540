//! Column bitmaps for the exact set arithmetic of TCA reordering.
//!
//! Exact Jaccard scoring and TC-block counting both ask, column by column,
//! "has this set already touched that column?". A bitmap with one bit per
//! matrix column answers in O(1). Each parallel chunk of work leases one
//! bitmap from its worker's scratch arena and zeroes it once (`cols / 64`
//! words); the chunk's items set bits and clear exactly the words they
//! touched, so the bitmap is all-zero again between items. Chunks are cut
//! so that each carries at least as much work as zeroing its bitmap costs,
//! which keeps the total zeroing O(work) even on hypersparse matrices with
//! far more columns than non-zeros.

use std::ops::Range;

/// Upper bound on chunks per worker thread: the stealing granularity when
/// the work dwarfs the bitmap.
const CHUNKS_PER_THREAD: u64 = 8;

/// Runs `f(items, bitmap)` over contiguous chunks of `0..n` in parallel and
/// returns the results in chunk order.
///
/// `work(i)` estimates item `i`'s cost in columns visited. Every chunk but
/// the last carries at least `max(bitmap words, total / (8 * threads))` of
/// it. `bitmap` covers `cols` columns, arrives all-zero, and `f` must hand
/// it back all-zero. Chunk boundaries depend on the thread count, so a
/// caller's results must not depend on them.
pub(crate) fn par_marked_chunks<R, F>(
    n: usize,
    cols: usize,
    work: impl Fn(usize) -> u64,
    f: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>, &mut [u64]) -> R + Sync,
{
    let words = cols.div_ceil(64);
    let total: u64 = (0..n).map(&work).sum();
    let threads = dtc_par::num_threads() as u64;
    let target = (words as u64).max(total / (threads * CHUNKS_PER_THREAD)).max(1);
    let mut chunks: Vec<Range<usize>> = Vec::new();
    let mut weights: Vec<u64> = Vec::new();
    let (mut start, mut acc) = (0usize, 0u64);
    for i in 0..n {
        acc += work(i);
        if acc >= target {
            chunks.push(start..i + 1);
            weights.push(acc);
            (start, acc) = (i + 1, 0);
        }
    }
    if start < n {
        chunks.push(start..n);
        weights.push(acc);
    }
    let plan = dtc_par::ShardPlan::weighted(dtc_par::num_threads(), &weights);
    dtc_par::par_map_collect_plan(&plan, |c, scratch| {
        let mut bits = scratch.u64_buf();
        bits.resize(words, 0);
        let out = f(chunks[c].clone(), &mut bits);
        debug_assert!(bits.iter().all(|&w| w == 0), "bitmap handed back dirty");
        scratch.recycle_u64(bits);
        out
    })
}

/// Sets column `c`'s bit; returns 1 if it was clear, else 0.
#[inline]
pub(crate) fn mark(bits: &mut [u64], c: u32) -> usize {
    let (word, bit) = (c as usize / 64, c % 64);
    let old = bits[word];
    bits[word] = old | 1 << bit;
    ((!old >> bit) & 1) as usize
}

/// 1 if column `c`'s bit is set, else 0.
#[inline]
pub(crate) fn is_marked(bits: &[u64], c: u32) -> usize {
    ((bits[c as usize / 64] >> (c % 64)) & 1) as usize
}

/// Clears every word holding one of `cols` (after marking exactly those
/// columns, this returns the bitmap to all-zero).
#[inline]
pub(crate) fn clear(bits: &mut [u64], cols: &[u32]) {
    for &c in cols {
        bits[c as usize / 64] = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_counts_first_touches_and_clear_resets() {
        let mut bits = vec![0u64; 3];
        let cols = [0u32, 63, 64, 130, 63];
        let fresh: usize = cols.iter().map(|&c| mark(&mut bits, c)).sum();
        assert_eq!(fresh, 4);
        assert_eq!(is_marked(&bits, 130), 1);
        assert_eq!(is_marked(&bits, 129), 0);
        clear(&mut bits, &cols);
        assert!(bits.iter().all(|&w| w == 0));
    }

    #[test]
    fn chunks_cover_items_in_order() {
        for cols in [1usize, 64, 1 << 20] {
            let ranges = par_marked_chunks(1000, cols, |i| (i % 7) as u64, |r, _| r);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next);
                next = r.end;
            }
            assert_eq!(next, 1000);
        }
        assert!(par_marked_chunks(0, 64, |_| 1, |r, _| r).is_empty());
    }

    #[test]
    fn chunk_work_covers_the_bitmap() {
        // 2^20 columns = 16384 words: 1000 items of work 100 make at most 7
        // chunks, each but the last carrying ≥ 16384 work.
        let ranges = par_marked_chunks(1000, 1 << 20, |_| 100, |r, _| r);
        assert!(ranges.len() <= 7, "{} chunks", ranges.len());
        for r in &ranges[..ranges.len() - 1] {
            assert!(r.len() * 100 >= 16384);
        }
    }
}
