//! TCU-Cache-Aware (TCA) reordering — Algorithm 1 of the paper — plus its
//! single-hierarchy ablations (`TCU-only`) and the LSH64 baseline from
//! Huang et al. \[23\].

use crate::jaccard::jaccard_from_counts;
use crate::{lsh_candidate_pairs, marker, LshParams, MinHasher, Reorderer};
use dtc_formats::{CsrMatrix, BLOCK_WIDTH, WINDOW_HEIGHT};
use std::cmp::Ordering;

/// A candidate pair with its similarity. The greatest pair is the most
/// similar one, ties going to the smaller `(i, j)`. Scores are finite and
/// at least `+0.0`, so `total_cmp` orders them as `<` does.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ScoredPair {
    score: f64,
    i: usize,
    j: usize,
}

impl Eq for ScoredPair {}

impl Ord for ScoredPair {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.i.cmp(&self.i))
            .then_with(|| other.j.cmp(&self.j))
    }
}

impl PartialOrd for ScoredPair {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Greedy similarity-driven agglomeration (the body of both hierarchies of
/// Algorithm 1): take the pairs most similar first, merge their clusters,
/// and retire clusters reaching `size_cap` from further merging. Returns
/// the clusters as member lists (members keep their relative input order).
///
/// Algorithm 1 pops a priority queue; nothing is pushed while merging and
/// `ScoredPair`'s order is total, so one descending sort yields the same
/// sequence.
fn agglomerate(
    num_items: usize,
    item_weight: impl Fn(usize) -> usize,
    scored_pairs: Vec<ScoredPair>,
    size_cap: usize,
) -> Vec<Vec<usize>> {
    // Union-find with member lists and retirement flags.
    let mut parent: Vec<usize> = (0..num_items).collect();
    let mut members: Vec<Vec<usize>> = (0..num_items).map(|i| vec![i]).collect();
    let mut weight: Vec<usize> = (0..num_items).map(&item_weight).collect();
    let mut retired: Vec<bool> = (0..num_items).map(|i| weight[i] >= size_cap).collect();

    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }

    let mut queue = scored_pairs;
    queue.sort_unstable_by(|x, y| y.cmp(x));
    for ScoredPair { i, j, .. } in queue {
        let ri = find(&mut parent, i);
        let rj = find(&mut parent, j);
        if ri == rj || retired[ri] || retired[rj] {
            continue;
        }
        // Merge the smaller member list into the larger.
        let (dst, src) = if members[ri].len() >= members[rj].len() { (ri, rj) } else { (rj, ri) };
        let moved = std::mem::take(&mut members[src]);
        members[dst].extend(moved);
        weight[dst] += weight[src];
        parent[src] = dst;
        if weight[dst] >= size_cap {
            retired[dst] = true; // Algorithm 1 lines 9-13: cap reached.
        }
    }

    let mut clusters: Vec<Vec<usize>> = Vec::new();
    for i in 0..num_items {
        if parent[i] == i && !members[i].is_empty() {
            let mut m = std::mem::take(&mut members[i]);
            m.sort_unstable(); // keep input order within a cluster
            clusters.push(m);
        }
    }
    // Deterministic cluster order: by smallest member.
    clusters.sort_unstable_by_key(|c| c[0]);
    clusters
}

/// The paper's TCU-Cache-Aware reorderer (Algorithm 1).
///
/// Hierarchy I groups Jaccard-similar rows into clusters capped at
/// `block_height` (= 16, one TC row window). Hierarchy II regroups those
/// clusters — compared by the deduplicated column sets of their member rows
/// — into clusters-of-clusters capped at `sm_num`, so that concurrently
/// scheduled row windows touch overlapping B rows and hit in L2.
#[derive(Debug, Clone)]
pub struct TcaReorderer {
    /// Hierarchy-I cluster cap (`BLOCK_HEIGHT`, default 16).
    pub block_height: usize,
    /// Hierarchy-II cluster cap (`SM_NUM`, default 128 = RTX4090).
    pub sm_num: usize,
    /// MinHash signature length.
    pub minhash_k: usize,
    /// LSH banding parameters.
    pub lsh: LshParams,
    /// Minimum exact Jaccard similarity for a candidate pair to enter the
    /// merge queue — merging weakly similar rows pulls them out of
    /// already-good windows and *lowers* density.
    pub min_similarity: f64,
    /// No-regression guard (an extension over the paper, which reorders
    /// unconditionally): if the reordering does not reduce the TC block
    /// count, keep the original order. Costs two passes over the non-zeros
    /// that count distinct columns per 16-row window.
    pub keep_if_no_gain: bool,
    /// Seed for the hash family.
    pub seed: u64,
}

impl Default for TcaReorderer {
    fn default() -> Self {
        TcaReorderer {
            block_height: 16,
            sm_num: 128,
            minhash_k: 32,
            lsh: LshParams::default(),
            min_similarity: 0.15,
            keep_if_no_gain: true,
            seed: 0x7c5a,
        }
    }
}

impl TcaReorderer {
    /// Runs only Hierarchy I and returns the row clusters (used by the
    /// ablation and by Hierarchy II).
    pub fn hierarchy_one(&self, a: &CsrMatrix) -> Vec<Vec<usize>> {
        let hasher = MinHasher::new(self.minhash_k, self.seed);
        // Per-row MinHash signatures and per-candidate exact Jaccard scores
        // are pure functions of their row(s); both passes fan out over
        // threads with slot-indexed collection, so the scored-pair list
        // (and hence the merge order) is identical to a serial pass at any
        // thread count and under any steal schedule. Shards are cut at nnz
        // quantiles: hashing/scoring cost tracks row length, and power-law
        // inputs are exactly where reordering matters.
        let row_weights: Vec<u64> =
            (0..a.rows()).map(|r| a.row_entries(r).0.len() as u64).collect();
        let signatures: Vec<Vec<u64>> = dtc_par::par_map_collect_weighted(&row_weights, |r| {
            hasher.signature(a.row_entries(r).0)
        });
        let candidates = lsh_candidate_pairs(&hasher, &signatures, &self.lsh);
        let scored = scored_pairs(
            &candidates,
            |r| a.row_entries(r).0,
            a.cols(),
            |score| score >= self.min_similarity,
        );
        agglomerate(a.rows(), |_| 1, scored, self.block_height)
    }

    /// Runs Hierarchy II over given row clusters and returns the clusters
    /// grouped into clusters-of-clusters.
    /// Per §4.3: "we deduplicate the column indices of all nonzero
    /// elements within a row cluster and calculate the Jaccard similarity
    /// between row clusters with these indices" — candidates come from LSH
    /// over union MinHash signatures, scores are *exact* Jaccard on the
    /// deduplicated column sets.
    pub fn hierarchy_two(&self, a: &CsrMatrix, clusters: &[Vec<usize>]) -> Vec<Vec<usize>> {
        let hasher = MinHasher::new(self.minhash_k, self.seed.wrapping_add(1));
        // Deduplicated column set per cluster (sorted) + its signature,
        // built per-cluster in parallel (each task reads only its own
        // cluster's rows). Clusters are weighted by their member nnz, and
        // the dedup staging buffer is leased from the worker's arena — the
        // only allocation a task keeps is the exact-size column set it
        // returns.
        let cluster_weights: Vec<u64> = clusters
            .iter()
            .map(|c| c.iter().map(|&r| a.row_entries(r).0.len() as u64).sum())
            .collect();
        let plan = dtc_par::ShardPlan::weighted(dtc_par::num_threads(), &cluster_weights);
        let per_cluster: Vec<(Vec<u32>, Vec<u64>)> =
            dtc_par::par_map_collect_plan(&plan, |ci, scratch| {
                let mut stage = scratch.u32_buf();
                for &r in &clusters[ci] {
                    stage.extend_from_slice(a.row_entries(r).0);
                }
                stage.sort_unstable();
                stage.dedup();
                let cols: Vec<u32> = stage.as_slice().to_vec();
                scratch.recycle_u32(stage);
                let sig = hasher.signature(&cols);
                (cols, sig)
            });
        let mut cluster_cols: Vec<Vec<u32>> = Vec::with_capacity(clusters.len());
        let mut cluster_sigs: Vec<Vec<u64>> = Vec::with_capacity(clusters.len());
        for (cols, sig) in per_cluster {
            cluster_cols.push(cols);
            cluster_sigs.push(sig);
        }
        // Single-component bands: cluster column sets overlap weakly with
        // the small straggler clusters of their community, so candidate
        // recall matters more than precision here (exact Jaccard scoring
        // filters the noise).
        let h2_lsh = LshParams {
            bands: self.minhash_k,
            rows_per_band: 1,
            max_bucket_pairs: self.lsh.max_bucket_pairs,
        };
        let candidates = lsh_candidate_pairs(&hasher, &cluster_sigs, &h2_lsh);
        let scored =
            scored_pairs(&candidates, |c| &cluster_cols[c], a.cols(), |score| score > 0.02);
        // Weight = number of row clusters per CC, capped at sm_num.
        agglomerate(clusters.len(), |_| 1, scored, self.sm_num)
    }
}

/// Exact Jaccard score of every candidate pair, keeping the pairs whose
/// score `keep` accepts, in candidate order.
///
/// `candidates` is sorted by `(i, j)` (as [`lsh_candidate_pairs`] returns
/// it), so the pairs sharing an `i` are contiguous: `set(i)` is marked in a
/// column bitmap once, each `set(j)` counts its marked columns, and `set(i)`
/// is cleared before the next `i`. The intersection and union are the same
/// integers a sorted merge counts, so every score has the same bits.
fn scored_pairs<'a>(
    candidates: &[(usize, usize)],
    set: impl Fn(usize) -> &'a [u32] + Sync,
    cols: usize,
    keep: impl Fn(f64) -> bool,
) -> Vec<ScoredPair> {
    let pair_work = |k: usize| {
        let (i, j) = candidates[k];
        (set(i).len() + set(j).len()) as u64
    };
    let scores = marker::par_marked_chunks(candidates.len(), cols, pair_work, |range, bits| {
        let mut scores = Vec::with_capacity(range.len());
        let mut marked: Option<usize> = None;
        for &(i, j) in &candidates[range] {
            if marked != Some(i) {
                if let Some(prev) = marked {
                    marker::clear(bits, set(prev));
                }
                for &c in set(i) {
                    marker::mark(bits, c);
                }
                marked = Some(i);
            }
            let b = set(j);
            let inter: usize = b.iter().map(|&c| marker::is_marked(bits, c)).sum();
            scores.push(jaccard_from_counts(set(i).len(), b.len(), inter));
        }
        if let Some(prev) = marked {
            marker::clear(bits, set(prev));
        }
        scores
    });
    candidates
        .iter()
        .zip(scores.iter().flatten())
        .filter(|&(_, &score)| keep(score))
        .map(|(&(i, j), &score)| ScoredPair { score, i, j })
        .collect()
}

/// Packs a sequence of clusters into 16-row windows without straddling
/// where possible: row windows are carved every [`window`] rows of the
/// final permutation regardless of cluster boundaries, so a cluster that
/// straddles a boundary pollutes two windows. Greedy first-fit with a
/// bounded lookahead keeps clusters whole.
fn pack_into_windows(clusters: &[Vec<usize>], window: usize, total_rows: usize) -> Vec<usize> {
    const LOOKAHEAD: usize = 96;
    let mut used = vec![false; clusters.len()];
    let mut perm = Vec::with_capacity(total_rows);
    let mut cursor = 0usize;
    let mut remaining = clusters.len();
    while remaining > 0 {
        while cursor < clusters.len() && used[cursor] {
            cursor += 1;
        }
        let space = window - (perm.len() % window);
        // Find the first unused cluster within the lookahead that fits the
        // remaining window space.
        let mut chosen = None;
        let mut scanned = 0;
        for ci in cursor..clusters.len() {
            if used[ci] {
                continue;
            }
            scanned += 1;
            if clusters[ci].len() <= space {
                chosen = Some(ci);
                break;
            }
            if scanned >= LOOKAHEAD {
                break;
            }
        }
        // Nothing fits: take the next cluster in order (straddle).
        let ci = chosen.unwrap_or(cursor);
        used[ci] = true;
        remaining -= 1;
        perm.extend_from_slice(&clusters[ci]);
    }
    perm
}

impl Reorderer for TcaReorderer {
    fn name(&self) -> &str {
        "TCA"
    }

    fn reorder(&self, a: &CsrMatrix) -> Vec<usize> {
        let clusters = self.hierarchy_one(a);
        let ccs = self.hierarchy_two(a, &clusters);
        let ordered: Vec<Vec<usize>> =
            ccs.iter().flat_map(|cc| cc.iter().map(|&ci| clusters[ci].clone())).collect();
        let perm = pack_into_windows(&ordered, 16, a.rows());
        if self.keep_if_no_gain && !improves(a, &perm) {
            return (0..a.rows()).collect();
        }
        perm
    }
}

/// True when the permutation reduces the TC block count.
fn improves(a: &CsrMatrix, perm: &[usize]) -> bool {
    tc_blocks(a, |pos| perm[pos]) < tc_blocks(a, |pos| pos)
}

/// TC blocks of `a` with its rows taken in the order `row_at(0),
/// row_at(1), ..`: per 16-row window, the distinct columns rounded up to
/// whole 8-column blocks. Equal to `Condensed::from_csr(..).num_tc_blocks()`
/// of the reordered matrix, without building it.
fn tc_blocks(a: &CsrMatrix, row_at: impl Fn(usize) -> usize + Sync) -> usize {
    let rows = a.rows();
    let window = |w: usize| w * WINDOW_HEIGHT..((w + 1) * WINDOW_HEIGHT).min(rows);
    let cols_at = |pos: usize| a.row_entries(row_at(pos)).0;
    let window_work = |w: usize| window(w).map(|pos| cols_at(pos).len() as u64).sum();
    let per_chunk = marker::par_marked_chunks(
        rows.div_ceil(WINDOW_HEIGHT),
        a.cols(),
        window_work,
        |windows, bits| {
            let mut blocks = 0;
            for w in windows {
                let distinct: usize =
                    window(w).flat_map(cols_at).map(|&c| marker::mark(bits, c)).sum();
                blocks += distinct.div_ceil(BLOCK_WIDTH);
                for pos in window(w) {
                    marker::clear(bits, cols_at(pos));
                }
            }
            blocks
        },
    );
    per_chunk.into_iter().sum()
}

/// Hierarchy I only — the `TCU-Aware`-only ablation of Fig 13(c).
#[derive(Debug, Clone, Default)]
pub struct TcuOnlyReorderer {
    /// The underlying TCA configuration (Hierarchy II is simply skipped).
    pub tca: TcaReorderer,
}

impl Reorderer for TcuOnlyReorderer {
    fn name(&self) -> &str {
        "TCU-only"
    }

    fn reorder(&self, a: &CsrMatrix) -> Vec<usize> {
        let clusters = self.tca.hierarchy_one(a);
        let perm = pack_into_windows(&clusters, 16, a.rows());
        if self.tca.keep_if_no_gain && !improves(a, &perm) {
            return (0..a.rows()).collect();
        }
        perm
    }
}

/// The LSH64 baseline \[23\]: a single-level similarity clustering with a
/// cluster cap of 64 rows — the paper argues this cap groups low-similarity
/// rows and hence condenses worse than TCA's cap of 16 (§4.3).
#[derive(Debug, Clone)]
pub struct Lsh64Reorderer {
    inner: TcaReorderer,
}

impl Default for Lsh64Reorderer {
    fn default() -> Self {
        Lsh64Reorderer { inner: TcaReorderer { block_height: 64, ..TcaReorderer::default() } }
    }
}

impl Reorderer for Lsh64Reorderer {
    fn name(&self) -> &str {
        "LSH64"
    }

    fn reorder(&self, a: &CsrMatrix) -> Vec<usize> {
        let clusters = self.inner.hierarchy_one(a);
        clusters.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_permutation;
    use dtc_formats::gen::community;
    use dtc_formats::Condensed;
    use std::collections::BinaryHeap;

    #[test]
    fn agglomerate_respects_cap() {
        // 8 identical items, cap 4: no cluster may exceed ~2x cap after a
        // merge (paper merges then retires; with unit weights merging two
        // size-3 clusters gives 6 >= 4 which retires it).
        let pairs: Vec<ScoredPair> = (0..8)
            .flat_map(|i| ((i + 1)..8).map(move |j| ScoredPair { score: 1.0, i, j }))
            .collect();
        let clusters = agglomerate(8, |_| 1, pairs, 4);
        let total: usize = clusters.iter().map(Vec::len).sum();
        assert_eq!(total, 8);
        for c in &clusters {
            assert!(c.len() < 8, "cap was never applied: {c:?}");
        }
    }

    #[test]
    fn agglomerate_merges_best_first() {
        let pairs =
            vec![ScoredPair { score: 0.9, i: 0, j: 1 }, ScoredPair { score: 0.1, i: 2, j: 3 }];
        let clusters = agglomerate(4, |_| 1, pairs, 16);
        assert_eq!(clusters.len(), 2);
        assert!(clusters.contains(&vec![0, 1]));
        assert!(clusters.contains(&vec![2, 3]));
    }

    #[test]
    fn tca_improves_mean_nnz_tc_on_community_matrix() {
        let a = community(320, 320, 20, 12.0, 0.92, 11);
        let before = Condensed::from_csr(&a).mean_nnz_tc();
        let perm = TcaReorderer::default().reorder(&a);
        assert!(is_permutation(&perm, a.rows()));
        let after = Condensed::from_csr(&a.permute_rows(&perm)).mean_nnz_tc();
        assert!(after > before * 1.1, "after={after} before={before}");
    }

    #[test]
    fn tcu_only_also_improves_density() {
        let a = community(320, 320, 20, 12.0, 0.92, 12);
        let before = Condensed::from_csr(&a).mean_nnz_tc();
        let perm = TcuOnlyReorderer::default().reorder(&a);
        let after = Condensed::from_csr(&a.permute_rows(&perm)).mean_nnz_tc();
        assert!(after > before, "after={after} before={before}");
    }

    #[test]
    fn tca_beats_lsh64_on_density() {
        // The paper's argument for the 16-row cap (§4.3): LSH64's larger
        // clusters mix lower-similarity rows into the same windows.
        let a = community(640, 640, 40, 12.0, 0.9, 13);
        let tca = TcaReorderer::default().reorder(&a);
        let lsh64 = Lsh64Reorderer::default().reorder(&a);
        let d_tca = Condensed::from_csr(&a.permute_rows(&tca)).mean_nnz_tc();
        let d_lsh = Condensed::from_csr(&a.permute_rows(&lsh64)).mean_nnz_tc();
        assert!(d_tca >= d_lsh * 0.95, "tca={d_tca} lsh64={d_lsh}");
    }

    #[test]
    fn scored_pair_ordering() {
        let mut heap = BinaryHeap::new();
        heap.push(ScoredPair { score: 0.2, i: 0, j: 1 });
        heap.push(ScoredPair { score: 0.8, i: 2, j: 3 });
        assert_eq!(heap.pop().unwrap().score, 0.8);
    }
}
