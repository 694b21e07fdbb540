//! The TCA pipeline as first written, kept as a test-only oracle: MinHash
//! with `%`, one `HashMap` of LSH buckets per band, a sorted merge per
//! candidate pair for exact Jaccard, a binary heap for the merge order
//! (under the old `partial_cmp` order), and a no-gain guard that condenses
//! the matrix twice. The test below checks every rewritten piece, and the
//! three TCA-family reorderers end to end, against it bit for bit.

use super::*;
use crate::lsh::lsh_candidate_pairs_hashmap;
use crate::{jaccard_sorted, Lsh64Reorderer, TcuOnlyReorderer};
use dtc_formats::gen::{community, power_law, rmat, uniform};
use dtc_formats::Condensed;
use std::collections::BinaryHeap;

/// `ScoredPair` under the comparison the heap used originally.
struct OldOrder(ScoredPair);

impl PartialEq for OldOrder {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for OldOrder {}

impl PartialOrd for OldOrder {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OldOrder {
    fn cmp(&self, other: &Self) -> Ordering {
        let (a, b) = (&self.0, &other.0);
        a.score
            .partial_cmp(&b.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| b.i.cmp(&a.i))
            .then_with(|| b.j.cmp(&a.j))
    }
}

fn old_agglomerate(num_items: usize, scored: Vec<ScoredPair>, size_cap: usize) -> Vec<Vec<usize>> {
    let mut parent: Vec<usize> = (0..num_items).collect();
    let mut members: Vec<Vec<usize>> = (0..num_items).map(|i| vec![i]).collect();
    let mut weight: Vec<usize> = vec![1; num_items];
    let mut retired: Vec<bool> = (0..num_items).map(|i| weight[i] >= size_cap).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut queue: BinaryHeap<OldOrder> = scored.into_iter().map(OldOrder).collect();
    while let Some(OldOrder(ScoredPair { i, j, .. })) = queue.pop() {
        let ri = find(&mut parent, i);
        let rj = find(&mut parent, j);
        if ri == rj || retired[ri] || retired[rj] {
            continue;
        }
        let (dst, src) = if members[ri].len() >= members[rj].len() { (ri, rj) } else { (rj, ri) };
        let moved = std::mem::take(&mut members[src]);
        members[dst].extend(moved);
        weight[dst] += weight[src];
        parent[src] = dst;
        if weight[dst] >= size_cap {
            retired[dst] = true;
        }
    }
    let mut clusters: Vec<Vec<usize>> = Vec::new();
    for i in 0..num_items {
        if parent[i] == i && !members[i].is_empty() {
            let mut m = std::mem::take(&mut members[i]);
            m.sort_unstable();
            clusters.push(m);
        }
    }
    clusters.sort_unstable_by_key(|c| c[0]);
    clusters
}

fn old_scored(
    candidates: &[(usize, usize)],
    sets: &[&[u32]],
    keep: impl Fn(f64) -> bool,
) -> Vec<ScoredPair> {
    candidates
        .iter()
        .map(|&(i, j)| ScoredPair { score: jaccard_sorted(sets[i], sets[j]), i, j })
        .filter(|p| keep(p.score))
        .collect()
}

fn row_sets(a: &CsrMatrix) -> Vec<&[u32]> {
    (0..a.rows()).map(|r| a.row_entries(r).0).collect()
}

/// Sorted, deduplicated column set of each cluster.
fn cluster_sets(a: &CsrMatrix, clusters: &[Vec<usize>]) -> Vec<Vec<u32>> {
    clusters
        .iter()
        .map(|c| {
            let mut cols: Vec<u32> = c.iter().flat_map(|&r| a.row_entries(r).0).copied().collect();
            cols.sort_unstable();
            cols.dedup();
            cols
        })
        .collect()
}

fn h2_params(t: &TcaReorderer) -> LshParams {
    LshParams { bands: t.minhash_k, rows_per_band: 1, max_bucket_pairs: t.lsh.max_bucket_pairs }
}

fn old_hierarchy_one(t: &TcaReorderer, a: &CsrMatrix) -> Vec<Vec<usize>> {
    let hasher = MinHasher::new(t.minhash_k, t.seed);
    let sets = row_sets(a);
    let sigs: Vec<Vec<u64>> = sets.iter().map(|s| hasher.signature_by_remainder(s)).collect();
    let candidates = lsh_candidate_pairs_hashmap(&sigs, &t.lsh);
    let scored = old_scored(&candidates, &sets, |s| s >= t.min_similarity);
    old_agglomerate(a.rows(), scored, t.block_height)
}

fn old_hierarchy_two(t: &TcaReorderer, a: &CsrMatrix, clusters: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let hasher = MinHasher::new(t.minhash_k, t.seed.wrapping_add(1));
    let cols = cluster_sets(a, clusters);
    let sigs: Vec<Vec<u64>> = cols.iter().map(|c| hasher.signature_by_remainder(c)).collect();
    let candidates = lsh_candidate_pairs_hashmap(&sigs, &h2_params(t));
    let sets: Vec<&[u32]> = cols.iter().map(Vec::as_slice).collect();
    let scored = old_scored(&candidates, &sets, |s| s > 0.02);
    old_agglomerate(clusters.len(), scored, t.sm_num)
}

fn old_improves(a: &CsrMatrix, perm: &[usize]) -> bool {
    let before = Condensed::from_csr(a).num_tc_blocks();
    let after = Condensed::from_csr(&a.permute_rows(perm)).num_tc_blocks();
    after < before
}

fn guarded(t: &TcaReorderer, a: &CsrMatrix, perm: Vec<usize>) -> Vec<usize> {
    if t.keep_if_no_gain && !old_improves(a, &perm) {
        return (0..a.rows()).collect();
    }
    perm
}

/// TCA's permutation before the no-gain guard.
fn old_tca_packed(t: &TcaReorderer, a: &CsrMatrix) -> Vec<usize> {
    let clusters = old_hierarchy_one(t, a);
    let ccs = old_hierarchy_two(t, a, &clusters);
    let ordered: Vec<Vec<usize>> =
        ccs.iter().flat_map(|cc| cc.iter().map(|&ci| clusters[ci].clone())).collect();
    pack_into_windows(&ordered, 16, a.rows())
}

fn old_tcu_only(t: &TcaReorderer, a: &CsrMatrix) -> Vec<usize> {
    guarded(t, a, pack_into_windows(&old_hierarchy_one(t, a), 16, a.rows()))
}

fn old_lsh64(a: &CsrMatrix) -> Vec<usize> {
    let t = TcaReorderer { block_height: 64, ..TcaReorderer::default() };
    old_hierarchy_one(&t, a).into_iter().flatten().collect()
}

/// Rows drawn from a few column templates spread over 2^24 columns, plus
/// one random column each: similar rows, far more columns than non-zeros.
fn hypersparse_wide(rows: usize, seed: u64) -> CsrMatrix {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let templates: Vec<Vec<usize>> =
        (0..12).map(|_| (0..4).map(|_| next() % (1 << 24)).collect()).collect();
    let mut triplets = Vec::new();
    for r in 0..rows {
        let template = &templates[next() % templates.len()];
        for &c in template.iter().chain(&[next() % (1 << 24)]) {
            triplets.push((r, c, 1.0));
        }
    }
    triplets.sort_unstable_by_key(|&(r, c, _)| (r, c));
    triplets.dedup_by_key(|&mut (r, c, _)| (r, c));
    CsrMatrix::from_triplets(rows, 1 << 24, &triplets).unwrap()
}

fn inputs() -> Vec<(&'static str, CsrMatrix)> {
    vec![
        ("community", community(1024, 1024, 16, 24.0, 0.9, 21)),
        ("power_law", power_law(1024, 1024, 8.0, 2.2, 22)),
        ("rmat", rmat(10, 8.0, (0.57, 0.19, 0.19, 0.05), 23)),
        ("uniform", uniform(1000, 1000, 8000, 24)),
        ("all_empty_rows", CsrMatrix::from_triplets(300, 200, &[]).unwrap()),
        ("hypersparse_wide", hypersparse_wide(700, 25)),
    ]
}

#[track_caller]
fn assert_scored_bits_eq(new: &[ScoredPair], old: &[ScoredPair], ctx: &str) {
    assert_eq!(new.len(), old.len(), "{ctx}: scored list length");
    for (k, (n, o)) in new.iter().zip(old).enumerate() {
        assert_eq!(
            (n.i, n.j, n.score.to_bits()),
            (o.i, o.j, o.score.to_bits()),
            "{ctx}: scored pair {k}"
        );
    }
}

fn check_against_oracle(name: &str, a: &CsrMatrix, threads: usize) {
    let ctx = format!("{name} @ {threads} threads");
    let t = TcaReorderer::default();

    // Hierarchy I: signatures, candidates, scores, clusters.
    let hasher = MinHasher::new(t.minhash_k, t.seed);
    let sets = row_sets(a);
    let sigs: Vec<Vec<u64>> = sets.iter().map(|s| hasher.signature(s)).collect();
    let old_sigs: Vec<Vec<u64>> = sets.iter().map(|s| hasher.signature_by_remainder(s)).collect();
    assert_eq!(sigs, old_sigs, "{ctx}: row signatures");
    let candidates = lsh_candidate_pairs(&hasher, &sigs, &t.lsh);
    assert_eq!(candidates, lsh_candidate_pairs_hashmap(&sigs, &t.lsh), "{ctx}: H1 candidates");
    let keep = |s: f64| s >= t.min_similarity;
    assert_scored_bits_eq(
        &scored_pairs(&candidates, |r| sets[r], a.cols(), keep),
        &old_scored(&candidates, &sets, keep),
        &format!("{ctx}: H1"),
    );
    let clusters = old_hierarchy_one(&t, a);
    assert_eq!(t.hierarchy_one(a), clusters, "{ctx}: H1 clusters");

    // Hierarchy II over the same clusters.
    let cols = cluster_sets(a, &clusters);
    let hasher2 = MinHasher::new(t.minhash_k, t.seed.wrapping_add(1));
    let sigs2: Vec<Vec<u64>> = cols.iter().map(|c| hasher2.signature(c)).collect();
    let old_sigs2: Vec<Vec<u64>> = cols.iter().map(|c| hasher2.signature_by_remainder(c)).collect();
    assert_eq!(sigs2, old_sigs2, "{ctx}: cluster signatures");
    let candidates2 = lsh_candidate_pairs(&hasher2, &sigs2, &h2_params(&t));
    assert_eq!(
        candidates2,
        lsh_candidate_pairs_hashmap(&sigs2, &h2_params(&t)),
        "{ctx}: H2 candidates"
    );
    let sets2: Vec<&[u32]> = cols.iter().map(Vec::as_slice).collect();
    let keep2 = |s: f64| s > 0.02;
    assert_scored_bits_eq(
        &scored_pairs(&candidates2, |c| sets2[c], a.cols(), keep2),
        &old_scored(&candidates2, &sets2, keep2),
        &format!("{ctx}: H2"),
    );
    assert_eq!(
        t.hierarchy_two(a, &clusters),
        old_hierarchy_two(&t, a, &clusters),
        "{ctx}: H2 clusters"
    );

    // TC block counts: original order, TCA's packed order, reversed order.
    let packed = old_tca_packed(&t, a);
    let reversed: Vec<usize> = (0..a.rows()).rev().collect();
    assert_eq!(tc_blocks(a, |p| p), Condensed::from_csr(a).num_tc_blocks(), "{ctx}: blocks");
    for (label, perm) in [("packed", &packed), ("reversed", &reversed)] {
        assert_eq!(
            tc_blocks(a, |p| perm[p]),
            Condensed::from_csr(&a.permute_rows(perm)).num_tc_blocks(),
            "{ctx}: {label} blocks"
        );
    }

    // The three TCA-family reorderers end to end.
    assert_eq!(t.reorder(a), guarded(&t, a, packed), "{ctx}: TCA permutation");
    assert_eq!(
        TcuOnlyReorderer::default().reorder(a),
        old_tcu_only(&t, a),
        "{ctx}: TCU-only permutation"
    );
    assert_eq!(Lsh64Reorderer::default().reorder(a), old_lsh64(a), "{ctx}: LSH64 permutation");
}

#[test]
fn fast_paths_match_the_oracle_bit_for_bit() {
    let inputs = inputs();
    for threads in [1, 4] {
        dtc_par::set_threads(Some(threads));
        for (name, a) in &inputs {
            check_against_oracle(name, a, threads);
        }
    }
    dtc_par::set_threads(None);
}

#[test]
fn oracle_inputs_exercise_every_stage() {
    // Guards the oracle test against vacuous inputs: the structured
    // matrices, the hypersparse one included, must produce candidates,
    // multi-row clusters and a reordering the guard keeps.
    for (name, a) in inputs() {
        if name == "all_empty_rows" {
            continue;
        }
        let t = TcaReorderer::default();
        let clusters = old_hierarchy_one(&t, &a);
        assert!(clusters.iter().any(|c| c.len() > 1), "{name}: no multi-row cluster");
        if name != "uniform" {
            assert!(old_improves(&a, &old_tca_packed(&t, &a)), "{name}: guard rejects TCA");
        }
    }
}
