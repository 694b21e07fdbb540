//! Cross-layer delta-invalidation property suite.
//!
//! The delta-update contract says that after [`DtcSpmm::apply_delta`]
//! mutates a matrix in place, **no caching layer may serve a pre-edit
//! artifact**: the process-wide conversion cache (both its lossy front
//! tier and the exact tier), the engine's trace cache (and the duration
//! classes interned inside its traces), and the serving layer's
//! [`EnginePool`] slots keyed by the mutated matrix's [`KeyMaterial`].
//! These properties drive arbitrary edit scripts through the full stack
//! and check every layer either misses or serves post-edit state — plus a
//! crafted front-tier collision where the purged key shares its
//! direct-mapped slot with an innocent neighbor, the case where purging
//! by slot index instead of by key would evict the neighbor or, worse,
//! leave the stale entry resident.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dtc_core::cache::metcf_for;
use dtc_core::{
    invalidate_conversion, DeltaPolicy, DtcSpmm, EngineConfig, EngineKind, KeyMaterial,
    MatrixDelta, SpmmEngine,
};
use dtc_formats::{gen::uniform, CsrMatrix, DenseMatrix, MeTcfMatrix};
use dtc_serve::{Request, ServeConfig, SpmmServer};
use dtc_sim::Device;
use proptest::prelude::*;

/// Every case works on a matrix nothing else in the process has touched,
/// so cache-state assertions (entry counts, purge returns) are exact even
/// with tests running in parallel threads.
static UNIQUE: AtomicU64 = AtomicU64::new(0);

fn fresh_matrix(rows: usize, cols: usize, nnz: usize, seed: u64) -> CsrMatrix {
    let uniq = UNIQUE.fetch_add(1, Ordering::SeqCst);
    uniform(rows, cols, nnz, seed ^ uniq.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Folds a generated op list into an in-bounds edit batch: upserts,
/// updates of possibly-absent coordinates and deletes (possibly of absent
/// coordinates) all mixed, exactly the tolerant surface `MatrixDelta`
/// exposes.
fn delta_from_ops(a: &CsrMatrix, ops: &[(u64, u64, u8, i32)]) -> MatrixDelta {
    let mut delta = MatrixDelta::new();
    for &(row_sel, col_sel, kind, raw) in ops {
        let row = row_sel as usize % a.rows();
        let col = col_sel as usize % a.cols();
        let value = if raw == 0 { 1.5 } else { raw as f32 * 0.25 };
        match kind % 3 {
            0 => delta.insert(row, col, value),
            1 => delta.update(row, col, -value),
            _ => delta.delete(row, col),
        }
    }
    if delta.is_empty() {
        delta.insert(0, 0, 2.0);
    }
    delta
}

fn value_bits(m: &DenseMatrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary edit script, full stack: conversion cache, engine pool,
    /// trace cache. After the edit every layer misses under the pre-edit
    /// identity and everything served afterwards is post-edit state.
    #[test]
    fn every_layer_misses_or_serves_post_edit_artifacts(
        dims in (48usize..112, 32usize..80, 0u64..1 << 32),
        ops in proptest::collection::vec((0u64..1 << 32, 0u64..1 << 32, 0u8..6, -8i32..8), 1..12),
    ) {
        let (rows, cols, seed) = dims;
        let a = fresh_matrix(rows, cols, rows * 4, seed);
        let delta = delta_from_ops(&a, &ops);
        let edited = delta.apply_to_csr(&a).expect("in-bounds by construction");
        let pre_material = KeyMaterial::of(&a);
        let device = Device::rtx4090();
        let config = EngineConfig::default();

        // Warm every layer under the pre-edit identity.
        let server = SpmmServer::new(ServeConfig { admission_verify: false, ..Default::default() });
        let b = DenseMatrix::from_fn(a.cols(), 8, |r, c| ((r * 5 + c) % 13) as f32 * 0.5 - 3.0);
        let request = |m: &CsrMatrix| Request {
            tenant: 0,
            kind: EngineKind::Dtc,
            config: config.clone(),
            matrix: Arc::new(m.clone()),
            b: b.clone(),
        };
        server.serve_one(request(&a)).expect("pre-edit serve");
        prop_assert_eq!(server.pool().len(), 1);
        let mut engine = DtcSpmm::new(&a);
        let _warm_trace = engine.trace(8, &device, false);

        // The edit, then the serving layer's invalidation hook.
        engine.apply_delta(&delta, &DeltaPolicy::default()).expect("in-bounds delta");
        let dropped = server.invalidate_matrix(&pre_material);
        prop_assert_eq!(dropped, 1, "exactly the pooled pre-edit engine must drop");
        prop_assert!(server.pool().is_empty());

        // Conversion cache: the pre-edit conversion is gone from both
        // tiers — purging the pre-edit identity again finds nothing.
        // (Checked before any rebuild, which would legitimately re-admit
        // when the script happens to be a no-op and `edited == a`.)
        prop_assert_eq!(invalidate_conversion(&pre_material), 0);

        // The patched engine IS post-edit state: identity, format, trace
        // and output all match a fresh build over the edited matrix.
        let fresh = DtcSpmm::new(&edited);
        prop_assert_eq!(engine.key(), &KeyMaterial::of(&edited));
        prop_assert!(engine.metcf() == fresh.metcf(), "patched ME-TCF diverged from rebuild");
        prop_assert_eq!(
            engine.trace(8, &device, false).iter_tbs().count(),
            fresh.trace(8, &device, false).iter_tbs().count(),
        );

        // Pool rebuild under the post-edit identity serves post-edit
        // output, bitwise equal to the patched engine's.
        let served = server.serve_one(request(&edited)).expect("post-edit serve");
        let patched_out = engine.execute(&b).expect("patched execute");
        prop_assert_eq!(value_bits(&served), value_bits(&patched_out));

        // And the conversion cache now serves only the post-edit format.
        let conv = metcf_for(&edited).expect("within u32 bounds");
        prop_assert!(conv.metcf == *engine.metcf());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Crafted front-tier collision: a neighbor matrix occupying the SAME
    /// direct-mapped conversion front slot as the edited one. Purging the
    /// pre-edit key must leave the neighbor served and the edited identity
    /// missing, in both residency orders.
    #[test]
    fn same_slot_front_tier_neighbor_survives_the_purge(
        seed in 0u64..1 << 32,
        a_last in any::<bool>(),
    ) {
        // Mirrors the conversion front's slot math: 256 direct-mapped
        // slots, high half folded down (`FRONT_SLOTS` in dtc-core and
        // `FrontTier::slot_of` in dtc-par).
        let slot_of = |m: &KeyMaterial| {
            let h = m.fingerprint();
            (h ^ (h >> 32)) & 255
        };
        let a = fresh_matrix(64, 64, 400, seed);
        let material_a = KeyMaterial::of(&a);
        let mut neighbor = None;
        for probe in 0..16_384u64 {
            let b = fresh_matrix(64, 64, 400, seed ^ 0xB000 ^ probe);
            let material_b = KeyMaterial::of(&b);
            if slot_of(&material_b) == slot_of(&material_a) && material_b != material_a {
                neighbor = Some((b, material_b));
                break;
            }
        }
        let (b, material_b) = neighbor.expect("a same-slot neighbor exists within 16Ki draws");

        // Warm both; generation order decides which one owns the shared
        // front slot when the purge lands.
        let (arc_a, arc_b);
        if a_last {
            arc_b = metcf_for(&b).expect("within u32 bounds");
            arc_a = metcf_for(&a).expect("within u32 bounds");
        } else {
            arc_a = metcf_for(&a).expect("within u32 bounds");
            arc_b = metcf_for(&b).expect("within u32 bounds");
        }
        let _ = &arc_a;

        let mut engine = DtcSpmm::new(&a);
        let mut delta = MatrixDelta::new();
        delta.insert(3, 7, 4.25);
        delta.delete(1, 1);
        engine.apply_delta(&delta, &DeltaPolicy::default()).expect("in-bounds delta");

        // The purge was by key, not by slot: the same-slot neighbor is
        // still resident (same Arc back), the pre-edit identity is gone,
        // and the edited identity resolves to post-edit state only.
        let b_again = metcf_for(&b).expect("within u32 bounds");
        prop_assert!(Arc::ptr_eq(&arc_b, &b_again), "neighbor evicted by a foreign purge");
        prop_assert_eq!(invalidate_conversion(&material_a), 0);
        let _ = material_b;
        let edited = delta.apply_to_csr(&a).expect("in-bounds delta");
        let conv = metcf_for(&edited).expect("within u32 bounds");
        prop_assert!(conv.metcf == MeTcfMatrix::from_csr(&edited));
        prop_assert!(conv.metcf == *engine.metcf());
    }
}
