//! Exact deltas of the process-wide conversion-cache miss counter.
//!
//! `core.cache.conversion.misses` counts every conversion in the process,
//! so a test that asserts an exact delta races any other test converting
//! on a parallel test thread. This file is its own test binary with one
//! test, so nothing else converts while it reads the counter.

use dtc_core::cache::plan_for;
use dtc_core::{conversion_cache_stats, invalidate_conversion, KeyMaterial, Precision};
use dtc_formats::gen::uniform;
use std::sync::Arc;

fn misses() -> u64 {
    conversion_cache_stats().1
}

#[test]
fn lookups_and_invalidation_count_exact_misses() {
    // The same matrix hits; a distinct matrix of the same shape misses.
    let a = uniform(128, 128, 900, 321);
    let first = plan_for(&a, &KeyMaterial::of(&a), Precision::Tf32).unwrap();
    let misses0 = misses();
    let again = plan_for(&a, &KeyMaterial::of(&a), Precision::Tf32).unwrap();
    assert!(Arc::ptr_eq(&first, &again), "expected the cached Arc back");
    let misses1 = misses();
    assert_eq!(misses1, misses0, "second lookup must not convert");

    let b = uniform(128, 128, 900, 322); // same shape, different structure
    let other = plan_for(&b, &KeyMaterial::of(&b), Precision::Tf32).unwrap();
    assert!(!Arc::ptr_eq(&first, &other));
    assert_eq!(misses(), misses1 + 1);

    // Invalidation purges the entry: the next lookup reconverts (a fresh
    // Arc) instead of serving the purged one.
    let a = uniform(144, 144, 1000, 8181);
    let first = plan_for(&a, &KeyMaterial::of(&a), Precision::Tf32).unwrap();
    let material = KeyMaterial::of(&a);
    assert_eq!(invalidate_conversion(&material), 1);
    let misses0 = misses();
    let again = plan_for(&a, &KeyMaterial::of(&a), Precision::Tf32).unwrap();
    assert!(!Arc::ptr_eq(&first, &again), "invalidated entry must not be served");
    assert_eq!(misses(), misses0 + 1);

    // Invalidating a non-resident identity is a no-op.
    assert_eq!(invalidate_conversion(&KeyMaterial::of(&uniform(32, 32, 60, 9))), 0);
}
