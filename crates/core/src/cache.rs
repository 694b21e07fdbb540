//! Keyed plan cache: repeated pipeline builds over the same matrix reuse
//! the execute plan instead of rebuilding it.
//!
//! The paper's §6 point is that preprocessing amortizes across the
//! thousands of SpMM calls an iterative workload makes; this cache makes
//! the host-side analogue concrete. Its entries are [`ExecPlan`]s (the
//! host engine's only prepare-time artifact; ME-TCF is built per engine,
//! on demand, by the simulator side). It is one exact map keyed by the
//! working matrix's full [`KeyMaterial`] — dims, nnz, and checksums of
//! the three CSR arrays — and the precision the plan rounds A to, so a
//! hit needs every field to match and a matrix that differs in any one of
//! them builds fresh. Hit/miss counts keep their historical names in the
//! process-wide [`dtc_telemetry`] registry (`core.cache.conversion.hits` /
//! `.misses`), read by [`conversion_cache_stats`].
//!
//! The map holds only immutable `Arc`s and every write is one `insert`,
//! `remove`, `retain` or `clear`, so a panic under the lock cannot leave
//! it half-updated: a poisoned lock is taken over, not propagated.

use crate::error::DtcError;
use crate::kernel::ExecPlan;
use crate::telemetry::{
    conversion_cache_hits, conversion_cache_invalidations, conversion_cache_misses,
};
use dtc_formats::{CsrMatrix, Precision};
use dtc_par::hash::fnv1a;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Matrix identity material: the plan cache's key — and the identity
/// the serving layer computes from each request's matrix to key its engine
/// pool (engines themselves carry none).
///
/// Dims and nnz are stored outright; the three arrays are summarized by
/// FNV-1a checksums under distinct seeds, so two matrices share an identity
/// only if they agree on shape and nnz and all three 64-bit checksums
/// collide at once.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KeyMaterial {
    rows: usize,
    cols: usize,
    nnz: usize,
    row_ptr_sum: u64,
    col_idx_sum: u64,
    value_sum: u64,
}

impl KeyMaterial {
    /// The identity material of a matrix: its dims and nnz plus its
    /// memoised [`CsrMatrix::checksums`]. The first key of a matrix pays
    /// three chunked-parallel checksum passes (digests are independent of
    /// `DTC_THREADS`); every later key of the same matrix or of its clones
    /// (admission, the pool probe, the build's own key) is a load.
    pub fn of(a: &CsrMatrix) -> Self {
        let [row_ptr_sum, col_idx_sum, value_sum] = a.checksums();
        KeyMaterial {
            rows: a.rows(),
            cols: a.cols(),
            nnz: a.nnz(),
            row_ptr_sum,
            col_idx_sum,
            value_sum,
        }
    }

    /// Rows of the identified matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the identified matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Structural non-zeros of the identified matrix.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// A single 64-bit digest of the full material (dims, nnz and all
    /// three checksums), for callers that want the identity as one word.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(
            0xa135_2969_7a6b_11c4,
            [
                self.rows as u64,
                self.cols as u64,
                self.nnz as u64,
                self.row_ptr_sum,
                self.col_idx_sum,
                self.value_sum,
            ]
            .into_iter(),
        )
    }
}

/// Bound on resident entries; reaching it clears the cache (the workloads
/// we serve cycle over small dataset suites, so wholesale eviction is fine
/// and keeps the bookkeeping trivial).
const CACHE_CAP: usize = 64;

type PlanMap = HashMap<(KeyMaterial, Precision), Arc<ExecPlan>>;

/// The plan map behind one lock. The process has one ([`global`]); tests
/// also build private ones.
#[derive(Default)]
struct PlanCache(Mutex<PlanMap>);

impl PlanCache {
    /// The map, locked. A poisoned lock is taken over (see the module
    /// docs for why that is sound).
    fn map(&self) -> MutexGuard<'_, PlanMap> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn plan_for(
        &self,
        a: &CsrMatrix,
        material: &KeyMaterial,
        precision: Precision,
    ) -> Result<Arc<ExecPlan>, DtcError> {
        let key = (material.clone(), precision);
        if let Some(hit) = self.map().get(&key) {
            conversion_cache_hits().incr();
            return Ok(Arc::clone(hit));
        }
        conversion_cache_misses().incr();
        // Build outside the lock, so other engines' lookups never wait on it.
        let built = Arc::new(ExecPlan::from_csr(a, precision)?);
        let mut map = self.map();
        if map.len() >= CACHE_CAP {
            map.clear();
        }
        map.insert(key, Arc::clone(&built));
        Ok(built)
    }

    fn invalidate(&self, material: &KeyMaterial) -> usize {
        let removed = {
            let mut map = self.map();
            let before = map.len();
            map.retain(|(key, _), _| key != material);
            before - map.len()
        };
        if removed > 0 {
            conversion_cache_invalidations().add(removed as u64);
        }
        removed
    }

    fn clear(&self) {
        self.map().clear();
    }
}

/// The process-wide plan cache.
fn global() -> &'static PlanCache {
    static CACHE: OnceLock<PlanCache> = OnceLock::new();
    CACHE.get_or_init(PlanCache::default)
}

/// Returns the cached execute plan of `a` (identified by `material`) at
/// `precision`, building (and inserting) it on miss. Taking the identity
/// from the caller keys the matrix once per build rather than once per
/// consumer.
///
/// # Errors
///
/// Propagates the plan's `u32` offset-overflow guard
/// ([`DtcError::Format`]); nothing is cached on error.
pub fn plan_for(
    a: &CsrMatrix,
    material: &KeyMaterial,
    precision: Precision,
) -> Result<Arc<ExecPlan>, DtcError> {
    global().plan_for(a, material, precision)
}

/// Purges every cached plan keyed by `material` (one per precision it was
/// built at), returning the number of entries removed.
///
/// This is the plan-cache arm of the delta-update invalidation contract:
/// after [`crate::DtcSpmm::apply_delta`] mutates a matrix, a lookup under
/// the pre-edit identity must miss.
pub fn invalidate_conversion(material: &KeyMaterial) -> usize {
    global().invalidate(material)
}

/// `(hits, misses)` of the process-wide plan cache — a thin wrapper over
/// the `core.cache.conversion.*` registry counters.
pub fn conversion_cache_stats() -> (u64, u64) {
    (conversion_cache_hits().get(), conversion_cache_misses().get())
}

/// Empties the cache (counters are left running; tests diff them instead).
pub fn clear_conversion_cache() {
    global().clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtc_formats::gen::uniform;
    use dtc_formats::MeTcfMatrix;

    #[test]
    fn key_depends_on_values_not_just_shape() {
        let a = CsrMatrix::from_triplets(4, 4, &[(0, 1, 1.0), (2, 3, 2.0)]).unwrap();
        let b = CsrMatrix::from_triplets(4, 4, &[(0, 1, 1.0), (2, 3, 2.5)]).unwrap();
        assert_ne!(KeyMaterial::of(&a), KeyMaterial::of(&b));
        assert_eq!(KeyMaterial::of(&a), KeyMaterial::of(&a.clone()));
    }

    /// A copy of `a`'s arrays whose checksums are not yet computed.
    fn unkeyed_copy(a: &CsrMatrix) -> CsrMatrix {
        let (row_ptr, col_idx, values) =
            (a.row_ptr().to_vec(), a.col_idx().to_vec(), a.values().to_vec());
        CsrMatrix::from_parts(a.rows(), a.cols(), row_ptr, col_idx, values).unwrap()
    }

    #[test]
    fn keyed_matrix_its_clone_and_an_unkeyed_copy_agree() {
        // Past fnv1a_slice's 64 Ki chunk, so the memo holds a chunked digest.
        let a = uniform(1200, 800, 70_000, 11);
        let key = KeyMaterial::of(&a);
        let (clone, copy) = (a.clone(), unkeyed_copy(&a));
        assert!(clone == a && copy == a);
        assert_eq!(KeyMaterial::of(&clone), key);
        assert_eq!(KeyMaterial::of(&copy), key);
        assert_eq!(KeyMaterial::of(&a), key);
    }

    #[test]
    fn concurrent_first_keys_of_one_matrix_agree() {
        let a = Arc::new(uniform(1200, 800, 70_000, 12));
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (a, barrier) = (Arc::clone(&a), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    KeyMaterial::of(&a)
                })
            })
            .collect();
        let cold = KeyMaterial::of(&unkeyed_copy(&a));
        for h in handles {
            assert_eq!(h.join().expect("keying thread panicked"), cold);
        }
    }

    #[test]
    fn cached_conversion_matches_direct() {
        let a = uniform(200, 150, 1200, 323);
        let direct = ExecPlan::from_csr(&a, Precision::Tf32).unwrap();
        let key = KeyMaterial::of(&a);
        assert_eq!(*plan_for(&a, &key, Precision::Tf32).unwrap(), direct);
        assert_eq!(direct, ExecPlan::from_metcf(&MeTcfMatrix::from_csr(&a), Precision::Tf32));
        // Each precision is its own entry.
        let fp16 = plan_for(&a, &key, Precision::Fp16).unwrap();
        assert_eq!(*fp16, ExecPlan::from_csr(&a, Precision::Fp16).unwrap());
        assert_ne!(*fp16, direct);
    }

    #[test]
    fn a_poisoned_lock_is_taken_over() {
        // A private cache, so poisoning it and clearing it cannot disturb
        // other tests' use of the process-wide one.
        let cache = PlanCache::default();
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = cache.map();
                panic!("poisoning the plan-cache lock on purpose");
            })
            .join()
        });
        assert!(poisoner.is_err() && cache.0.is_poisoned());
        let a = uniform(80, 80, 300, 324);
        let key = KeyMaterial::of(&a);
        let lookup = || cache.plan_for(&a, &key, Precision::Tf32).unwrap();
        let first = lookup();
        assert!(Arc::ptr_eq(&first, &lookup()), "a warm lookup hits");
        assert_eq!(cache.invalidate(&key), 1);
        assert!(!Arc::ptr_eq(&first, &lookup()), "a purged entry rebuilds");
        cache.clear();
        assert_eq!(cache.invalidate(&key), 0);
    }

    #[test]
    fn material_differing_in_one_field_misses() {
        // A hit needs the whole identity to match: a key that agrees with
        // a resident one everywhere but one field must convert fresh, not
        // serve the resident conversion.
        let a = uniform(96, 96, 500, 77);
        let m = KeyMaterial::of(&a);
        let resident = plan_for(&a, &m, Precision::Tf32).unwrap();
        let variants = [
            KeyMaterial { rows: m.rows + 1, ..m.clone() },
            KeyMaterial { cols: m.cols + 1, ..m.clone() },
            KeyMaterial { nnz: m.nnz + 1, ..m.clone() },
            KeyMaterial { row_ptr_sum: m.row_ptr_sum ^ 1, ..m.clone() },
            KeyMaterial { col_idx_sum: m.col_idx_sum ^ 1, ..m.clone() },
            KeyMaterial { value_sum: m.value_sum ^ 1, ..m.clone() },
        ];
        for v in &variants {
            let got = plan_for(&a, v, Precision::Tf32).unwrap();
            assert!(!Arc::ptr_eq(&got, &resident), "{v:?} was served the resident conversion");
            // The miss stored `a`'s conversion under the forged identity;
            // purge it so no later lookup can meet it.
            assert_eq!(invalidate_conversion(v), 1);
        }
    }
}
