//! The keyed engine pool: prepared [`SpmmEngine`]s cached across requests.
//!
//! Pool identity is the triple the paper's amortization argument needs:
//! *which matrix* ([`KeyMaterial`], the verified conversion-cache identity
//! from `dtc-core`), *which configuration*
//! ([`EngineConfig::fingerprint`] — two tenants asking for the same matrix
//! under different precisions must not share an engine), and *which
//! device/engine family*. Slots live in one `HashMap<PoolKey, _>`, so every
//! lookup is decided by full key equality: two keys whose hashes collide
//! still get separate engines, and one tenant never receives another
//! tenant's engine.
//!
//! Concurrency: one prepare per key. Each slot holds an
//! [`OnceLock`]; concurrent same-key requests all land on the same slot
//! and `get_or_init` blocks the laggards while the first caller pays the
//! (reorder → convert → select) build, so a thundering herd of identical
//! requests costs exactly one conversion-cache miss.
//!
//! Eviction is LRU **with warmup pins**: an entry that has served fewer
//! than [`PoolConfig::warmup_uses`] requests is still amortizing its
//! conversion cost and cannot be evicted. If every resident entry is
//! pinned and the pool is full, a new key is refused with
//! [`DtcError::PoolExhausted`] rather than thrashing a cold engine.

use dtc_core::{DtcError, EngineConfig, EngineKind, KeyMaterial, SpmmEngine};
use dtc_par::hash::fnv1a;
use dtc_verify::PoolEvent;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

// ---------------------------------------------------------------------------
// Pool event log (for the sched protocol lints)
// ---------------------------------------------------------------------------

static POOL_EVENT_LOG_ON: AtomicBool = AtomicBool::new(false);

fn pool_event_log() -> &'static Mutex<Vec<PoolEvent>> {
    static LOG: OnceLock<Mutex<Vec<PoolEvent>>> = OnceLock::new();
    LOG.get_or_init(|| Mutex::new(Vec::new()))
}

/// Switches pool-event capture on or off (off by default; enabling does
/// not clear previously captured events). While on, every pool emits
/// [`PoolEvent`]s at its protocol points — slot insert, engine publish
/// and slot removal — for [`dtc_verify::verify_pool_events`] to audit.
/// Used by the protocol tests; the log is process-wide.
pub fn set_pool_event_log(on: bool) {
    POOL_EVENT_LOG_ON.store(on, Ordering::Relaxed);
}

/// Drains and returns every captured pool event, in emission order.
pub fn drain_pool_events() -> Vec<PoolEvent> {
    std::mem::take(&mut *pool_event_log().lock().unwrap_or_else(std::sync::PoisonError::into_inner))
}

/// Appends one event when capture is on. The event is built lazily, so
/// the key's primary hash is only computed while someone is listening.
fn log_pool_event(event: impl FnOnce() -> PoolEvent) {
    if POOL_EVENT_LOG_ON.load(Ordering::Relaxed) {
        pool_event_log().lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(event());
    }
}

/// Full pool identity of a prepared engine.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PoolKey {
    /// Engine family requested by the tenant.
    pub kind: EngineKind,
    /// [`dtc_sim::Device::fingerprint`] of the target device.
    pub device: u64,
    /// [`EngineConfig::fingerprint`] of the tenant's configuration.
    pub config: u64,
    /// Identity of the sparse matrix.
    pub material: KeyMaterial,
}

impl PoolKey {
    /// Builds the key for a tenant request.
    pub fn new(kind: EngineKind, config: &EngineConfig, material: KeyMaterial) -> Self {
        PoolKey {
            kind,
            device: config.device.fingerprint(),
            config: config.fingerprint(),
            material,
        }
    }

    /// The 64-bit FNV-1a summary of all components that names this key in
    /// [`PoolEvent`] logs. Lookups never use it: the pool map compares
    /// full keys.
    pub fn primary(&self) -> u64 {
        let kind = match self.kind {
            EngineKind::Dtc => 1u64,
            EngineKind::Cusparse => 3,
            EngineKind::Sputnik => 4,
            EngineKind::Tcgnn => 5,
            _ => 0,
        };
        fnv1a(
            dtc_par::hash::FNV_OFFSET,
            [kind, self.device, self.config, self.material.fingerprint()].into_iter(),
        )
    }
}

/// Pool sizing and eviction policy.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Maximum resident engines.
    pub capacity: usize,
    /// Requests an entry must serve before it becomes evictable (the
    /// warmup pin): evicting an engine that has not yet amortized its
    /// conversion cost only converts it again on the next request.
    pub warmup_uses: u64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig { capacity: 8, warmup_uses: 2 }
    }
}

type EngineCell = Arc<OnceLock<Result<Arc<dyn SpmmEngine>, DtcError>>>;

/// One resident entry.
struct Slot {
    cell: EngineCell,
    /// Requests served (including the preparing one).
    uses: u64,
    /// Recency tick of the last request; unique per fetch, so the LRU
    /// victim is deterministic.
    last_use: u64,
}

/// Pool state, under one `Mutex`.
struct Inner {
    slots: HashMap<PoolKey, Slot>,
    tick: u64,
}

/// A successful pool fetch: the prepared engine plus whether it was
/// already resident.
pub struct Fetched {
    /// The prepared engine (shared: the pool keeps its own reference).
    pub engine: Arc<dyn SpmmEngine>,
    /// `true` when the engine was already resident (no prepare paid).
    pub hit: bool,
}

impl std::fmt::Debug for Fetched {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fetched")
            .field("engine", &self.engine.name())
            .field("hit", &self.hit)
            .finish()
    }
}

/// The engine pool. Cheap to share behind an `Arc`; all methods take
/// `&self`.
pub struct EnginePool {
    config: PoolConfig,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for EnginePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnginePool")
            .field("config", &self.config)
            .field("len", &self.len())
            .finish()
    }
}

impl EnginePool {
    /// Creates an empty pool.
    pub fn new(config: PoolConfig) -> Self {
        EnginePool { config, inner: Mutex::new(Inner { slots: HashMap::new(), tick: 0 }) }
    }

    /// Resident engine count (including ones still preparing).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().slots.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the engine for `key`, preparing (and inserting) on miss via
    /// `build`. Concurrent calls with the same key coalesce into a single
    /// `build`.
    ///
    /// # Errors
    ///
    /// [`DtcError::PoolExhausted`] when the pool is full of warmup-pinned
    /// entries; whatever `build` returns when preparation fails (a failed
    /// prepare is not cached — the next request retries).
    pub fn get_or_prepare(
        &self,
        key: PoolKey,
        build: impl FnOnce() -> Result<Box<dyn SpmmEngine>, DtcError>,
    ) -> Result<Fetched, DtcError> {
        let (cell, hit) = {
            let mut inner = self.inner.lock().unwrap();
            let inner = &mut *inner;
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(slot) = inner.slots.get_mut(&key) {
                slot.uses += 1;
                slot.last_use = tick;
                crate::telemetry::pool_hits().incr();
                (Arc::clone(&slot.cell), true)
            } else {
                if inner.slots.len() >= self.config.capacity {
                    self.evict_lru(inner)?;
                }
                let cell: EngineCell = Arc::new(OnceLock::new());
                let slot = Slot { cell: Arc::clone(&cell), uses: 1, last_use: tick };
                inner.slots.insert(key.clone(), slot);
                // The protocol invariant the sched lints audit: the slot
                // is filed (here, under the pool lock) BEFORE the engine
                // build runs, so same-key callers coalesce onto the cell.
                log_pool_event(|| PoolEvent::Insert { primary: key.primary() });
                crate::telemetry::pool_misses().incr();
                (cell, false)
            }
        };
        // Prepare outside the pool lock: other keys must not wait on this
        // build, and same-key callers block on the OnceLock instead.
        let result = cell
            .get_or_init(|| {
                let _span = dtc_telemetry::span("serve.prepare");
                let built = build().map(Arc::from);
                if built.is_ok() {
                    log_pool_event(|| PoolEvent::Publish { primary: key.primary() });
                }
                built
            })
            .clone();
        match result {
            Ok(engine) => Ok(Fetched { engine, hit }),
            Err(e) => {
                // Drop the failed slot so the next request can retry —
                // unless a later request already replaced it.
                let mut inner = self.inner.lock().unwrap();
                if inner.slots.get(&key).is_some_and(|s| Arc::ptr_eq(&s.cell, &cell)) {
                    Self::remove_slot(&mut inner, &key);
                }
                Err(e)
            }
        }
    }

    /// Drops every resident engine prepared from the matrix identified by
    /// `material`, across all engine families, devices, and configurations.
    /// Returns how many slots were removed.
    ///
    /// This is the pool's half of the delta-update invalidation contract:
    /// after a tenant edits a matrix in place, every pooled engine keyed by
    /// the pre-edit [`KeyMaterial`] is stale. Entries still inside their
    /// warmup pin are removed too — staleness overrides amortization.
    pub fn invalidate_material(&self, material: &KeyMaterial) -> usize {
        let mut inner = self.inner.lock().unwrap();
        let before = inner.slots.len();
        inner.slots.retain(|key, _| {
            let stale = key.material == *material;
            if stale {
                log_pool_event(|| PoolEvent::Remove { primary: key.primary() });
            }
            !stale
        });
        let removed = before - inner.slots.len();
        if removed > 0 {
            crate::telemetry::pool_invalidations().add(removed as u64);
        }
        removed
    }

    /// Unfiles one slot and logs its removal.
    fn remove_slot(inner: &mut Inner, key: &PoolKey) {
        inner.slots.remove(key);
        log_pool_event(|| PoolEvent::Remove { primary: key.primary() });
    }

    /// Evicts the least-recently-used entry whose warmup pin has expired.
    fn evict_lru(&self, inner: &mut Inner) -> Result<(), DtcError> {
        let victim = inner
            .slots
            .iter()
            .filter(|(_, slot)| slot.uses >= self.config.warmup_uses)
            .min_by_key(|(_, slot)| slot.last_use)
            .map(|(key, _)| key.clone())
            .ok_or(DtcError::PoolExhausted { capacity: self.config.capacity })?;
        Self::remove_slot(inner, &victim);
        crate::telemetry::pool_evictions().incr();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtc_formats::gen::uniform;
    use dtc_formats::CsrMatrix;

    fn key_of(a: &CsrMatrix, config: &EngineConfig) -> PoolKey {
        PoolKey::new(EngineKind::Dtc, config, KeyMaterial::of(a))
    }

    fn prepare_dtc<'a>(
        a: &'a CsrMatrix,
        config: &EngineConfig,
    ) -> impl FnOnce() -> Result<Box<dyn SpmmEngine>, DtcError> + 'a {
        let config = config.clone();
        move || dtc_core::prepare(EngineKind::Dtc, &config, a)
    }

    #[test]
    fn same_key_hits_and_shares_the_engine() {
        let pool = EnginePool::new(PoolConfig::default());
        let config = EngineConfig::default();
        let a = uniform(96, 96, 700, 9001);
        let first = pool.get_or_prepare(key_of(&a, &config), prepare_dtc(&a, &config)).unwrap();
        assert!(!first.hit);
        let again = pool.get_or_prepare(key_of(&a, &config), prepare_dtc(&a, &config)).unwrap();
        assert!(again.hit);
        assert!(Arc::ptr_eq(&first.engine, &again.engine));
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn distinct_configs_get_distinct_engines() {
        let pool = EnginePool::new(PoolConfig::default());
        let a = uniform(96, 96, 700, 9002);
        let tf32 = EngineConfig::default();
        let fp16 = EngineConfig { precision: dtc_core::Precision::Fp16, ..EngineConfig::default() };
        let e1 = pool.get_or_prepare(key_of(&a, &tf32), prepare_dtc(&a, &tf32)).unwrap();
        let e2 = pool.get_or_prepare(key_of(&a, &fp16), prepare_dtc(&a, &fp16)).unwrap();
        assert!(!e2.hit, "different config fingerprint must be a different entry");
        assert!(!Arc::ptr_eq(&e1.engine, &e2.engine));
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn eviction_respects_warmup_pins() {
        // capacity 2, warmup 2: entries become evictable after 2 uses.
        let pool = EnginePool::new(PoolConfig { capacity: 2, warmup_uses: 2 });
        let config = EngineConfig::default();
        let a = uniform(64, 64, 300, 9005);
        let b = uniform(64, 64, 300, 9006);
        let c = uniform(64, 64, 300, 9007);
        pool.get_or_prepare(key_of(&a, &config), prepare_dtc(&a, &config)).unwrap();
        pool.get_or_prepare(key_of(&b, &config), prepare_dtc(&b, &config)).unwrap();
        // Both cold (1 use each < warmup 2): a third key must be refused.
        let err = pool.get_or_prepare(key_of(&c, &config), prepare_dtc(&c, &config)).unwrap_err();
        assert!(matches!(err, DtcError::PoolExhausted { capacity: 2 }));
        assert_eq!(pool.len(), 2);
        // Warm A past its pin; B stays cold. Inserting C must now evict A
        // (the only evictable entry), never the pinned B.
        pool.get_or_prepare(key_of(&a, &config), prepare_dtc(&a, &config)).unwrap();
        let fc = pool.get_or_prepare(key_of(&c, &config), prepare_dtc(&c, &config)).unwrap();
        assert!(!fc.hit);
        assert_eq!(pool.len(), 2);
        // B survived the eviction (still resident = hit).
        assert!(pool.get_or_prepare(key_of(&b, &config), prepare_dtc(&b, &config)).unwrap().hit);
        // A was evicted (miss again). B's slot got warmed by the hit above,
        // so the pool evicts it now rather than refusing.
        assert!(!pool.get_or_prepare(key_of(&a, &config), prepare_dtc(&a, &config)).unwrap().hit);
    }

    #[test]
    fn evicted_key_misses_and_is_prepared_again() {
        let pool = EnginePool::new(PoolConfig { capacity: 2, warmup_uses: 1 });
        let config = EngineConfig::default();
        let a = uniform(64, 64, 300, 9101);
        let b = uniform(64, 64, 300, 9102);
        let c = uniform(48, 48, 200, 9103);
        pool.get_or_prepare(key_of(&a, &config), prepare_dtc(&a, &config)).unwrap();
        assert!(pool.get_or_prepare(key_of(&a, &config), prepare_dtc(&a, &config)).unwrap().hit);
        pool.get_or_prepare(key_of(&b, &config), prepare_dtc(&b, &config)).unwrap();
        assert!(pool.get_or_prepare(key_of(&b, &config), prepare_dtc(&b, &config)).unwrap().hit);
        // C evicts A, the least recently used.
        let fc = pool.get_or_prepare(key_of(&c, &config), prepare_dtc(&c, &config)).unwrap();
        assert!(!fc.hit);
        assert_eq!(fc.engine.rows(), 48);
        // A is a full miss and gets its own engine back.
        let fa = pool.get_or_prepare(key_of(&a, &config), prepare_dtc(&a, &config)).unwrap();
        assert!(!fa.hit, "an evicted key must miss");
        assert_eq!(fa.engine.rows(), 64);
    }

    #[test]
    fn pool_event_stream_passes_the_protocol_lints() {
        // Capture the real protocol over every removal path — LRU
        // eviction, a material purge and a failed prepare. The captured
        // stream must satisfy every pool lint, and its net inserts must
        // equal the resident count.
        set_pool_event_log(true);
        let _ = drain_pool_events();
        let pool = EnginePool::new(PoolConfig { capacity: 2, warmup_uses: 1 });
        let config = EngineConfig::default();
        let a = uniform(64, 64, 300, 9201);
        let b = uniform(64, 64, 300, 9202);
        let c = uniform(48, 48, 200, 9203);
        // Non-square matrix: TCGNN preparation fails.
        let bad = uniform(64, 32, 128, 9204);
        let (ka, kb, kc) = (key_of(&a, &config), key_of(&b, &config), key_of(&c, &config));
        let kbad = PoolKey::new(EngineKind::Tcgnn, &config, KeyMaterial::of(&bad));
        pool.get_or_prepare(ka.clone(), prepare_dtc(&a, &config)).unwrap();
        pool.get_or_prepare(ka.clone(), prepare_dtc(&a, &config)).unwrap();
        pool.get_or_prepare(kb.clone(), prepare_dtc(&b, &config)).unwrap();
        pool.get_or_prepare(kb.clone(), prepare_dtc(&b, &config)).unwrap();
        pool.get_or_prepare(kc.clone(), prepare_dtc(&c, &config)).unwrap(); // evicts A
        assert_eq!(pool.invalidate_material(&KeyMaterial::of(&b)), 1);
        pool.get_or_prepare(kbad.clone(), || dtc_core::prepare(EngineKind::Tcgnn, &config, &bad))
            .unwrap_err();
        set_pool_event_log(false);

        // Other tests in this binary may emit events concurrently; keep
        // only this pool's keys.
        let ours = [&ka, &kb, &kc, &kbad].map(PoolKey::primary);
        let events: Vec<PoolEvent> = drain_pool_events()
            .into_iter()
            .filter(|e| {
                let (PoolEvent::Insert { primary }
                | PoolEvent::Publish { primary }
                | PoolEvent::Remove { primary }) = *e;
                ours.contains(&primary)
            })
            .collect();
        for (key, path) in [(&ka, "eviction"), (&kb, "purge"), (&kbad, "failed prepare")] {
            let removed = PoolEvent::Remove { primary: key.primary() };
            assert!(events.contains(&removed), "{path} must log a removal: {events:?}");
        }
        assert!(
            !events.contains(&PoolEvent::Publish { primary: kbad.primary() }),
            "a failed prepare must not publish: {events:?}"
        );
        let count = |f: fn(&PoolEvent) -> bool| events.iter().filter(|e| f(e)).count();
        let inserts = count(|e| matches!(e, PoolEvent::Insert { .. }));
        let removes = count(|e| matches!(e, PoolEvent::Remove { .. }));
        assert_eq!(inserts - removes, pool.len(), "{events:?}");

        let diags = dtc_verify::verify_pool_events("pool", &events);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn invalidate_material_drops_every_family_but_spares_others() {
        // One matrix pooled under two configs plus a baseline family, a
        // second matrix resident alongside: invalidating the first matrix
        // must drop exactly its three slots — warmup pins notwithstanding —
        // and leave the bystander resident (still a hit).
        let pool = EnginePool::new(PoolConfig::default());
        let a = uniform(96, 96, 700, 9301);
        let b = uniform(64, 64, 300, 9302);
        let tf32 = EngineConfig::default();
        let fp16 = EngineConfig { precision: dtc_core::Precision::Fp16, ..EngineConfig::default() };
        pool.get_or_prepare(key_of(&a, &tf32), prepare_dtc(&a, &tf32)).unwrap();
        pool.get_or_prepare(key_of(&a, &fp16), prepare_dtc(&a, &fp16)).unwrap();
        let ck = PoolKey::new(EngineKind::Cusparse, &tf32, KeyMaterial::of(&a));
        pool.get_or_prepare(ck.clone(), || dtc_core::prepare(EngineKind::Cusparse, &tf32, &a))
            .unwrap();
        pool.get_or_prepare(key_of(&b, &tf32), prepare_dtc(&b, &tf32)).unwrap();
        assert_eq!(pool.len(), 4);

        assert_eq!(pool.invalidate_material(&KeyMaterial::of(&a)), 3);
        assert_eq!(pool.len(), 1);
        // The bystander survived; every purged key is a cold miss again.
        assert!(pool.get_or_prepare(key_of(&b, &tf32), prepare_dtc(&b, &tf32)).unwrap().hit);
        assert!(!pool.get_or_prepare(key_of(&a, &tf32), prepare_dtc(&a, &tf32)).unwrap().hit);
        assert!(
            !pool
                .get_or_prepare(ck, || dtc_core::prepare(EngineKind::Cusparse, &tf32, &a))
                .unwrap()
                .hit
        );
        // Purging again finds exactly what was re-prepared since.
        assert_eq!(pool.invalidate_material(&KeyMaterial::of(&b)), 1);
        assert_eq!(pool.invalidate_material(&KeyMaterial::of(&a)), 2);
        assert!(pool.is_empty());
    }

    #[test]
    fn failed_prepare_is_not_cached() {
        let pool = EnginePool::new(PoolConfig::default());
        let config = EngineConfig::default();
        // Non-square matrix: TCGNN preparation fails.
        let a = uniform(64, 32, 128, 9008);
        let key = PoolKey::new(EngineKind::Tcgnn, &config, KeyMaterial::of(&a));
        let err = pool
            .get_or_prepare(key.clone(), || dtc_core::prepare(EngineKind::Tcgnn, &config, &a))
            .unwrap_err();
        assert!(matches!(err, DtcError::Format(_)));
        assert_eq!(pool.len(), 0, "failed prepare must not occupy a slot");
        // A later request with a working builder succeeds under the same key.
        let ok = pool
            .get_or_prepare(key, || dtc_core::prepare(EngineKind::Cusparse, &config, &a))
            .unwrap();
        assert!(!ok.hit);
        assert_eq!(ok.engine.rows(), 64);
    }
}
