//! Integration tests for the `dtc-serve` serving layer: coalesced
//! preparation, warmup-pinned eviction, collision safety and bitwise
//! conformance of the served path against direct engine execution.
//!
//! The conversion cache and the telemetry registry are process-wide, so
//! tests that measure their counters serialize on one mutex.

use dtc_spmm::baselines::{CusparseSpmm, SpmmEngine, SputnikSpmm, TcgnnSpmm};
use dtc_spmm::core::{
    conversion_cache_stats, prepare, DtcError, DtcSpmm, EngineConfig, EngineKind, KeyMaterial,
};
use dtc_spmm::formats::{gen, CsrMatrix, DenseMatrix};
use dtc_spmm::serve::{EnginePool, PoolConfig, PoolKey, Request, ServeConfig, SpmmServer};
use std::sync::{Arc, Barrier, Mutex};

static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn dense_for(a: &CsrMatrix, n: usize, salt: usize) -> DenseMatrix {
    DenseMatrix::from_fn(a.cols(), n, |r, c| ((r * 13 + c * 5 + salt) % 23) as f32 - 11.0)
}

/// A thundering herd of same-key requests must coalesce into exactly one
/// preparation: one conversion-cache miss total, all threads sharing the
/// same engine — even with the intra-engine thread pool active.
#[test]
fn concurrent_same_key_requests_prepare_once() {
    let _serial = COUNTER_LOCK.lock().unwrap();
    dtc_spmm::par::set_threads(Some(4));
    let a = Arc::new(gen::uniform(160, 160, 1900, 0x5e71));
    let config = EngineConfig::default();
    let pool = Arc::new(EnginePool::new(PoolConfig::default()));
    let (_, misses_before) = conversion_cache_stats();

    let workers = 8;
    let barrier = Arc::new(Barrier::new(workers));
    // Spawn ALL handles before joining any: the barrier makes the herd
    // truly concurrent, so a lazy spawn/join chain would deadlock.
    let handles: Vec<_> = (0..workers)
        .map(|_| {
            let (pool, a, config, barrier) =
                (Arc::clone(&pool), Arc::clone(&a), config.clone(), Arc::clone(&barrier));
            std::thread::spawn(move || {
                let key = PoolKey::new(EngineKind::Dtc, &config, KeyMaterial::of(&a));
                barrier.wait();
                pool.get_or_prepare(key, || prepare(EngineKind::Dtc, &config, &a))
                    .expect("pooled prepare failed")
                    .engine
            })
        })
        .collect();
    let engines: Vec<_> = handles.into_iter().map(|h| h.join().expect("worker panicked")).collect();

    let (_, misses_after) = conversion_cache_stats();
    assert_eq!(
        misses_after - misses_before,
        1,
        "same-key herd must pay exactly one conversion, not one per thread"
    );
    assert_eq!(pool.len(), 1);
    for e in &engines[1..] {
        assert!(Arc::ptr_eq(&engines[0], e), "all threads must share one engine");
    }
    dtc_spmm::par::set_threads(None);
}

/// Eviction must skip entries still inside their warmup window even when
/// they are the least recently used, and refuse (not thrash) when every
/// resident engine is pinned.
#[test]
fn eviction_respects_warmup_pins_through_server() {
    let _serial = COUNTER_LOCK.lock().unwrap();
    let serve =
        ServeConfig { pool: PoolConfig { capacity: 2, warmup_uses: 2 }, ..ServeConfig::default() };
    let server = SpmmServer::new(serve);
    let mats: Vec<Arc<CsrMatrix>> =
        (0..3).map(|i| Arc::new(gen::uniform(64, 64, 400, 0xE1 + i))).collect();
    let req = |m: &Arc<CsrMatrix>| Request {
        tenant: 0,
        kind: EngineKind::Dtc,
        config: EngineConfig::default(),
        matrix: Arc::clone(m),
        b: dense_for(m, 4, 1),
    };

    // Fill the pool with two cold (pinned) engines.
    server.serve_one(req(&mats[0])).unwrap();
    server.serve_one(req(&mats[1])).unwrap();
    // Both pinned: a third matrix must be refused, not evict a cold engine.
    match server.serve_one(req(&mats[2])) {
        Err(DtcError::PoolExhausted { capacity: 2 }) => {}
        other => panic!("expected PoolExhausted, got {other:?}"),
    }
    // Warm engine 0 past its pin; now the third matrix evicts it.
    server.serve_one(req(&mats[0])).unwrap();
    server.serve_one(req(&mats[2])).expect("evictable LRU entry must make room");
    assert_eq!(server.pool().len(), 2);
}

/// Two matrices crafted to share a `KeyMaterial` fingerprint must still be
/// served from distinct engines: the pool verifies full key equality, so a
/// fingerprint collision degrades to a shared bucket, never to one tenant
/// receiving another tenant's result.
#[test]
fn keymaterial_fingerprint_collision_is_served_correctly() {
    let _serial = COUNTER_LOCK.lock().unwrap();
    // Same shape and nnz, different entries: identical structural prefix
    // maximizes key overlap; fingerprints may or may not collide, but the
    // pool must behave identically either way because hits verify the full
    // KeyMaterial (checksums included).
    let a = Arc::new(gen::uniform(96, 96, 800, 0xAAAA));
    let b = Arc::new(gen::uniform(96, 96, 800, 0xBBBB));
    assert_eq!(a.nnz(), b.nnz(), "collision setup needs equal nnz");
    let config = EngineConfig::default();
    let ka = KeyMaterial::of(&a);
    let kb = KeyMaterial::of(&b);
    assert_ne!(ka, kb, "full keys must differ");

    let server = SpmmServer::new(ServeConfig::default());
    for (m, salt) in [(&a, 3), (&b, 4), (&a, 5), (&b, 6)] {
        let bmat = dense_for(m, 8, salt);
        let served = server
            .serve_one(Request {
                tenant: salt,
                kind: EngineKind::Dtc,
                config: config.clone(),
                matrix: Arc::clone(m),
                b: bmat.clone(),
            })
            .unwrap();
        let direct = DtcSpmm::builder().config(config.clone()).build(m).execute(&bmat).unwrap();
        assert_eq!(served.as_slice(), direct.as_slice(), "collision cross-talk detected");
    }
    assert_eq!(server.pool().len(), 2, "both matrices must be resident separately");
}

/// The concrete kernel each `prepare` family boxes, built directly.
fn concrete(kind: EngineKind, config: &EngineConfig, a: &CsrMatrix) -> Box<dyn SpmmEngine> {
    match kind {
        EngineKind::Dtc => Box::new(DtcSpmm::builder().config(config.clone()).build(a)),
        EngineKind::Cusparse => Box::new(CusparseSpmm::new(a)),
        EngineKind::Sputnik => Box::new(SputnikSpmm::new(a).unwrap()),
        EngineKind::Tcgnn => Box::new(TcgnnSpmm::new(a).unwrap()),
        other => panic!("no concrete kernel for {other:?}"),
    }
}

/// Every engine family reachable through `prepare` must return exactly the
/// bits its concrete implementation returns: the trait dispatch layer may
/// not perturb results, names or simulated times.
#[test]
fn trait_dispatch_is_bitwise_identical() {
    let a = gen::power_law(128, 128, 7.0, 2.3, 0x7777);
    let b = dense_for(&a, 16, 9);
    let config = EngineConfig::default();
    for kind in [EngineKind::Dtc, EngineKind::Cusparse, EngineKind::Sputnik, EngineKind::Tcgnn] {
        let engine = prepare(kind, &config, &a).expect("prepare failed");
        let direct = concrete(kind, &config, &a);
        let via_trait = engine.execute(&b).expect("trait execute failed");
        let want = direct.execute(&b).unwrap();
        let bits = |m: &DenseMatrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&via_trait), bits(&want), "{kind:?} differs from direct");
        assert_eq!(engine.name(), direct.name(), "{kind:?}");
        assert_eq!((engine.rows(), engine.cols()), (a.rows(), a.cols()));
        let (got, want) =
            (engine.simulate(16, &config.device), direct.simulate(16, &config.device));
        assert_eq!(got.time_ms.to_bits(), want.time_ms.to_bits(), "{kind:?} simulated time");
    }
}

/// Batched (coalesced) serving must be bitwise-equal to serving each
/// request alone, at any thread count: output columns are independent, so
/// concatenating operands is numerically free.
#[test]
fn batched_serving_is_bitwise_equal_at_any_thread_count() {
    let _serial = COUNTER_LOCK.lock().unwrap();
    let a = Arc::new(gen::community(192, 192, 8, 9.0, 0.2, 0xC0DE));
    let config = EngineConfig::default();
    let direct = DtcSpmm::builder().config(config.clone()).build(&a);

    for threads in [1usize, 4] {
        dtc_spmm::par::set_threads(Some(threads));
        let server = SpmmServer::new(ServeConfig::default());
        // Queue several same-key requests of different widths, then drain:
        // they must coalesce into one batch.
        let widths = [4usize, 16, 8, 1];
        let seqs: Vec<u64> = widths
            .iter()
            .enumerate()
            .map(|(t, &w)| {
                server
                    .admit(Request {
                        tenant: t,
                        kind: EngineKind::Dtc,
                        config: config.clone(),
                        matrix: Arc::clone(&a),
                        b: dense_for(&a, w, 40 + t),
                    })
                    .expect("admit failed")
            })
            .collect();
        let outcome = server.serve_next_batch().expect("queue non-empty").expect("batch failed");
        assert_eq!(outcome.batch_size, widths.len(), "same-key requests must coalesce");
        assert_eq!(outcome.batch_cols, widths.iter().sum::<usize>());
        assert_eq!(server.queued(), 0);
        for (i, resp) in outcome.responses.iter().enumerate() {
            assert_eq!(resp.seq, seqs[i]);
            let alone = direct.execute(&dense_for(&a, widths[i], 40 + i)).unwrap();
            assert_eq!(
                resp.c.as_slice(),
                alone.as_slice(),
                "batched result differs from solo execution (threads={threads}, req={i})"
            );
        }
    }
    dtc_spmm::par::set_threads(None);
}

/// Admission control: a full queue rejects with `DtcError::Admission` and
/// a malformed operand never reaches the pool.
#[test]
fn admission_rejects_overflow_and_malformed_requests() {
    let a = Arc::new(gen::uniform(64, 64, 300, 0xADA));
    let config = EngineConfig::default();
    let server = SpmmServer::new(ServeConfig { max_queue: 2, ..ServeConfig::default() });
    let req = |w: usize| Request {
        tenant: 0,
        kind: EngineKind::Dtc,
        config: config.clone(),
        matrix: Arc::clone(&a),
        b: dense_for(&a, w, 2),
    };
    server.admit(req(4)).unwrap();
    server.admit(req(4)).unwrap();
    match server.admit(req(4)) {
        Err(DtcError::Admission { .. }) => {}
        other => panic!("expected Admission error, got {other:?}"),
    }
    // Wrong operand height is rejected before touching the queue.
    let bad = Request {
        tenant: 0,
        kind: EngineKind::Dtc,
        config: config.clone(),
        matrix: Arc::clone(&a),
        b: DenseMatrix::zeros(63, 4),
    };
    match server.admit(bad) {
        Err(DtcError::Admission { .. }) => {}
        other => panic!("expected Admission error, got {other:?}"),
    }
    assert_eq!(server.queued(), 2);
}

/// Admission-time static verification: an engine prepared against a
/// deliberately broken device model (zeroed Tensor-Core cost table) must
/// be rejected with `DtcError::Verify` at prepare time — before the first
/// execute — and the failed prepare must not occupy a pool slot. Fixing
/// the configuration then succeeds under the (different) pool key.
#[test]
fn admission_verification_rejects_crafted_illegal_engine() {
    let a = Arc::new(gen::uniform(64, 64, 400, 0xBAD));
    let mut broken = EngineConfig::default();
    broken.device.tc_hmma_per_cycle = 0.0; // cost-table coverage violation
    let server = SpmmServer::new(ServeConfig::default()); // admission_verify on by default
    let req = |config: &EngineConfig| Request {
        tenant: 0,
        kind: EngineKind::Dtc,
        config: config.clone(),
        matrix: Arc::clone(&a),
        b: dense_for(&a, 4, 3),
    };
    match server.serve_one(req(&broken)) {
        Err(DtcError::Verify { kernel, diagnostic, errors }) => {
            assert!(errors >= 1);
            assert!(
                diagnostic.contains("cost-table-coverage"),
                "expected the cost-table lint, got: {diagnostic} (kernel {kernel})"
            );
        }
        other => panic!("expected DtcError::Verify at admission, got {other:?}"),
    }
    assert_eq!(server.pool().len(), 0, "rejected engine must not be cached");

    // The same request under a sound device is served normally.
    let c = server.serve_one(req(&EngineConfig::default())).unwrap();
    assert_eq!(c.rows(), 64);
    assert_eq!(server.pool().len(), 1);

    // Opting out of admission verification restores the old (risky)
    // behavior: the broken engine prepares fine and only per-batch verify
    // or execution would catch it later.
    let lax = SpmmServer::new(ServeConfig { admission_verify: false, ..ServeConfig::default() });
    lax.serve_one(req(&broken)).expect("without the gate the prepare goes through");
}
