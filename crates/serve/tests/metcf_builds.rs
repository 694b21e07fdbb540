//! `core.metcf.builds` counts DTC engines whose deferred ME-TCF, Selector
//! decision and kernel were built. The host path — prepare, execute,
//! batched execute, delta updates and serving with admission verification
//! on — must never build them; each simulator-side accessor builds them
//! exactly once per engine, and once more after each delta.
//!
//! The counter is process-wide, so this file is its own test binary and
//! its tests serialize on one lock.

use std::hint::black_box;
use std::sync::{Arc, Mutex};

use dtc_core::{prepare, DtcSpmm, EngineConfig, EngineKind, MatrixDelta, SpmmEngine};
use dtc_formats::{gen, CsrMatrix, DenseMatrix};
use dtc_serve::{Request, ServeConfig, SpmmServer};
use dtc_sim::Device;

static LOCK: Mutex<()> = Mutex::new(());

/// One call that needs the engine's ME-TCF.
type Accessor = fn(&mut DtcSpmm, &Device);

const ACCESSORS: [(&str, Accessor); 6] = [
    ("metcf", |e, _| {
        black_box(e.metcf());
    }),
    ("decision", |e, _| {
        black_box(e.decision());
    }),
    ("choice", |e, _| {
        black_box(e.choice());
    }),
    ("name", |e, _| {
        black_box(e.name());
    }),
    ("trace", |e, d| {
        black_box(e.trace(8, d, false));
    }),
    ("simulate", |e, d| {
        black_box(e.simulate(8, d));
    }),
];

fn builds() -> u64 {
    dtc_telemetry::counter("core.metcf.builds").get()
}

fn dense(rows: usize, cols: usize, seed: usize) -> DenseMatrix {
    DenseMatrix::from_fn(rows, cols, |r, c| ((r * 7 + c * 3 + seed) % 13) as f32 - 6.0)
}

#[test]
fn the_host_path_never_builds_metcf() {
    let _serial = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let before = builds();
    let a = Arc::new(gen::power_law(256, 256, 6.0, 2.2, 1));
    for reorder in [false, true] {
        let config = EngineConfig { reorder, ..EngineConfig::default() };
        let engine = prepare(EngineKind::Dtc, &config, &a).expect("prepare");
        assert_eq!((engine.rows(), engine.cols(), engine.nnz()), (256, 256, a.nnz()));
        engine.execute(&dense(256, 8, 0)).expect("execute");
        engine.execute_many(vec![dense(256, 3, 1), dense(256, 16, 2)]).expect("execute_many");

        let server =
            SpmmServer::new(ServeConfig { admission_verify: true, ..ServeConfig::default() });
        let request = |n, seed| Request {
            tenant: 0,
            kind: EngineKind::Dtc,
            config: config.clone(),
            matrix: Arc::clone(&a),
            b: dense(256, n, seed),
        };
        server.serve_one(request(4, 3)).expect("serve_one");
        server.admit(request(8, 4)).expect("admit");
        server.admit(request(2, 5)).expect("admit");
        let batch = server.serve_next_batch().expect("a queued batch").expect("served");
        assert_eq!(batch.batch_size, 2);
    }
    assert_eq!(builds(), before, "the host path built an ME-TCF");
}

#[test]
fn each_simulator_accessor_builds_metcf_once_per_engine() {
    let _serial = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let a: CsrMatrix = gen::uniform(192, 192, 1500, 2);
    let device = Device::rtx4090();
    for (name, force) in ACCESSORS {
        let mut engine = DtcSpmm::new(&a);
        engine.execute(&dense(192, 4, 0)).expect("execute");
        let before = builds();
        force(&mut engine, &device);
        assert_eq!(builds(), before + 1, "{name} must build the engine's ME-TCF");
        // Every accessor again, and executes around them: no second build.
        for (_, again) in ACCESSORS {
            again(&mut engine, &device);
        }
        engine.execute(&dense(192, 4, 1)).expect("execute");
        assert_eq!(builds(), before + 1, "{name}: the engine built its ME-TCF twice");
    }
}

#[test]
fn a_delta_builds_no_metcf_and_the_next_accessor_builds_once() {
    let _serial = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let a: CsrMatrix = gen::uniform(192, 192, 1500, 3);
    let device = Device::rtx4090();
    let mut delta = MatrixDelta::new();
    delta.insert(3, 7, 1.5);
    delta.insert(100, 9, -2.0);

    // Unforced: a delta and the executes around it stay on the host path.
    for reorder in [false, true] {
        let mut engine = DtcSpmm::builder().reorder(reorder).build(&a);
        let before = builds();
        engine.execute(&dense(192, 4, 0)).expect("execute");
        engine.apply_delta(&delta).expect("in-bounds delta");
        engine.execute(&dense(192, 4, 1)).expect("execute");
        assert_eq!(builds(), before, "reorder={reorder}: apply_delta built an ME-TCF");
    }

    // Forced: the delta drops the simulator side, and the next accessor
    // rebuilds it exactly once.
    for (name, force) in ACCESSORS {
        let mut engine = DtcSpmm::new(&a);
        black_box(engine.metcf());
        let before = builds();
        engine.apply_delta(&delta).expect("in-bounds delta");
        assert_eq!(builds(), before, "{name}: apply_delta built an ME-TCF");
        force(&mut engine, &device);
        assert_eq!(builds(), before + 1, "{name} must rebuild the edited engine's ME-TCF");
        for (_, again) in ACCESSORS {
            again(&mut engine, &device);
        }
        assert_eq!(builds(), before + 1, "{name}: the edited engine built its ME-TCF twice");
    }
}
