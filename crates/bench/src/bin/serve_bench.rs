//! Closed-loop offered-load sweep of the `dtc-serve` serving layer.
//!
//! A 4-tenant repeated-matrix workload (two matrices shared pairwise, two
//! engine families) is replayed against an [`SpmmServer`] by the
//! virtual-clock load generator at offered rates calibrated around the
//! measured single-request service rate. Writes `BENCH_serve.json`:
//! achieved QPS, p50/p99 latency, batch-size histogram and engine-pool
//! hit rate per point.
//!
//! Every run first pins correctness: one request per tenant is served
//! through the full admission → pool → batch path and must be
//! **bitwise-equal** to executing the same engine directly.
//!
//! `--smoke` runs a reduced sweep and gates CI: steady-state pool hit
//! rate ≥ 90%, finite latency percentiles, and the bitwise check. It
//! writes `BENCH_serve_smoke.json`, leaving the full-run file alone.
//! `--verify` turns on the per-batch dtc-verify lint replay.

use dtc_core::{EngineConfig, EngineKind};
use dtc_formats::{gen, DenseMatrix};
use dtc_serve::loadgen::{self, LoadGenConfig, LoadPoint, TenantSpec};
use dtc_serve::{Request, ServeConfig, SpmmServer};
use dtc_telemetry::json::Json;
use std::sync::Arc;

/// The smoke gate: steady-state engine-pool hit rate on the repeated-
/// matrix workload must reach this.
const HIT_RATE_GATE: f64 = 0.90;

/// The 4-tenant repeated-matrix workload: tenants 0/2 share one matrix and
/// tenants 1/3 another, exercising cross-tenant engine sharing (same key)
/// next to genuinely distinct engines (different kind or matrix).
fn tenants(small: bool) -> Vec<TenantSpec> {
    let scale = if small { 1 } else { 4 };
    let a = Arc::new(gen::uniform(96 * scale, 96 * scale, 900 * scale, 0xA11));
    let b = Arc::new(gen::power_law(128 * scale, 128 * scale, 8.0, 2.2, 0xB22));
    vec![
        TenantSpec {
            kind: EngineKind::Dtc,
            config: EngineConfig::default(),
            matrix: Arc::clone(&a),
            n_cols: 16,
        },
        TenantSpec {
            kind: EngineKind::Dtc,
            config: EngineConfig::default(),
            matrix: Arc::clone(&b),
            n_cols: 8,
        },
        TenantSpec {
            kind: EngineKind::Dtc,
            config: EngineConfig::default(),
            matrix: Arc::clone(&a),
            n_cols: 32,
        },
        TenantSpec {
            kind: EngineKind::Cusparse,
            config: EngineConfig::default(),
            matrix: Arc::clone(&b),
            n_cols: 16,
        },
    ]
}

/// Serves one request per tenant through the full path and asserts each
/// result is bitwise-equal to executing the prepared engine directly.
fn assert_bitwise(tenants: &[TenantSpec], serve: &ServeConfig) {
    let server = SpmmServer::new(serve.clone());
    for (t, spec) in tenants.iter().enumerate() {
        let b = DenseMatrix::from_fn(spec.matrix.cols(), spec.n_cols, |r, c| {
            ((r * 31 + c * 7 + t) % 17) as f32 - 8.0
        });
        let served = server
            .serve_one(Request {
                tenant: t,
                kind: spec.kind,
                config: spec.config.clone(),
                matrix: Arc::clone(&spec.matrix),
                b: b.clone(),
            })
            .expect("serve_one failed");
        let direct = dtc_core::prepare(spec.kind, &spec.config, &spec.matrix)
            .expect("direct prepare failed")
            .execute(&b)
            .expect("direct execute failed");
        assert_eq!(
            served.as_slice(),
            direct.as_slice(),
            "tenant {t}: served result differs from direct execution"
        );
    }
    println!("bitwise: served == direct for all {} tenants", tenants.len());
}

/// Mean warm-request latency against one server whose engine pool already
/// holds every tenant engine.
fn warm_request_ms(tenants: &[TenantSpec], serve: &ServeConfig, rounds: usize) -> f64 {
    let server = SpmmServer::new(serve.clone());
    let request = |t: usize| Request {
        tenant: t,
        kind: tenants[t].kind,
        config: tenants[t].config.clone(),
        matrix: Arc::clone(&tenants[t].matrix),
        b: DenseMatrix::ones(tenants[t].matrix.cols(), tenants[t].n_cols),
    };
    for t in 0..tenants.len() {
        server.serve_one(request(t)).expect("pool warmup failed");
    }
    let t0 = std::time::Instant::now();
    for _ in 0..rounds {
        for t in 0..tenants.len() {
            server.serve_one(request(t)).expect("warm serve failed");
        }
    }
    t0.elapsed().as_secs_f64() * 1e3 / (rounds * tenants.len()) as f64
}

fn json_point(p: &LoadPoint) -> Json {
    let hist = p
        .batch_hist
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(s, &n)| {
            Json::obj_inline(vec![("batch_size", Json::usize(s + 1)), ("batches", Json::u64(n))])
        })
        .collect();
    Json::obj_inline(vec![
        ("offered_qps", Json::f(p.offered_qps, 1)),
        ("achieved_qps", Json::f(p.achieved_qps, 1)),
        ("p50_ms", Json::f(p.p50_ms, 4)),
        ("p99_ms", Json::f(p.p99_ms, 4)),
        ("completed", Json::usize(p.completed)),
        ("rejected", Json::usize(p.rejected)),
        ("batches", Json::usize(p.batches)),
        ("mean_batch", Json::f(p.mean_batch, 3)),
        ("hit_rate", Json::f(p.hit_rate, 4)),
        ("batch_hist", Json::arr_inline(hist)),
    ])
}

fn main() {
    let _metrics = dtc_bench::metrics_flush_guard();
    let args = dtc_bench::cli::Args::parse();
    let smoke = args.smoke();
    let verify = args.flag("verify");

    let serve = ServeConfig { verify, ..ServeConfig::default() };
    let tenants = tenants(smoke);
    assert_bitwise(&tenants, &serve);

    let cfg = LoadGenConfig {
        serve,
        requests: if smoke { 200 } else { 800 },
        ..LoadGenConfig::default()
    };
    let service_ms = loadgen::calibrate_service_ms(&tenants, &cfg)
        .expect("bench tenants are well-formed; calibration must succeed");
    let mu = 1e3 / service_ms; // single-request service rate, QPS
    let multiples: &[f64] =
        if smoke { &[0.25, 1.0, 4.0] } else { &[0.25, 0.5, 1.0, 2.0, 4.0, 8.0] };
    let rates: Vec<f64> = multiples.iter().map(|m| m * mu).collect();
    println!(
        "calibrated service time {service_ms:.4} ms ({mu:.0} QPS); sweeping {} points{}",
        rates.len(),
        if verify { " with verify gate" } else { "" }
    );

    let points = loadgen::sweep(&tenants, &cfg, &rates);
    for p in &points {
        println!(
            "  offered {:8.0} QPS -> achieved {:8.0} QPS  p50 {:8.4} ms  p99 {:8.4} ms  \
             mean batch {:5.2}  hit rate {:.1}%  rejected {}",
            p.offered_qps,
            p.achieved_qps,
            p.p50_ms,
            p.p99_ms,
            p.mean_batch,
            p.hit_rate * 100.0,
            p.rejected
        );
    }

    let rounds = if smoke { 25 } else { 100 };
    let warm_ms = warm_request_ms(&tenants, &cfg.serve, rounds);
    println!("warm request (every engine resident): {warm_ms:.4} ms");

    let json = Json::obj(vec![
        ("bench", Json::str("serve")),
        ("smoke", Json::bool(smoke)),
        ("verify", Json::bool(verify)),
        ("tenants", Json::usize(tenants.len())),
        ("requests_per_point", Json::usize(cfg.requests)),
        ("calibrated_service_ms", Json::f(service_ms, 4)),
        ("warm_request_ms", Json::f(warm_ms, 4)),
        ("sweep", Json::arr(points.iter().map(json_point).collect())),
    ])
    .render();
    let artifact = if smoke { "BENCH_serve_smoke.json" } else { "BENCH_serve.json" };
    std::fs::write(artifact, &json).expect("write serve artifact");
    println!("wrote {artifact} ({} sweep points)", points.len());

    // The CI gates: the repeated-matrix workload must be dominated by pool
    // hits once the 4 engines are resident, and latency must be measured.
    let steady = points.last().expect("sweep is non-empty");
    assert!(
        steady.hit_rate >= HIT_RATE_GATE,
        "steady-state pool hit rate {:.3} below the {HIT_RATE_GATE} gate",
        steady.hit_rate
    );
    for p in &points {
        assert!(p.p50_ms.is_finite() && p.p99_ms.is_finite(), "non-finite latency percentile");
        assert!(p.completed > 0, "a load point completed no requests");
    }
    println!(
        "serve gate OK: steady-state hit rate {:.1}% >= {:.0}%",
        steady.hit_rate * 100.0,
        HIT_RATE_GATE * 100.0
    );
}
