//! Closed-loop load generator over a virtual clock.
//!
//! Each load point replays a Poisson arrival stream (exponential
//! inter-arrivals at the offered rate, drawn from the deterministic rand
//! shim) against a fresh [`SpmmServer`] modelled as a single-server queue:
//! requests arriving while the server is busy accumulate in the admission
//! queue (where they coalesce), and each drained batch advances the
//! virtual clock by its *measured wall-clock* execution time. Latency is
//! virtual completion minus virtual arrival, so percentiles are exact,
//! runs are deterministic per seed, and no real time is spent sleeping.
//!
//! This is the engine behind `serve_bench` (writes `BENCH_serve.json`):
//! sweeping offered load across the service rate shows the coalescing
//! payoff — past saturation, batches widen and achieved throughput keeps
//! climbing instead of flatlining at the single-request service rate.

use crate::server::{Request, SpmmServer};
use crate::ServeConfig;
use dtc_core::{DtcError, EngineConfig, EngineKind};
use dtc_formats::{CsrMatrix, DenseMatrix};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// One tenant in a workload: a matrix plus how it is to be multiplied.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Engine family serving this tenant.
    pub kind: EngineKind,
    /// Engine configuration (part of the pool key).
    pub config: EngineConfig,
    /// The tenant's sparse matrix.
    pub matrix: Arc<CsrMatrix>,
    /// Dense columns per request.
    pub n_cols: usize,
}

/// Measured results for one offered-load point.
#[derive(Debug, Clone)]
pub struct LoadPoint {
    /// Offered arrival rate, requests/second.
    pub offered_qps: f64,
    /// Achieved completion rate, requests/second of virtual time.
    pub achieved_qps: f64,
    /// Median request latency, virtual milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency, virtual milliseconds.
    pub p99_ms: f64,
    /// Requests admitted (and completed).
    pub completed: usize,
    /// Requests rejected at admission (queue full).
    pub rejected: usize,
    /// Batches executed successfully.
    pub batches: usize,
    /// Batches that failed (prepare, verify-gate or execution error). The
    /// requests they consumed count as neither completed nor rejected:
    /// `completed + rejected + failed = requests offered`.
    pub failed_batches: usize,
    /// Requests consumed by failed batches.
    pub failed: usize,
    /// Mean requests per batch.
    pub mean_batch: f64,
    /// Histogram of batch sizes: `hist[s]` = batches that coalesced
    /// exactly `s + 1` requests.
    pub batch_hist: Vec<u64>,
    /// Fraction of completed requests served by an already-resident
    /// engine (1 − pool misses ÷ completed): a coalesced batch is one
    /// pool lookup serving every request in it.
    pub hit_rate: f64,
}

/// Load-generator knobs shared by every point of a sweep.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Server under test (queue bound, batch cap, pool sizing, verify).
    pub serve: ServeConfig,
    /// Requests offered per load point.
    pub requests: usize,
    /// RNG seed for arrivals and tenant selection.
    pub seed: u64,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        LoadGenConfig { serve: ServeConfig::default(), requests: 400, seed: 0x5e17e }
    }
}

/// Measures the mean wall-clock service time of one request per tenant,
/// in milliseconds, against a throwaway server. Used to calibrate offered
/// load as a multiple of the service rate.
///
/// # Errors
///
/// Propagates the first request failure (prepare, verify-gate or
/// execution error) so a sweep driver can degrade or skip the workload
/// instead of aborting the whole run.
///
/// # Panics
///
/// Panics if `tenants` is empty (a configuration bug, not a runtime
/// condition).
pub fn calibrate_service_ms(tenants: &[TenantSpec], cfg: &LoadGenConfig) -> Result<f64, DtcError> {
    assert!(!tenants.is_empty(), "no tenants");
    let server = SpmmServer::new(cfg.serve.clone());
    let mut total = 0.0;
    let mut runs = 0usize;
    for rep in 0..3 {
        for (t, spec) in tenants.iter().enumerate() {
            let req = request_for(spec, t, cfg.seed);
            let start = Instant::now();
            server.serve_one(req)?;
            // Skip the cold pass: it pays conversion, not steady-state cost.
            if rep > 0 {
                total += start.elapsed().as_secs_f64() * 1e3;
                runs += 1;
            }
        }
    }
    Ok(total / runs as f64)
}

fn request_for(spec: &TenantSpec, tenant: usize, seed: u64) -> Request {
    let rows = spec.matrix.cols();
    // Deterministic per-tenant operand; content is irrelevant to queueing.
    let mix = seed ^ (tenant as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let b = DenseMatrix::from_fn(rows, spec.n_cols, |r, c| {
        let h = (r as u64 ^ (c as u64) << 20 ^ mix).wrapping_mul(0x2545_f491_4f6c_dd1d);
        ((h >> 40) as f32 / (1u64 << 24) as f32) - 0.5
    });
    Request {
        tenant,
        kind: spec.kind,
        config: spec.config.clone(),
        matrix: Arc::clone(&spec.matrix),
        b,
    }
}

/// Runs one closed-loop load point at `offered_qps` and measures it.
///
/// A failed batch (prepare, verify-gate or execution error) degrades the
/// point instead of aborting it: the batch's requests are counted in
/// [`LoadPoint::failed`], the wall-clock time it burned still advances
/// the virtual clock, and the sweep continues — one misconfigured tenant
/// must not take down every other tenant's measurements.
///
/// # Panics
///
/// Panics if `tenants` is empty or the rate is not positive (both are
/// configuration bugs in the caller).
pub fn run_point(tenants: &[TenantSpec], cfg: &LoadGenConfig, offered_qps: f64) -> LoadPoint {
    assert!(!tenants.is_empty(), "no tenants");
    assert!(offered_qps > 0.0, "offered load must be positive");
    let server = SpmmServer::new(cfg.serve.clone());
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ offered_qps.to_bits());

    // Poisson arrivals: exponential inter-arrival gaps at the offered rate.
    let mut arrivals = Vec::with_capacity(cfg.requests);
    let mut t = 0.0f64;
    for _ in 0..cfg.requests {
        let u: f64 = rng.random_range(1e-12..1.0);
        t += -u.ln() / offered_qps * 1e3; // ms of virtual time
        let tenant = rng.random_range(0..tenants.len());
        arrivals.push((t, tenant));
    }

    let misses0 = crate::telemetry::pool_misses().get();

    let mut arrival_ms = vec![0.0f64; cfg.requests + 2]; // indexed by seq
    let mut latencies = Vec::with_capacity(cfg.requests);
    let mut batch_hist = vec![0u64; cfg.serve.max_batch];
    let mut rejected = 0usize;
    let mut admitted = 0usize;
    let mut batches = 0usize;
    let mut failed_batches = 0usize;
    let mut next = 0usize; // next unoffered arrival
    let mut clock = 0.0f64; // virtual now = when the server is next free
    let mut last_completion = 0.0f64;

    loop {
        // Offer every arrival that lands while the server is busy (≤ clock);
        // if the queue is empty, idle forward to the next arrival.
        if server.queued() == 0 {
            if next >= arrivals.len() {
                break;
            }
            clock = clock.max(arrivals[next].0);
        }
        while next < arrivals.len() && arrivals[next].0 <= clock {
            let (at, tenant) = arrivals[next];
            next += 1;
            match server.admit(request_for(&tenants[tenant], tenant, cfg.seed)) {
                Ok(seq) => {
                    arrival_ms[seq as usize] = at;
                    admitted += 1;
                }
                Err(_) => rejected += 1,
            }
        }

        let start = Instant::now();
        let outcome = match server.serve_next_batch() {
            Some(Ok(outcome)) => outcome,
            Some(Err(_)) => {
                // The batch's requests are consumed; charge the time the
                // failed attempt burned and keep serving other tenants.
                clock += start.elapsed().as_secs_f64() * 1e3;
                failed_batches += 1;
                continue;
            }
            None => continue, // everything since the last batch was rejected
        };
        let service_ms = start.elapsed().as_secs_f64() * 1e3;
        clock += service_ms;
        batches += 1;
        batch_hist[outcome.batch_size - 1] += 1;
        last_completion = clock;
        for resp in &outcome.responses {
            latencies.push(clock - arrival_ms[resp.seq as usize]);
        }
    }

    let misses = crate::telemetry::pool_misses().get() - misses0;
    latencies.sort_by(f64::total_cmp);
    let completed = latencies.len();
    LoadPoint {
        offered_qps,
        achieved_qps: if last_completion > 0.0 {
            completed as f64 / last_completion * 1e3
        } else {
            0.0
        },
        p50_ms: percentile(&latencies, 50.0),
        p99_ms: percentile(&latencies, 99.0),
        completed,
        rejected,
        batches,
        failed_batches,
        failed: admitted - completed,
        mean_batch: if batches > 0 { completed as f64 / batches as f64 } else { 0.0 },
        batch_hist,
        hit_rate: if completed > 0 {
            1.0 - (misses as f64 / completed as f64).min(1.0)
        } else {
            0.0
        },
    }
}

/// Runs [`run_point`] for each offered rate, in order.
pub fn sweep(tenants: &[TenantSpec], cfg: &LoadGenConfig, rates: &[f64]) -> Vec<LoadPoint> {
    rates.iter().map(|&qps| run_point(tenants, cfg, qps)).collect()
}

/// Linear-interpolated percentile of an ascending-sorted sample.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (rank - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenants() -> Vec<TenantSpec> {
        (0..2usize)
            .map(|i| {
                let n = 48 + i * 16;
                TenantSpec {
                    kind: EngineKind::Dtc,
                    config: EngineConfig::default(),
                    matrix: Arc::new(dtc_formats::gen::uniform(n, n, n * 6, 11 + i as u64)),
                    n_cols: 8,
                }
            })
            .collect()
    }

    #[test]
    fn load_point_accounts_for_every_request() {
        let tenants = tenants();
        let cfg = LoadGenConfig { requests: 60, ..LoadGenConfig::default() };
        let point = run_point(&tenants, &cfg, 500.0);
        assert_eq!(point.completed + point.rejected + point.failed, cfg.requests);
        assert_eq!(point.failed, 0, "well-formed tenants must not fail");
        assert_eq!(point.failed_batches, 0);
        assert!(point.p50_ms.is_finite());
        assert!(point.p99_ms >= point.p50_ms);
        assert_eq!(point.batch_hist.iter().sum::<u64>(), point.batches as u64);
        assert!(point.mean_batch >= 1.0);
    }

    #[test]
    fn overload_coalesces_more_than_trickle() {
        let tenants = tenants();
        let cfg = LoadGenConfig { requests: 120, ..LoadGenConfig::default() };
        let ms = calibrate_service_ms(&tenants, &cfg).unwrap();
        let mu = 1e3 / ms; // single-request service rate, QPS
        let trickle = run_point(&tenants, &cfg, mu * 0.05);
        let overload = run_point(&tenants, &cfg, mu * 20.0);
        assert!(
            overload.mean_batch >= trickle.mean_batch,
            "overload {} < trickle {}",
            overload.mean_batch,
            trickle.mean_batch
        );
    }

    #[test]
    fn failing_tenant_degrades_the_point_instead_of_aborting() {
        // TCGNN refuses non-square matrices, so every batch for tenant 1
        // fails at prepare time. The point must still complete, account
        // for every request, and keep measuring tenant 0.
        let mut tenants = tenants();
        tenants.push(TenantSpec {
            kind: EngineKind::Tcgnn,
            config: EngineConfig::default(),
            matrix: Arc::new(dtc_formats::gen::uniform(64, 32, 200, 77)),
            n_cols: 8,
        });
        let cfg = LoadGenConfig { requests: 60, ..LoadGenConfig::default() };
        assert!(
            calibrate_service_ms(&tenants, &cfg).is_err(),
            "calibration must surface the tenant's failure, not panic"
        );
        let point = run_point(&tenants, &cfg, 500.0);
        assert_eq!(point.completed + point.rejected + point.failed, cfg.requests);
        assert!(point.failed > 0, "the broken tenant's requests must be accounted as failed");
        assert!(point.failed_batches > 0);
        assert!(point.completed > 0, "healthy tenants must still be served");
        assert!(point.p50_ms.is_finite());
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
    }
}
