//! `serve_hot` and `serve_churn`: an open loop of Poisson arrivals against
//! one [`SpmmServer`], on a virtual clock.
//!
//! The server is a single queue. Every call the benchmark makes into it —
//! `admit`, `serve_next_batch`, and for edits `KeyMaterial::of` plus
//! `invalidate_matrix` — advances the virtual clock by its measured wall
//! time, so admission keying and invalidation are charged to the requests
//! behind them. Requests arriving while the server is busy wait in its
//! queue and may coalesce. A request's latency runs from its due time to
//! the virtual completion of its batch; its queue wait ends when that
//! batch starts. Nothing sleeps, and the rates are fixed absolute numbers,
//! so parent and change are compared under the same offered load.
//!
//! Building requests (cloning the pre-built dense operand) and comparing
//! outputs happen off the clock.

use crate::check::bits_equal;
use crate::stats::{self, Ledger, Rng};
use crate::{computed_bytes, dense_operand, sub_seed, Args, Metric, Outcome};
use dtc_core::{DtcError, EngineConfig, EngineKind, KeyMaterial, SpmmEngine};
use dtc_formats::{gen, CsrMatrix, DenseMatrix, MatrixDelta};
use dtc_serve::{PoolConfig, PoolKey, Request, ServeConfig, SpmmServer};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// A serving workload: tenant mix, server sizing and offered load.
pub struct Spec {
    tenants: fn(u64) -> Result<Vec<Tenant>, String>,
    serve: ServeConfig,
    /// Offered rate of the latency segments, requests per virtual second.
    moderate_qps: f64,
    /// Offered rate of the throughput segments.
    overload_qps: f64,
    moderate_requests: usize,
    /// Kept below `ServeConfig::max_queue`, so overload never rejects.
    overload_requests: usize,
    /// Matrix edits per virtual second (0 = none).
    edits_per_s: f64,
}

/// Six tenants over three 4096² power-law matrices, four pool keys in a
/// default (capacity-8) pool: after warm-up every lookup hits.
pub fn hot() -> Spec {
    Spec {
        tenants: hot_tenants,
        serve: ServeConfig::default(),
        moderate_qps: 125.0,
        overload_qps: 2000.0,
        moderate_requests: 400,
        overload_requests: 200,
        edits_per_s: 0.0,
    }
}

/// Twelve tenants on their own 2048² matrices, Zipf popularity, a pool of
/// six and a steady stream of edits: misses, evictions and invalidations
/// put prepare on the request path.
pub fn churn() -> Spec {
    Spec {
        tenants: churn_tenants,
        serve: ServeConfig {
            pool: PoolConfig { capacity: 6, warmup_uses: 1 },
            ..ServeConfig::default()
        },
        moderate_qps: 250.0,
        overload_qps: 4000.0,
        moderate_requests: 250,
        overload_requests: 200,
        edits_per_s: 10.0,
    }
}

/// Cold pool fills per pass; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Rounds (one moderate plus one overload segment) a pass takes at least.
const MIN_ROUNDS: usize = 4;
/// Executes per tenant engine in the traced execute probe.
const EXEC_PROBE_REPS: usize = 20;
/// Hit-path pool lookups in the traced lookup probe.
const LOOKUP_REPS: usize = 20_000;
/// `KeyMaterial::of` calls per tenant in the traced keying probe.
const KEYMAT_REPS: usize = 5;

pub struct Tenant {
    kind: EngineKind,
    config: EngineConfig,
    /// Matrix versions; an edit moves the tenant to the next one.
    versions: Vec<Arc<CsrMatrix>>,
    b: DenseMatrix,
    /// `expected[v]`: the direct `prepare(..).execute(b)` of version `v`.
    expected: Vec<DenseMatrix>,
    popularity: f64,
}

fn tenant(
    kind: EngineKind,
    versions: Vec<CsrMatrix>,
    n_cols: usize,
    popularity: f64,
    seed: u64,
) -> Tenant {
    let cols = versions[0].cols();
    Tenant {
        kind,
        config: EngineConfig::default(),
        versions: versions.into_iter().map(Arc::new).collect(),
        b: dense_operand(cols, n_cols, seed),
        expected: Vec::new(),
        popularity,
    }
}

/// A `gen::power_law` matrix that keeps (to 1%) the `rows · avg_deg`
/// non-zeros asked for. Draws whose heaviest rows saturate at `cols` lose
/// up to half their non-zeros to deduplication, which would make the
/// offered work depend on the seed; those are redrawn.
fn power_law(rows: usize, avg_deg: f64, seed: u64) -> Result<CsrMatrix, String> {
    let want = 0.99 * rows as f64 * avg_deg;
    (0..64)
        .map(|k| gen::power_law(rows, rows, avg_deg, 2.2, sub_seed(seed, k)))
        .find(|a| a.nnz() as f64 >= want)
        .ok_or_else(|| format!("no power-law draw reached {want} non-zeros"))
}

fn hot_tenants(seed: u64) -> Result<Vec<Tenant>, String> {
    let matrices: Vec<CsrMatrix> =
        (0..3).map(|m| power_law(4096, 16.0, sub_seed(seed, 100 + m))).collect::<Result<_, _>>()?;
    Ok((0..6)
        .map(|t| {
            let kind = if t == 5 { EngineKind::Cusparse } else { EngineKind::Dtc };
            let n_cols = [8, 16, 32, 32, 8, 16][t];
            tenant(kind, vec![matrices[t % 3].clone()], n_cols, 1.0, sub_seed(seed, 300 + t as u64))
        })
        .collect())
}

/// Matrix versions per churn tenant, each one edit batch after the last.
const VERSIONS: usize = 3;
/// Coordinates one edit batch touches.
const EDITS_PER_BATCH: usize = 64;

fn churn_tenants(seed: u64) -> Result<Vec<Tenant>, String> {
    (0..12u64)
        .map(|t| {
            let mut rng = Rng::new(sub_seed(seed, 400 + t));
            let mut versions = vec![power_law(2048, 12.0, sub_seed(seed, 200 + t))?];
            for _ in 1..VERSIONS {
                let prev = versions.last().expect("version 0 exists");
                let mut delta = MatrixDelta::new();
                for _ in 0..EDITS_PER_BATCH {
                    let row = rng.below(prev.rows());
                    let (cols, _) = prev.row_entries(row);
                    if !cols.is_empty() && rng.below(4) == 0 {
                        delta.delete(row, cols[rng.below(cols.len())] as usize);
                    } else {
                        delta.insert(row, rng.below(prev.cols()), (rng.unit() - 0.5) as f32);
                    }
                }
                versions.push(delta.apply_to_csr(prev).map_err(|e| format!("edit failed: {e}"))?);
            }
            let zipf = 1.0 / (t + 1) as f64;
            Ok(tenant(
                EngineKind::Dtc,
                versions,
                [8, 16, 32][t as usize % 3],
                zipf,
                sub_seed(seed, 500 + t),
            ))
        })
        .collect()
}

fn kind_index(kind: EngineKind) -> usize {
    usize::from(kind != EngineKind::Dtc)
}

/// A request admitted and not yet answered.
struct Pending {
    tenant: usize,
    version: usize,
    due_ms: f64,
}

/// One pass: a server, its virtual clock and everything measured on it.
struct OpenLoop<'a> {
    spec: &'a Spec,
    tenants: &'a [Tenant],
    popularity: Vec<f64>,
    server: SpmmServer,
    current: Vec<usize>,
    pending: HashMap<u64, Pending>,
    clock_ms: f64,
    charged_ns: f64,
    ledger: Ledger,
    /// Whether latency samples count (false during set-up and warm-up).
    record: bool,
    lat_ms: Vec<f64>,
    wait_ms: Vec<f64>,
    batches: u64,
    batched_requests: u64,
    pool_hits: u64,
    pool_misses: u64,
    exhausted: u64,
    edits: u64,
    /// Multiply-adds executed, per engine kind (DTC, cuSPARSE).
    macs: [u64; 2],
    computed_bytes: f64,
    prepared_dtc_nnz: u64,
    keyed_nnz: u64,
    imbalance: Vec<f64>,
    /// Tenant and version of the last served batch (its key is resident).
    last_head: Option<(usize, usize)>,
}

impl<'a> OpenLoop<'a> {
    fn new(spec: &'a Spec, tenants: &'a [Tenant]) -> Self {
        OpenLoop {
            spec,
            tenants,
            popularity: tenants.iter().map(|t| t.popularity).collect(),
            server: SpmmServer::new(spec.serve.clone()),
            current: vec![0; tenants.len()],
            pending: HashMap::new(),
            clock_ms: 0.0,
            charged_ns: 0.0,
            ledger: Ledger::default(),
            record: false,
            lat_ms: Vec::new(),
            wait_ms: Vec::new(),
            batches: 0,
            batched_requests: 0,
            pool_hits: 0,
            pool_misses: 0,
            exhausted: 0,
            edits: 0,
            macs: [0; 2],
            computed_bytes: 0.0,
            prepared_dtc_nnz: 0,
            keyed_nnz: 0,
            imbalance: Vec::new(),
            last_head: None,
        }
    }

    fn charge(&mut self, started: Instant) {
        let ns = started.elapsed().as_nanos() as f64;
        self.charged_ns += ns;
        self.clock_ms += ns / 1e6;
    }

    fn admit(&mut self, tenant: usize, due_ms: f64) {
        let t = &self.tenants[tenant];
        let version = self.current[tenant];
        let req = Request {
            tenant,
            kind: t.kind,
            config: t.config.clone(),
            matrix: Arc::clone(&t.versions[version]),
            b: t.b.clone(),
        };
        self.ledger.attempted += 1;
        let started = Instant::now();
        let admitted = {
            let _span = dtc_telemetry::span("bench.admit");
            self.server.admit(req)
        };
        self.charge(started);
        match admitted {
            Ok(seq) => {
                self.pending.insert(seq, Pending { tenant, version, due_ms });
            }
            Err(e) => {
                eprintln!("admission refused: {e}");
                self.ledger.rejected += 1;
            }
        }
    }

    /// Moves `tenant` to its next matrix version and purges everything
    /// cached for the old one.
    fn edit(&mut self, tenant: usize) {
        let old = Arc::clone(&self.tenants[tenant].versions[self.current[tenant]]);
        let started = Instant::now();
        let material = {
            let _span = dtc_telemetry::span("bench.keymat");
            KeyMaterial::of(&old)
        };
        {
            let _span = dtc_telemetry::span("bench.invalidate");
            self.server.invalidate_matrix(&material);
        }
        self.charge(started);
        self.keyed_nnz += old.nnz() as u64;
        self.current[tenant] = (self.current[tenant] + 1) % self.tenants[tenant].versions.len();
        self.edits += 1;
    }

    fn serve_batch(&mut self) {
        let queued = self.server.queued();
        let batch_start = self.clock_ms;
        let started = Instant::now();
        let served = {
            let _span = dtc_telemetry::span("bench.next_batch");
            self.server.serve_next_batch()
        };
        self.charge(started);
        self.imbalance.push(dtc_telemetry::gauge("par.shard.max_imbalance").get());
        let outcome = match served {
            None => return,
            Some(Ok(outcome)) => outcome,
            Some(Err(e)) => {
                if matches!(e, DtcError::PoolExhausted { .. }) {
                    self.exhausted += 1;
                }
                eprintln!("batch failed: {e}");
                self.ledger.failed += (queued - self.server.queued()) as u64;
                return;
            }
        };
        self.batches += 1;
        self.batched_requests += outcome.batch_size as u64;
        let Some(head) = outcome.responses.first().and_then(|r| self.pending.get(&r.seq)) else {
            self.ledger.completed += outcome.responses.len() as u64;
            self.ledger.wrong += outcome.responses.len() as u64;
            return;
        };
        let (head_tenant, head_version) = (head.tenant, head.version);
        let t = &self.tenants[head_tenant];
        let a = &t.versions[head_version];
        if outcome.pool_hit {
            self.pool_hits += 1;
        } else {
            self.pool_misses += 1;
            if t.kind == EngineKind::Dtc {
                self.prepared_dtc_nnz += a.nnz() as u64;
            }
        }
        self.macs[kind_index(t.kind)] += (a.nnz() * outcome.batch_cols) as u64;
        self.computed_bytes += computed_bytes(a, outcome.batch_cols);
        self.last_head = Some((head_tenant, head_version));
        for resp in &outcome.responses {
            self.ledger.completed += 1;
            let Some(p) = self.pending.remove(&resp.seq) else {
                self.ledger.wrong += 1;
                continue;
            };
            if !bits_equal(&resp.c, &self.tenants[p.tenant].expected[p.version]) {
                self.ledger.wrong += 1;
            }
            if self.record {
                self.lat_ms.push(self.clock_ms - p.due_ms);
                self.wait_ms.push(batch_start - p.due_ms);
            }
        }
    }

    /// Offers `count` Poisson arrivals at `rate` (and edits at the spec's
    /// rate over the same span), serving until the queue drains. Returns
    /// the completions, the virtual ms from first arrival to last
    /// completion, and the ms of that span the server was busy.
    fn segment(&mut self, rate: f64, count: usize, rng: &mut Rng) -> (u64, f64, f64) {
        let completed0 = self.ledger.completed;
        let charged0 = self.charged_ns;
        let mut next_arrival = self.clock_ms + rng.exp_gap_ms(rate);
        let first_arrival = next_arrival;
        let mut next_edit = if self.spec.edits_per_s > 0.0 {
            self.clock_ms + rng.exp_gap_ms(self.spec.edits_per_s)
        } else {
            f64::INFINITY
        };
        let mut remaining = count;
        loop {
            if self.server.queued() == 0 {
                if remaining == 0 {
                    break;
                }
                self.clock_ms = self.clock_ms.max(next_arrival.min(next_edit));
            }
            loop {
                let arrival = if remaining > 0 { next_arrival } else { f64::INFINITY };
                if arrival.min(next_edit) > self.clock_ms {
                    break;
                }
                if next_edit <= arrival {
                    let victim = rng.below(self.tenants.len());
                    self.edit(victim);
                    next_edit += rng.exp_gap_ms(self.spec.edits_per_s);
                } else {
                    let tenant = rng.weighted(&self.popularity);
                    self.admit(tenant, arrival);
                    remaining -= 1;
                    next_arrival += rng.exp_gap_ms(rate);
                }
            }
            if self.server.queued() > 0 {
                self.serve_batch();
            }
        }
        (
            self.ledger.completed - completed0,
            self.clock_ms - first_arrival,
            (self.charged_ns - charged0) / 1e6,
        )
    }
}

enum Budget {
    Seconds(f64),
    Rounds(usize),
}

struct Pass<'a> {
    state: OpenLoop<'a>,
    setup_s: Vec<f64>,
    rounds: usize,
    loop_ns: f64,
    /// Per recorded round: moderate-segment latencies (ms), and overload
    /// completions per virtual second.
    round_lat_ms: Vec<Vec<f64>>,
    round_sat_qps: Vec<f64>,
    /// Busy and total virtual ms of the recorded moderate segments.
    moderate_busy: (f64, f64),
}

fn pass<'a>(spec: &'a Spec, tenants: &'a [Tenant], seed: u64, budget: Budget) -> Pass<'a> {
    let mut d = OpenLoop::new(spec, tenants);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        // A cold pool and a cold conversion cache: the first request of
        // every tenant pays its prepare.
        dtc_core::clear_conversion_cache();
        d.server = SpmmServer::new(spec.serve.clone());
        let before = d.charged_ns;
        for t in 0..tenants.len() {
            let due = d.clock_ms;
            d.admit(t, due);
            d.serve_batch();
        }
        setup_s.push((d.charged_ns - before) / 1e9);
    }
    let setup_ns = d.charged_ns;

    let start = Instant::now();
    let mut round_lat_ms = Vec::new();
    let mut round_sat_qps = Vec::new();
    let mut moderate_busy = (0.0f64, 0.0f64);
    let mut rounds = 0;
    loop {
        let done = match budget {
            Budget::Seconds(s) => rounds >= MIN_ROUNDS && start.elapsed().as_secs_f64() >= s,
            Budget::Rounds(n) => rounds >= n,
        };
        if done {
            break;
        }
        // Round 0 warms the pool's steady state and is not recorded.
        d.record = rounds > 0;
        let mut rng = Rng::new(sub_seed(seed, 1000 + rounds as u64));
        let recorded = d.lat_ms.len();
        let (_, span_ms, busy_ms) = d.segment(spec.moderate_qps, spec.moderate_requests, &mut rng);
        d.record = false;
        let (done_n, sat_ms, _) = d.segment(spec.overload_qps, spec.overload_requests, &mut rng);
        if rounds > 0 {
            round_lat_ms.push(d.lat_ms[recorded..].to_vec());
            round_sat_qps.push(done_n as f64 / (sat_ms / 1e3));
            moderate_busy.0 += busy_ms;
            moderate_busy.1 += span_ms;
        }
        rounds += 1;
    }
    let loop_ns = d.charged_ns - setup_ns;
    Pass { state: d, setup_s, rounds, loop_ns, round_lat_ms, round_sat_qps, moderate_busy }
}

/// Computes every tenant's expected output per matrix version through the
/// direct `prepare(..).execute(..)` path, and returns the version-0
/// engines for the traced execute probe.
fn expect_outputs(tenants: &mut [Tenant]) -> Result<Vec<Box<dyn SpmmEngine>>, String> {
    let mut probes = Vec::with_capacity(tenants.len());
    for t in tenants.iter_mut() {
        for (v, a) in t.versions.iter().enumerate() {
            let engine =
                dtc_core::prepare(t.kind, &t.config, a).map_err(|e| format!("prepare: {e}"))?;
            t.expected.push(engine.execute(&t.b).map_err(|e| format!("execute: {e}"))?);
            if v == 0 {
                probes.push(engine);
            }
        }
    }
    dtc_core::clear_conversion_cache();
    Ok(probes)
}

pub fn run(spec: &Spec, args: &Args) -> Result<Outcome, String> {
    let mut tenants = (spec.tenants)(args.seed)?;
    let probes = expect_outputs(&mut tenants)?;
    for (i, t) in tenants.iter().enumerate() {
        let a = &t.versions[0];
        println!(
            "tenant {i}: {} {}x{} nnz={} N={} versions={} popularity={:.3}",
            t.kind.label(),
            a.rows(),
            a.cols(),
            a.nnz(),
            t.b.cols(),
            t.versions.len(),
            t.popularity
        );
    }
    println!(
        "load: moderate {} req/s x {} requests, overload {} req/s x {} requests, edits {} /s, pool capacity {} warmup {}, max_queue {}, max_batch {}",
        spec.moderate_qps,
        spec.moderate_requests,
        spec.overload_qps,
        spec.overload_requests,
        spec.edits_per_s,
        spec.serve.pool.capacity,
        spec.serve.pool.warmup_uses,
        spec.serve.max_queue,
        spec.serve.max_batch
    );

    if !args.trace {
        let p = pass(spec, &tenants, args.seed, Budget::Seconds(args.seconds));
        let metrics = end_to_end(&p)?;
        return Ok(Outcome { ledger: p.state.ledger, metrics });
    }

    let base = pass(spec, &tenants, args.seed, Budget::Seconds(args.seconds / 2.0));
    dtc_telemetry::reset();
    dtc_telemetry::set_enabled(true);
    let traced = pass(spec, &tenants, args.seed, Budget::Rounds(base.rounds));
    let exec_ns_per_mac = probe_execute(&tenants, &probes);
    let lookup_ns = probe_lookup(&traced.state);
    let mut keyed_nnz = traced.state.keyed_nnz;
    for t in &tenants {
        for _ in 0..KEYMAT_REPS {
            let _span = dtc_telemetry::span("bench.probe.keymat");
            black_box(KeyMaterial::of(black_box(&t.versions[0])));
        }
        keyed_nnz += (KEYMAT_REPS * t.versions[0].nnz()) as u64;
    }
    let snap = dtc_telemetry::snapshot();
    dtc_telemetry::set_enabled(false);

    let d = &traced.state;
    let mut ledger = base.state.ledger;
    ledger.add(&d.ledger);
    let mut metrics = crate::core_layers(&snap, d.prepared_dtc_nnz, keyed_nnz);
    let span_ns = |name: &str| stats::span_total(&snap, name).1 as f64;
    let batches = d.batches as usize;
    let total_macs = d.macs[0] + d.macs[1];
    // Execute runs inside serve_next_batch with no span of its own: its
    // time is estimated from outside as the batch multiply-adds times the
    // probe's direct ns per multiply-add for that engine kind.
    let exec_est_ns: f64 =
        (0..2).filter(|&k| d.macs[k] > 0).map(|k| d.macs[k] as f64 * exec_ns_per_mac[k]).sum();
    let covered = span_ns("bench.admit")
        + span_ns("serve.batch")
        + span_ns("bench.invalidate")
        + span_ns("bench.keymat");
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let waits = stats::sorted(&d.wait_ms);
    let (admits, admit_ns) = stats::span_total(&snap, "bench.admit");
    let (checks, check_ns) = stats::span_total(&snap, "serve.admission_check");
    metrics.extend([
        Metric::new(
            "core.execute.dtc.ns_per_mac",
            exec_ns_per_mac[0],
            "ns",
            probes.len() * EXEC_PROBE_REPS,
        ),
        Metric::new("core.execute.macs", total_macs as f64, "count", batches),
        Metric::new(
            "core.execute.computed_mb",
            d.computed_bytes / batches as f64 / 1e6,
            "MB",
            batches,
        ),
        Metric::new(
            "par.max_imbalance",
            stats::median(&d.imbalance).unwrap_or(f64::NAN),
            "ratio",
            d.imbalance.len(),
        ),
        Metric::new("serve.pool.evictions", counter("serve.pool.evictions"), "count", 1),
        Metric::new("serve.pool.invalidations", counter("serve.pool.invalidations"), "count", 1),
        Metric::new("serve.pool.exhausted", d.exhausted as f64, "count", 1),
        Metric::new(
            "trace.overhead_frac",
            traced.loop_ns / base.loop_ns - 1.0,
            "ratio",
            traced.rounds,
        ),
        Metric::new(
            "trace.unattributed_frac",
            1.0 - covered / d.charged_ns,
            "ratio",
            traced.rounds,
        ),
        // Serving-path layers (report lines only).
        Metric::new("serve.admit.us", admit_ns as f64 / admits as f64 / 1e3, "us", admits as usize),
        Metric::new(
            "serve.queue.wait_ms_p50",
            stats::percentile(&waits, 50.0).unwrap_or(f64::NAN),
            "ms",
            waits.len(),
        ),
        Metric::new(
            "serve.queue.wait_ms_p99",
            stats::percentile(&waits, 99.0).unwrap_or(f64::NAN),
            "ms",
            waits.len(),
        ),
        Metric::new(
            "serve.batch.mean_size",
            d.batched_requests as f64 / batches as f64,
            "count",
            batches,
        ),
        Metric::new(
            "serve.batch.self_us",
            (stats::self_ns(&snap, "serve.batch") as f64 - exec_est_ns) / batches as f64 / 1e3,
            "us",
            batches,
        ),
        Metric::new(
            "serve.pool.hit_ratio",
            d.pool_hits as f64 / (d.pool_hits + d.pool_misses) as f64,
            "ratio",
            (d.pool_hits + d.pool_misses) as usize,
        ),
        Metric::new("serve.pool.lookup_ns", lookup_ns, "ns", LOOKUP_REPS),
        Metric::new(
            "serve.admission_check.ms",
            check_ns as f64 / checks as f64 / 1e6,
            "ms",
            checks as usize,
        ),
        Metric::new("serve.edits", d.edits as f64, "count", 1),
    ]);
    if d.macs[1] > 0 {
        metrics.push(Metric::new(
            "core.execute.cusparse.ns_per_mac",
            exec_ns_per_mac[1],
            "ns",
            EXEC_PROBE_REPS,
        ));
    }
    Ok(Outcome { ledger, metrics })
}

/// Direct executes of each tenant's version-0 engine at its own width:
/// ns per multiply-add, per engine kind (DTC, cuSPARSE).
fn probe_execute(tenants: &[Tenant], engines: &[Box<dyn SpmmEngine>]) -> [f64; 2] {
    let mut ns = [0f64; 2];
    let mut macs = [0u64; 2];
    for (t, e) in tenants.iter().zip(engines) {
        let k = kind_index(t.kind);
        let name = if k == 0 { "bench.probe.execute.dtc" } else { "bench.probe.execute.cusparse" };
        for _ in 0..EXEC_PROBE_REPS {
            let started = Instant::now();
            {
                let _span = dtc_telemetry::span(name);
                black_box(e.execute(black_box(&t.b)).ok());
            }
            ns[k] += started.elapsed().as_nanos() as f64;
            macs[k] += (e.nnz() * t.b.cols()) as u64;
        }
    }
    [stats::ns_per_mac(ns[0], macs[0]), stats::ns_per_mac(ns[1], macs[1])]
}

/// Hit-path lookups of `EnginePool::get_or_prepare` for the key of the
/// last served batch, which is resident. ns per lookup, or NaN on a miss.
fn probe_lookup(d: &OpenLoop<'_>) -> f64 {
    let Some((tenant, version)) = d.last_head else { return f64::NAN };
    let t = &d.tenants[tenant];
    let key = PoolKey::new(t.kind, &t.config, KeyMaterial::of(&t.versions[version]));
    let keys: Vec<PoolKey> = (0..LOOKUP_REPS).map(|_| key.clone()).collect();
    let pool = d.server.pool();
    let mut misses = 0;
    let started = Instant::now();
    for k in keys {
        let fetched = pool.get_or_prepare(k, || {
            Err(DtcError::Admission { reason: "lookup probe key was not resident".into() })
        });
        if !fetched.is_ok_and(|f| f.hit) {
            misses += 1;
        }
    }
    let ns = started.elapsed().as_nanos() as f64;
    if misses > 0 {
        eprintln!("pool lookup probe: {misses} misses");
        return f64::NAN;
    }
    ns / LOOKUP_REPS as f64
}

fn end_to_end(p: &Pass<'_>) -> Result<Vec<Metric>, String> {
    let d = &p.state;
    let n = d.lat_ms.len();
    let rounds = p.round_lat_ms.len();
    // Each round's percentile, then the median over rounds: one round
    // disturbed by the host moves the figure by one rank, not by its size.
    let per_round = |q: f64| -> Result<f64, String> {
        let values: Vec<f64> = p
            .round_lat_ms
            .iter()
            .map(|r| {
                stats::percentile(&stats::sorted(r), q)
                    .ok_or_else(|| format!("p{q} refused: a round has {} latency samples", r.len()))
            })
            .collect::<Result<_, _>>()?;
        stats::median(&values).ok_or_else(|| "no recorded rounds".to_string())
    };
    let mut out = vec![
        Metric::new(
            "setup_s",
            stats::median(&p.setup_s).ok_or("no setup samples")?,
            "s",
            p.setup_s.len(),
        ),
        Metric::new("lat_ms_p50", per_round(50.0)?, "ms", n),
        Metric::new("lat_ms_p90", per_round(90.0)?, "ms", n),
        Metric::new(
            "sat_qps",
            stats::median(&p.round_sat_qps).ok_or("no recorded rounds")?,
            "req/s",
            rounds,
        ),
    ];
    match stats::percentile(&stats::sorted(&d.lat_ms), 99.0) {
        Some(v) => out.push(Metric::new("lat_ms_p99", v, "ms", n)),
        None => println!("lat_ms_p99 refused: {n} samples leave fewer than 10 beyond it"),
    }
    out.push(Metric::new(
        "serve.pool.hit_ratio",
        d.pool_hits as f64 / (d.pool_hits + d.pool_misses) as f64,
        "ratio",
        (d.pool_hits + d.pool_misses) as usize,
    ));
    out.push(Metric::new(
        "serve.batch.mean_size",
        d.batched_requests as f64 / d.batches as f64,
        "count",
        d.batches as usize,
    ));
    out.push(Metric::new(
        "serve.moderate.utilization",
        p.moderate_busy.0 / p.moderate_busy.1,
        "ratio",
        p.rounds.saturating_sub(1),
    ));
    out.push(Metric::new("rounds", p.rounds as f64, "count", 1));
    Ok(out)
}
