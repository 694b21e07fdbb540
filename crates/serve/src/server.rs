//! Admission, coalescing and batched execution: the request front end.
//!
//! Requests name a (tenant, engine family, [`EngineConfig`], matrix, dense
//! operand). Admission bounds the queue ([`DtcError::Admission`] when
//! full); the server drains the queue in batches, coalescing every queued
//! request that shares the front request's [`PoolKey`] into **one**
//! N-column SpMM: the dense operands are concatenated column-wise, the
//! prepared engine executes once, and the output is split back per
//! request. Column-wise concatenation is numerically free — every SpMM
//! kernel in the workspace computes output columns independently — so a
//! coalesced result is bitwise-identical to serving the request alone
//! (pinned by `tests/serve.rs`).
//!
//! With [`ServeConfig::verify`] set, every batch passes the dtc-verify
//! structural/resource lint replay over the engine's lowered trace before
//! executing — the per-request safety gate ([`DtcError::Verify`] on any
//! error-severity diagnostic).

use crate::pool::{EnginePool, PoolKey};
use crate::ServeConfig;
use dtc_core::{DtcError, EngineConfig, EngineKind, KeyMaterial, SpmmEngine};
use dtc_formats::{CsrMatrix, DenseMatrix};
use dtc_par::ShardPlan;
use dtc_verify::{SchedCase, Severity, TraceCase};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Admission-time static verification of a freshly prepared engine: the
/// lints that can run *before the first execute*, so an illegal engine is
/// rejected at prepare time ([`DtcError::Verify`]) instead of failing —
/// or silently miscounting — mid-request.
///
/// Two families run:
///
/// - the dtc-verify trace lints over the engine's lowering at a small
///   probe width (structural invariants, SM resource legality, cost-table
///   coverage — a device model with a zeroed cost table is caught here);
/// - the concurrency plan lints over the [`ShardPlan`] the parallel
///   execution paths would cut for this engine's row space (chunk/band
///   coverage and disjointness).
///
/// The server composes this into the pool's prepare closure when
/// [`ServeConfig::admission_verify`] is set (the default), so a failed
/// check behaves exactly like a failed prepare: the error surfaces to the
/// requesting batch and nothing is cached — a later request under a fixed
/// configuration retries cleanly.
pub fn admission_check(engine: &dyn SpmmEngine, config: &EngineConfig) -> Result<(), DtcError> {
    let _span = dtc_telemetry::span("serve.admission_check");
    const PROBE_COLS: usize = 8;
    let mut errors = trace_errors(engine, PROBE_COLS, config);
    // Lint the plan execute cuts: same row space, same worker count.
    let plan = ShardPlan::even(engine.rows(), dtc_par::num_threads());
    errors.extend(
        dtc_verify::verify_plan(&SchedCase::new(engine.name(), &plan))
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| d.to_string()),
    );
    reject(engine, &errors)
}

/// Lowers `engine` at width `n` and renders every error-severity
/// dtc-verify trace diagnostic.
fn trace_errors(engine: &dyn SpmmEngine, n: usize, config: &EngineConfig) -> Vec<String> {
    let trace = engine.trace(n, &config.device, false);
    let case = TraceCase::new(engine.name(), &config.device, &trace);
    dtc_verify::verify_trace(&case)
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.to_string())
        .collect()
}

/// [`DtcError::Verify`] naming the first of `errors`, or `Ok` when there
/// are none.
fn reject(engine: &dyn SpmmEngine, errors: &[String]) -> Result<(), DtcError> {
    match errors.first() {
        Some(first) => Err(DtcError::Verify {
            kernel: engine.name().to_string(),
            diagnostic: first.clone(),
            errors: errors.len(),
        }),
        None => Ok(()),
    }
}

/// One tenant request: multiply `matrix` by `b` on an engine of family
/// `kind` prepared under `config`.
#[derive(Debug, Clone)]
pub struct Request {
    /// Requesting tenant (used for reporting only).
    pub tenant: usize,
    /// Engine family to serve this request with.
    pub kind: EngineKind,
    /// Tenant configuration (hashed into the pool key).
    pub config: EngineConfig,
    /// The sparse operand.
    pub matrix: Arc<CsrMatrix>,
    /// The dense operand (rows must equal `matrix.cols()`).
    pub b: DenseMatrix,
}

/// One served request's result.
#[derive(Debug)]
pub struct Response {
    /// Admission sequence number (matches the value `admit` returned).
    pub seq: u64,
    /// Requesting tenant.
    pub tenant: usize,
    /// The SpMM output for this request's own columns.
    pub c: DenseMatrix,
}

/// One drained batch: the coalesced responses plus batch metadata.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-request results, in admission order.
    pub responses: Vec<Response>,
    /// Number of requests coalesced into the single execution.
    pub batch_size: usize,
    /// Total dense columns of the batched execution.
    pub batch_cols: usize,
    /// Whether the engine came from the pool without a prepare.
    pub pool_hit: bool,
}

struct Pending {
    seq: u64,
    req: Request,
    key: PoolKey,
}

/// The multi-tenant SpMM server: bounded admission queue in front of a
/// keyed [`EnginePool`]. All methods take `&self`; share behind an `Arc`.
pub struct SpmmServer {
    cfg: ServeConfig,
    pool: EnginePool,
    queue: Mutex<VecDeque<Pending>>,
    next_seq: Mutex<u64>,
}

impl std::fmt::Debug for SpmmServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpmmServer")
            .field("cfg", &self.cfg)
            .field("queued", &self.queue.lock().unwrap().len())
            .field("pool", &self.pool)
            .finish()
    }
}

impl SpmmServer {
    /// Creates a server with an empty queue and pool.
    pub fn new(cfg: ServeConfig) -> Self {
        SpmmServer {
            pool: EnginePool::new(cfg.pool),
            cfg,
            queue: Mutex::new(VecDeque::new()),
            next_seq: Mutex::new(0),
        }
    }

    /// The underlying engine pool (for inspection).
    pub fn pool(&self) -> &EnginePool {
        &self.pool
    }

    /// Currently queued (admitted, unserved) requests.
    pub fn queued(&self) -> usize {
        self.queue.lock().unwrap().len()
    }

    /// Admits a request into the queue, returning its sequence number.
    ///
    /// # Errors
    ///
    /// [`DtcError::Admission`] when the request is malformed (dense rows ≠
    /// sparse cols) or the queue is at `max_queue`.
    pub fn admit(&self, req: Request) -> Result<u64, DtcError> {
        if req.b.rows() != req.matrix.cols() {
            crate::telemetry::requests_rejected().incr();
            return Err(DtcError::Admission {
                reason: format!(
                    "dense operand has {} rows, matrix has {} cols",
                    req.b.rows(),
                    req.matrix.cols()
                ),
            });
        }
        let key = PoolKey::new(req.kind, &req.config, KeyMaterial::of(&req.matrix));
        let mut queue = self.queue.lock().unwrap();
        if queue.len() >= self.cfg.max_queue {
            crate::telemetry::requests_rejected().incr();
            return Err(DtcError::Admission {
                reason: format!("queue full ({} requests)", self.cfg.max_queue),
            });
        }
        let seq = {
            let mut next = self.next_seq.lock().unwrap();
            *next += 1;
            *next
        };
        queue.push_back(Pending { seq, req, key });
        crate::telemetry::requests_admitted().incr();
        Ok(seq)
    }

    /// Drains and executes one batch: the front request plus every queued
    /// request sharing its pool key (up to `max_batch`), coalesced into a
    /// single N-column SpMM. Returns `None` when the queue is empty.
    ///
    /// On error the whole batch fails (the requests are consumed); the
    /// engine-prepare, verify-gate and execution errors all surface here.
    pub fn serve_next_batch(&self) -> Option<Result<BatchOutcome, DtcError>> {
        let batch: Vec<Pending> = {
            let mut queue = self.queue.lock().unwrap();
            let front = queue.pop_front()?;
            let mut batch = vec![front];
            let mut rest = VecDeque::with_capacity(queue.len());
            while let Some(p) = queue.pop_front() {
                if batch.len() < self.cfg.max_batch && p.key == batch[0].key {
                    batch.push(p);
                } else {
                    rest.push_back(p);
                }
            }
            *queue = rest;
            batch
        };
        crate::telemetry::requests_coalesced().add(batch.len() as u64 - 1);
        Some(self.execute_batch(batch))
    }

    fn execute_batch(&self, batch: Vec<Pending>) -> Result<BatchOutcome, DtcError> {
        let _span = dtc_telemetry::span("serve.batch");
        let head = &batch[0].req;
        let fetched = self.pool.get_or_prepare(batch[0].key.clone(), || {
            let engine = dtc_core::prepare(head.kind, &head.config, &head.matrix)?;
            if self.cfg.admission_verify {
                admission_check(engine.as_ref(), &head.config)?;
            }
            Ok(engine)
        })?;
        let engine = fetched.engine;

        // Column-wise concatenation of every request's dense operand.
        let rows = head.b.rows();
        let widths: Vec<usize> = batch.iter().map(|p| p.req.b.cols()).collect();
        let total_cols: usize = widths.iter().sum();
        let mut b = DenseMatrix::zeros(rows, total_cols);
        for r in 0..rows {
            let out = b.row_mut(r);
            let mut at = 0;
            for p in &batch {
                out[at..at + p.req.b.cols()].copy_from_slice(p.req.b.row(r));
                at += p.req.b.cols();
            }
        }

        // The per-request safety gate: trace lints at this batch width.
        if self.cfg.verify {
            reject(engine.as_ref(), &trace_errors(engine.as_ref(), total_cols, &head.config))?;
        }

        let c = engine.execute(&b)?;

        // Split the batched output back per request.
        let mut responses = Vec::with_capacity(batch.len());
        let mut at = 0;
        for p in &batch {
            let w = p.req.b.cols();
            let mut own = DenseMatrix::zeros(c.rows(), w);
            for r in 0..c.rows() {
                own.row_mut(r).copy_from_slice(&c.row(r)[at..at + w]);
            }
            at += w;
            responses.push(Response { seq: p.seq, tenant: p.req.tenant, c: own });
        }
        Ok(BatchOutcome {
            responses,
            batch_size: batch.len(),
            batch_cols: total_cols,
            pool_hit: fetched.hit,
        })
    }

    /// Tears down every cached artifact derived from the matrix identified
    /// by `material`, after a tenant edited that matrix in place (e.g. via
    /// [`dtc_core::DtcSpmm::apply_delta`] or by re-submitting new
    /// triplets). Returns the number of pooled engines dropped.
    ///
    /// Two layers are purged, each by key so colliding residents survive:
    /// the engine pool (every family/device/config slot whose
    /// [`KeyMaterial`] matches) and the process-wide ME-TCF conversion
    /// cache in `dtc-core` (exact bucket and lossy front tier). Queued
    /// requests are untouched: they carry their own
    /// `Arc<CsrMatrix>` snapshot, and a request admitted after the edit
    /// carries post-edit key material, so it can never resolve to a
    /// pre-edit engine once this returns.
    pub fn invalidate_matrix(&self, material: &KeyMaterial) -> usize {
        let dropped = self.pool.invalidate_material(material);
        dtc_core::invalidate_conversion(material);
        dropped
    }

    /// Convenience: admit one request and serve it immediately (it may
    /// still coalesce with requests other threads queued in between).
    /// Returns this request's own result.
    ///
    /// # Errors
    ///
    /// Admission, prepare, verify and execution errors.
    pub fn serve_one(&self, req: Request) -> Result<DenseMatrix, DtcError> {
        let seq = self.admit(req)?;
        loop {
            match self.serve_next_batch() {
                None => {
                    // Another thread's batch picked our request up.
                    return Err(DtcError::Admission {
                        reason: "request served by a concurrent batch".into(),
                    });
                }
                Some(Err(e)) => return Err(e),
                Some(Ok(outcome)) => {
                    if let Some(resp) = outcome.responses.into_iter().find(|r| r.seq == seq) {
                        return Ok(resp.c);
                    }
                    // Served someone else's batch; keep draining.
                }
            }
        }
    }
}
