//! Admission, coalescing and batched execution: the request front end.
//!
//! Requests name a (tenant, engine family, [`EngineConfig`], matrix, dense
//! operand). Admission bounds the queue ([`DtcError::Admission`] when
//! full). [`SpmmServer::serve_next_batch`], the queue's only consumer,
//! drains it in batches, coalescing every queued request that shares the
//! front request's [`PoolKey`] into **one** multi-operand SpMM: the
//! dense operands move into [`SpmmEngine::execute_many`], which the DTC
//! engine serves from one pass over its plan, writing each request's
//! output in place (in that request's operand allocation) with nothing
//! concatenated or split. Every SpMM kernel in the workspace computes
//! output columns independently, so a coalesced result is
//! bitwise-identical to serving the request alone (pinned by
//! `tests/serve.rs`). [`SpmmServer::serve_one`] bypasses the queue and
//! runs its request as a batch of one.
//!
//! With [`ServeConfig::verify`] set, every batch passes the dtc-verify
//! structural/resource lint replay over the engine's lowered trace before
//! executing — the per-request safety gate ([`DtcError::Verify`] on any
//! error-severity diagnostic), and the only one that lowers the engine
//! itself ([`admission_check`] lints the configuration on a probe).

use crate::pool::{EnginePool, PoolKey};
use crate::ServeConfig;
use dtc_core::{DtcError, DtcKernel, EngineConfig, EngineKind, KeyMaterial, SpmmEngine};
use dtc_formats::{CsrMatrix, DenseMatrix};
use dtc_verify::{Severity, TraceCase};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Admission-time static verification of an engine configuration: the
/// lints that can run *before the prepare*, so an illegal configuration
/// is rejected ([`DtcError::Verify`]) instead of failing — or silently
/// miscounting — mid-request.
///
/// Cost-table coverage and SM resource legality are properties of the
/// configuration (device model, kernel opts, precision), not of the
/// request's matrix, so they are linted on a kernel of family `kind`
/// lowered over a small fixed probe matrix at a small probe width (a
/// device model with a zeroed cost table is caught here). The probe is
/// built directly, with reordering off, outside
/// [`DtcSpmmBuilder::try_build`](dtc_core::DtcSpmmBuilder::try_build) and
/// the plan cache, so it moves neither the pipeline's spans and build
/// count nor the cache counters; and a prepared engine is never lowered
/// here, so admission builds no ME-TCF of the request's matrix. What
/// depends on that matrix — the structural invariants of its own
/// lowering, and of the kernel the Selector (or `force`) picks for it — is
/// linted only by the per-batch
/// [`ServeConfig::verify`](crate::ServeConfig::verify) replay. No
/// shard-plan lint runs: the planner is gated by `schedcheck`.
///
/// The server runs this ahead of the pool's prepare when
/// [`ServeConfig::admission_verify`](crate::ServeConfig::admission_verify)
/// is set (the default), so a failed check behaves exactly like a failed
/// prepare: the error surfaces to the requesting batch and nothing is
/// cached — a later request under a fixed configuration retries cleanly.
pub fn admission_check(kind: EngineKind, config: &EngineConfig) -> Result<(), DtcError> {
    let _span = dtc_telemetry::span("serve.admission_check");
    const PROBE_COLS: usize = 8;
    let probe = probe_engine(kind, config)?;
    reject(probe.as_ref(), &trace_errors(probe.as_ref(), PROBE_COLS, config))
}

/// A kernel of family `kind` (the base kernel for DTC) under `config`
/// over a fixed 16×16 probe matrix. The probe is one row window, so
/// building and lowering it never fans out over worker threads (each
/// fan-out costs more than the whole check).
fn probe_engine(kind: EngineKind, config: &EngineConfig) -> Result<Box<dyn SpmmEngine>, DtcError> {
    static PROBE: OnceLock<CsrMatrix> = OnceLock::new();
    let a = PROBE.get_or_init(|| dtc_formats::gen::uniform(16, 16, 64, 7));
    Ok(match kind {
        EngineKind::Dtc => {
            Box::new(DtcKernel::with_opts(a, config.opts).with_precision(config.precision))
        }
        baseline => dtc_core::prepare(baseline, config, a)?,
    })
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
    /// Sequence number (matches the value `admit` returned).
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
    next_seq: AtomicU64,
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
            next_seq: AtomicU64::new(0),
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
        let key = pool_key(&req)?;
        // The counters are bumped after the guard drops: a first bump
        // registers its counter under the telemetry registry lock, and
        // `serve.queue` is a leaf of the workspace lock graph.
        let mut queue = self.queue.lock().unwrap();
        if queue.len() >= self.cfg.max_queue {
            drop(queue);
            crate::telemetry::requests_rejected().incr();
            return Err(DtcError::Admission {
                reason: format!("queue full ({} requests)", self.cfg.max_queue),
            });
        }
        // Numbered under the queue lock, so queue order is sequence order.
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed) + 1;
        queue.push_back(Pending { seq, req, key });
        drop(queue);
        crate::telemetry::requests_admitted().incr();
        Ok(seq)
    }

    /// Drains and executes one batch: the front request plus every queued
    /// request sharing its pool key (up to `max_batch`), executed as one
    /// multi-operand SpMM. Returns `None` when the queue is empty.
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
            if self.cfg.admission_verify {
                admission_check(head.kind, &head.config)?;
            }
            dtc_core::prepare(head.kind, &head.config, &head.matrix)
        })?;
        let engine = fetched.engine;

        // The per-request safety gate: trace lints at this batch width.
        let total_cols: usize = batch.iter().map(|p| p.req.b.cols()).sum();
        if self.cfg.verify {
            reject(engine.as_ref(), &trace_errors(engine.as_ref(), total_cols, &head.config))?;
        }

        // The operands move into the engine, which may hand each output
        // back in its operand's allocation.
        let batch_size = batch.len();
        let (owners, operands): (Vec<(u64, usize)>, Vec<DenseMatrix>) =
            batch.into_iter().map(|p| ((p.seq, p.req.tenant), p.req.b)).unzip();
        let outputs = engine.execute_many(operands)?;
        let responses = owners
            .into_iter()
            .zip(outputs)
            .map(|((seq, tenant), c)| Response { seq, tenant, c })
            .collect();
        Ok(BatchOutcome { responses, batch_size, batch_cols: total_cols, pool_hit: fetched.hit })
    }

    /// Tears down every cached artifact derived from the matrix identified
    /// by `material`, after a tenant edited that matrix in place (e.g. via
    /// [`dtc_core::DtcSpmm::apply_delta`] or by re-submitting new
    /// triplets). Returns the number of pooled engines dropped.
    ///
    /// Two layers are purged, each by key so unrelated residents survive:
    /// the engine pool (every family/device/config slot whose
    /// [`KeyMaterial`] matches) and the process-wide execute-plan cache
    /// in `dtc-core`. Queued requests are untouched: they carry their
    /// own `Arc<CsrMatrix>` snapshot, and a request admitted after the edit
    /// carries post-edit key material, so it can never resolve to a
    /// pre-edit engine once this returns.
    pub fn invalidate_matrix(&self, material: &KeyMaterial) -> usize {
        let dropped = self.pool.invalidate_material(material);
        dtc_core::invalidate_conversion(material);
        dropped
    }

    /// Serves one request at once, as a batch of one on the same pool and
    /// gates as a drained batch. It neither enters the queue (so
    /// `max_queue` does not bound it), nor waits behind queued requests,
    /// nor answers anyone else's: queued requests stay queued for
    /// [`serve_next_batch`](Self::serve_next_batch). Returns this
    /// request's result.
    ///
    /// # Errors
    ///
    /// Malformed-request, prepare, verify and execution errors.
    pub fn serve_one(&self, req: Request) -> Result<DenseMatrix, DtcError> {
        let key = pool_key(&req)?;
        crate::telemetry::requests_admitted().incr();
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let mut outcome = self.execute_batch(vec![Pending { seq, req, key }])?;
        Ok(outcome.responses.pop().expect("a batch of one has one response").c)
    }
}

/// The pool key of a well-formed request.
///
/// # Errors
///
/// [`DtcError::Admission`] when the dense operand's rows differ from the
/// sparse operand's columns.
fn pool_key(req: &Request) -> Result<PoolKey, DtcError> {
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
    Ok(PoolKey::new(req.kind, &req.config, KeyMaterial::of(&req.matrix)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_engine_family_passes_admission_under_a_sound_config() {
        for kind in [EngineKind::Dtc, EngineKind::Cusparse, EngineKind::Sputnik, EngineKind::Tcgnn]
        {
            admission_check(kind, &EngineConfig::default()).expect("sound config admitted");
        }
    }
}
