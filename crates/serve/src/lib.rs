//! `dtc-serve` — a multi-tenant SpMM serving layer over the unified
//! [`SpmmEngine`](dtc_core::SpmmEngine) trait.
//!
//! DTC-SpMM's preprocessing (optional reordering and the execute plan on
//! the host; ME-TCF conversion and kernel selection once something
//! simulates) is worth paying **once per matrix**, not once per request. This crate turns the workspace's engines into a service:
//!
//! - [`EnginePool`] — prepared engines keyed by engine family +
//!   [`EngineConfig`](dtc_core::EngineConfig)/device fingerprints + the
//!   matrix's full [`KeyMaterial`](dtc_core::KeyMaterial) (lookups
//!   compare the full key, so crafted fingerprint collisions are served
//!   correctly). Concurrent requests for the same
//!   key coalesce onto a single prepare; eviction is LRU with a warmup
//!   pin (an engine is never evicted before it has repaid its
//!   preparation with [`PoolConfig::warmup_uses`] uses).
//! - [`SpmmServer`] — bounded admission in front of the pool.
//!   [`SpmmServer::serve_next_batch`] is the queue's only consumer: it
//!   coalesces queued requests that share a pool key into one batch,
//!   which the engine executes as one multi-operand SpMM
//!   ([`SpmmEngine::execute_many`](dtc_core::SpmmEngine::execute_many):
//!   bitwise each request's solo result, since every kernel in the
//!   workspace computes output columns independently).
//!   [`SpmmServer::serve_one`] runs one request at once as a
//!   batch of its own. With [`ServeConfig::verify`] set, each batch
//!   replays the dtc-verify lints over the engine's lowered trace first.
//!
//! The layer's host wall time is measured by the repository benchmark
//! (`perfbench/`): its `serve_hot` and `serve_churn` workloads drive a
//! server with virtual-clock open-loop arrivals and check every response
//! against a direct `prepare(..).execute(..)`.
//!
//! Telemetry: `serve.requests.{admitted,coalesced,rejected}`,
//! `serve.pool.{hits,misses,evictions}` counters plus `serve.batch` /
//! `serve.prepare` spans, all in the process-wide `dtc-telemetry`
//! registry.
//!
//! # Example
//!
//! ```
//! use dtc_core::{EngineConfig, EngineKind};
//! use dtc_formats::DenseMatrix;
//! use dtc_serve::{Request, ServeConfig, SpmmServer};
//! use std::sync::Arc;
//!
//! let a = Arc::new(dtc_formats::gen::uniform(64, 64, 400, 7));
//! let server = SpmmServer::new(ServeConfig::default());
//! // `serve_one` neither enters the queue, nor waits behind queued
//! // requests, nor answers anyone else's: it returns this request's result.
//! let c = server
//!     .serve_one(Request {
//!         tenant: 0,
//!         kind: EngineKind::Dtc,
//!         config: EngineConfig::default(),
//!         matrix: Arc::clone(&a),
//!         b: DenseMatrix::from_fn(64, 16, |r, c| (r + c) as f32),
//!     })
//!     .unwrap();
//! assert_eq!(c.rows(), 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pool;
mod server;
mod telemetry;

pub use pool::{drain_pool_events, set_pool_event_log, EnginePool, Fetched, PoolConfig, PoolKey};
pub use server::{admission_check, BatchOutcome, Request, Response, SpmmServer};

/// Server-wide configuration: queue bound, batch cap, pool sizing and the
/// optional per-batch verification gate.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Engine-pool sizing and eviction policy.
    pub pool: PoolConfig,
    /// Admission-queue bound; requests beyond it are rejected.
    pub max_queue: usize,
    /// Most requests one batch may coalesce.
    pub max_batch: usize,
    /// Replay the dtc-verify lints over each batch's trace before
    /// executing, failing the batch on any error-severity diagnostic.
    pub verify: bool,
    /// Statically verify the configuration of every engine the pool is
    /// about to prepare ([`admission_check`]): trace lints over a small
    /// probe kernel, run once per prepare (so the cost is amortized like
    /// the prepare itself), rejecting an illegal configuration with
    /// [`DtcError::Verify`](dtc_core::DtcError::Verify) before it can
    /// fail mid-request. On by default.
    pub admission_verify: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            pool: PoolConfig::default(),
            max_queue: 256,
            max_batch: 16,
            verify: false,
            admission_verify: true,
        }
    }
}
