//! Cached handles for the serving layer's registry counters.
//!
//! Naming (all in the process-wide `dtc-telemetry` registry):
//!
//! - `serve.requests.admitted` — requests accepted by `admit` (queued) or
//!   `serve_one` (served at once);
//! - `serve.requests.coalesced` — requests that rode another request's
//!   batch (batch size minus one, summed over batches);
//! - `serve.requests.rejected` — requests refused at admission;
//! - `serve.pool.hits` / `serve.pool.misses` — engine-pool lookups;
//! - `serve.pool.evictions` — engines evicted by the LRU policy;
//! - `serve.pool.invalidations` — engines dropped because their source
//!   matrix was edited in place (delta-update staleness purge);
//!
//! plus the `serve.batch` span around every batched execution and the
//! `serve.prepare` span around every engine build.

use dtc_telemetry::Counter;
use std::sync::OnceLock;

macro_rules! cached_counter {
    ($fn_name:ident, $name:expr) => {
        /// Cached handle for the registry counter of the same name.
        pub fn $fn_name() -> &'static Counter {
            static C: OnceLock<&'static Counter> = OnceLock::new();
            C.get_or_init(|| dtc_telemetry::counter($name))
        }
    };
}

cached_counter!(requests_admitted, "serve.requests.admitted");
cached_counter!(requests_coalesced, "serve.requests.coalesced");
cached_counter!(requests_rejected, "serve.requests.rejected");
cached_counter!(pool_hits, "serve.pool.hits");
cached_counter!(pool_misses, "serve.pool.misses");
cached_counter!(pool_evictions, "serve.pool.evictions");
cached_counter!(pool_invalidations, "serve.pool.invalidations");
