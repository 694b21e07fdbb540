//! Cached handles to dtc-core's entries in the process-wide
//! [`dtc_telemetry`] registry.
//!
//! Counter names are part of the crate's observable surface (tests and the
//! `DTC_METRICS` JSON snapshot key on them), so they are defined once here:
//!
//! | name | meaning |
//! |---|---|
//! | `core.pipeline.builds` | engines assembled via [`crate::DtcSpmmBuilder::build`] |
//! | `core.cache.conversion.hits` / `.misses` | process-wide execute-plan cache (named for the ME-TCF conversions it once held) |
//! | `core.cache.conversion.invalidations` | plan-cache entries purged by key after a delta update |
//! | `core.cache.trace.hits` / `.misses` | per-engine memoized kernel traces |
//! | `core.cache.trace.invalidations` | per-engine trace caches dropped wholesale by a delta update |
//! | `core.metcf.builds` | engines whose lazy ME-TCF / Selector / kernel cell was forced |
//! | `core.delta.applies` | in-place [`crate::DtcSpmm::apply_delta`] edits |

use dtc_telemetry::Counter;
use std::sync::OnceLock;

macro_rules! cached_counter {
    ($(#[$doc:meta])* $fn_name:ident, $metric:literal) => {
        $(#[$doc])*
        pub(crate) fn $fn_name() -> &'static Counter {
            static HANDLE: OnceLock<&'static Counter> = OnceLock::new();
            HANDLE.get_or_init(|| dtc_telemetry::counter($metric))
        }
    };
}

cached_counter!(
    /// Engines assembled through the builder.
    pipeline_builds,
    "core.pipeline.builds"
);
cached_counter!(
    /// Plan-cache hits.
    conversion_cache_hits,
    "core.cache.conversion.hits"
);
cached_counter!(
    /// Plan-cache misses (each one paid a plan build).
    conversion_cache_misses,
    "core.cache.conversion.misses"
);
cached_counter!(
    /// Per-engine trace-cache hits (a `simulate` that re-lowered nothing).
    trace_cache_hits,
    "core.cache.trace.hits"
);
cached_counter!(
    /// Per-engine trace-cache misses (kernel lowered once per key).
    trace_cache_misses,
    "core.cache.trace.misses"
);
cached_counter!(
    /// Plan-cache entries purged by key ([`crate::cache::invalidate_conversion`]).
    conversion_cache_invalidations,
    "core.cache.conversion.invalidations"
);
cached_counter!(
    /// Per-engine trace caches dropped wholesale after an in-place delta
    /// (the trace key carries no matrix identity, so every entry is stale).
    trace_cache_invalidations,
    "core.cache.trace.invalidations"
);
cached_counter!(
    /// Engines whose deferred ME-TCF conversion, Selector run and kernel
    /// lowering were forced (once per engine, by a simulator-side call).
    metcf_builds,
    "core.metcf.builds"
);
cached_counter!(
    /// In-place edits applied through [`crate::DtcSpmm::apply_delta`].
    delta_applies,
    "core.delta.applies"
);
