//! The workspace's extracted lock graph.
//!
//! Every blocking synchronization point in the workspace is registered
//! here as a [`LockGraph`] node, and every *acquired-while-holding* site
//! as an edge, with the source location it was extracted from. The
//! `lock-order-cycle` lint over this graph (run by `schedcheck` and in
//! this crate's tests) proves the whole relation acyclic — the classical
//! sufficient condition for lock-order deadlock freedom.
//!
//! Keeping the graph honest is a review obligation: a change that nests
//! a new lock acquisition must add the edge here (the mutation test shows
//! the lint catches an edge that closes a cycle, so an added edge that
//! breaks the ordering fails CI rather than deadlocking in production).

use dtc_verify::LockGraph;

/// Builds the lock graph of the dtc workspace as currently extracted
/// from source.
///
/// Nodes (one per lock *class* — a family acquired under one
/// discipline):
///
/// | class | site | discipline |
/// |---|---|---|
/// | `serve.queue` | `serve/src/server.rs` `SpmmServer::queue` | admission queue, leaf |
/// | `serve.pool.inner` | `serve/src/pool.rs` `EnginePool::inner` | slot map, held only for map ops |
/// | `serve.prepare` | `serve/src/pool.rs` `EngineCell` | `OnceLock` engine build (blocks same-key waiters) |
/// | `core.conversion_cache` | `core/src/cache.rs` `PlanCache` | released before the plan build |
/// | `core.trace_cache` | `core/src/pipeline.rs` `DtcSpmm::trace_cache` | per-kernel memo, leaf |
/// | `par.band_deque` | `par/src/lib.rs` worker deques | one at a time, never nested |
/// | `par.arena_slot` | `par/src/arena.rs` pooled arenas | `try_lock` only — can never block |
/// | `telemetry.registry` | `telemetry/src/lib.rs` metric maps | global leaf, registration only |
///
/// Edges (acquired-while-holding):
///
/// - `serve.prepare -> core.conversion_cache`: the engine build inside
///   `OnceLock::get_or_init` probes/fills the plan cache.
/// - `serve.prepare -> par.band_deque`: the build's parallel reordering
///   and plan rounding run the work-stealing engine while same-key
///   waiters block on the cell.
/// - `serve.prepare -> telemetry.registry`: first-use metric registration
///   during a build.
/// - `par.band_deque -> par.arena_slot`: a worker leases its arena while
///   its deque mutex scan is live (`try_lock`, so it cannot block — the
///   edge is recorded for completeness and stays safely ordered).
/// - `par.arena_slot -> telemetry.registry`: arena retained-bytes
///   accounting registers its gauge on first use.
/// - `core.conversion_cache -> telemetry.registry`: cache hit/miss
///   counters register on first use.
pub fn workspace_lock_graph() -> LockGraph {
    let mut g = LockGraph::new();
    let queue = g.class("serve.queue", "admission queue (SpmmServer::queue)");
    let pool = g.class("serve.pool.inner", "engine pool slot map (EnginePool::inner)");
    let prepare = g.class("serve.prepare", "OnceLock engine build (EngineCell)");
    let conv = g.class("core.conversion_cache", "execute-plan cache (cache.rs PlanCache)");
    let trace = g.class("core.trace_cache", "per-kernel trace memo (DtcSpmm::trace_cache)");
    let deque = g.class("par.band_deque", "worker band deques (run_threads queues)");
    let arena = g.class("par.arena_slot", "pooled scratch arenas (try_lock only)");
    let registry = g.class("telemetry.registry", "metric registry BTreeMaps");
    // serve.queue, serve.pool.inner and core.trace_cache are leaves: the
    // queue lock guards only the deque (sequence numbers are an atomic
    // bumped under it), the pool drops its lock before the engine build
    // starts (coalescing via the OnceLock), and the trace memo wraps a
    // pure lowering and drops its lookup guard before the hit counter
    // registers.
    let _ = (queue, pool, trace);
    g.edge(prepare, conv, "serve/src/pool.rs::get_or_prepare (engine build)");
    g.edge(prepare, deque, "core/src/kernel/mod.rs::ExecPlan::from_csr (under build)");
    g.edge(prepare, registry, "serve/src/telemetry.rs (first-use registration)");
    g.edge(deque, arena, "par/src/lib.rs::run_threads (worker loop)");
    g.edge(arena, registry, "par/src/arena.rs::note_retained (gauge registration)");
    g.edge(conv, registry, "core/src/cache.rs (hit/miss counters)");
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtc_verify::{verify_lock_graph, SchedLintId};

    #[test]
    fn workspace_lock_graph_is_acyclic() {
        let diags = verify_lock_graph("workspace", &workspace_lock_graph());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn mutation_added_inverting_edge_is_caught() {
        // The seeded bug: a refactor makes the conversion cache re-enter
        // the engine pool's prepare path (cache -> prepare closes a cycle
        // with prepare -> conv).
        let mut g = workspace_lock_graph();
        let conv = g.classes.iter().position(|c| c.name == "core.conversion_cache").unwrap();
        let prepare = g.classes.iter().position(|c| c.name == "serve.prepare").unwrap();
        g.edge(conv, prepare, "mutant.rs::reentrant_prepare");
        let diags = verify_lock_graph("workspace", &g);
        assert!(diags.iter().any(|d| d.lint == SchedLintId::LockOrderCycle), "{diags:?}");
    }
}
