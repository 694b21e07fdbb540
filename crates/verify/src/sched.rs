//! Concurrency lints: structural analysis of [`ShardPlan`]s, the dtc-par
//! execution log, the workspace's extracted lock graph, and the
//! `dtc-serve` engine-pool protocol.
//!
//! This is the `SchedCase` analogue of [`TraceCase`](crate::TraceCase):
//! where the trace lints check what a kernel *did* against the device
//! model, the sched lints check what the concurrency layer *may do*
//! against the determinism contract — every plan must cover its index
//! space exactly once, nested parallel sections must run serial, the
//! workspace's lock-acquisition graph must stay acyclic, and the serving
//! pool must insert a slot before publishing or removing it.
//!
//! Four entry points, one per evidence source:
//!
//! - [`verify_plan`] — structural lints over a [`ShardPlan`] (+ the
//!   caller's weights, when the plan was weight-cut);
//! - [`verify_exec_log`] — lints over drained
//!   [`ExecRecord`](dtc_par::ExecRecord)s (nested-parallelism legality);
//! - [`verify_lock_graph`] — lock-order audit of a [`LockGraph`];
//! - [`verify_pool_events`] — protocol lints over a [`PoolEvent`] log.
//!
//! The schedule-space model checker in `dtc-sched` emits its own findings
//! (bit-divergence between schedules, double-written slots, arena
//! aliasing, steady-state allocations) as [`SchedDiagnostic`]s under the
//! `sched-*` ids of this registry, so one report format covers both the
//! static lints and the explored-schedule assertions.

use crate::diag::Severity;
use dtc_par::{ExecRecord, ShardPlan};
use std::collections::HashMap;
use std::fmt;

/// Stable identity of one concurrency lint.
///
/// Ids are kebab-case and pinned by `tests/lint_ids.rs`; the `plan-*`,
/// `exec-*`, `lock-*` and `pool-*` families are produced by the
/// `verify_*` functions in this module, the `sched-*` family by the
/// model checker in `dtc-sched`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedLintId {
    // Structural invariants of a ShardPlan.
    /// Chunks must tile `0..n` contiguously: no gap, no missing prefix or
    /// suffix.
    PlanChunkCoverage,
    /// Chunks must be non-empty and pairwise disjoint (no overlap).
    PlanChunkDisjoint,
    /// Bands must tile `0..num_chunks` contiguously and be non-empty.
    PlanBandCoverage,
    /// Summing the caller's weights chunk-by-chunk must reproduce the
    /// total exactly (nothing dropped, nothing double-counted).
    PlanWeightConservation,
    /// Weighted cut points must be strictly increasing and no band may
    /// overshoot its weight quantile by more than one chunk.
    PlanQuantileMonotonic,
    // Execution-log invariants.
    /// An invocation entered from inside a worker must run serial
    /// (`in_worker` ⇒ exactly one band).
    ExecNestedParallelism,
    // Lock-order audit.
    /// A lock class must never be acquired while already held.
    LockSelfEdge,
    /// An edge must reference registered lock classes.
    LockUnknownClass,
    /// The acquired-while-holding relation must be acyclic.
    LockOrderCycle,
    // Serving-pool protocol.
    /// A pool slot must be inserted into the pool before its engine is
    /// published (and never removed without having been inserted).
    PoolPublishOrder,
    /// Two live slots share a primary hash (legal on hash collision, but
    /// worth a look).
    PoolDoubleInsert,
    // Model-checker findings (emitted by dtc-sched).
    /// A result slot was written zero or multiple times on an explored
    /// schedule.
    SchedSlotExclusivity,
    /// Two explored schedules produced bitwise-different outputs.
    SchedOutputDivergence,
    /// An explored schedule did not execute every chunk exactly once.
    SchedChunkCoverage,
    /// A leased arena buffer carried state across chunks (aliasing).
    SchedArenaAliasing,
    /// A steady-state replay performed heap allocations.
    SchedAllocSteadyState,
}

impl SchedLintId {
    /// Every concurrency lint, in report order.
    pub const ALL: [SchedLintId; 16] = [
        SchedLintId::PlanChunkCoverage,
        SchedLintId::PlanChunkDisjoint,
        SchedLintId::PlanBandCoverage,
        SchedLintId::PlanWeightConservation,
        SchedLintId::PlanQuantileMonotonic,
        SchedLintId::ExecNestedParallelism,
        SchedLintId::LockSelfEdge,
        SchedLintId::LockUnknownClass,
        SchedLintId::LockOrderCycle,
        SchedLintId::PoolPublishOrder,
        SchedLintId::PoolDoubleInsert,
        SchedLintId::SchedSlotExclusivity,
        SchedLintId::SchedOutputDivergence,
        SchedLintId::SchedChunkCoverage,
        SchedLintId::SchedArenaAliasing,
        SchedLintId::SchedAllocSteadyState,
    ];

    /// The stable kebab-case name (what CI and reports key on).
    pub fn as_str(self) -> &'static str {
        match self {
            SchedLintId::PlanChunkCoverage => "plan-chunk-coverage",
            SchedLintId::PlanChunkDisjoint => "plan-chunk-disjoint",
            SchedLintId::PlanBandCoverage => "plan-band-coverage",
            SchedLintId::PlanWeightConservation => "plan-weight-conservation",
            SchedLintId::PlanQuantileMonotonic => "plan-quantile-monotonic",
            SchedLintId::ExecNestedParallelism => "exec-nested-parallelism",
            SchedLintId::LockSelfEdge => "lock-self-edge",
            SchedLintId::LockUnknownClass => "lock-unknown-class",
            SchedLintId::LockOrderCycle => "lock-order-cycle",
            SchedLintId::PoolPublishOrder => "pool-publish-order",
            SchedLintId::PoolDoubleInsert => "pool-double-insert",
            SchedLintId::SchedSlotExclusivity => "sched-slot-exclusivity",
            SchedLintId::SchedOutputDivergence => "sched-output-divergence",
            SchedLintId::SchedChunkCoverage => "sched-chunk-coverage",
            SchedLintId::SchedArenaAliasing => "sched-arena-aliasing",
            SchedLintId::SchedAllocSteadyState => "sched-alloc-steady-state",
        }
    }

    /// The lint's fixed severity.
    pub fn severity(self) -> Severity {
        match self {
            SchedLintId::PoolDoubleInsert => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// One-line description for the catalog listing.
    pub fn summary(self) -> &'static str {
        match self {
            SchedLintId::PlanChunkCoverage => "chunks must tile 0..n contiguously",
            SchedLintId::PlanChunkDisjoint => "chunks must be non-empty and non-overlapping",
            SchedLintId::PlanBandCoverage => "bands must tile the chunk list contiguously",
            SchedLintId::PlanWeightConservation => {
                "per-chunk weight sums must reproduce the caller's total exactly"
            }
            SchedLintId::PlanQuantileMonotonic => {
                "weighted cuts must be monotone; a band may overshoot its quantile by at most one chunk"
            }
            SchedLintId::ExecNestedParallelism => {
                "an invocation entered from a worker must run serial (one band)"
            }
            SchedLintId::LockSelfEdge => "a lock class must never be acquired while already held",
            SchedLintId::LockUnknownClass => "lock edges must reference registered classes",
            SchedLintId::LockOrderCycle => "the acquired-while-holding relation must be acyclic",
            SchedLintId::PoolPublishOrder => {
                "a pool slot must be inserted before its engine is published"
            }
            SchedLintId::PoolDoubleInsert => "two live pool slots share a primary hash",
            SchedLintId::SchedSlotExclusivity => {
                "every result slot must be written exactly once per schedule"
            }
            SchedLintId::SchedOutputDivergence => {
                "all explored schedules must produce bitwise-identical outputs"
            }
            SchedLintId::SchedChunkCoverage => {
                "every explored schedule must execute each chunk exactly once"
            }
            SchedLintId::SchedArenaAliasing => {
                "leased arena buffers must come back empty (no cross-chunk state)"
            }
            SchedLintId::SchedAllocSteadyState => {
                "steady-state schedule replay must perform zero heap allocations"
            }
        }
    }
}

/// A catalog entry: concurrency lint identity plus severity and summary.
#[derive(Debug, Clone, Copy)]
pub struct SchedLintInfo {
    /// The lint.
    pub id: SchedLintId,
    /// Its fixed severity.
    pub severity: Severity,
    /// One-line description.
    pub summary: &'static str,
}

/// The full concurrency-lint catalog, in report order.
pub fn sched_catalog() -> Vec<SchedLintInfo> {
    SchedLintId::ALL
        .iter()
        .map(|&id| SchedLintInfo { id, severity: id.severity(), summary: id.summary() })
        .collect()
}

/// Where a concurrency finding points: one structural element of the case
/// (a band, chunk, item, event or edge index), or the case as a whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedLocation {
    /// What `index` indexes: `"case"`, `"band"`, `"chunk"`, `"item"`,
    /// `"record"`, `"event"` or `"edge"`.
    pub kind: &'static str,
    /// The index, when the finding is element-specific.
    pub index: Option<usize>,
}

impl SchedLocation {
    /// A finding about the case as a whole.
    pub const CASE: SchedLocation = SchedLocation { kind: "case", index: None };

    /// A finding about worker band `w`.
    pub fn band(w: usize) -> Self {
        SchedLocation { kind: "band", index: Some(w) }
    }

    /// A finding about chunk `c`.
    pub fn chunk(c: usize) -> Self {
        SchedLocation { kind: "chunk", index: Some(c) }
    }

    /// A finding about item (result slot) `i`.
    pub fn item(i: usize) -> Self {
        SchedLocation { kind: "item", index: Some(i) }
    }

    /// A finding about execution-log record `r`.
    pub fn record(r: usize) -> Self {
        SchedLocation { kind: "record", index: Some(r) }
    }

    /// A finding about pool event `e` (log order).
    pub fn event(e: usize) -> Self {
        SchedLocation { kind: "event", index: Some(e) }
    }

    /// A finding about lock-graph edge `e` (registration order).
    pub fn edge(e: usize) -> Self {
        SchedLocation { kind: "edge", index: Some(e) }
    }
}

impl fmt::Display for SchedLocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.index {
            Some(i) => write!(f, "{} {i}", self.kind),
            None => write!(f, "{}", self.kind),
        }
    }
}

/// One concurrency finding: lint, severity, location and a message with
/// the offending values.
#[derive(Debug, Clone)]
pub struct SchedDiagnostic {
    /// Which lint fired.
    pub lint: SchedLintId,
    /// The lint's severity (always `lint.severity()`).
    pub severity: Severity,
    /// Where it fired.
    pub location: SchedLocation,
    /// Human-readable explanation including the offending values.
    pub message: String,
}

impl SchedDiagnostic {
    /// Builds a diagnostic with the lint's fixed severity.
    pub fn new(lint: SchedLintId, location: SchedLocation, message: String) -> Self {
        SchedDiagnostic { lint, severity: lint.severity(), location, message }
    }
}

impl fmt::Display for SchedDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] @ {}: {}",
            self.severity.as_str(),
            self.lint.as_str(),
            self.location,
            self.message
        )
    }
}

/// At most this many diagnostics per lint before the rest are folded into
/// one summary line (mirrors the trace lints' cap).
const MAX_PER_LINT: usize = 16;

fn capped(diags: &mut Vec<SchedDiagnostic>, count: usize, diag: SchedDiagnostic) -> usize {
    if count < MAX_PER_LINT {
        diags.push(diag);
    } else if count == MAX_PER_LINT {
        let lint = diag.lint;
        diags.push(SchedDiagnostic::new(
            lint,
            SchedLocation::CASE,
            format!("further {} findings suppressed after the first {MAX_PER_LINT}", lint.as_str()),
        ));
    }
    count + 1
}

// ---------------------------------------------------------------------------
// Plan lints
// ---------------------------------------------------------------------------

/// One shard plan under analysis, with the context the planner saw.
///
/// `weights` are the caller's per-item cost estimates for a
/// [`ShardPlan::weighted`] plan; without them the conservation and
/// quantile lints are skipped, never failed (mirroring how the trace
/// lints treat a missing [`ProblemSpec`](crate::ProblemSpec)).
#[derive(Debug, Clone, Copy)]
pub struct SchedCase<'a> {
    /// Case name (plan shape), carried into reports.
    pub name: &'a str,
    /// The plan under analysis.
    pub plan: &'a ShardPlan,
    /// The caller weights the plan was cut from, if it was weight-cut.
    pub weights: Option<&'a [u64]>,
}

impl<'a> SchedCase<'a> {
    /// A case with no planner context attached.
    pub fn new(name: &'a str, plan: &'a ShardPlan) -> Self {
        SchedCase { name, plan, weights: None }
    }

    /// Attaches the caller weights the plan was cut from.
    pub fn with_weights(mut self, weights: &'a [u64]) -> Self {
        self.weights = Some(weights);
        self
    }
}

/// Structurally lints one [`ShardPlan`]: chunk coverage and disjointness,
/// band coverage, and (with weights attached) weight conservation and
/// quantile monotonicity. Returns every diagnostic found.
pub fn verify_plan(case: &SchedCase) -> Vec<SchedDiagnostic> {
    let mut diags = Vec::new();
    let plan = case.plan;
    let chunks = plan.chunk_ranges();
    let bands = plan.band_ranges();
    let n = plan.len();
    let mut passes = 0usize;

    // plan-chunk-disjoint: every chunk non-empty, ends after it starts, and
    // starts at or after the previous chunk's end.
    passes += 1;
    let mut count = 0;
    for (c, &(s, e)) in chunks.iter().enumerate() {
        if e <= s {
            count = capped(
                &mut diags,
                count,
                SchedDiagnostic::new(
                    SchedLintId::PlanChunkDisjoint,
                    SchedLocation::chunk(c),
                    format!("empty or inverted chunk range {s}..{e}"),
                ),
            );
        }
        if c > 0 && s < chunks[c - 1].1 {
            count = capped(
                &mut diags,
                count,
                SchedDiagnostic::new(
                    SchedLintId::PlanChunkDisjoint,
                    SchedLocation::chunk(c),
                    format!("chunk {s}..{e} overlaps previous chunk ending at {}", chunks[c - 1].1),
                ),
            );
        }
    }

    // plan-chunk-coverage: the chunk list tiles 0..n with no gap.
    passes += 1;
    let mut count = 0;
    let mut expect = 0usize;
    for (c, &(s, e)) in chunks.iter().enumerate() {
        if s > expect {
            count = capped(
                &mut diags,
                count,
                SchedDiagnostic::new(
                    SchedLintId::PlanChunkCoverage,
                    SchedLocation::chunk(c),
                    format!("gap: items {expect}..{s} are covered by no chunk"),
                ),
            );
        }
        expect = expect.max(e);
    }
    if expect != n || (n > 0 && chunks.is_empty()) {
        diags.push(SchedDiagnostic::new(
            SchedLintId::PlanChunkCoverage,
            SchedLocation::CASE,
            format!("chunks cover 0..{expect} but the plan holds {n} items"),
        ));
    }

    // plan-band-coverage: bands tile 0..chunks.len() contiguously.
    passes += 1;
    let mut count = 0;
    let mut cexpect = 0usize;
    for (w, &(cb, ce)) in bands.iter().enumerate() {
        if ce <= cb {
            count = capped(
                &mut diags,
                count,
                SchedDiagnostic::new(
                    SchedLintId::PlanBandCoverage,
                    SchedLocation::band(w),
                    format!("empty or inverted band range {cb}..{ce}"),
                ),
            );
        }
        if cb != cexpect {
            count = capped(
                &mut diags,
                count,
                SchedDiagnostic::new(
                    SchedLintId::PlanBandCoverage,
                    SchedLocation::band(w),
                    format!("band starts at chunk {cb}, expected {cexpect} (gap or overlap)"),
                ),
            );
        }
        cexpect = cexpect.max(ce);
    }
    if cexpect != chunks.len() {
        diags.push(SchedDiagnostic::new(
            SchedLintId::PlanBandCoverage,
            SchedLocation::CASE,
            format!("bands cover chunks 0..{cexpect} of {}", chunks.len()),
        ));
    }

    if let Some(weights) = case.weights {
        // The planner's item weight is the caller weight + 1 (zero-weight
        // runs stay splittable); both weight lints mirror that.
        if weights.len() != n {
            diags.push(SchedDiagnostic::new(
                SchedLintId::PlanWeightConservation,
                SchedLocation::CASE,
                format!("{} caller weights for a {n}-item plan", weights.len()),
            ));
        } else {
            let item_w = |i: usize| weights[i] as u128 + 1;
            let total: u128 = (0..n).map(item_w).sum();
            let chunk_w: Vec<u128> =
                chunks.iter().map(|&(s, e)| (s.min(n)..e.min(n)).map(item_w).sum()).collect();

            // plan-weight-conservation: chunk sums reproduce the total.
            passes += 1;
            let planned: u128 = chunk_w.iter().sum();
            if planned != total {
                diags.push(SchedDiagnostic::new(
                    SchedLintId::PlanWeightConservation,
                    SchedLocation::CASE,
                    format!(
                        "chunk weight sum {planned} != caller total {total} \
                         (items dropped or double-counted)"
                    ),
                ));
            }

            // plan-quantile-monotonic: cut positions strictly increase and
            // no band overshoots its equal-weight quantile by more than the
            // planner's guarantee (one chunk).
            passes += 1;
            let mut count = 0;
            for c in 1..chunks.len() {
                if chunks[c].1 <= chunks[c - 1].1 {
                    count = capped(
                        &mut diags,
                        count,
                        SchedDiagnostic::new(
                            SchedLintId::PlanQuantileMonotonic,
                            SchedLocation::chunk(c),
                            format!(
                                "chunk end {} does not increase past previous end {}",
                                chunks[c].1,
                                chunks[c - 1].1
                            ),
                        ),
                    );
                }
            }
            if !bands.is_empty() && planned == total {
                let max_chunk_w = chunk_w.iter().copied().max().unwrap_or(0);
                let quota = total / bands.len() as u128;
                for (w, &(cb, ce)) in bands.iter().enumerate() {
                    let band_w: u128 =
                        chunk_w.get(cb..ce.min(chunk_w.len())).unwrap_or(&[]).iter().sum();
                    if band_w > quota + max_chunk_w {
                        count = capped(
                            &mut diags,
                            count,
                            SchedDiagnostic::new(
                                SchedLintId::PlanQuantileMonotonic,
                                SchedLocation::band(w),
                                format!(
                                    "band weight {band_w} overshoots its quantile: quota \
                                     {quota} + one chunk ({max_chunk_w}) exceeded"
                                ),
                            ),
                        );
                    }
                }
            }
        }
    }

    crate::lint_telemetry(passes, diags.len());
    diags
}

// ---------------------------------------------------------------------------
// Execution-log lints
// ---------------------------------------------------------------------------

/// Lints a drained dtc-par execution log (see
/// [`dtc_par::set_exec_log`]): an invocation entered from inside a worker
/// must have run on exactly one band — nested parallel sections are
/// forced serial, and a multi-band nested run would mean OS threads
/// spawned from a worker (and steals racing the outer schedule).
pub fn verify_exec_log(name: &str, log: &[ExecRecord]) -> Vec<SchedDiagnostic> {
    let _ = name;
    let mut diags = Vec::new();
    let mut count = 0;
    for (r, rec) in log.iter().enumerate() {
        if rec.in_worker_at_entry && rec.bands_used > 1 {
            count = capped(
                &mut diags,
                count,
                SchedDiagnostic::new(
                    SchedLintId::ExecNestedParallelism,
                    SchedLocation::record(r),
                    format!(
                        "invocation of {} items entered from a worker ran on {} bands \
                         ({} steals); nested sections must run serial",
                        rec.n, rec.bands_used, rec.steals
                    ),
                ),
            );
        }
    }
    crate::lint_telemetry(1, diags.len());
    diags
}

// ---------------------------------------------------------------------------
// Lock-order audit
// ---------------------------------------------------------------------------

/// One registered lock class (a family of locks acquired under one
/// discipline, e.g. "every band deque" or "the pool inner mutex").
#[derive(Debug, Clone, Copy)]
pub struct LockClass {
    /// Short dotted name, e.g. `serve.pool.inner`.
    pub name: &'static str,
    /// What the class protects / how it is acquired.
    pub note: &'static str,
}

/// One acquired-while-holding edge: `to` is (or may be) acquired while a
/// lock of class `from` is held, at the named source site.
#[derive(Debug, Clone, Copy)]
pub struct LockEdge {
    /// Class index already held.
    pub from: usize,
    /// Class index acquired under it.
    pub to: usize,
    /// The source location of the nested acquisition, e.g.
    /// `serve/src/server.rs::admit`.
    pub site: &'static str,
}

/// A lock-acquisition graph extracted from the source: nodes are lock
/// classes, edges the acquired-while-holding relation. Acyclicity of this
/// graph (checked by [`verify_lock_graph`]) rules out lock-order
/// deadlocks between the registered classes.
#[derive(Debug, Clone, Default)]
pub struct LockGraph {
    /// Registered classes, in registration order.
    pub classes: Vec<LockClass>,
    /// Registered edges, in registration order.
    pub edges: Vec<LockEdge>,
}

impl LockGraph {
    /// An empty graph.
    pub fn new() -> Self {
        LockGraph::default()
    }

    /// Registers a lock class; returns its index for [`LockGraph::edge`].
    pub fn class(&mut self, name: &'static str, note: &'static str) -> usize {
        self.classes.push(LockClass { name, note });
        self.classes.len() - 1
    }

    /// Registers an acquired-while-holding edge.
    pub fn edge(&mut self, from: usize, to: usize, site: &'static str) {
        self.edges.push(LockEdge { from, to, site });
    }
}

/// Audits a lock graph: edges must reference registered classes, no class
/// may be re-acquired while held (self edge), and the whole
/// acquired-while-holding relation must be acyclic.
pub fn verify_lock_graph(name: &str, graph: &LockGraph) -> Vec<SchedDiagnostic> {
    let _ = name;
    let mut diags = Vec::new();
    let ncls = graph.classes.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); ncls];

    // lock-unknown-class / lock-self-edge, building the adjacency of the
    // well-formed edges as we go.
    for (e, edge) in graph.edges.iter().enumerate() {
        if edge.from >= ncls || edge.to >= ncls {
            diags.push(SchedDiagnostic::new(
                SchedLintId::LockUnknownClass,
                SchedLocation::edge(e),
                format!(
                    "edge {} -> {} at {} references an unregistered class ({} registered)",
                    edge.from, edge.to, edge.site, ncls
                ),
            ));
            continue;
        }
        if edge.from == edge.to {
            diags.push(SchedDiagnostic::new(
                SchedLintId::LockSelfEdge,
                SchedLocation::edge(e),
                format!(
                    "{} acquired while already held at {}",
                    graph.classes[edge.from].name, edge.site
                ),
            ));
            continue;
        }
        adj[edge.from].push(edge.to);
    }

    // lock-order-cycle: DFS three-coloring; a back edge closes a cycle.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color = vec![Color::White; ncls];
    let mut path: Vec<usize> = Vec::new();
    // Iterative DFS with an explicit (node, next-child) stack.
    for root in 0..ncls {
        if color[root] != Color::White {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        color[root] = Color::Gray;
        path.push(root);
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if *next < adj[node].len() {
                let child = adj[node][*next];
                *next += 1;
                match color[child] {
                    Color::White => {
                        color[child] = Color::Gray;
                        path.push(child);
                        stack.push((child, 0));
                    }
                    Color::Gray => {
                        let start = path.iter().position(|&p| p == child).unwrap_or(0);
                        let cycle: Vec<&str> = path[start..]
                            .iter()
                            .chain(std::iter::once(&child))
                            .map(|&c| graph.classes[c].name)
                            .collect();
                        diags.push(SchedDiagnostic::new(
                            SchedLintId::LockOrderCycle,
                            SchedLocation::CASE,
                            format!("lock-order cycle: {}", cycle.join(" -> ")),
                        ));
                    }
                    Color::Black => {}
                }
            } else {
                color[node] = Color::Black;
                path.pop();
                stack.pop();
            }
        }
    }

    crate::lint_telemetry(3, diags.len());
    diags
}

// ---------------------------------------------------------------------------
// Serving-pool protocol lints
// ---------------------------------------------------------------------------

/// One observable event of the `dtc-serve` engine-pool protocol, keyed by
/// the slot's primary hash. The pool emits these (when event capture is
/// on) at the exact points its invariants are about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolEvent {
    /// A slot entered the pool (under the pool lock), before any
    /// engine build runs.
    Insert {
        /// The slot key's primary hash.
        primary: u64,
    },
    /// The slot's engine finished building and was published through its
    /// `OnceLock`.
    Publish {
        /// The slot key's primary hash.
        primary: u64,
    },
    /// The slot left the pool (eviction, material purge or failed
    /// prepare), under the pool lock.
    Remove {
        /// The slot key's primary hash.
        primary: u64,
    },
}

impl PoolEvent {
    fn primary(self) -> u64 {
        match self {
            PoolEvent::Insert { primary }
            | PoolEvent::Publish { primary }
            | PoolEvent::Remove { primary } => primary,
        }
    }
}

/// Lints a captured pool-event log against the slot protocol:
///
/// - every `Publish` and `Remove` must act on a slot with a live prior
///   `Insert` ([`SchedLintId::PoolPublishOrder`] — the coalescing
///   invariant: the slot exists before the engine builds, so
///   concurrent requests for the key find and wait on the same cell);
/// - two live `Insert`s for one primary are flagged as a warning
///   ([`SchedLintId::PoolDoubleInsert`]).
pub fn verify_pool_events(name: &str, events: &[PoolEvent]) -> Vec<SchedDiagnostic> {
    let _ = name;
    let mut diags = Vec::new();
    let mut live: HashMap<u64, usize> = HashMap::new();
    let mut order_count = 0;
    for (e, &event) in events.iter().enumerate() {
        let primary = event.primary();
        match event {
            PoolEvent::Insert { .. } => {
                let slot = live.entry(primary).or_insert(0);
                *slot += 1;
                if *slot > 1 {
                    diags.push(SchedDiagnostic::new(
                        SchedLintId::PoolDoubleInsert,
                        SchedLocation::event(e),
                        format!("{} live slots share primary {primary:#018x}", *slot),
                    ));
                }
            }
            PoolEvent::Publish { .. } => {
                if live.get(&primary).copied().unwrap_or(0) == 0 {
                    order_count = capped(
                        &mut diags,
                        order_count,
                        SchedDiagnostic::new(
                            SchedLintId::PoolPublishOrder,
                            SchedLocation::event(e),
                            format!(
                                "engine for primary {primary:#018x} published before its slot \
                                 was inserted (coalescing broken)"
                            ),
                        ),
                    );
                }
            }
            PoolEvent::Remove { .. } => {
                let slot = live.entry(primary).or_insert(0);
                if *slot == 0 {
                    order_count = capped(
                        &mut diags,
                        order_count,
                        SchedDiagnostic::new(
                            SchedLintId::PoolPublishOrder,
                            SchedLocation::event(e),
                            format!("slot for primary {primary:#018x} removed but never inserted"),
                        ),
                    );
                } else {
                    *slot -= 1;
                }
            }
        }
    }
    crate::lint_telemetry(3, diags.len());
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn has(diags: &[SchedDiagnostic], lint: SchedLintId) -> bool {
        diags.iter().any(|d| d.lint == lint)
    }

    fn errors(diags: &[SchedDiagnostic]) -> usize {
        diags.iter().filter(|d| d.severity == Severity::Error).count()
    }

    // -- plan lints: clean plans pass, each seeded bug is caught ----------

    #[test]
    fn real_plans_are_clean() {
        for threads in [1usize, 2, 5, 16] {
            for n in [0usize, 1, 7, 64, 513] {
                let even = ShardPlan::even(n, threads);
                let diags = verify_plan(&SchedCase::new("even", &even));
                assert_eq!(errors(&diags), 0, "even n={n} t={threads}: {diags:?}");

                let weights: Vec<u64> = (0..n as u64).map(|i| (i * i) % 97).collect();
                let weighted = ShardPlan::weighted(threads, &weights);
                let diags =
                    verify_plan(&SchedCase::new("weighted", &weighted).with_weights(&weights));
                assert_eq!(errors(&diags), 0, "weighted n={n} t={threads}: {diags:?}");
            }
        }
    }

    #[test]
    fn mutation_overlapping_chunk_is_caught() {
        // Chunks 0..6 and 4..10 overlap on items 4..6.
        let plan = ShardPlan::from_raw_parts(10, vec![(0, 6), (4, 10)], vec![(0, 1), (1, 2)]);
        let diags = verify_plan(&SchedCase::new("mutant", &plan));
        assert!(has(&diags, SchedLintId::PlanChunkDisjoint), "{diags:?}");
    }

    #[test]
    fn mutation_chunk_gap_is_caught() {
        // Items 4..6 are covered by no chunk.
        let plan = ShardPlan::from_raw_parts(10, vec![(0, 4), (6, 10)], vec![(0, 1), (1, 2)]);
        let diags = verify_plan(&SchedCase::new("mutant", &plan));
        assert!(has(&diags, SchedLintId::PlanChunkCoverage), "{diags:?}");
    }

    #[test]
    fn mutation_band_gap_is_caught() {
        // Band 1 skips chunk 1: it is in no worker's deque.
        let plan = ShardPlan::from_raw_parts(
            12,
            vec![(0, 3), (3, 6), (6, 9), (9, 12)],
            vec![(0, 1), (2, 4)],
        );
        let diags = verify_plan(&SchedCase::new("mutant", &plan));
        assert!(has(&diags, SchedLintId::PlanBandCoverage), "{diags:?}");
    }

    #[test]
    fn mutation_weight_drop_is_caught() {
        // Coverage holds over 0..10 but the caller says there are 12 items:
        // the plan silently dropped two items' weight.
        let plan = ShardPlan::from_raw_parts(12, vec![(0, 5), (5, 10)], vec![(0, 1), (1, 2)]);
        let weights = vec![3u64; 12];
        let diags = verify_plan(&SchedCase::new("mutant", &plan).with_weights(&weights));
        assert!(has(&diags, SchedLintId::PlanWeightConservation), "{diags:?}");
        // (the coverage lint also fires — conservation is the weight-level view)
        assert!(has(&diags, SchedLintId::PlanChunkCoverage), "{diags:?}");
    }

    #[test]
    fn mutation_lopsided_bands_are_caught() {
        // Chunks tile perfectly, but one band hoards ~all the weight:
        // coverage lints pass, the quantile lint must fire.
        let chunks: Vec<(usize, usize)> = (0..8).map(|c| (c * 4, (c + 1) * 4)).collect();
        let plan = ShardPlan::from_raw_parts(32, chunks, vec![(0, 7), (7, 8)]);
        let weights = vec![10u64; 32];
        let diags = verify_plan(&SchedCase::new("mutant", &plan).with_weights(&weights));
        assert!(!has(&diags, SchedLintId::PlanChunkCoverage), "{diags:?}");
        assert!(!has(&diags, SchedLintId::PlanBandCoverage), "{diags:?}");
        assert!(has(&diags, SchedLintId::PlanQuantileMonotonic), "{diags:?}");
    }

    #[test]
    fn mutation_nonmonotone_cuts_are_caught() {
        // Chunk ends go 6 then 6 (second chunk empty => end not increasing).
        let plan =
            ShardPlan::from_raw_parts(10, vec![(0, 6), (6, 6), (6, 10)], vec![(0, 2), (2, 3)]);
        let weights = vec![1u64; 10];
        let diags = verify_plan(&SchedCase::new("mutant", &plan).with_weights(&weights));
        assert!(has(&diags, SchedLintId::PlanQuantileMonotonic), "{diags:?}");
    }

    // -- exec-log lints ---------------------------------------------------

    #[test]
    fn mutation_nested_parallelism_is_caught() {
        let clean = ExecRecord {
            n: 64,
            bands_used: 1,
            in_worker_at_entry: true,
            steals: 0,
            virtual_mode: false,
        };
        assert!(verify_exec_log("t", std::slice::from_ref(&clean)).is_empty());
        // The seeded bug: an invocation entered from a worker that spawned
        // four bands anyway.
        let mutant = ExecRecord { bands_used: 4, steals: 2, ..clean };
        let diags = verify_exec_log("t", &[mutant]);
        assert!(has(&diags, SchedLintId::ExecNestedParallelism), "{diags:?}");
    }

    #[test]
    fn real_nested_invocations_pass_the_lint() {
        // Drive the real engine: nested par_map_collect from inside workers
        // must log serial (1-band) inner invocations.
        dtc_par::set_exec_log(true);
        let _ = dtc_par::drain_exec_log();
        let out = dtc_par::par_map_collect(4, |i| dtc_par::par_map_collect(8, move |j| i * 8 + j));
        dtc_par::set_exec_log(false);
        let log = dtc_par::drain_exec_log();
        assert_eq!(out.len(), 4);
        assert!(!log.is_empty());
        let diags = verify_exec_log("nested", &log);
        assert!(diags.is_empty(), "{diags:?}");
    }

    // -- lock graph -------------------------------------------------------

    #[test]
    fn acyclic_graph_is_clean() {
        let mut g = LockGraph::new();
        let a = g.class("serve.queue", "admission queue");
        let b = g.class("serve.seq", "sequence counter");
        let c = g.class("pool.inner", "pool state");
        g.edge(a, b, "server.rs::admit");
        g.edge(a, c, "hypothetical");
        let diags = verify_lock_graph("t", &g);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn mutation_inverted_edge_creates_cycle_and_is_caught() {
        let mut g = LockGraph::new();
        let a = g.class("serve.queue", "admission queue");
        let b = g.class("serve.seq", "sequence counter");
        g.edge(a, b, "server.rs::admit");
        // The seeded bug: someone acquires the queue while holding seq.
        g.edge(b, a, "mutant.rs::inverted");
        let diags = verify_lock_graph("t", &g);
        assert!(has(&diags, SchedLintId::LockOrderCycle), "{diags:?}");
        let msg = &diags.iter().find(|d| d.lint == SchedLintId::LockOrderCycle).unwrap().message;
        assert!(msg.contains("serve.queue") && msg.contains("serve.seq"), "{msg}");
    }

    #[test]
    fn mutation_self_edge_is_caught() {
        let mut g = LockGraph::new();
        let a = g.class("par.band_deque", "band deques");
        g.edge(a, a, "mutant.rs::reentrant");
        let diags = verify_lock_graph("t", &g);
        assert!(has(&diags, SchedLintId::LockSelfEdge), "{diags:?}");
    }

    #[test]
    fn mutation_unknown_class_is_caught() {
        let mut g = LockGraph::new();
        let a = g.class("telemetry.registry", "counter maps");
        g.edge(a, 7, "mutant.rs::dangling");
        let diags = verify_lock_graph("t", &g);
        assert!(has(&diags, SchedLintId::LockUnknownClass), "{diags:?}");
    }

    // -- pool protocol ----------------------------------------------------

    #[test]
    fn clean_pool_protocol_passes() {
        let events = [
            PoolEvent::Insert { primary: 1 },
            PoolEvent::Publish { primary: 1 },
            PoolEvent::Insert { primary: 2 },
            PoolEvent::Publish { primary: 2 },
            PoolEvent::Remove { primary: 1 },
        ];
        let diags = verify_pool_events("t", &events);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn mutation_publish_before_insert_is_caught() {
        let events = [PoolEvent::Publish { primary: 9 }, PoolEvent::Insert { primary: 9 }];
        let diags = verify_pool_events("t", &events);
        assert!(has(&diags, SchedLintId::PoolPublishOrder), "{diags:?}");
    }

    #[test]
    fn double_insert_is_a_warning_not_an_error() {
        let events = [PoolEvent::Insert { primary: 5 }, PoolEvent::Insert { primary: 5 }];
        let diags = verify_pool_events("t", &events);
        assert!(has(&diags, SchedLintId::PoolDoubleInsert), "{diags:?}");
        assert_eq!(errors(&diags), 0, "{diags:?}");
    }

    // -- registry ---------------------------------------------------------

    #[test]
    fn sched_ids_are_unique_and_kebab() {
        let mut seen = std::collections::HashSet::new();
        for id in SchedLintId::ALL {
            assert!(seen.insert(id.as_str()), "duplicate id {}", id.as_str());
            assert!(
                id.as_str()
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
                "non-kebab id {}",
                id.as_str()
            );
        }
    }

    #[test]
    fn sched_catalog_matches_all() {
        let cat = sched_catalog();
        assert_eq!(cat.len(), SchedLintId::ALL.len());
        for (info, id) in cat.iter().zip(SchedLintId::ALL) {
            assert_eq!(info.id, id);
            assert_eq!(info.severity, id.severity());
        }
    }

    #[test]
    fn display_is_greppable() {
        let d = SchedDiagnostic::new(
            SchedLintId::PlanChunkCoverage,
            SchedLocation::chunk(3),
            "gap".into(),
        );
        assert!(d.to_string().starts_with("error[plan-chunk-coverage] @ chunk 3"), "{d}");
    }
}
