//! The end-to-end DTC-SpMM pipeline (Fig 4): offline TCU-Cache-Aware
//! reordering → ME-TCF conversion → simulation-based selection → runtime
//! kernel.
//!
//! On the host only the execute plan is needed to compute C, so a build
//! pays reordering and the plan (through the plan cache) and nothing else;
//! ME-TCF, the Selector and the lowered kernel, which only the simulator
//! reads, are built the first time something asks for them.

use crate::cache::KeyMaterial;
use crate::config::EngineConfig;
use crate::error::DtcError;
use crate::kernel::{BalancedDtcKernel, DtcKernel, ExecPlan, KernelOpts};
use crate::selector::{KernelChoice, Selector, SelectorDecision};
use dtc_baselines::util::check_spmm_dims;
use dtc_baselines::SpmmEngine;
use dtc_formats::{CsrMatrix, DenseMatrix, FormatError, MatrixDelta, MeTcfMatrix, Precision};
use dtc_reorder::{Reorderer, TcaReorderer};
use dtc_sim::{Device, KernelTrace};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Trace-cache key: (N, device fingerprint, record_b_addrs).
type TraceKey = (usize, u64, bool);

/// Builder for a [`DtcSpmm`] engine: a shared [`EngineConfig`] (every
/// hashable knob) plus the boxed reordering algorithm.
pub struct DtcSpmmBuilder {
    config: EngineConfig,
    reorderer: Box<dyn Reorderer>,
}

impl std::fmt::Debug for DtcSpmmBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DtcSpmmBuilder")
            .field("config", &self.config)
            .field("reorderer", &self.reorderer.name())
            .finish()
    }
}

impl Default for DtcSpmmBuilder {
    fn default() -> Self {
        DtcSpmmBuilder {
            config: EngineConfig::default(),
            reorderer: Box::new(TcaReorderer::default()),
        }
    }
}

impl DtcSpmmBuilder {
    /// Replaces the whole shared configuration at once (the serving layer
    /// builds pool engines from a tenant's [`EngineConfig`] directly).
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// The current shared configuration.
    pub fn engine_config(&self) -> &EngineConfig {
        &self.config
    }

    /// Enables the (optional, offline) TCU-Cache-Aware reordering step.
    pub fn reorder(mut self, enabled: bool) -> Self {
        self.config.reorder = enabled;
        self
    }

    /// Replaces the reordering algorithm (implies `reorder(true)`).
    pub fn reorderer(mut self, r: Box<dyn Reorderer>) -> Self {
        self.reorderer = r;
        self.config.reorder = true;
        self
    }

    /// Sets the runtime-kernel optimization flags.
    pub fn opts(mut self, opts: KernelOpts) -> Self {
        self.config.opts = opts;
        self
    }

    /// Sets the Tensor-Core input precision (default TF32; §7 extension).
    pub fn precision(mut self, precision: Precision) -> Self {
        self.config.precision = precision;
        self
    }

    /// Sets the Selector configuration.
    pub fn selector(mut self, selector: Selector) -> Self {
        self.config.selector = selector;
        self
    }

    /// Sets the target device for the Selector's makespan model.
    pub fn device(mut self, device: Device) -> Self {
        self.config.device = device;
        self
    }

    /// Bypasses the Selector with a fixed kernel choice.
    pub fn force_kernel(mut self, choice: KernelChoice) -> Self {
        self.config.force = Some(choice);
        self
    }

    /// Runs the offline pipeline for a matrix and returns the engine.
    ///
    /// Infallible wrapper over [`DtcSpmmBuilder::try_build`] for the common
    /// case; prefer `try_build` where errors should propagate.
    ///
    /// # Panics
    ///
    /// Panics if the matrix exceeds the execute plan's `u32` offset range
    /// (more than `u32::MAX` non-zeros).
    pub fn build(self, a: &CsrMatrix) -> DtcSpmm {
        self.try_build(a).expect("pipeline build failed")
    }

    /// Fallible pipeline build: reorders (when enabled) and takes the
    /// working matrix's execute plan from the process-wide
    /// [`crate::cache`], so rebuilding an engine over a structurally
    /// identical matrix at the same precision is an `Arc` clone
    /// (observable via [`crate::conversion_cache_stats`]).
    ///
    /// Nothing else is paid here: ME-TCF conversion, the Selector's
    /// makespan simulation and the kernel lowering are deferred to the
    /// engine's first simulator-side call (see [`DtcSpmm`]). The
    /// `pipeline.build` span keeps one child per phase: `reorder`,
    /// `convert` (CSR → plan, or a cache hit), `select` and `lower` (both
    /// only defer their work).
    ///
    /// # Errors
    ///
    /// Returns [`DtcError::Format`] when the matrix cannot be planned
    /// ([`dtc_formats::FormatError::IndexOverflow`] past the `u32` offset
    /// range).
    pub fn try_build(self, a: &CsrMatrix) -> Result<DtcSpmm, DtcError> {
        let _build = dtc_telemetry::span("pipeline.build");
        crate::telemetry::pipeline_builds().incr();
        let key = KeyMaterial::of(a);
        let (perm, working) = {
            let _phase = dtc_telemetry::span("reorder");
            if self.config.reorder {
                let perm = self.reorderer.reorder(a);
                let m = a.permute_rows(&perm);
                (Some(perm), Cow::Owned(m))
            } else {
                (None, Cow::Borrowed(a))
            }
        };
        let working_key = if perm.is_some() { KeyMaterial::of(&working) } else { key.clone() };
        let plan = {
            let _phase = dtc_telemetry::span("convert");
            crate::cache::plan_for(&working, &working_key, self.config.precision)?
        };
        // The Selector (or `force`) is resolved when the engine is lowered.
        drop(dtc_telemetry::span("select"));
        let _phase = dtc_telemetry::span("lower");
        Ok(DtcSpmm {
            perm,
            plan,
            lowered: OnceLock::new(),
            key,
            working_key,
            config: self.config,
            trace_cache: Mutex::new(HashMap::new()),
        })
    }
}

#[derive(Debug, Clone)]
enum DtcAnyKernel {
    Base(DtcKernel),
    Balanced(BalancedDtcKernel),
}

impl DtcAnyKernel {
    fn as_kernel(&self) -> &dyn SpmmEngine {
        match self {
            DtcAnyKernel::Base(k) => k,
            DtcAnyKernel::Balanced(k) => k,
        }
    }

    /// The base kernel, whose ME-TCF both variants share.
    fn base(&self) -> &DtcKernel {
        match self {
            DtcAnyKernel::Base(k) => k,
            DtcAnyKernel::Balanced(k) => k.base(),
        }
    }
}

/// The simulator's side of an engine: ME-TCF, the Selector decision and
/// the runtime kernel lowered over it.
#[derive(Debug)]
struct Lowered {
    decision: SelectorDecision,
    choice: KernelChoice,
    kernel: DtcAnyKernel,
}

impl Lowered {
    /// Runs the Selector over `metcf` (unless `config` forces a kernel's
    /// choice, which still records the decision) and lowers the kernel.
    fn new(metcf: MeTcfMatrix, config: &EngineConfig) -> Lowered {
        let decision = config.selector.decide(&metcf, &config.device);
        let choice = config.force.unwrap_or(decision.choice);
        let distinct = metcf.distinct_cols();
        let kernel = match choice {
            KernelChoice::Base => DtcAnyKernel::Base(
                DtcKernel::from_metcf(metcf, distinct, config.opts)
                    .with_precision(config.precision),
            ),
            KernelChoice::Balanced => DtcAnyKernel::Balanced(
                BalancedDtcKernel::from_metcf(metcf, distinct, config.opts)
                    .with_precision(config.precision),
            ),
        };
        Lowered { decision, choice, kernel }
    }
}

/// The assembled DTC-SpMM engine: the (possibly reordered) matrix's
/// execute plan, and — built on first use — its ME-TCF, the Selector
/// decision and the chosen runtime kernel.
///
/// Host execution needs only the plan, so `rows`, `cols`, `nnz`,
/// `execute`, `execute_many` and `apply_delta` never build the rest;
/// `metcf`, `decision`, `choice`, `name` and `trace`/`simulate` build it
/// once per engine, converting the plan's matrix exactly as an eager
/// pipeline would (each such build counts in `core.metcf.builds`).
///
/// `execute` returns the output in the *original* row order — reordering is
/// internal, exactly like the real library.
#[derive(Debug)]
pub struct DtcSpmm {
    perm: Option<Vec<usize>>,
    /// Set at build (shared through the plan cache); a delta replaces it
    /// with the edited matrix's plan.
    plan: Arc<ExecPlan>,
    /// Built from `plan` on first use; a delta empties it.
    lowered: OnceLock<Lowered>,
    /// Identity of the source matrix (pre-reordering); [`Self::apply_delta`]
    /// retires cache entries under it.
    key: KeyMaterial,
    /// Identity of the *working* (post-reordering) matrix — the one the
    /// plan cache is keyed on. Equals `key` when reordering is off.
    working_key: KeyMaterial,
    /// The configuration this engine was built under, retained so the
    /// lazy cell and delta updates can select and lower without the
    /// builder.
    config: EngineConfig,
    /// Memoized kernel traces, keyed by (N, device fingerprint,
    /// record_b_addrs): repeated `simulate` calls on one engine re-lower
    /// the kernel zero times.
    trace_cache: Mutex<HashMap<TraceKey, KernelTrace>>,
}

impl DtcSpmm {
    /// Starts building an engine.
    pub fn builder() -> DtcSpmmBuilder {
        DtcSpmmBuilder::default()
    }

    /// Convenience: default pipeline (no reordering, Selector on,
    /// all kernel optimizations).
    pub fn new(a: &CsrMatrix) -> Self {
        Self::builder().build(a)
    }

    /// The Selector's decision record (lowers the engine on first use).
    pub fn decision(&self) -> &SelectorDecision {
        &self.lowered().decision
    }

    /// The kernel the Selector (or `force_kernel`) chose (lowers the
    /// engine on first use).
    pub fn choice(&self) -> KernelChoice {
        self.lowered().choice
    }

    /// The row permutation applied by reordering, if any.
    pub fn permutation(&self) -> Option<&[usize]> {
        self.perm.as_deref()
    }

    /// The ME-TCF representation in use (lowers the engine on first use).
    pub fn metcf(&self) -> &MeTcfMatrix {
        self.lowered().kernel.base().metcf()
    }

    /// The simulator's side of the engine, built from the plan's matrix
    /// on first use: ME-TCF conversion, the Selector, the kernel lowering.
    fn lowered(&self) -> &Lowered {
        self.lowered.get_or_init(|| {
            let _span = dtc_telemetry::span("pipeline.metcf");
            crate::telemetry::metcf_builds().incr();
            Lowered::new(MeTcfMatrix::from_csr(&self.plan.to_csr()), &self.config)
        })
    }

    /// Identity of the source matrix this engine was built from.
    pub fn key(&self) -> &KeyMaterial {
        &self.key
    }

    /// The engine configuration this engine was built under.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Applies a batch of COO edits to the engine **in place**: the edits
    /// are applied to the plan's matrix and the edited matrix is planned
    /// afresh. ME-TCF, the Selector decision and the kernel are dropped,
    /// so the next simulator-side call converts, selects and lowers
    /// exactly as a fresh build over the edited matrix would.
    ///
    /// Edits are expressed in **original** row coordinates; engines built
    /// with reordering remap them through the frozen permutation (the
    /// permutation itself is never recomputed by a delta).
    ///
    /// Invalidation contract: before the engine mutates, every process-wide
    /// cache entry derived from the pre-edit matrix is retired —
    /// plan-cache entries, purged by key, under both the original and
    /// working identities, and this engine's whole trace cache (its keys
    /// carry no matrix identity, so every memoized trace and the duration
    /// classes interned inside them are stale). The cache is purged,
    /// **not** re-seeded: a post-edit lookup either misses (and replans)
    /// or was admitted after the edit — it can never serve a pre-edit
    /// artifact.
    ///
    /// # Errors
    ///
    /// [`DtcError::Format`] when an edit is out of bounds or the edited
    /// matrix would overflow the plan's `u32` offsets; the engine (and
    /// every cache) is unchanged on error.
    pub fn apply_delta(&mut self, delta: &MatrixDelta) -> Result<(), DtcError> {
        let _span = dtc_telemetry::span("pipeline.delta");
        // Remap edit rows into the engine's internal (reordered) row space
        // through the inverse permutation (original row -> reordered row).
        let inv = self.perm.as_ref().map(|perm| {
            let mut inv = vec![0usize; perm.len()];
            for (new_row, &orig_row) in perm.iter().enumerate() {
                inv[orig_row] = new_row;
            }
            inv
        });
        let remapped;
        let effective: &MatrixDelta = match &inv {
            None => delta,
            Some(inv) => {
                let mut d = MatrixDelta::new();
                for (row, col, op) in delta.iter() {
                    let Some(&new_row) = inv.get(row) else {
                        return Err(DtcError::Format(FormatError::IndexOutOfBounds {
                            row,
                            col,
                            rows: inv.len(),
                            cols: self.cols(),
                        }));
                    };
                    match op {
                        Some(v) => d.insert(new_row, col, v),
                        None => d.delete(new_row, col),
                    }
                }
                remapped = d;
                &remapped
            }
        };

        // Edit and plan a copy; `self` is untouched until every fallible
        // step has succeeded. The plan is built directly, not through the
        // plan cache, which a delta purges and never re-seeds.
        let edited = effective.apply_to_csr(&self.plan.to_csr())?;
        let plan = ExecPlan::from_csr(&edited, self.config.precision)?;
        let working_key = KeyMaterial::of(&edited);
        let key = match &inv {
            None => working_key.clone(),
            Some(inv) => KeyMaterial::of(&edited.permute_rows(inv)),
        };

        // Invalidate every layer keyed on the pre-edit identity.
        crate::cache::invalidate_conversion(&self.working_key);
        if self.key != self.working_key {
            crate::cache::invalidate_conversion(&self.key);
        }
        self.trace_cache.get_mut().unwrap_or_else(PoisonError::into_inner).clear();
        crate::telemetry::trace_cache_invalidations().incr();

        self.plan = Arc::new(plan);
        self.lowered = OnceLock::new();
        self.key = key;
        self.working_key = working_key;
        crate::telemetry::delta_applies().incr();
        Ok(())
    }
}

impl SpmmEngine for DtcSpmm {
    fn name(&self) -> &str {
        match self.choice() {
            KernelChoice::Base => "DTC-SpMM",
            KernelChoice::Balanced => "DTC-SpMM-balanced",
        }
    }

    fn rows(&self) -> usize {
        self.working_key.rows()
    }

    fn cols(&self) -> usize {
        self.working_key.cols()
    }

    fn nnz(&self) -> usize {
        self.working_key.nnz()
    }

    /// Runs the plan, writing each reordered row straight into its
    /// original row, so callers see original row order at no extra copy.
    fn execute(&self, b: &DenseMatrix) -> Result<DenseMatrix, FormatError> {
        check_spmm_dims(self.rows(), self.cols(), b)?;
        Ok(self.plan.execute(b, self.perm.as_deref()))
    }

    /// [`SpmmEngine::execute`] for every operand in one pass over the
    /// plan, each output in original row order and in its operand's
    /// allocation.
    fn execute_many(&self, bs: Vec<DenseMatrix>) -> Result<Vec<DenseMatrix>, FormatError> {
        for b in &bs {
            check_spmm_dims(self.rows(), self.cols(), b)?;
        }
        Ok(self.plan.execute_many(bs, self.perm.as_deref()))
    }

    fn trace(&self, n: usize, device: &Device, record_b_addrs: bool) -> KernelTrace {
        // Structural fingerprint (not a Debug-string hash): stable under
        // field reordering and allocation-free, so a modified clone of a
        // preset never aliases the preset's cached traces.
        let key = (n, device.fingerprint(), record_b_addrs);
        // Look up in its own statement, so the guard is dropped before the
        // hit path touches the telemetry registry's lock.
        let cached =
            self.trace_cache.lock().unwrap_or_else(PoisonError::into_inner).get(&key).cloned();
        if let Some(hit) = cached {
            crate::telemetry::trace_cache_hits().incr();
            return hit;
        }
        crate::telemetry::trace_cache_misses().incr();
        let kernel = self.lowered().kernel.as_kernel();
        let _lower = dtc_telemetry::span("pipeline.trace");
        let trace = kernel.trace(n, device, record_b_addrs);
        self.trace_cache.lock().unwrap_or_else(PoisonError::into_inner).insert(key, trace.clone());
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtc_baselines::util::distinct_col_count;
    use dtc_formats::gen::{community, long_row, uniform};
    use dtc_formats::tf32::TF32_UNIT_ROUNDOFF;
    use std::hint::black_box;

    #[test]
    fn pipeline_output_in_original_row_order() {
        let a = community(200, 200, 10, 8.0, 0.9, 101);
        let b = DenseMatrix::from_fn(200, 8, |r, c| ((r * 3 + c) % 7) as f32 * 0.5);
        let reference = a.spmm_reference(&b).unwrap();
        let engine = DtcSpmm::builder().reorder(true).build(&a);
        assert!(engine.permutation().is_some());
        let c = engine.execute(&b).unwrap();
        assert!(c.max_abs_diff(&reference) < 40.0 * TF32_UNIT_ROUNDOFF);
    }

    #[test]
    fn selector_picks_balanced_for_skew() {
        let a = long_row(640, 4096, 200.0, 2.0, 102);
        let engine = DtcSpmm::new(&a);
        assert_eq!(engine.choice(), KernelChoice::Balanced);
        assert!(engine.decision().approximation_ratio > 1.2);
    }

    #[test]
    fn force_kernel_overrides_selector() {
        let a = uniform(256, 256, 1024, 103);
        let engine = DtcSpmm::builder().force_kernel(KernelChoice::Balanced).build(&a);
        assert_eq!(engine.choice(), KernelChoice::Balanced);
        assert_eq!(engine.name(), "DTC-SpMM-balanced");
    }

    #[test]
    fn reordering_does_not_change_numerics() {
        let a = community(320, 320, 16, 10.0, 0.9, 104);
        let b = DenseMatrix::from_fn(320, 4, |r, _| (r % 11) as f32 * 0.1);
        let plain = DtcSpmm::builder().reorder(false).build(&a).execute(&b).unwrap();
        let reordered = DtcSpmm::builder().reorder(true).build(&a).execute(&b).unwrap();
        assert!(plain.max_abs_diff(&reordered) < 1e-4);
    }

    #[test]
    fn modified_device_clone_never_aliases_trace_cache_key() {
        // Regression guard for the old Debug-string fingerprint: a preset
        // clone with one field nudged must miss the preset's cached trace
        // and produce a genuinely different simulation.
        let a = uniform(256, 256, 2048, 106);
        let engine = DtcSpmm::new(&a);
        let preset = Device::rtx4090();
        let mut tweaked = preset.clone();
        tweaked.sm_clock_ghz /= 2.0;
        assert_ne!(preset.fingerprint(), tweaked.fingerprint());
        let _preset_trace = engine.trace(64, &preset, false);
        let _tweaked_trace = engine.trace(64, &tweaked, false);
        // Each device fingerprint must own its own cache slot (the global
        // hit/miss counters are shared across tests, so inspect the
        // engine's private cache directly).
        assert_eq!(engine.trace_cache.lock().unwrap().len(), 2);
        // And the cached entries really are distinct simulations.
        let t_preset = engine.simulate(64, &preset).time_ms;
        let t_tweaked = engine.simulate(64, &tweaked).time_ms;
        assert!(t_tweaked > t_preset, "halving the clock must slow the sim");
    }

    #[test]
    fn apply_delta_matches_fresh_build_bitwise() {
        // Engine-level equivalence: editing in place must give the same
        // ME-TCF (and the same execute output, bitwise) as building a fresh
        // engine over the edited matrix. The engine executes before the
        // delta, so a stale execute plan would show.
        let a = uniform(320, 320, 2600, 210);
        let mut delta = MatrixDelta::new();
        for i in 0..40 {
            let (r, c) = ((i * 17) % 320, (i * 31) % 320);
            if i % 4 == 0 {
                delta.delete(r, c);
            } else {
                delta.insert(r, c, i as f32 * 0.25 - 3.0);
            }
        }
        let b = DenseMatrix::from_fn(320, 8, |r, c| ((r * 7 + c) % 13) as f32 - 6.0);
        let mut engine = DtcSpmm::new(&a);
        let before = engine.execute(&b).unwrap();
        engine.apply_delta(&delta).unwrap();
        let edited = delta.apply_to_csr(&a).unwrap();
        let fresh = DtcSpmm::new(&edited);
        assert_eq!(engine.metcf(), fresh.metcf(), "edited format must equal rebuild");
        assert_eq!(engine.key(), fresh.key(), "post-edit identity must equal rebuild");
        assert_eq!(engine.nnz(), edited.nnz());
        let via_delta = engine.execute(&b).unwrap();
        assert_ne!(before.as_slice(), via_delta.as_slice(), "the edit must change the output");
        let via_fresh = fresh.execute(&b).unwrap();
        assert_eq!(via_delta.as_slice(), via_fresh.as_slice(), "execution must be bitwise equal");
    }

    #[test]
    fn apply_delta_remaps_rows_through_frozen_permutation() {
        let a = community(320, 320, 16, 10.0, 0.9, 211);
        let b = DenseMatrix::from_fn(320, 4, |r, _| (r % 9) as f32 * 0.5);
        let mut engine = DtcSpmm::builder().reorder(true).build(&a);
        let perm_before = engine.permutation().unwrap().to_vec();
        // Execute first, so a stale execute plan would show below.
        let _ = engine.execute(&b).unwrap();
        let mut delta = MatrixDelta::new();
        delta.insert(5, 7, 2.5);
        delta.delete(100, 100);
        delta.insert(200, 3, -1.0);
        engine.apply_delta(&delta).unwrap();
        assert_eq!(engine.permutation().unwrap(), perm_before, "permutation is frozen");
        // Against the reference: edits were expressed in original rows.
        let edited = delta.apply_to_csr(&a).unwrap();
        let got = engine.execute(&b).unwrap();
        let want = edited.spmm_reference(&b).unwrap();
        assert!(got.max_abs_diff(&want) < 40.0 * TF32_UNIT_ROUNDOFF);
        // And the engine's key is the edited matrix's original-order identity.
        assert_eq!(*engine.key(), KeyMaterial::of(&edited));
    }

    #[test]
    fn apply_delta_decides_as_a_fresh_build() {
        let a = uniform(640, 640, 5000, 212);
        let mut engine = DtcSpmm::new(&a);
        black_box(engine.decision());

        // A value-only update, then a heavy reshape (half as many
        // non-zeros again).
        let mut tiny = MatrixDelta::new();
        let (r0, c0, _) = a.iter().next().unwrap();
        tiny.update(r0, c0, 42.0);
        let mut heavy = MatrixDelta::new();
        for r in 0..640 {
            for c in 0..4 {
                heavy.insert(r, (r + c * 160) % 640, 1.0);
            }
        }
        let mut edited = a;
        for delta in [tiny, heavy] {
            engine.apply_delta(&delta).unwrap();
            edited = delta.apply_to_csr(&edited).unwrap();
            let fresh = DtcSpmm::new(&edited);
            assert_eq!(engine.decision(), fresh.decision());
            assert_eq!(engine.choice(), fresh.choice());
        }
    }

    #[test]
    fn apply_delta_out_of_bounds_leaves_engine_unchanged() {
        let a = uniform(160, 160, 900, 213);
        let mut engine = DtcSpmm::new(&a);
        let key_before = engine.key().clone();
        let plan_before = Arc::clone(&engine.plan);
        let metcf_before = engine.metcf().clone();
        let mut delta = MatrixDelta::new();
        delta.insert(0, 1, 1.0);
        delta.insert(0, 500, 1.0); // col out of bounds
        let err = engine.apply_delta(&delta).unwrap_err();
        assert!(matches!(err, DtcError::Format(FormatError::IndexOutOfBounds { .. })));
        assert_eq!(*engine.key(), key_before);
        assert!(Arc::ptr_eq(&engine.plan, &plan_before));
        assert_eq!(*engine.metcf(), metcf_before);
    }

    #[test]
    fn apply_delta_purges_the_pre_edit_conversion() {
        let a = uniform(288, 288, 2000, 214);
        let mut engine = DtcSpmm::new(&a);
        let pre_key = engine.key().clone();
        let mut delta = MatrixDelta::new();
        delta.insert(17, 200, 3.5);
        engine.apply_delta(&delta).unwrap();
        // The pre-edit conversion is gone: invalidating it again finds
        // nothing, and the engine's key advanced to the edited identity.
        assert_eq!(crate::cache::invalidate_conversion(&pre_key), 0);
        let edited = delta.apply_to_csr(&a).unwrap();
        assert_eq!(engine.key(), &KeyMaterial::of(&edited));
        // Purge-only contract: nothing was re-admitted under the new key;
        // a cold build over the edited matrix reconverts and agrees.
        assert_eq!(crate::cache::invalidate_conversion(&KeyMaterial::of(&edited)), 0);
        let fresh = DtcSpmm::new(&edited);
        assert_eq!(fresh.metcf(), engine.metcf());
    }

    #[test]
    fn apply_delta_drops_stale_traces() {
        // The trace-cache key carries no matrix identity, so an in-place
        // edit makes every memoized trace stale; post-edit traces must be
        // lowered from the edited matrix.
        let a = uniform(256, 256, 2048, 215);
        let device = Device::rtx4090();
        let mut engine = DtcSpmm::new(&a);
        let _warm = engine.trace(32, &device, false);
        assert_eq!(engine.trace_cache.lock().unwrap().len(), 1);
        let mut delta = MatrixDelta::new();
        for c in 0..64 {
            delta.insert(3, c * 4, 1.0);
        }
        engine.apply_delta(&delta).unwrap();
        assert_eq!(
            engine.trace_cache.lock().unwrap().len(),
            0,
            "pre-edit traces must not survive the delta"
        );
        let post = engine.trace(32, &device, false);
        let fresh = DtcSpmm::new(&delta.apply_to_csr(&a).unwrap());
        let fresh_trace = fresh.trace(32, &device, false);
        assert_eq!(post.iter_tbs().count(), fresh_trace.iter_tbs().count());
    }

    #[test]
    fn poisoned_trace_cache_still_answers() {
        let a = uniform(128, 128, 600, 218);
        let device = Device::rtx4090();
        let engine = DtcSpmm::new(&a);
        let warm = engine.trace(16, &device, false);
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _guard = engine.trace_cache.lock().unwrap();
                panic!("poisoning the trace cache");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(engine.trace_cache.is_poisoned());
        // A hit and a miss both answer through the poisoned lock.
        assert_eq!(engine.trace(16, &device, false).iter_tbs().count(), warm.iter_tbs().count());
        let cold = engine.trace(32, &device, false);
        assert_eq!(
            cold.iter_tbs().count(),
            DtcSpmm::new(&a).trace(32, &device, false).iter_tbs().count()
        );
    }

    #[test]
    fn lazily_lowered_engine_is_bitwise_an_eager_build() {
        // The deferred ME-TCF, Selector decision and kernel must be exactly
        // what converting the working matrix up front gives, whichever
        // kernel runs, with or without reordering, at every precision.
        // These small matrices have fewer windows than the device has
        // resident blocks, so the default Selector picks Balanced; an
        // unreachable threshold makes it pick Base.
        let device = Device::rtx4090();
        let never_balance = Selector { threshold: f64::MAX, ..Selector::default() };
        let lineup = [
            (Selector::default(), None),
            (never_balance, None),
            (Selector::default(), Some(KernelChoice::Base)),
            (Selector::default(), Some(KernelChoice::Balanced)),
        ];
        let mut chosen = Vec::new();
        for a in [long_row(320, 2048, 160.0, 2.0, 216), community(320, 320, 16, 10.0, 0.9, 217)] {
            for (selector, force) in &lineup {
                let force = *force;
                for reorder in [false, true] {
                    for precision in [Precision::Tf32, Precision::Fp16, Precision::Bf16] {
                        let selector = selector.clone();
                        let config = EngineConfig {
                            precision,
                            reorder,
                            force,
                            selector,
                            ..Default::default()
                        };
                        let engine = DtcSpmm::builder().config(config.clone()).build(&a);
                        let working = match engine.permutation() {
                            Some(perm) => a.permute_rows(perm),
                            None => a.clone(),
                        };
                        let metcf = MeTcfMatrix::from_csr(&working);
                        let decision = config.selector.decide(&metcf, &device);
                        let choice = force.unwrap_or(decision.choice);
                        let distinct = distinct_col_count(&working);
                        let eager: Box<dyn SpmmEngine> = match choice {
                            KernelChoice::Base => Box::new(
                                DtcKernel::from_metcf(metcf.clone(), distinct, config.opts)
                                    .with_precision(precision),
                            ),
                            KernelChoice::Balanced => Box::new(
                                BalancedDtcKernel::from_metcf(metcf.clone(), distinct, config.opts)
                                    .with_precision(precision),
                            ),
                        };
                        let eager = eager.as_ref();
                        let case = format!(
                            "{:?} {force:?} reorder={reorder} {precision:?}",
                            config.selector
                        );
                        assert_eq!(engine.metcf(), &metcf, "{case}");
                        assert_eq!(engine.decision(), &decision, "{case}");
                        assert_eq!(engine.choice(), choice, "{case}");
                        // Expanded: one class per block, so no interner map
                        // (whose iteration order is random) is printed.
                        let trace = |k: &dyn SpmmEngine| {
                            format!("{:?}", k.trace(16, &device, true).expanded())
                        };
                        assert_eq!(trace(&engine), trace(eager), "{case}");
                        assert_eq!(engine.simulate(48, &device), eager.simulate(48, &device));
                        if force.is_none() {
                            chosen.push(choice);
                        }
                    }
                }
            }
        }
        assert!(chosen.contains(&KernelChoice::Base) && chosen.contains(&KernelChoice::Balanced));
    }

    #[test]
    fn reordering_reduces_tc_blocks_on_community_matrices() {
        let a = community(640, 640, 32, 12.0, 0.92, 105);
        let plain = DtcSpmm::builder().reorder(false).build(&a);
        let reordered = DtcSpmm::builder().reorder(true).build(&a);
        assert!(
            reordered.metcf().num_tc_blocks() < plain.metcf().num_tc_blocks(),
            "reordered={} plain={}",
            reordered.metcf().num_tc_blocks(),
            plain.metcf().num_tc_blocks()
        );
    }
}
