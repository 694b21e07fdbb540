//! The end-to-end DTC-SpMM pipeline (Fig 4): offline TCU-Cache-Aware
//! reordering → ME-TCF conversion → simulation-based selection → runtime
//! kernel.

use crate::cache::KeyMaterial;
use crate::config::EngineConfig;
use crate::error::DtcError;
use crate::kernel::{BalancedDtcKernel, DtcKernel, KernelOpts};
use crate::selector::{KernelChoice, Selector, SelectorDecision};
use dtc_baselines::SpmmEngine;
use dtc_formats::{
    CsrMatrix, DeltaReport, DenseMatrix, FormatError, MatrixDelta, MeTcfMatrix, Precision,
};
use dtc_reorder::{Reorderer, TcaReorderer};
use dtc_sim::{Device, KernelTrace};
use std::collections::HashMap;
use std::sync::Mutex;

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
    /// Panics if the matrix exceeds ME-TCF's `u32` offset range (more than
    /// `u32::MAX` non-zeros).
    pub fn build(self, a: &CsrMatrix) -> DtcSpmm {
        self.try_build(a).expect("pipeline build failed")
    }

    /// Fallible pipeline build.
    ///
    /// ME-TCF conversion goes through the process-wide [`crate::cache`]:
    /// rebuilding an engine over a structurally identical matrix reuses the
    /// previous conversion (observable via
    /// [`crate::conversion_cache_stats`]).
    ///
    /// # Errors
    ///
    /// Returns [`DtcError::Format`] when the matrix cannot be packed into
    /// ME-TCF (e.g. [`dtc_formats::FormatError::IndexOverflow`] past the
    /// `u32` offset range).
    pub fn try_build(self, a: &CsrMatrix) -> Result<DtcSpmm, DtcError> {
        let _build = dtc_telemetry::span("pipeline.build");
        crate::telemetry::pipeline_builds().incr();
        let key = KeyMaterial::of(a);
        let (perm, working) = {
            let _phase = dtc_telemetry::span("reorder");
            if self.config.reorder {
                let perm = self.reorderer.reorder(a);
                let m = a.permute_rows(&perm);
                (Some(perm), m)
            } else {
                (None, a.clone())
            }
        };
        let working_key = if perm.is_some() { KeyMaterial::of(&working) } else { key.clone() };
        let converted = {
            let _phase = dtc_telemetry::span("convert");
            crate::cache::metcf_for(&working)?
        };
        let metcf = converted.metcf.clone();
        let distinct = converted.distinct_cols;
        let decision = {
            let _phase = dtc_telemetry::span("select");
            self.config.selector.decide(&metcf, &self.config.device)
        };
        let choice = self.config.force.unwrap_or(decision.choice);
        let _phase = dtc_telemetry::span("lower");
        let kernel = build_kernel(choice, metcf, distinct, &self.config);
        Ok(DtcSpmm {
            perm,
            kernel,
            decision,
            choice,
            key,
            working_key,
            config: self.config,
            trace_cache: Mutex::new(HashMap::new()),
        })
    }
}

/// Lowers the chosen runtime kernel over an ME-TCF build (shared by the
/// cold pipeline and the delta-update path).
fn build_kernel(
    choice: KernelChoice,
    metcf: MeTcfMatrix,
    distinct: usize,
    config: &EngineConfig,
) -> DtcAnyKernel {
    match choice {
        KernelChoice::Base => DtcAnyKernel::Base(
            DtcKernel::from_metcf(metcf, distinct, config.opts).with_precision(config.precision),
        ),
        KernelChoice::Balanced => DtcAnyKernel::Balanced(
            BalancedDtcKernel::from_metcf(metcf, distinct, config.opts)
                .with_precision(config.precision),
        ),
    }
}

/// Knobs governing how [`DtcSpmm::apply_delta`] reacts to an edit batch.
///
/// Kept outside [`EngineConfig`] on purpose: the policy only shapes *when*
/// re-selection runs, never the numerical result, so it must not move the
/// config fingerprint serving pools key on.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaPolicy {
    /// Re-run the simulation-based Selector when the edit's relative
    /// row-length-stat drift ([`DeltaReport::drift`]) exceeds this.
    /// Value-only updates drift `0.0` and never re-select; the default
    /// re-selects once ~5% of the non-zero/block mass has moved.
    pub reselect_drift: f64,
}

impl Default for DeltaPolicy {
    fn default() -> Self {
        DeltaPolicy { reselect_drift: 0.05 }
    }
}

/// What one [`DtcSpmm::apply_delta`] call did.
#[derive(Debug, Clone)]
pub struct DeltaOutcome {
    /// Per-window before/after stats from the format-level patch.
    pub report: DeltaReport,
    /// The relative stat drift that was compared against the policy.
    pub drift: f64,
    /// Whether the Selector re-ran (drift above the policy threshold).
    pub reselected: bool,
    /// The kernel in use after the update (unchanged unless `reselected`).
    pub choice: KernelChoice,
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
}

/// The assembled DTC-SpMM engine: holds the (possibly reordered) ME-TCF
/// matrix, the Selector decision, and the chosen runtime kernel.
///
/// `execute` returns the output in the *original* row order — reordering is
/// internal, exactly like the real library.
#[derive(Debug)]
pub struct DtcSpmm {
    perm: Option<Vec<usize>>,
    kernel: DtcAnyKernel,
    decision: SelectorDecision,
    choice: KernelChoice,
    /// Identity of the source matrix (pre-reordering); [`Self::apply_delta`]
    /// retires cache entries under it.
    key: KeyMaterial,
    /// Identity of the *working* (post-reordering) matrix — the one the
    /// conversion cache is keyed on. Equals `key` when reordering is off.
    working_key: KeyMaterial,
    /// The configuration this engine was built under, retained so delta
    /// updates can re-select and re-lower without the builder.
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

    /// The Selector's decision record.
    pub fn decision(&self) -> &SelectorDecision {
        &self.decision
    }

    /// The kernel the Selector (or `force_kernel`) chose.
    pub fn choice(&self) -> KernelChoice {
        self.choice
    }

    /// The row permutation applied by reordering, if any.
    pub fn permutation(&self) -> Option<&[usize]> {
        self.perm.as_deref()
    }

    /// The ME-TCF representation in use.
    pub fn metcf(&self) -> &MeTcfMatrix {
        match &self.kernel {
            DtcAnyKernel::Base(k) => k.metcf(),
            DtcAnyKernel::Balanced(k) => k.metcf(),
        }
    }

    /// Identity of the source matrix this engine was built from.
    pub fn key(&self) -> &KeyMaterial {
        &self.key
    }

    /// The engine configuration this engine was built under.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Applies a batch of COO edits to the engine **in place**: the
    /// resident ME-TCF is patched window-locally (bitwise identical to a
    /// full rebuild over the edited matrix), the kernel is re-lowered over
    /// the patched format, and the simulation-based Selector re-runs only
    /// when the edit's row-length-stat drift exceeds
    /// [`DeltaPolicy::reselect_drift`] — the Acc-SpMM/FlashSparse insight
    /// that kernel choice keys on row-length statistics, so small edits
    /// need not pay the makespan replay.
    ///
    /// Edits are expressed in **original** row coordinates; engines built
    /// with reordering remap them through the frozen permutation (the
    /// permutation itself is never recomputed by a delta).
    ///
    /// Invalidation contract: before the engine mutates, every process-wide
    /// cache entry derived from the pre-edit matrix is retired —
    /// conversion-cache entries (front tier purged **by key**, exact tier
    /// by stored material) under both the original and working identities,
    /// and this engine's whole trace cache (its keys carry no matrix
    /// identity, so every memoized trace and the duration classes interned
    /// inside them are stale). The cache is purged, **not** re-seeded: a
    /// post-edit lookup either misses (and reconverts) or was admitted
    /// after the edit — it can never serve a pre-edit artifact.
    ///
    /// # Errors
    ///
    /// [`DtcError::Format`] when an edit is out of bounds or the edited
    /// matrix would overflow ME-TCF's `u32` offsets; the engine (and every
    /// cache) is unchanged on error.
    pub fn apply_delta(
        &mut self,
        delta: &MatrixDelta,
        policy: &DeltaPolicy,
    ) -> Result<DeltaOutcome, DtcError> {
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

        // Patch a copy of the resident format; `self` is untouched until
        // every fallible step has succeeded.
        let mut patched = self.metcf().clone();
        let report = patched.apply_delta(effective)?;

        // New identities and per-matrix statistics, straight from the
        // patched format. The common (unreordered) path never materializes
        // a CSR: `of_metcf` hashes the reconstructed CSR streams directly
        // and `distinct_cols` reads the per-window column maps, which is
        // what keeps a single-window delta an order of magnitude cheaper
        // than a rebuild. Reordered engines still pay one `to_csr` to key
        // the original-order matrix.
        let new_working_key = KeyMaterial::of_metcf(&patched);
        let new_key = match &inv {
            None => new_working_key.clone(),
            Some(inv) => KeyMaterial::of(&patched.to_csr()?.permute_rows(inv)),
        };
        let distinct = patched.distinct_cols();

        // Invalidate every layer keyed on the pre-edit identity. Purge
        // only — no re-seeding — so the next cold build over the edited
        // matrix is a miss, never a stale hit.
        crate::cache::invalidate_conversion(&self.working_key);
        if self.key != self.working_key {
            crate::cache::invalidate_conversion(&self.key);
        }
        self.trace_cache.lock().unwrap().clear();
        crate::telemetry::trace_cache_invalidations().incr();

        // Drift-gated re-selection: below the threshold the previous
        // decision (and its makespan model) is reused as-is.
        let drift = report.drift();
        let reselected = drift > policy.reselect_drift;
        if reselected {
            self.decision = self.config.selector.decide(&patched, &self.config.device);
            self.choice = self.config.force.unwrap_or(self.decision.choice);
            crate::telemetry::delta_reselects().incr();
        }
        self.kernel = build_kernel(self.choice, patched, distinct, &self.config);
        self.key = new_key;
        self.working_key = new_working_key;
        crate::telemetry::delta_applies().incr();
        Ok(DeltaOutcome { report, drift, reselected, choice: self.choice })
    }
}

impl SpmmEngine for DtcSpmm {
    fn name(&self) -> &str {
        match self.choice {
            KernelChoice::Base => "DTC-SpMM",
            KernelChoice::Balanced => "DTC-SpMM-balanced",
        }
    }

    fn rows(&self) -> usize {
        self.kernel.as_kernel().rows()
    }

    fn cols(&self) -> usize {
        self.kernel.as_kernel().cols()
    }

    fn nnz(&self) -> usize {
        self.kernel.as_kernel().nnz()
    }

    /// Runs the chosen kernel, then undoes the row permutation so callers
    /// see original row order.
    fn execute(&self, b: &DenseMatrix) -> Result<DenseMatrix, FormatError> {
        let c = self.kernel.as_kernel().execute(b)?;
        Ok(match &self.perm {
            None => c,
            Some(perm) => {
                let mut out = DenseMatrix::zeros(c.rows(), c.cols());
                for (new_row, &orig_row) in perm.iter().enumerate() {
                    out.row_mut(orig_row).copy_from_slice(c.row(new_row));
                }
                out
            }
        })
    }

    fn trace(&self, n: usize, device: &Device, record_b_addrs: bool) -> KernelTrace {
        // Structural fingerprint (not a Debug-string hash): stable under
        // field reordering and allocation-free, so a modified clone of a
        // preset never aliases the preset's cached traces.
        let key = (n, device.fingerprint(), record_b_addrs);
        if let Some(hit) = self.trace_cache.lock().unwrap().get(&key).cloned() {
            crate::telemetry::trace_cache_hits().incr();
            return hit;
        }
        crate::telemetry::trace_cache_misses().incr();
        let _lower = dtc_telemetry::span("pipeline.trace");
        let trace = self.kernel.as_kernel().trace(n, device, record_b_addrs);
        self.trace_cache.lock().unwrap().insert(key, trace.clone());
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtc_formats::gen::{community, long_row, uniform};
    use dtc_formats::tf32::TF32_UNIT_ROUNDOFF;

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
        // Engine-level equivalence: patching in place must give the same
        // ME-TCF (and the same execute output, bitwise) as building a fresh
        // engine over the edited matrix.
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
        let mut engine = DtcSpmm::new(&a);
        let outcome = engine.apply_delta(&delta, &DeltaPolicy::default()).unwrap();
        let edited = delta.apply_to_csr(&a).unwrap();
        let fresh = DtcSpmm::new(&edited);
        assert_eq!(engine.metcf(), fresh.metcf(), "patched format must equal rebuild");
        assert_eq!(engine.key(), fresh.key(), "post-edit identity must equal rebuild");
        assert_eq!(outcome.report.nnz_after, edited.nnz());
        let b = DenseMatrix::from_fn(320, 8, |r, c| ((r * 7 + c) % 13) as f32 - 6.0);
        let via_delta = engine.execute(&b).unwrap();
        let via_fresh = fresh.execute(&b).unwrap();
        assert_eq!(via_delta.as_slice(), via_fresh.as_slice(), "execution must be bitwise equal");
    }

    #[test]
    fn apply_delta_remaps_rows_through_frozen_permutation() {
        let a = community(320, 320, 16, 10.0, 0.9, 211);
        let mut engine = DtcSpmm::builder().reorder(true).build(&a);
        let perm_before = engine.permutation().unwrap().to_vec();
        let mut delta = MatrixDelta::new();
        delta.insert(5, 7, 2.5);
        delta.delete(100, 100);
        delta.insert(200, 3, -1.0);
        engine.apply_delta(&delta, &DeltaPolicy::default()).unwrap();
        assert_eq!(engine.permutation().unwrap(), perm_before, "permutation is frozen");
        // Against the reference: edits were expressed in original rows.
        let edited = delta.apply_to_csr(&a).unwrap();
        let b = DenseMatrix::from_fn(320, 4, |r, _| (r % 9) as f32 * 0.5);
        let got = engine.execute(&b).unwrap();
        let want = edited.spmm_reference(&b).unwrap();
        assert!(got.max_abs_diff(&want) < 40.0 * TF32_UNIT_ROUNDOFF);
        // And the engine's key is the edited matrix's original-order identity.
        assert_eq!(*engine.key(), KeyMaterial::of(&edited));
    }

    #[test]
    fn apply_delta_reselects_only_past_drift_threshold() {
        let a = uniform(640, 640, 5000, 212);
        let mut engine = DtcSpmm::new(&a);

        // A value-only update: zero drift, never reselects.
        let mut tiny = MatrixDelta::new();
        let (r0, c0, _) = a.iter().next().unwrap();
        tiny.update(r0, c0, 42.0);
        let out = engine.apply_delta(&tiny, &DeltaPolicy::default()).unwrap();
        assert_eq!(out.drift, 0.0);
        assert!(!out.reselected);

        // A heavy reshape under a zero threshold must reselect.
        let mut heavy = MatrixDelta::new();
        for r in 0..640 {
            for c in 0..4 {
                heavy.insert(r, (r + c * 160) % 640, 1.0);
            }
        }
        let out = engine.apply_delta(&heavy, &DeltaPolicy { reselect_drift: 0.0 }).unwrap();
        assert!(out.drift > 0.0);
        assert!(out.reselected);

        // The same edit under an infinite threshold keeps the old decision.
        let mut engine2 = DtcSpmm::new(&a);
        let out2 = engine2.apply_delta(&heavy, &DeltaPolicy { reselect_drift: f64::MAX }).unwrap();
        assert!(!out2.reselected);
    }

    #[test]
    fn apply_delta_out_of_bounds_leaves_engine_unchanged() {
        let a = uniform(160, 160, 900, 213);
        let mut engine = DtcSpmm::new(&a);
        let key_before = engine.key().clone();
        let metcf_before = engine.metcf().clone();
        let mut delta = MatrixDelta::new();
        delta.insert(0, 1, 1.0);
        delta.insert(0, 500, 1.0); // col out of bounds
        let err = engine.apply_delta(&delta, &DeltaPolicy::default()).unwrap_err();
        assert!(matches!(err, DtcError::Format(FormatError::IndexOutOfBounds { .. })));
        assert_eq!(*engine.key(), key_before);
        assert_eq!(*engine.metcf(), metcf_before);
    }

    #[test]
    fn apply_delta_purges_the_pre_edit_conversion() {
        let a = uniform(288, 288, 2000, 214);
        let mut engine = DtcSpmm::new(&a);
        let pre_key = engine.key().clone();
        let mut delta = MatrixDelta::new();
        delta.insert(17, 200, 3.5);
        engine.apply_delta(&delta, &DeltaPolicy::default()).unwrap();
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
        // re-lowered from the patched kernel.
        let a = uniform(256, 256, 2048, 215);
        let device = Device::rtx4090();
        let mut engine = DtcSpmm::new(&a);
        let _warm = engine.trace(32, &device, false);
        assert_eq!(engine.trace_cache.lock().unwrap().len(), 1);
        let mut delta = MatrixDelta::new();
        for c in 0..64 {
            delta.insert(3, c * 4, 1.0);
        }
        engine.apply_delta(&delta, &DeltaPolicy::default()).unwrap();
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
