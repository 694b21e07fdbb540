//! # dtc-spmm
//!
//! A Rust reproduction of **DTC-SpMM: Bridging the Gap in Accelerating
//! General Sparse Matrix Multiplication with Tensor Cores** (Fan, Wang,
//! Chu — ASPLOS 2024), built on a simulated-GPU substrate.
//!
//! This facade crate re-exports the workspace's public surface:
//!
//! - [`formats`] — sparse formats (CSR/COO/TCF/ME-TCF/BELL/CVSE), SGT
//!   condensing, TF32 numerics, generators;
//! - [`sim`] — the analytical GPU simulator (devices, thread-block
//!   scheduling, pipelines, L2);
//! - [`reorder`] — TCU-Cache-Aware reordering and baselines;
//! - [`baselines`] — the eight competitor SpMM implementations;
//! - [`core`] — DTC-SpMM itself: runtime kernels, Selector, pipeline;
//! - [`gnn`] — the end-to-end GCN case study;
//! - [`datasets`] — synthetic stand-ins for the paper's benchmarks;
//! - [`telemetry`] — the process-wide metrics registry behind the
//!   `DTC_METRICS` JSON snapshot;
//! - [`verify`] — the static trace/model analyzer behind the `tracelint`
//!   CI gate (resource legality, conservation laws, speed-of-light), plus
//!   the concurrency-lint registry (`verify::sched`);
//! - [`sched`] — the bounded schedule-space model checker behind the
//!   `schedcheck` CI gate: exhaustive steal-schedule enumeration with
//!   partial-order reduction, replayed on the real engine substrate, and
//!   the workspace lock-order audit;
//! - [`fuzz`] — the deterministic differential fuzzing harness behind the
//!   `fuzz` CI gate (adversarial generators, f64 + TF32-envelope oracles,
//!   shrinking to minimal reproducers);
//! - [`serve`] — the multi-tenant serving layer: keyed engine pool,
//!   admission/coalescing server and closed-loop load generator over the
//!   unified [`SpmmEngine`](dtc_core::SpmmEngine) trait.
//!
//! # Quickstart
//!
//! ```
//! use dtc_spmm::core::{prepare, EngineConfig, EngineKind, SpmmEngine};
//! use dtc_spmm::formats::{gen::power_law, DenseMatrix};
//! use dtc_spmm::sim::Device;
//!
//! # fn main() -> Result<(), dtc_spmm::core::DtcError> {
//! // A sparse graph adjacency matrix and a dense feature matrix.
//! let a = power_law(512, 512, 8.0, 2.2, 42);
//! let b = DenseMatrix::ones(512, 128);
//!
//! // Prepare once behind the unified engine trait — reorder, convert to
//! // ME-TCF, select a kernel — then execute as often as needed.
//! let config = EngineConfig { reorder: true, ..EngineConfig::default() };
//! let engine = prepare(EngineKind::Dtc, &config, &a)?;
//!
//! // Exact result (TF32-rounded multiplicands, FP32 accumulation).
//! let c = engine.execute(&b)?;
//! assert_eq!(c.rows(), 512);
//!
//! // Simulated RTX4090 performance.
//! let report = engine.simulate(128, &Device::rtx4090());
//! println!("time: {:.4} ms, TC util {:.1}%", report.time_ms, report.tc_utilization * 100.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// One-stop imports for the common workflow.
///
/// ```
/// use dtc_spmm::prelude::*;
///
/// let a = gen::web(256, 256, 8.0, 2.1, 0.7, 1);
/// let engine = DtcSpmm::builder().build(&a);
/// let report = engine.simulate(64, &Device::rtx4090());
/// assert!(report.time_ms > 0.0);
/// ```
pub mod prelude {
    pub use dtc_baselines::SpmmEngine;
    pub use dtc_core::{
        BalancedDtcKernel, DtcKernel, DtcSpmm, IterativeSpmm, KernelChoice, KernelOpts, Selector,
    };
    pub use dtc_formats::{gen, mtx, Condensed, CsrMatrix, DenseMatrix, MeTcfMatrix, Precision};
    pub use dtc_reorder::{Reorderer, TcaReorderer};
    pub use dtc_sim::{Device, SimReport};
}

pub use dtc_baselines as baselines;
pub use dtc_core as core;
pub use dtc_datasets as datasets;
pub use dtc_formats as formats;
pub use dtc_fuzz as fuzz;
pub use dtc_gnn as gnn;
pub use dtc_par as par;
pub use dtc_reorder as reorder;
pub use dtc_sched as sched;
pub use dtc_serve as serve;
pub use dtc_sim as sim;
pub use dtc_telemetry as telemetry;
pub use dtc_verify as verify;
