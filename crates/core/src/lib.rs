//! DTC-SpMM: the paper's primary contribution.
//!
//! This crate assembles the full system of §4:
//!
//! - [`kernel::DtcKernel`] — the runtime kernel of Alg. 2 over the ME-TCF
//!   format, with the four §4.4 optimizations individually toggleable
//!   through [`kernel::KernelOpts`]: shared-memory bypassing (SMB),
//!   index-precomputing (IP), sparse double buffering (SDB) and vectorized
//!   dense fetch (VFD);
//! - [`kernel::BalancedDtcKernel`] — the strict-balance variant (§4.5.1):
//!   fixed-size groups of TC blocks per thread block, with atomic
//!   accumulation across split row windows;
//! - [`Selector`] — the simulation-based kernel selector (§4.5.2): computes
//!   the makespan under the thread-block scheduling policy model, derives
//!   the approximation ratio (AR), and picks the balanced kernel when
//!   `AR > 1.2`;
//! - [`convert`] — parallel CSR → ME-TCF conversion with overhead
//!   accounting (§6);
//! - [`DtcSpmm`] — the end-to-end pipeline a downstream user adopts:
//!   optional TCU-Cache-Aware reordering → format conversion → selection →
//!   execution.
//!
//! # Example
//!
//! ```
//! use dtc_core::{DtcSpmm, SpmmEngine};
//! use dtc_formats::{gen::power_law, DenseMatrix};
//! use dtc_sim::Device;
//!
//! # fn main() -> Result<(), dtc_core::DtcError> {
//! let a = power_law(256, 256, 8.0, 2.2, 3);
//! let engine = DtcSpmm::builder().reorder(true).build(&a);
//! let b = DenseMatrix::ones(256, 64);
//! let c = engine.execute(&b)?;
//! assert_eq!(c.rows(), 256);
//! let report = engine.simulate(64, &Device::rtx4090());
//! assert!(report.time_ms > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod config;
pub mod convert;
mod engine;
mod error;
pub mod kernel;
pub mod mma;
mod pipeline;
mod selector;
mod session;
mod telemetry;

pub use cache::{
    clear_conversion_cache, conversion_cache_stats, invalidate_conversion, KeyMaterial,
};
pub use config::EngineConfig;
pub use engine::{prepare, EngineKind};
pub use error::DtcError;
pub use kernel::{BalancedDtcKernel, DtcKernel, ExecPlan, KernelOpts};
pub use pipeline::{DtcSpmm, DtcSpmmBuilder};
pub use selector::{KernelChoice, Selector, SelectorDecision};
pub use session::{AmortizationReport, EngineRecommendation, IterativeSpmm, IterativeSpmmBuilder};

// Re-exported so downstream users need only this crate for the common path.
// The one SpMM trait lives in `dtc-baselines`, its lowest implementor crate.
pub use dtc_baselines::SpmmEngine;
pub use dtc_formats::{DeltaReport, MatrixDelta, Precision};

// The workspace's shared FNV-1a module (it lives in `dtc-par` so `dtc-sim`
// and the serving layer can use it without a dependency cycle).
pub use dtc_par::hash;
