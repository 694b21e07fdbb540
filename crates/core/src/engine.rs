//! The serving layer's front door: [`prepare`] builds any engine family
//! behind the one SpMM trait, [`SpmmEngine`](dtc_baselines::SpmmEngine).
//!
//! All one-time costs (reordering, ME-TCF conversion, Selector
//! simulation, baseline format builds) are paid in [`prepare`]; the
//! returned `Box<dyn SpmmEngine>` exposes only the prepared, repeatable
//! operations, whether it holds the DTC pipeline ([`DtcSpmm`]) or a
//! baseline. `dtc-serve` pools engines under the request's
//! [`KeyMaterial`](crate::KeyMaterial), so engines carry no identity of
//! their own.

use crate::config::EngineConfig;
use crate::error::DtcError;
use crate::DtcSpmm;
use dtc_baselines::{CusparseSpmm, SpmmEngine, SputnikSpmm, TcgnnSpmm};
use dtc_formats::CsrMatrix;

/// Which engine family [`prepare`] builds behind the trait.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The full DTC-SpMM pipeline ([`DtcSpmm`]).
    Dtc,
    /// The conversion-free cuSPARSE baseline.
    Cusparse,
    /// The Sputnik CUDA-core baseline.
    Sputnik,
    /// The TCGNN tensor-core baseline.
    Tcgnn,
}

impl EngineKind {
    /// Stable label for reports and telemetry.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Dtc => "dtc",
            EngineKind::Cusparse => "cusparse",
            EngineKind::Sputnik => "sputnik",
            EngineKind::Tcgnn => "tcgnn",
        }
    }
}

/// Prepares an engine of the requested family: pays every one-time cost
/// (reorder, conversion, selection, baseline format build) now and returns
/// the boxed prepared engine. This is the single front door `dtc-serve`
/// builds pool entries through.
///
/// # Errors
///
/// Propagates baseline construction failures (e.g. TCGNN's square-matrix
/// restriction) as [`DtcError::Format`].
pub fn prepare(
    kind: EngineKind,
    config: &EngineConfig,
    a: &CsrMatrix,
) -> Result<Box<dyn SpmmEngine>, DtcError> {
    Ok(match kind {
        EngineKind::Dtc => Box::new(DtcSpmm::builder().config(config.clone()).try_build(a)?),
        EngineKind::Cusparse => Box::new(CusparseSpmm::new(a)),
        EngineKind::Sputnik => Box::new(SputnikSpmm::new(a)?),
        EngineKind::Tcgnn => Box::new(TcgnnSpmm::new(a)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KeyMaterial;
    use dtc_formats::gen::{power_law, uniform};
    use dtc_formats::DenseMatrix;

    /// The trait must stay object-safe: this is the serving layer's whole
    /// premise.
    #[test]
    fn trait_is_object_safe_across_all_families() {
        let a = power_law(128, 128, 6.0, 2.2, 9);
        let config = EngineConfig::default();
        let engines: Vec<Box<dyn SpmmEngine>> = vec![
            prepare(EngineKind::Dtc, &config, &a).unwrap(),
            prepare(EngineKind::Cusparse, &config, &a).unwrap(),
            prepare(EngineKind::Sputnik, &config, &a).unwrap(),
            prepare(EngineKind::Tcgnn, &config, &a).unwrap(),
        ];
        let b = DenseMatrix::ones(128, 8);
        for e in &engines {
            assert_eq!(e.rows(), 128, "{}", e.name());
            let c = e.execute(&b).unwrap();
            assert_eq!(c.rows(), 128);
            let r = e.simulate(8, &config.device);
            assert!(r.time_ms > 0.0, "{}", e.name());
        }
    }

    #[test]
    fn key_is_of_the_source_matrix_even_under_reordering() {
        let a = power_law(256, 256, 8.0, 2.2, 10);
        let config = EngineConfig { reorder: true, ..EngineConfig::default() };
        let e = DtcSpmm::builder().config(config).build(&a);
        assert!(e.permutation().is_some());
        assert_eq!(*e.key(), KeyMaterial::of(&a));
    }

    #[test]
    fn prepare_propagates_baseline_restrictions() {
        // TCGNN refuses non-square matrices; the front door must surface
        // that as DtcError::Format, not panic.
        let a = uniform(64, 32, 128, 11);
        match prepare(EngineKind::Tcgnn, &EngineConfig::default(), &a) {
            Err(DtcError::Format(_)) => {}
            Err(other) => panic!("expected DtcError::Format, got {other:?}"),
            Ok(_) => panic!("non-square TCGNN prepare must fail"),
        }
    }
}
