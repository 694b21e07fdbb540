//! Validation of the simulation-based Selector against ground truth: its
//! makespan model must predict, without running either kernel, which of
//! base / balanced is actually faster under the full simulator — the
//! property §4.5.2's design depends on.

use dtc_spmm::baselines::SpmmEngine;
use dtc_spmm::core::{BalancedDtcKernel, DtcKernel, KernelChoice, Selector};
use dtc_spmm::datasets::{scaled_device, suite_corpus};
use dtc_spmm::formats::MeTcfMatrix;
use dtc_spmm::sim::Device;

#[test]
fn selector_predictions_mostly_match_ground_truth() {
    let device = scaled_device(Device::rtx4090());
    let selector = Selector::default();
    let n = 128;
    // A spread of corpus matrices (every 7th) keeps the test under a few
    // seconds while covering all generator families.
    let corpus = suite_corpus();
    let sample: Vec<_> = corpus.iter().step_by(7).collect();
    let mut correct = 0usize;
    let mut regret = 0.0f64;
    let mut oracle = 0.0f64;
    for d in &sample {
        let a = d.matrix();
        let decision = selector.decide(&MeTcfMatrix::from_csr(&a), &device);
        let base = DtcKernel::new(&a).simulate(n, &device).time_ms;
        let balanced = BalancedDtcKernel::new(&a).simulate(n, &device).time_ms;
        let best = base.min(balanced);
        let picked = match decision.choice {
            KernelChoice::Base => base,
            KernelChoice::Balanced => balanced,
        };
        if (picked - best).abs() < best * 0.02 {
            correct += 1;
        }
        regret += picked;
        oracle += best;
    }
    let accuracy = correct as f64 / sample.len() as f64;
    assert!(accuracy >= 0.8, "selector right on only {:.0}% of {}", accuracy * 100.0, sample.len());
    // Total time within 5% of the oracle.
    assert!(regret <= oracle * 1.05, "regret {:.2}% over oracle", (regret / oracle - 1.0) * 100.0);
}

#[test]
fn selector_beats_always_base_and_always_balanced() {
    let device = scaled_device(Device::rtx4090());
    let selector = Selector::default();
    let n = 128;
    let corpus = suite_corpus();
    let sample: Vec<_> = corpus.iter().step_by(9).collect();
    let mut with_selector = 0.0;
    let mut always_base = 0.0;
    let mut always_balanced = 0.0;
    for d in &sample {
        let a = d.matrix();
        let decision = selector.decide(&MeTcfMatrix::from_csr(&a), &device);
        let base = DtcKernel::new(&a).simulate(n, &device).time_ms;
        let balanced = BalancedDtcKernel::new(&a).simulate(n, &device).time_ms;
        with_selector += match decision.choice {
            KernelChoice::Base => base,
            KernelChoice::Balanced => balanced,
        };
        always_base += base;
        always_balanced += balanced;
    }
    assert!(
        with_selector <= always_base * 1.001,
        "selector {with_selector} vs always-base {always_base}"
    );
    assert!(
        with_selector <= always_balanced * 1.001,
        "selector {with_selector} vs always-balanced {always_balanced}"
    );
}
