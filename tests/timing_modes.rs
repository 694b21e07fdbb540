//! Cross-validation of the two timing models: every ordering the
//! evaluation relies on must hold under both the closed-form and the
//! event-driven per-block models.

use dtc_spmm::baselines::{CusparseSpmm, SpmmEngine, TcgnnSpmm};
use dtc_spmm::core::{DtcKernel, KernelOpts};
use dtc_spmm::datasets::{representative, scaled_device};
use dtc_spmm::sim::{Device, SimOptions, TimingMode};

fn time_ms(k: &dyn SpmmEngine, n: usize, device: &Device, mode: TimingMode) -> f64 {
    k.simulate_with(n, device, &SimOptions { simulate_l2: false, timing: mode }).time_ms
}

#[test]
fn headline_orderings_hold_in_both_modes() {
    let device = scaled_device(Device::rtx4090());
    let n = 128;
    for abbr in ["DD", "protein"] {
        let d = representative().into_iter().find(|d| d.abbr == abbr).expect("dataset");
        let a = d.matrix();
        let dtc = DtcKernel::new(&a);
        let tcgnn = TcgnnSpmm::new(&a).expect("square");
        let cus = CusparseSpmm::new(&a);
        for mode in [TimingMode::Analytical, TimingMode::EventDriven] {
            let t_dtc = time_ms(&dtc, n, &device, mode);
            let t_tcgnn = time_ms(&tcgnn, n, &device, mode);
            let t_cus = time_ms(&cus, n, &device, mode);
            assert!(t_dtc < t_tcgnn, "{abbr}/{mode:?}: dtc={t_dtc} tcgnn={t_tcgnn}");
            if abbr == "protein" {
                assert!(t_dtc < t_cus, "{abbr}/{mode:?}: dtc={t_dtc} cus={t_cus}");
                assert!(t_tcgnn > t_cus, "{abbr}/{mode:?}: TCGNN must lose on Type II");
            }
        }
    }
}

#[test]
fn ablation_monotone_in_event_mode_too() {
    let device = scaled_device(Device::rtx4090());
    let d = representative().into_iter().find(|d| d.abbr == "ddi").expect("dataset");
    let a = d.matrix();
    let mut prev = f64::INFINITY;
    for (label, opts) in KernelOpts::ablation_ladder() {
        let k = DtcKernel::with_opts(&a, opts);
        let t = time_ms(&k, 128, &device, TimingMode::EventDriven);
        assert!(t <= prev * 1.02, "{label}: {t} vs {prev}");
        prev = t;
    }
}

#[test]
fn modes_agree_on_magnitude() {
    let device = scaled_device(Device::rtx4090());
    let d = representative().into_iter().find(|d| d.abbr == "DD").expect("dataset");
    let a = d.matrix();
    let k = DtcKernel::new(&a);
    let analytic = time_ms(&k, 128, &device, TimingMode::Analytical);
    let event = time_ms(&k, 128, &device, TimingMode::EventDriven);
    let ratio = event / analytic;
    assert!((0.3..=3.0).contains(&ratio), "ratio={ratio}");
}
