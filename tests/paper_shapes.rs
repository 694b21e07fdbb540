//! Integration tests asserting the paper's headline result *shapes* on
//! the scaled representative datasets — who wins, where, and by roughly
//! what kind of factor. These are the claims EXPERIMENTS.md reports.

use dtc_spmm::baselines::{CusparseSpmm, SpmmEngine, SputnikSpmm, TcgnnSpmm};
use dtc_spmm::core::{BalancedDtcKernel, DtcKernel, DtcSpmm, KernelChoice, KernelOpts, Selector};
use dtc_spmm::datasets::{representative, scaled_device, DatasetKind};
use dtc_spmm::formats::MeTcfMatrix;
use dtc_spmm::sim::Device;

const N: usize = 128;

fn device() -> Device {
    scaled_device(Device::rtx4090())
}

#[test]
fn dtc_is_fastest_general_method_on_all_eight() {
    // Fig 11a: DTC-SpMM achieves the highest speedup among the general
    // SpMM methods (cuSPARSE, TCGNN, Sputnik) on all 8 matrices.
    let device = device();
    for d in representative() {
        let a = d.matrix();
        let dtc = DtcSpmm::builder().device(device.clone()).build(&a).simulate(N, &device).time_ms;
        let cus = CusparseSpmm::new(&a).simulate(N, &device).time_ms;
        let tcg = TcgnnSpmm::new(&a).unwrap().simulate(N, &device).time_ms;
        let spk = SputnikSpmm::new(&a).unwrap().simulate(N, &device).time_ms;
        assert!(dtc < cus, "{}: dtc={dtc} cus={cus}", d.name);
        assert!(dtc < tcg, "{}: dtc={dtc} tcgnn={tcg}", d.name);
        assert!(dtc < spk, "{}: dtc={dtc} sputnik={spk}", d.name);
    }
}

#[test]
fn type_ii_speedups_exceed_type_i() {
    // Fig 11a: "the relative speedup is even higher (up to 3.29x) on
    // Type II matrices".
    let device = device();
    let mut type_i = Vec::new();
    let mut type_ii = Vec::new();
    for d in representative() {
        let a = d.matrix();
        let dtc = DtcSpmm::builder().device(device.clone()).build(&a).simulate(N, &device).time_ms;
        let cus = CusparseSpmm::new(&a).simulate(N, &device).time_ms;
        match d.kind {
            DatasetKind::TypeI => type_i.push(cus / dtc),
            DatasetKind::TypeII => type_ii.push(cus / dtc),
            DatasetKind::GnnGraph => {}
        }
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(avg(&type_ii) > avg(&type_i) * 1.5, "type_ii={:?} type_i={:?}", type_ii, type_i);
    // And at least one Type II speedup lands in the paper's 2-5x band.
    assert!(type_ii.iter().any(|&s| s > 2.0 && s < 8.0), "{type_ii:?}");
}

#[test]
fn tcgnn_loses_to_cusparse_on_type_ii_only() {
    // §1 + Fig 11a: TCGNN is competitive on Type I but slower than
    // cuSPARSE on large matrices with long rows.
    let device = device();
    for d in representative() {
        let a = d.matrix();
        let tcg = TcgnnSpmm::new(&a).unwrap().simulate(N, &device).time_ms;
        let cus = CusparseSpmm::new(&a).simulate(N, &device).time_ms;
        match d.kind {
            DatasetKind::TypeI => {
                assert!(tcg < cus * 1.5, "{}: TCGNN not competitive", d.name)
            }
            DatasetKind::TypeII => {
                assert!(tcg > cus, "{}: TCGNN should lose on Type II", d.name)
            }
            DatasetKind::GnnGraph => {}
        }
    }
}

#[test]
fn tcgnn_tc_utilization_below_8_percent() {
    // Observation 3 / Table 2.
    let device = device();
    for d in representative() {
        let a = d.matrix();
        let r = TcgnnSpmm::new(&a).unwrap().simulate(N, &device);
        assert!(r.tc_utilization < 0.10, "{}: util {}", d.name, r.tc_utilization);
    }
}

#[test]
fn imad_ratio_explodes_on_type_ii() {
    // Table 2: #IMAD/#HMMA is 13-15 on Type I vs 46-98 on Type II.
    let device = device();
    let mut max_type_i = 0.0f64;
    let mut min_type_ii = f64::MAX;
    for d in representative() {
        let a = d.matrix();
        let r = TcgnnSpmm::new(&a).unwrap().simulate(N, &device);
        match d.kind {
            DatasetKind::TypeI => max_type_i = max_type_i.max(r.imad_per_hmma),
            DatasetKind::TypeII => min_type_ii = min_type_ii.min(r.imad_per_hmma),
            DatasetKind::GnnGraph => {}
        }
    }
    assert!(
        min_type_ii > 2.0 * max_type_i,
        "type II ratios ({min_type_ii}) should dwarf type I ({max_type_i})"
    );
}

#[test]
fn dtc_utilization_and_ratio_beat_tcgnn_everywhere() {
    // Fig 14: DTC's TC pipeline utilization is higher and its IMAD/HMMA
    // ratio lower than TCGNN's on every dataset.
    let device = device();
    for d in representative() {
        let a = d.matrix();
        let dtc = DtcKernel::new(&a).simulate(N, &device);
        let tcg = TcgnnSpmm::new(&a).unwrap().simulate(N, &device);
        assert!(dtc.tc_utilization > tcg.tc_utilization, "{}", d.name);
        assert!(dtc.imad_per_hmma < tcg.imad_per_hmma, "{}", d.name);
    }
}

#[test]
fn ablation_is_monotone_on_type_ii() {
    // Fig 14: each optimization helps (or is neutral) on long-row inputs.
    let device = device();
    for abbr in ["reddit", "ddi", "protein"] {
        let d = representative().into_iter().find(|d| d.abbr == abbr).unwrap();
        let a = d.matrix();
        let mut prev = f64::INFINITY;
        for (label, opts) in KernelOpts::ablation_ladder() {
            let t = DtcKernel::with_opts(&a, opts).simulate(N, &device).time_ms;
            assert!(t <= prev * 1.01, "{abbr}/{label}: {t} vs {prev}");
            prev = t;
        }
    }
}

#[test]
fn selector_chooses_balanced_for_type_ii_and_base_for_yeasth() {
    // Fig 15 + §4.5.2.
    let device = device();
    let selector = Selector::default();
    for d in representative() {
        let a = d.matrix();
        let decision = selector.decide(&MeTcfMatrix::from_csr(&a), &device);
        match d.abbr.as_str() {
            "reddit" | "ddi" => assert_eq!(
                decision.choice,
                KernelChoice::Balanced,
                "{}: AR {}",
                d.name,
                decision.approximation_ratio
            ),
            "YH" => assert_eq!(decision.choice, KernelChoice::Base, "{}", d.name),
            _ => {}
        }
    }
}

#[test]
fn strict_balance_wins_big_on_ddi() {
    // Fig 15a: +54.31% on ddi in the paper.
    let device = device();
    let d = representative().into_iter().find(|d| d.abbr == "ddi").unwrap();
    let a = d.matrix();
    let base = DtcKernel::new(&a).simulate(N, &device).time_ms;
    let balanced = BalancedDtcKernel::new(&a).simulate(N, &device).time_ms;
    assert!(base / balanced > 1.2, "gain only {:.2}x", base / balanced);
}

#[test]
fn metcf_saves_memory_vs_csr_and_tcf() {
    // Observation 1 + §5.3: TCF far above CSR everywhere; ME-TCF close to
    // CSR per matrix and below it on average (the paper reports a 6.42 %
    // average saving before reordering).
    let mut savings = Vec::new();
    for d in representative() {
        let a = d.matrix();
        let fp = dtc_spmm::formats::footprint::footprint_of(&a);
        assert!(fp.tcf_vs_csr_pct() > 100.0, "{}", d.name);
        assert!(
            (fp.metcf as f64) < fp.csr as f64 * 1.15,
            "{}: metcf {} csr {}",
            d.name,
            fp.metcf,
            fp.csr
        );
        savings.push(fp.metcf_saving_vs_csr_pct());
    }
    let avg = savings.iter().sum::<f64>() / savings.len() as f64;
    assert!(avg > 0.0, "average ME-TCF saving {avg}% should be positive");
}

#[test]
fn rtx3090_slightly_slower_overall() {
    // Table 3: the RTX3090 shows the same trend with lower absolute
    // throughput (fewer SMs, lower clock).
    let d4090 = scaled_device(Device::rtx4090());
    let d3090 = scaled_device(Device::rtx3090());
    let a = representative()[0].matrix();
    let t4090 = DtcKernel::new(&a).simulate(N, &d4090).time_ms;
    let t3090 = DtcKernel::new(&a).simulate(N, &d3090).time_ms;
    assert!(t3090 > t4090, "3090 {} vs 4090 {}", t3090, t4090);
}
