//! The `CounterSet` a simulation exports must agree with the aggregate
//! fields the `SimReport` has always carried — one loop computes both, and
//! this cross-check keeps it that way.

use dtc_spmm::baselines::{CusparseSpmm, SpmmEngine, TcgnnSpmm};
use dtc_spmm::core::DtcSpmm;
use dtc_spmm::formats::gen::{community, long_row};
use dtc_spmm::formats::CsrMatrix;
use dtc_spmm::sim::{Device, SimOptions, SimReport};

fn check(name: &str, report: &SimReport, device: &Device) {
    let c = &report.counters;
    let i = &c.instructions;
    assert!((i.hmma - report.hmma_count).abs() < 1e-6, "{name}: hmma");
    assert!((i.imad - report.imad_count).abs() < 1e-6, "{name}: imad");
    assert_eq!(c.total_blocks(), report.num_tbs, "{name}: blocks");
    assert_eq!(c.sm_cycles.len(), device.num_sms, "{name}: SM vector length");
    for (sm, (&a, &b)) in c.sm_cycles.iter().zip(report.sm_busy_cycles()).enumerate() {
        assert!((a - b).abs() < 1e-6, "{name}: sm {sm} busy cycles {a} vs {b}");
    }
    // DRAM bytes follow the sector accounting exactly.
    let expected_dram = c.l2_sector_misses * device.sector_bytes as f64;
    assert!(
        (c.dram_bytes - expected_dram).abs() < 1e-3,
        "{name}: dram {} vs misses×sector {}",
        c.dram_bytes,
        expected_dram
    );
    assert!((c.dram_bytes - report.dram_bytes).abs() < 1e-3, "{name}: dram vs report");
    // Hit rate implied by the sectors matches the simulated one when L2 ran.
    if let Some(hit) = report.l2_hit_rate {
        let b_total = c.l2_sector_hits / hit.max(1e-12);
        assert!(
            c.l2_sector_hits <= b_total + 1e-6,
            "{name}: hits {} exceed implied B sectors {}",
            c.l2_sector_hits,
            b_total
        );
    }
    // Occupancy: one entry per SM, each within [0, effective occupancy].
    assert_eq!(c.sm_occupancy.len(), device.num_sms, "{name}: occupancy length");
    for &o in &c.sm_occupancy {
        assert!(o >= 0.0 && o <= c.effective_occupancy as f64 + 1e-9, "{name}: occupancy {o}");
    }
    // Time derives from the cycle count and clock.
    let implied_ms = report.cycles / (device.sm_clock_ghz * 1e6);
    assert!(
        (report.time_ms - implied_ms).abs() <= 1e-9 * implied_ms.max(1.0),
        "{name}: time {} vs cycles/clock {}",
        report.time_ms,
        implied_ms
    );
    assert!(c.stall_cycles >= 0.0, "{name}: stalls");
    assert!(i.total() > 0.0, "{name}: empty instruction mix");
}

fn engines(a: &CsrMatrix, device: &Device) -> Vec<(String, Box<dyn SpmmEngine>)> {
    vec![
        ("dtc".into(), Box::new(DtcSpmm::builder().device(device.clone()).build(a)) as _),
        ("cusparse".into(), Box::new(CusparseSpmm::new(a)) as _),
        ("tcgnn".into(), Box::new(TcgnnSpmm::new(a).unwrap()) as _),
    ]
}

#[test]
fn counters_consistent_on_long_row() {
    let device = Device::rtx4090();
    let a = long_row(768, 768, 150.0, 1.5, 71);
    for (name, k) in engines(&a, &device) {
        for opts in
            [SimOptions::default(), SimOptions { simulate_l2: true, ..SimOptions::default() }]
        {
            let report = k.simulate_with(96, &device, &opts);
            check(&format!("{name}/l2={}", opts.simulate_l2), &report, &device);
        }
    }
}

#[test]
fn counters_consistent_on_community() {
    let device = Device::rtx3090();
    let a = community(512, 512, 24, 10.0, 0.9, 72);
    for (name, k) in engines(&a, &device) {
        let report = k.simulate_with(128, &device, &SimOptions::default());
        check(&name, &report, &device);
    }
}

#[test]
fn cp_async_sectors_appear_only_with_double_buffering() {
    use dtc_spmm::core::{DtcKernel, KernelOpts};
    let device = Device::rtx4090();
    let a = long_row(512, 512, 120.0, 1.5, 73);
    let with_sdb = DtcKernel::with_opts(&a, KernelOpts::all());
    let without = DtcKernel::with_opts(&a, KernelOpts { sdb: false, ..KernelOpts::all() });
    let mix_on = with_sdb.simulate(64, &device).counters.instructions;
    let mix_off = without.simulate(64, &device).counters.instructions;
    assert!(mix_on.cp_async_sectors > 0.0, "SDB must prefetch A via cp.async");
    assert_eq!(mix_off.cp_async_sectors, 0.0, "no SDB, no cp.async");
    // The A traffic moves between classes but does not disappear.
    assert!(mix_off.ldg_sectors > mix_on.ldg_sectors);
}
