//! The telemetry registry observed end to end: counters stay exact under
//! `dtc-par` worker threads, pipeline phases land as nested spans, and the
//! cache statistics are plain registry counters.

use dtc_spmm::core::{conversion_cache_stats, DtcSpmm};
use dtc_spmm::formats::gen::{community, uniform};
use dtc_spmm::telemetry;
use std::sync::Mutex;

/// Every test here mutates the process-wide registry; serialize them.
static LOCK: Mutex<()> = Mutex::new(());

#[test]
fn counters_are_exact_under_par_threads() {
    let _l = LOCK.lock().unwrap();
    let c = telemetry::counter("test.par.events");
    let before = c.get();
    // 4 bands × 1000 items, every worker bumping the same counter.
    dtc_spmm::par::set_threads(Some(4));
    let out = dtc_spmm::par::par_map_collect(4000, |i| {
        c.incr();
        i
    });
    dtc_spmm::par::set_threads(None);
    assert_eq!(out.len(), 4000);
    assert_eq!(c.get(), before + 4000, "relaxed counting must lose nothing");
}

#[test]
fn pipeline_build_produces_nested_phase_spans() {
    let _l = LOCK.lock().unwrap();
    telemetry::set_enabled(true);
    telemetry::reset();
    let a = community(256, 256, 16, 8.0, 0.9, 7);
    let _engine = DtcSpmm::builder().reorder(true).build(&a);
    let snap = telemetry::snapshot();
    for phase in ["reorder", "convert", "select", "lower"] {
        let path = format!("pipeline.build/{phase}");
        let stats = snap.span(&path).unwrap_or_else(|| panic!("missing span {path}"));
        assert_eq!(stats.count, 1, "{path}");
    }
    let build = snap.span("pipeline.build").expect("missing pipeline.build");
    assert_eq!(build.count, 1);
    // The parent encloses its phases, so it cannot be shorter than any one.
    let longest_phase = ["reorder", "convert", "select", "lower"]
        .iter()
        .map(|p| snap.span(&format!("pipeline.build/{p}")).unwrap().total_ns)
        .max()
        .unwrap();
    assert!(build.total_ns >= longest_phase);
    telemetry::set_enabled(false);
}

#[test]
fn disabled_telemetry_records_no_spans() {
    let _l = LOCK.lock().unwrap();
    telemetry::set_enabled(false);
    telemetry::reset();
    let a = uniform(128, 128, 600, 8);
    let _engine = DtcSpmm::new(&a);
    assert!(telemetry::snapshot().span("pipeline.build").is_none());
    // Counters still count even with spans off.
    assert!(telemetry::snapshot().counter("core.pipeline.builds").unwrap_or(0) >= 1);
}

#[test]
fn cache_statistics_are_registry_counters() {
    let _l = LOCK.lock().unwrap();
    let a = uniform(160, 160, 900, 9);
    let (h0, m0) = conversion_cache_stats();
    let _one = DtcSpmm::new(&a);
    let _two = DtcSpmm::new(&a); // structurally identical: must hit
    let (h1, m1) = conversion_cache_stats();
    assert!(h1 > h0, "second build must reuse the conversion");
    assert!(m1 > m0, "first build must convert");
    // The accessor is a thin wrapper over the registry: both views agree.
    let snap = telemetry::snapshot();
    assert_eq!(snap.counter("core.cache.conversion.hits"), Some(h1));
    assert_eq!(snap.counter("core.cache.conversion.misses"), Some(m1));
}

#[test]
fn snapshot_json_contains_phase_spans_and_cache_counters() {
    let _l = LOCK.lock().unwrap();
    telemetry::set_enabled(true);
    telemetry::reset();
    let a = uniform(128, 128, 700, 10);
    let _engine = DtcSpmm::new(&a);
    let json = telemetry::snapshot().to_json();
    assert!(json.contains("\"core.cache.conversion.misses\""));
    assert!(json.contains("\"pipeline.build/convert\""));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    telemetry::set_enabled(false);
}
