//! Criterion benches over the hot kernel paths: exact SpMM execution and
//! performance-trace lowering for each engine.

use criterion::{criterion_group, criterion_main, Criterion};
use dtc_baselines::{CusparseSpmm, SpmmEngine, SputnikSpmm, TcgnnSpmm};
use dtc_core::{BalancedDtcKernel, DtcKernel};
use dtc_formats::{gen, DenseMatrix};
use dtc_sim::Device;
use std::hint::black_box;

fn bench_execute(c: &mut Criterion) {
    let a = gen::web(2048, 2048, 10.0, 2.1, 0.7, 5);
    let b = DenseMatrix::from_fn(2048, 64, |r, q| ((r + q) % 7) as f32 * 0.25);
    let mut group = c.benchmark_group("execute_2048x2048_n64");
    group.bench_function("reference_csr", |bench| {
        bench.iter(|| black_box(a.spmm_reference(&b).expect("ok")))
    });
    let dtc = DtcKernel::new(&a);
    group.bench_function("dtc", |bench| bench.iter(|| black_box(dtc.execute(&b).expect("ok"))));
    let tcgnn = TcgnnSpmm::new(&a).expect("square");
    group.bench_function("tcgnn", |bench| bench.iter(|| black_box(tcgnn.execute(&b).expect("ok"))));
    group.finish();
}

fn bench_trace_lowering(c: &mut Criterion) {
    let a = gen::web(4096, 4096, 10.0, 2.1, 0.7, 6);
    let device = Device::rtx4090();
    let mut group = c.benchmark_group("trace_4096x4096_n128");
    let dtc = DtcKernel::new(&a);
    group.bench_function("dtc", |bench| bench.iter(|| black_box(dtc.trace(128, &device, false))));
    let bal = BalancedDtcKernel::new(&a);
    group.bench_function("dtc_balanced", |bench| {
        bench.iter(|| black_box(bal.trace(128, &device, false)))
    });
    let cus = CusparseSpmm::new(&a);
    group.bench_function("cusparse", |bench| {
        bench.iter(|| black_box(cus.trace(128, &device, false)))
    });
    let spk = SputnikSpmm::new(&a).expect("small");
    group.bench_function("sputnik", |bench| {
        bench.iter(|| black_box(spk.trace(128, &device, false)))
    });
    group.finish();
}

fn bench_simulation(c: &mut Criterion) {
    let a = gen::web(4096, 4096, 10.0, 2.1, 0.7, 7);
    let device = Device::rtx4090();
    let dtc = DtcKernel::new(&a);
    let trace = dtc.trace(128, &device, false);
    c.bench_function("simulate_trace", |bench| {
        bench
            .iter(|| black_box(dtc_sim::simulate(&device, &trace, &dtc_sim::SimOptions::default())))
    });
}

criterion_group!(benches, bench_execute, bench_trace_lowering, bench_simulation);
criterion_main!(benches);
