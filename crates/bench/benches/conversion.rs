//! Criterion benches for format conversion (§6 overhead path): SGT
//! condensing, CSR → ME-TCF (1 vs 4 worker threads), TCF, BELL, CVSE.

use criterion::{criterion_group, criterion_main, Criterion};
use dtc_formats::{gen, BellMatrix, Condensed, CvseMatrix, MeTcfMatrix, TcfMatrix};
use std::hint::black_box;

fn bench_conversions(c: &mut Criterion) {
    let a = gen::web(8192, 8192, 10.0, 2.1, 0.7, 11);
    let mut group = c.benchmark_group("convert_8192x8192");
    group.bench_function("sgt_condense", |b| b.iter(|| black_box(Condensed::from_csr(&a))));
    for threads in [1, 4] {
        dtc_par::set_threads(Some(threads));
        group.bench_function(&format!("metcf_t{threads}"), |b| {
            b.iter(|| black_box(MeTcfMatrix::from_csr(&a)))
        });
    }
    dtc_par::set_threads(None);
    group.bench_function("tcf", |b| b.iter(|| black_box(TcfMatrix::from_csr(&a).expect("square"))));
    group.bench_function("bell32", |b| {
        b.iter(|| black_box(BellMatrix::from_csr(&a, 32, u64::MAX).expect("fits")))
    });
    group.bench_function("cvse8", |b| {
        b.iter(|| black_box(CvseMatrix::from_csr(&a, 8).expect("ok")))
    });
    group.finish();
}

criterion_group!(benches, bench_conversions);
criterion_main!(benches);
