//! `iterate`: the paper's deployment. Prepare each engine once (reorder →
//! convert → select → lower), then execute it many times in a closed loop
//! with one caller. `dtc-serve` is bypassed.

use crate::check::{bits_equal, within_tf32_envelope};
use crate::stats::{self, Ledger};
use crate::{computed_bytes, dense_operand, sub_seed, Args, Metric, Outcome};
use dtc_core::{EngineConfig, EngineKind, KeyMaterial, SpmmEngine};
use dtc_formats::{gen, CsrMatrix, DenseMatrix};
use std::hint::black_box;
use std::time::Instant;

/// Dense columns per execute.
const N: usize = 64;
/// Cold builds per pass; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Leading steps left out of the step-time sample (step 0 among them).
const WARMUP_STEPS: usize = 3;
/// Measured steps a pass takes at least, so p90 has 10 samples beyond it.
const MIN_STEPS: usize = 110;
/// `KeyMaterial::of` calls per matrix in the traced keying probe.
const KEYMAT_REPS: usize = 5;

struct Input {
    matrix: CsrMatrix,
    config: EngineConfig,
    b: DenseMatrix,
}

fn inputs(seed: u64) -> Vec<Input> {
    // The 784k-nnz community matrix (TCA reorder on) and a skewed R-MAT graph:
    // a change that helps one sparsity pattern can cost the other.
    let community = gen::community(12288, 12288, 48, 64.0, 0.9, sub_seed(seed, 1));
    let rmat = gen::rmat(14, 16.0, (0.57, 0.19, 0.19, 0.05), sub_seed(seed, 2));
    [(community, true), (rmat, false)]
        .into_iter()
        .enumerate()
        .map(|(i, (matrix, reorder))| Input {
            b: dense_operand(matrix.cols(), N, sub_seed(seed, 10 + i as u64)),
            config: EngineConfig { reorder, ..EngineConfig::default() },
            matrix,
        })
        .collect()
}

enum Budget {
    Seconds(f64),
    Steps(usize),
}

#[derive(Default)]
struct Pass {
    setup_s: Vec<f64>,
    setup_ns: f64,
    /// Step times after warm-up, ms.
    steps_ms: Vec<f64>,
    /// Every step (warm-up included), for the tracing-overhead ratio.
    steps: usize,
    loop_ns: f64,
    macs: u64,
    executes: usize,
    computed_bytes: f64,
    imbalance: Vec<f64>,
    ledger: Ledger,
}

fn pass(inputs: &[Input], budget: Budget) -> Result<Pass, String> {
    let mut p = Pass::default();
    let mut engines: Vec<Box<dyn SpmmEngine>> = Vec::new();
    for _ in 0..SETUP_REPS {
        dtc_core::clear_conversion_cache();
        let t = Instant::now();
        engines = inputs
            .iter()
            .map(|i| dtc_core::prepare(EngineKind::Dtc, &i.config, &i.matrix))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("prepare failed: {e}"))?;
        let ns = t.elapsed().as_nanos() as f64;
        p.setup_ns += ns;
        p.setup_s.push(ns / 1e9);
    }

    let imbalance = dtc_telemetry::gauge("par.shard.max_imbalance");
    let mut step0: Vec<DenseMatrix> = Vec::new();
    let start = Instant::now();
    loop {
        let done = match budget {
            Budget::Seconds(s) => {
                p.steps >= WARMUP_STEPS + MIN_STEPS && start.elapsed().as_secs_f64() >= s
            }
            Budget::Steps(n) => p.steps >= n,
        };
        if done {
            break;
        }
        let t = Instant::now();
        let outs: Vec<_> = engines
            .iter()
            .zip(inputs)
            .map(|(e, i)| {
                let _span = dtc_telemetry::span("bench.execute");
                e.execute(black_box(&i.b))
            })
            .collect();
        let ns = t.elapsed().as_nanos() as f64;
        p.imbalance.push(imbalance.get());
        p.loop_ns += ns;
        if p.steps >= WARMUP_STEPS {
            p.steps_ms.push(ns / 1e6);
        }
        // Off the clock: step 0 must sit inside the TF32 envelope of the
        // CSR reference, and every later step must equal it bitwise.
        for (k, (out, input)) in outs.into_iter().zip(inputs).enumerate() {
            p.ledger.attempted += 1;
            p.executes += 1;
            p.macs += (input.matrix.nnz() * N) as u64;
            p.computed_bytes += computed_bytes(&input.matrix, N);
            let c = match out {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("execute failed: {e}");
                    p.ledger.failed += 1;
                    continue;
                }
            };
            p.ledger.completed += 1;
            let ok = match step0.get(k) {
                Some(want) => bits_equal(&c, want),
                None => {
                    let ok = within_tf32_envelope(&input.matrix, &input.b, &c);
                    step0.push(c);
                    ok
                }
            };
            if !ok {
                p.ledger.wrong += 1;
            }
        }
        p.steps += 1;
    }
    Ok(p)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let inputs = inputs(args.seed);
    for (name, i) in ["community", "rmat"].iter().zip(&inputs) {
        println!(
            "input {name}: {}x{} nnz={} reorder={} N={N}",
            i.matrix.rows(),
            i.matrix.cols(),
            i.matrix.nnz(),
            i.config.reorder
        );
    }
    if !args.trace {
        let p = pass(&inputs, Budget::Seconds(args.seconds))?;
        return Ok(Outcome { ledger: p.ledger, metrics: end_to_end(&p)? });
    }

    let base = pass(&inputs, Budget::Seconds(args.seconds / 2.0))?;
    dtc_telemetry::reset();
    dtc_telemetry::set_enabled(true);
    let traced = pass(&inputs, Budget::Steps(base.steps))?;
    let mut keyed_nnz = 0u64;
    for i in &inputs {
        for _ in 0..KEYMAT_REPS {
            let _span = dtc_telemetry::span("bench.probe.keymat");
            black_box(KeyMaterial::of(black_box(&i.matrix)));
        }
        keyed_nnz += (KEYMAT_REPS * i.matrix.nnz()) as u64;
    }
    let snap = dtc_telemetry::snapshot();
    dtc_telemetry::set_enabled(false);

    let mut ledger = base.ledger;
    ledger.add(&traced.ledger);
    let prepared_nnz: u64 =
        inputs.iter().map(|i| i.matrix.nnz() as u64).sum::<u64>() * SETUP_REPS as u64;
    let mut metrics = crate::core_layers(&snap, prepared_nnz, keyed_nnz);
    let (_, exec_ns) = stats::span_total(&snap, "bench.execute");
    let (_, build_ns) = stats::span_total(&snap, "pipeline.build");
    let e2e_ns = traced.setup_ns + traced.loop_ns;
    metrics.extend([
        Metric::new(
            "core.execute.dtc.ns_per_mac",
            stats::ns_per_mac(exec_ns as f64, traced.macs),
            "ns",
            traced.executes,
        ),
        Metric::new("core.execute.macs", traced.macs as f64, "count", traced.executes),
        Metric::new(
            "core.execute.computed_mb",
            traced.computed_bytes / traced.executes as f64 / 1e6,
            "MB",
            traced.executes,
        ),
        Metric::new(
            "par.max_imbalance",
            stats::median(&traced.imbalance).unwrap_or(f64::NAN),
            "ratio",
            traced.imbalance.len(),
        ),
        Metric::new("serve.pool.evictions", 0.0, "count", 1),
        Metric::new("serve.pool.invalidations", 0.0, "count", 1),
        Metric::new("serve.pool.exhausted", 0.0, "count", 1),
        Metric::new(
            "trace.overhead_frac",
            traced.loop_ns / base.loop_ns - 1.0,
            "ratio",
            traced.steps,
        ),
        Metric::new(
            "trace.unattributed_frac",
            1.0 - (build_ns + exec_ns) as f64 / e2e_ns,
            "ratio",
            traced.steps,
        ),
    ]);
    Ok(Outcome { ledger, metrics })
}

fn end_to_end(p: &Pass) -> Result<Vec<Metric>, String> {
    let steps = stats::sorted(&p.steps_ms);
    let pct = |q: f64| {
        stats::percentile(&steps, q)
            .ok_or_else(|| format!("p{q} refused: {} step samples", steps.len()))
    };
    let (p50, p90) = (pct(50.0)?, pct(90.0)?);
    let n = steps.len();
    let setup = stats::median(&p.setup_s).ok_or("no setup samples")?;
    let step_s: f64 = p.steps_ms.iter().sum::<f64>() / 1e3;
    Ok(vec![
        Metric::new("setup_s", setup, "s", p.setup_s.len()),
        Metric::new("lat_ms_p50", p50, "ms", n),
        Metric::new("lat_ms_p90", p90, "ms", n),
        Metric::new("step_ms_p50", p50, "ms", n),
        Metric::new("step_ms_p90", p90, "ms", n),
        Metric::new("sat_qps", n as f64 / step_s, "req/s", n),
    ])
}
