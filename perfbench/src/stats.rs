//! Statistics rules shared by every workload: nearest-rank percentiles,
//! work-normalised rates, request conservation and span self time.

use dtc_telemetry::MetricsSnapshot;

/// Fewest samples a reported percentile must leave above it.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Sorts a sample ascending with `total_cmp` (a NaN sorts last instead of
/// panicking, so it shows up in the tail rather than aborting the run).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending sample: the value at 1-based
/// rank `ceil(p/100 · n)`. Refused (`None`) when fewer than
/// [`MIN_TAIL_SAMPLES`] samples lie beyond that rank, so a tail figure is
/// never read off a handful of points. The median (p = 50) is exempt from
/// the tail rule but still needs at least one sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    if p > 50.0 && n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median (nearest rank) of an unsorted sample.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(&sorted(values), 50.0)
}

/// Wall nanoseconds per multiply-add: an SpMM of a matrix with `nnz`
/// non-zeros against `n_cols` dense columns performs `nnz · n_cols` of them.
pub fn ns_per_mac(ns: f64, macs: u64) -> f64 {
    if macs == 0 {
        f64::NAN
    } else {
        ns / macs as f64
    }
}

/// Request accounting of one pass. Every attempted request ends exactly
/// once as completed, failed (its batch returned an error) or rejected at
/// admission; `wrong` counts completed requests whose output mismatched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    pub attempted: u64,
    pub completed: u64,
    pub failed: u64,
    pub rejected: u64,
    pub wrong: u64,
}

impl Ledger {
    /// Whether every attempt is accounted for exactly once.
    pub fn conserved(&self) -> bool {
        self.completed + self.failed + self.rejected == self.attempted
            && self.wrong <= self.completed
    }

    /// Attempts that did not yield a correct result.
    pub fn bad(&self) -> u64 {
        self.failed + self.rejected + self.wrong
    }

    /// `bad / attempted`.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            f64::NAN
        } else {
            self.bad() as f64 / self.attempted as f64
        }
    }

    pub fn add(&mut self, other: &Ledger) {
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.failed += other.failed;
        self.rejected += other.rejected;
        self.wrong += other.wrong;
    }
}

/// Whether a span path is `name` itself or ends in `/name`.
fn is_named(path: &str, name: &str) -> bool {
    path == name || path.strip_suffix(name).is_some_and(|p| p.ends_with('/'))
}

/// `(count, total_ns)` summed over every span named `name` at any depth.
pub fn span_total(snap: &MetricsSnapshot, name: &str) -> (u64, u64) {
    snap.spans
        .iter()
        .filter(|s| is_named(&s.path, name))
        .fold((0, 0), |(c, t), s| (c + s.stats.count, t + s.stats.total_ns))
}

/// Self time of every span named `name`, summed over its paths: each
/// path's total minus the totals of its direct children (`path/child`).
/// Spans on other threads (e.g. `par.shard` workers) start their own
/// paths, so they never subtract from a caller's self time.
pub fn self_ns(snap: &MetricsSnapshot, name: &str) -> u64 {
    let mut total = 0u64;
    for s in snap.spans.iter().filter(|s| is_named(&s.path, name)) {
        let prefix = format!("{}/", s.path);
        let children: u64 = snap
            .spans
            .iter()
            .filter(|c| c.path.strip_prefix(&prefix).is_some_and(|rest| !rest.contains('/')))
            .map(|c| c.stats.total_ns)
            .sum();
        total += s.stats.total_ns.saturating_sub(children);
    }
    total
}

/// SplitMix64: a small seeded generator, so inputs and arrival schedules
/// depend on `--seed` alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponential gap (in ms) of a Poisson process at `per_s` events/s.
    pub fn exp_gap_ms(&mut self, per_s: f64) -> f64 {
        -self.unit().ln() / per_s * 1e3
    }

    /// Index drawn with probability proportional to `weights`.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        let mut x = self.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            if x <= *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtc_telemetry::{SpanSample, SpanStats};

    #[test]
    fn percentile_is_nearest_rank_and_refuses_thin_tails() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        // p99 of 100 samples leaves one sample beyond it: refused.
        assert_eq!(percentile(&v, 99.0), None);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 99.0), Some(990.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 50.0), Some(7.0));
    }

    #[test]
    fn sorting_tolerates_nan() {
        let s = sorted(&[3.0, f64::NAN, 1.0]);
        assert_eq!(&s[..2], &[1.0, 3.0]);
        assert!(s[2].is_nan());
    }

    #[test]
    fn ns_per_mac_normalises_by_nnz_times_columns() {
        // 1000 nnz × 64 columns in 64 µs is 1 ns per multiply-add.
        assert_eq!(ns_per_mac(64_000.0, 1000 * 64), 1.0);
        assert!(ns_per_mac(1.0, 0).is_nan());
    }

    #[test]
    fn ledger_conservation() {
        let mut l = Ledger { attempted: 10, completed: 7, failed: 2, rejected: 1, wrong: 1 };
        assert!(l.conserved());
        assert_eq!(l.bad(), 4);
        assert_eq!(l.failed_frac(), 0.4);
        l.add(&Ledger { attempted: 1, ..Ledger::default() });
        assert!(!l.conserved(), "an attempt with no outcome breaks conservation");
        let wrong_exceeds = Ledger { attempted: 1, completed: 1, wrong: 2, ..Ledger::default() };
        assert!(!wrong_exceeds.conserved());
    }

    fn sample(path: &str, count: u64, total_ns: u64) -> SpanSample {
        let mut stats = SpanStats::default();
        stats.count = count;
        stats.total_ns = total_ns;
        SpanSample { path: path.to_string(), stats }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let snap = MetricsSnapshot {
            spans: vec![
                sample("bench.next_batch", 4, 1000),
                sample("bench.next_batch/serve.batch", 4, 900),
                sample("bench.next_batch/serve.batch/serve.prepare", 1, 500),
                sample("bench.next_batch/serve.batch/serve.prepare/pipeline.build", 1, 450),
                sample("serve.batch", 1, 300),
                sample("serve.batch/serve.prepare", 1, 100),
                sample("par.shard", 8, 5000),
            ],
            ..MetricsSnapshot::default()
        };
        assert_eq!(self_ns(&snap, "bench.next_batch"), 100);
        // Both serve.batch paths: (900 - 500) + (300 - 100).
        assert_eq!(self_ns(&snap, "serve.batch"), 600);
        assert_eq!(self_ns(&snap, "serve.prepare"), 50 + 100);
        assert_eq!(span_total(&snap, "serve.batch"), (5, 1200));
        assert_eq!(span_total(&snap, "prepare"), (0, 0), "names match whole components");
        assert_eq!(self_ns(&snap, "par.shard"), 5000);
    }

    #[test]
    fn rng_is_deterministic_and_weighted_draws_respect_zero_weights() {
        let mut a = Rng::new(5);
        let mut b = Rng::new(5);
        assert_eq!(a.next_u64(), b.next_u64());
        for _ in 0..1000 {
            let u = a.unit();
            assert!(u > 0.0 && u <= 1.0);
            assert_eq!(a.weighted(&[0.0, 1.0, 0.0]), 1);
        }
    }
}
