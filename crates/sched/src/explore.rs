//! Exhaustive enumeration of steal schedules with sleep-set partial-order
//! reduction.
//!
//! # The schedule model
//!
//! A [`ShardPlan`] gives every worker `w` a band of
//! chunk indices; at runtime the owner pops its band's *front* while idle
//! thieves pop a victim's *back*, and a stolen chunk executes immediately
//! on the thief (it is never re-enqueued). The reachable deque states are
//! therefore exactly the per-band half-open windows `lo..hi`, and a
//! complete execution is a sequence of actions
//!
//! - `Pop(w)` — worker `w` takes chunk `lo_w` from its own band
//!   (enabled iff band `w` is non-empty), or
//! - `Steal(w, v)` — idle worker `w` takes chunk `hi_v - 1` from band `v`
//!   (enabled iff band `w` is empty and band `v` is not),
//!
//! repeated until every band is empty. [`enumerate_schedules`] walks this
//! space depth-first and hands each *complete* schedule — as the ordered
//! `(worker, chunk)` assignment list the replay engine consumes — to a
//! visitor.
//!
//! # Partial-order reduction (sleep sets)
//!
//! Two actions are **independent** when they have different actors *and*
//! touch different bands (`bands(Pop(w)) = {w}`,
//! `bands(Steal(w, v)) = {v}`). Independent actions commute — they
//! remove different chunks from different deques — and neither enables
//! nor disables the other: an action only changes the emptiness of the
//! bands it touches and the idleness of its own actor. Dependent pairs
//! (same actor: program order; same band: they race on one deque end or
//! on its emptiness) are always explored in both orders.
//!
//! The exploration carries a *sleep set*: after fully exploring action
//! `a` from a state, `a` is added to the sleep set of the exploration of
//! every later sibling `b` independent of it, and pruned from sleep sets
//! whenever a dependent action executes. A schedule that begins `b` then
//! `a` with `a` sleeping is exactly a commutation of an already-explored
//! `a`-first schedule, so the subtree is skipped. Sleep sets are a
//! *sound* reduction: every terminal state (and, here, every equivalence
//! class of schedules up to commutation of independent actions) is still
//! reached — the checker loses no behaviors, only duplicates.
//!
//! # Bounding
//!
//! The walk stops after `max_schedules` complete schedules and reports
//! [`ExploreStats::exhaustive`] `false`; small plans (the checker's
//! bread and butter) finish exhaustively well under the default cap.

use dtc_par::ShardPlan;

/// One scheduler action: an owner pop or a cross-band steal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Worker `worker` pops the front of its own band.
    Pop {
        /// The acting worker (and the band popped).
        worker: usize,
    },
    /// Idle worker `worker` steals the back of band `victim`.
    Steal {
        /// The acting (idle) worker.
        worker: usize,
        /// The band stolen from.
        victim: usize,
    },
}

impl Action {
    /// The worker performing the action.
    pub fn actor(self) -> usize {
        match self {
            Action::Pop { worker } | Action::Steal { worker, .. } => worker,
        }
    }

    /// The band the action removes a chunk from.
    pub fn band(self) -> usize {
        match self {
            Action::Pop { worker } => worker,
            Action::Steal { victim, .. } => victim,
        }
    }

    /// Whether two actions are dependent (must be explored in both
    /// orders): same actor or same touched band.
    pub fn dependent(self, other: Action) -> bool {
        self.actor() == other.actor() || self.band() == other.band()
    }
}

/// What one exploration did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreStats {
    /// Complete schedules handed to the visitor.
    pub schedules: u64,
    /// Individual actions executed across the whole walk.
    pub transitions: u64,
    /// Whether the space was exhausted (`false` when `max_schedules`
    /// stopped the walk early).
    pub exhaustive: bool,
}

struct Explorer<'a, F> {
    /// Remaining chunk window per band.
    state: Vec<(usize, usize)>,
    prefix: Vec<(usize, usize)>,
    visit: &'a mut F,
    max_schedules: u64,
    stats: ExploreStats,
}

impl<F: FnMut(&[(usize, usize)])> Explorer<'_, F> {
    fn enabled(&self) -> Vec<Action> {
        let mut out = Vec::new();
        for (w, &(lo, hi)) in self.state.iter().enumerate() {
            if lo < hi {
                out.push(Action::Pop { worker: w });
            } else {
                for (v, &(vlo, vhi)) in self.state.iter().enumerate() {
                    if v != w && vlo < vhi {
                        out.push(Action::Steal { worker: w, victim: v });
                    }
                }
            }
        }
        out
    }

    /// Returns `false` when the schedule cap stopped the walk.
    fn dfs(&mut self, sleep: &[Action]) -> bool {
        let enabled = self.enabled();
        if enabled.is_empty() {
            self.stats.schedules += 1;
            (self.visit)(&self.prefix);
            return self.stats.schedules < self.max_schedules;
        }
        let mut done: Vec<Action> = Vec::new();
        for &action in &enabled {
            if sleep.contains(&action) {
                continue;
            }
            let band = action.band();
            let (lo, hi) = self.state[band];
            let chunk = match action {
                Action::Pop { .. } => {
                    self.state[band] = (lo + 1, hi);
                    lo
                }
                Action::Steal { .. } => {
                    self.state[band] = (lo, hi - 1);
                    hi - 1
                }
            };
            self.prefix.push((action.actor(), chunk));
            self.stats.transitions += 1;
            // The child sleeps on every already-explored or inherited
            // action that commutes with this one.
            let child_sleep: Vec<Action> = sleep
                .iter()
                .chain(done.iter())
                .copied()
                .filter(|&s| !s.dependent(action))
                .collect();
            let keep_going = self.dfs(&child_sleep);
            self.prefix.pop();
            self.state[band] = (lo, hi);
            if !keep_going {
                self.stats.exhaustive = false;
                return false;
            }
            done.push(action);
        }
        true
    }
}

/// Enumerates every steal schedule of `plan` up to commutation of
/// independent actions, calling `visit` with each complete ordered
/// `(worker, chunk)` assignment list (ready for
/// [`dtc_par::replay_assignments`]). Stops after `max_schedules`
/// complete schedules.
pub fn enumerate_schedules<F>(plan: &ShardPlan, max_schedules: u64, visit: &mut F) -> ExploreStats
where
    F: FnMut(&[(usize, usize)]),
{
    let total_chunks = plan.chunk_ranges().len();
    let mut explorer = Explorer {
        state: plan.band_ranges().to_vec(),
        prefix: Vec::with_capacity(total_chunks),
        visit,
        max_schedules: max_schedules.max(1),
        stats: ExploreStats { schedules: 0, transitions: 0, exhaustive: true },
    };
    explorer.dfs(&[]);
    explorer.stats
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force enumeration without any reduction, for cross-checking.
    fn brute_force(plan: &ShardPlan, out: &mut Vec<Vec<(usize, usize)>>) {
        fn rec(
            state: &mut Vec<(usize, usize)>,
            prefix: &mut Vec<(usize, usize)>,
            out: &mut Vec<Vec<(usize, usize)>>,
        ) {
            let mut any = false;
            for w in 0..state.len() {
                let (lo, hi) = state[w];
                if lo < hi {
                    any = true;
                    state[w] = (lo + 1, hi);
                    prefix.push((w, lo));
                    rec(state, prefix, out);
                    prefix.pop();
                    state[w] = (lo, hi);
                } else {
                    for v in 0..state.len() {
                        let (vlo, vhi) = state[v];
                        if v != w && vlo < vhi {
                            any = true;
                            state[v] = (vlo, vhi - 1);
                            prefix.push((w, vhi - 1));
                            rec(state, prefix, out);
                            prefix.pop();
                            state[v] = (vlo, vhi);
                        }
                    }
                }
            }
            if !any {
                out.push(prefix.clone());
            }
        }
        let mut state = plan.band_ranges().to_vec();
        rec(&mut state, &mut Vec::new(), out);
    }

    /// Equivalence key: each worker's chunk-execution sequence. Commuting
    /// independent actions never reorders one actor's actions, so this is
    /// invariant under commutation; Mazurkiewicz trace classes refine it
    /// (same-band order is also fixed within a trace), so a reduction that
    /// covers every trace class covers every key. It is also exactly what
    /// the replay checker can observe — which worker ran each chunk, in
    /// what per-worker order.
    fn canon(plan: &ShardPlan, sched: &[(usize, usize)]) -> Vec<Vec<usize>> {
        let nbands = plan.band_ranges().len();
        let mut per_worker: Vec<Vec<usize>> = vec![Vec::new(); nbands];
        for &(w, c) in sched {
            per_worker[w].push(c);
        }
        per_worker
    }

    #[test]
    fn por_preserves_equivalence_classes() {
        // Small plans: POR must visit exactly one representative of every
        // commutation class the brute-force walk finds.
        for (n, threads) in [(6usize, 2usize), (8, 2), (6, 3)] {
            let plan = ShardPlan::even(n, threads);
            let mut brute = Vec::new();
            brute_force(&plan, &mut brute);
            let brute_classes: std::collections::BTreeSet<Vec<Vec<usize>>> =
                brute.iter().map(|s| canon(&plan, s)).collect();

            let mut reduced = Vec::new();
            let stats = enumerate_schedules(&plan, u64::MAX, &mut |s: &[(usize, usize)]| {
                reduced.push(s.to_vec())
            });
            assert!(stats.exhaustive);
            let reduced_classes: std::collections::BTreeSet<Vec<Vec<usize>>> =
                reduced.iter().map(|s| canon(&plan, s)).collect();

            assert_eq!(
                brute_classes, reduced_classes,
                "n={n} t={threads}: POR lost or invented a class"
            );
            assert!(reduced.len() <= brute.len(), "n={n} t={threads}: reduction did not reduce");
        }
    }

    #[test]
    fn single_band_has_exactly_one_schedule() {
        let plan = ShardPlan::even(16, 1);
        let mut seen = Vec::new();
        let stats =
            enumerate_schedules(&plan, u64::MAX, &mut |s: &[(usize, usize)]| seen.push(s.to_vec()));
        assert_eq!(stats.schedules, 1);
        assert!(stats.exhaustive);
        let nchunks = plan.chunk_ranges().len();
        assert_eq!(seen[0], (0..nchunks).map(|c| (0usize, c)).collect::<Vec<_>>());
    }

    #[test]
    fn every_schedule_covers_every_chunk_once() {
        let plan = ShardPlan::even(12, 3);
        let nchunks = plan.chunk_ranges().len();
        let mut checked = 0u64;
        let stats = enumerate_schedules(&plan, 10_000, &mut |s: &[(usize, usize)]| {
            let mut seen = vec![false; nchunks];
            for &(_, c) in s {
                assert!(!seen[c], "chunk {c} scheduled twice");
                seen[c] = true;
            }
            assert!(seen.iter().all(|&b| b), "some chunk never scheduled");
            checked += 1;
        });
        assert_eq!(stats.schedules, checked);
        assert!(stats.schedules > 1);
    }

    #[test]
    fn cap_stops_early_and_reports_nonexhaustive() {
        let plan = ShardPlan::even(64, 4);
        let mut count = 0u64;
        let stats = enumerate_schedules(&plan, 50, &mut |_: &[(usize, usize)]| count += 1);
        assert_eq!(count, 50);
        assert_eq!(stats.schedules, 50);
        assert!(!stats.exhaustive);
    }
}
