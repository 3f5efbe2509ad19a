//! The merged analysis view over a run's telemetry.
//!
//! [`Timeline`] borrows the [`RunTelemetry`] a kernel attached to its
//! [`RunReport`] and answers the profiler's questions: how much of each
//! worker's time went to barrier waits, what each LP actually cost per
//! round, and how much makespan the scheduler's stale estimates lost
//! against perfect knowledge (the *regret*).

use std::collections::BTreeMap;

use unison_core::telemetry::{RunTelemetry, SpanKind, NO_LP};
use unison_core::{scheduling_regret, RunReport};

/// Analysis view over one run's telemetry.
pub struct Timeline<'a> {
    tel: &'a RunTelemetry,
}

/// One worker's wall-clock accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerWait {
    /// Worker id (0 = control thread).
    pub worker: u32,
    /// Nanoseconds blocked in barriers (or the CMB neighbor wait).
    pub barrier_ns: u64,
    /// Nanoseconds covered by top-level phase spans, barrier waits
    /// included (nested per-LP spans are not double-counted).
    pub accounted_ns: u64,
}

impl WorkerWait {
    /// Fraction of accounted time spent waiting (0 when nothing was
    /// accounted).
    pub fn share(&self) -> f64 {
        if self.accounted_ns == 0 {
            0.0
        } else {
            self.barrier_ns as f64 / self.accounted_ns as f64
        }
    }
}

/// Scheduling regret of one round (see [`scheduling_regret`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RoundRegret {
    /// Synchronization round (1-based).
    pub round: u64,
    /// Makespan of the order the kernel used over the ideal makespan,
    /// cost-weighted across scheduling groups.
    pub regret: f64,
}

impl<'a> Timeline<'a> {
    /// Wraps a run's telemetry.
    pub fn new(tel: &'a RunTelemetry) -> Self {
        Timeline { tel }
    }

    /// The timeline of a report, when the run recorded telemetry.
    pub fn from_report(report: &'a RunReport) -> Option<Self> {
        report.telemetry.as_ref().map(Timeline::new)
    }

    /// The underlying telemetry.
    pub fn telemetry(&self) -> &'a RunTelemetry {
        self.tel
    }

    /// Per-worker barrier-wait accounting, in worker order.
    ///
    /// `accounted_ns` sums only top-level spans (process, global, receive,
    /// window-update, barrier-wait): per-LP task and mailbox-flush spans
    /// nest inside the phase spans and would double-count.
    pub fn barrier_wait(&self) -> Vec<WorkerWait> {
        self.tel
            .workers
            .iter()
            .map(|w| {
                let mut wait = WorkerWait {
                    worker: w.worker,
                    barrier_ns: 0,
                    accounted_ns: 0,
                };
                for s in &w.spans {
                    match s.kind {
                        SpanKind::BarrierWait | SpanKind::StallWait => {
                            wait.barrier_ns += s.dur_ns;
                            wait.accounted_ns += s.dur_ns;
                        }
                        SpanKind::Process
                        | SpanKind::Global
                        | SpanKind::Receive
                        | SpanKind::WindowUpdate
                        | SpanKind::Advance
                        | SpanKind::Merge
                        | SpanKind::Grant => wait.accounted_ns += s.dur_ns,
                        // Whole-round envelopes and per-LP spans nest inside
                        // (or around) the phase spans — counting them would
                        // double-count.
                        SpanKind::LpTask | SpanKind::MailboxFlush | SpanKind::FusedRound => {}
                    }
                }
                wait
            })
            .collect()
    }

    /// Measured per-LP cost by round, merged across workers:
    /// `round → (lp → cost_ns)`. LPs without a task span in a round did
    /// not run (their cost is 0, not unknown — idle LPs are skipped).
    pub fn lp_costs_by_round(&self) -> BTreeMap<u64, BTreeMap<u32, u64>> {
        let mut rounds: BTreeMap<u64, BTreeMap<u32, u64>> = BTreeMap::new();
        for w in &self.tel.workers {
            for s in &w.spans {
                if s.kind == SpanKind::LpTask && s.lp != NO_LP {
                    *rounds.entry(s.round).or_default().entry(s.lp).or_insert(0) += s.dur_ns;
                }
            }
        }
        rounds
    }

    /// Estimate-vs-actual scheduling regret per round, for rounds covered
    /// by a logged decision (the kernel's pre-decision static order is not
    /// in the log, so earlier rounds are skipped).
    ///
    /// Each group's regret replays its logged LP order against the
    /// measured costs with `threads / groups` workers (how the hybrid
    /// kernel splits its pool); a round's value is the cost-weighted mean
    /// over groups.
    pub fn regret_by_round(&self, threads: usize) -> Vec<RoundRegret> {
        if self.tel.sched.is_empty() {
            return Vec::new();
        }
        let groups: Vec<u32> = {
            let mut g: Vec<u32> = self.tel.sched.iter().map(|d| d.group).collect();
            g.sort_unstable();
            g.dedup();
            g
        };
        let per_group_threads = (threads / groups.len().max(1)).max(1);
        let lp_ceiling = self
            .tel
            .sched
            .iter()
            .flat_map(|d| d.order.iter().copied())
            .max()
            .map(|m| m as usize + 1)
            .unwrap_or(0);
        let mut out = Vec::new();
        for (round, costs) in self.lp_costs_by_round() {
            let mut weighted = 0.0;
            let mut weight = 0.0;
            for &g in &groups {
                // Latest decision for this group at or before `round`.
                let Some(decision) = self
                    .tel
                    .sched
                    .iter()
                    .rfind(|d| d.group == g && d.round <= round)
                else {
                    continue;
                };
                let size = lp_ceiling.max(costs.keys().map(|&l| l as usize + 1).max().unwrap_or(0));
                let mut actual = vec![0.0f64; size];
                let mut total = 0.0;
                for &lp in &decision.order {
                    let c = costs.get(&lp).copied().unwrap_or(0) as f64;
                    actual[lp as usize] = c;
                    total += c;
                }
                if total <= 0.0 {
                    continue;
                }
                weighted += scheduling_regret(&decision.order, &actual, per_group_threads) * total;
                weight += total;
            }
            if weight > 0.0 {
                out.push(RoundRegret {
                    round,
                    regret: weighted / weight,
                });
            }
        }
        out
    }

    /// Merged mailbox traffic matrix `(src_lp, dst_lp, events)`, heaviest
    /// edges first (ties by `(src, dst)` for determinism).
    pub fn traffic_heaviest_first(&self) -> Vec<(u32, u32, u64)> {
        let mut t = self.tel.traffic();
        t.sort_by(|a, b| b.2.cmp(&a.2).then((a.0, a.1).cmp(&(b.0, b.1))));
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unison_core::telemetry::{SchedDecision, Span, WorkerSpans};

    fn span(kind: SpanKind, round: u64, lp: u32, dur: u64) -> Span {
        Span {
            kind,
            round,
            lp,
            start_ns: 0,
            dur_ns: dur,
            arg: 0,
            arg2: 0,
        }
    }

    fn tel() -> RunTelemetry {
        RunTelemetry {
            workers: vec![WorkerSpans {
                worker: 1,
                spans: vec![
                    span(SpanKind::Process, 1, NO_LP, 80),
                    span(SpanKind::LpTask, 1, 0, 60),
                    span(SpanKind::LpTask, 1, 1, 20),
                    span(SpanKind::BarrierWait, 1, NO_LP, 20),
                    span(SpanKind::LpTask, 2, 0, 10),
                    span(SpanKind::LpTask, 2, 1, 70),
                ],
                truncated: 0,
                traffic: vec![(0, 1, 5), (1, 0, 9)],
            }],
            sched: vec![
                SchedDecision {
                    round: 1,
                    group: 0,
                    metric: "by-last-round-time",
                    order: vec![0, 1],
                    estimates: vec![60, 20],
                },
                SchedDecision {
                    round: 3,
                    group: 0,
                    metric: "by-last-round-time",
                    order: vec![1, 0],
                    estimates: vec![10, 70],
                },
            ],
            sched_truncated: 0,
        }
    }

    #[test]
    fn barrier_share_excludes_nested_spans() {
        let t = tel();
        let waits = Timeline::new(&t).barrier_wait();
        assert_eq!(waits.len(), 1);
        // Accounted = process 80 + barrier 20 (LpTask spans nest inside).
        assert_eq!(waits[0].accounted_ns, 100);
        assert_eq!(waits[0].barrier_ns, 20);
        assert!((waits[0].share() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn lp_costs_merge_by_round() {
        let t = tel();
        let costs = Timeline::new(&t).lp_costs_by_round();
        assert_eq!(costs[&1][&0], 60);
        assert_eq!(costs[&2][&1], 70);
    }

    #[test]
    fn regret_follows_the_logged_order() {
        let t = tel();
        let regrets = Timeline::new(&t).regret_by_round(2);
        assert_eq!(regrets.len(), 2);
        // Round 1: estimates match actual order (60 ≥ 20) → regret 1.
        assert_eq!(regrets[0].round, 1);
        assert!((regrets[0].regret - 1.0).abs() < 1e-12);
        // Round 2: costs inverted (10, 70); the stale order [0, 1] puts
        // them on separate workers anyway → still 1 with 2 threads.
        assert!((regrets[1].regret - 1.0).abs() < 1e-12);
        // With 1 thread everything serializes: regret stays 1 trivially.
        let serial = Timeline::new(&t).regret_by_round(1);
        assert!((serial[0].regret - 1.0).abs() < 1e-12);
    }

    #[test]
    fn traffic_sorts_heaviest_first() {
        let t = tel();
        assert_eq!(
            Timeline::new(&t).traffic_heaviest_first(),
            vec![(1, 0, 9), (0, 1, 5)]
        );
    }
}
