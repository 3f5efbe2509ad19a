//! The benchmark's metrics: names, units, and how a run's samples reduce
//! to one value each.
//!
//! The names here are the ones `BENCHMARK.json` declares; the contract test
//! checks the two lists agree.

use crate::run::Sample;

/// End-to-end metrics, reported by an untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by a traced run (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("scenario.parse_s", "s"),
    ("topology.build_s", "s"),
    ("netsim.build_s", "s"),
    ("core.partition.time_s", "s"),
    ("core.partition.lp_count", "count"),
    ("core.partition.cut_links", "count"),
    ("core.partition.lookahead_us", "us"),
    ("core.kernel.loop_s", "s"),
    ("core.kernel.outside_loop_s", "s"),
    ("core.kernel.events", "count"),
    ("core.kernel.global_events", "count"),
    ("core.kernel.rounds", "count"),
    ("core.kernel.fused_rounds", "count"),
    ("core.kernel.events_per_round", "count"),
    ("core.kernel.speedup_over_1t", "ratio"),
    ("core.kernel.process_s", "s"),
    ("core.kernel.ns_per_event", "ns"),
    ("core.mailbox.receive_s", "s"),
    ("core.mailbox.cross_lp_events", "count"),
    ("core.mailbox.pool_hit_rate", "ratio"),
    ("core.mailbox.pool_misses", "count"),
    ("core.sync.wait_s", "s"),
    ("core.sync.wait_share", "ratio"),
    ("core.sync.barrier_waits", "count"),
    ("core.sync.wait_per_round_us", "us"),
    ("core.sched.claims", "count"),
    ("core.sched.steals", "count"),
    ("core.sched.window_update_s", "s"),
    ("core.sched.lp_imbalance", "ratio"),
    ("core.sched.worker_imbalance", "ratio"),
    ("netsim.flows", "count"),
    ("netsim.flows_completed", "count"),
    ("netsim.drops", "count"),
    ("netsim.marks", "count"),
    ("netsim.retx", "count"),
    ("netsim.mean_fct_ms", "ms"),
    ("netsim.p99_fct_ms", "ms"),
    ("netsim.snapshot.digest_s", "s"),
    ("telemetry.overhead", "ratio"),
    ("telemetry.spans_truncated", "count"),
];

/// Per-layer metrics read from the untraced runs at the workload's thread
/// count: the set-up phases and the loop time, which tracing would inflate.
/// Every other per-layer metric not derived below comes from the traced
/// runs.
const FROM_UNTRACED: &[&str] = &[
    "scenario.parse_s",
    "topology.build_s",
    "netsim.build_s",
    "netsim.snapshot.digest_s",
    "core.kernel.loop_s",
    "core.kernel.outside_loop_s",
];

/// A reduced metric: name, unit, value.
pub type Metric = (&'static str, &'static str, f64);

/// Median of `xs` (mean of the middle pair for an even count); `None` when
/// empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Median of `key` over `samples`.
fn median_of(samples: &[Sample], key: &str) -> Option<f64> {
    let xs: Vec<f64> = samples.iter().filter_map(|s| s.num(key)).collect();
    median(&xs)
}

/// The end-to-end metrics of the measured runs. `events_per_s` is each
/// run's events over its event-loop time, then the median.
pub fn end_to_end(runs: &[Sample]) -> Vec<Metric> {
    let rates: Vec<f64> = runs
        .iter()
        .filter_map(|s| Some(s.num("core.kernel.events")? / s.num("core.kernel.loop_s")?))
        .collect();
    END_TO_END
        .iter()
        .filter_map(|&(name, unit)| {
            let v = match name {
                "events_per_s" => median(&rates),
                _ => median_of(runs, name),
            };
            v.map(|v| (name, unit, v))
        })
        .collect()
}

/// Samples a traced measurement reduces from.
pub struct TracedRuns<'a> {
    /// Untraced runs at the workload's thread count.
    pub untraced: &'a [Sample],
    /// Traced runs at the workload's thread count.
    pub traced: &'a [Sample],
    /// Untraced 1-thread runs of the same world. Empty when the kernel is
    /// single-threaded: its speed-up over one thread is then 1 by
    /// definition.
    pub one_thread: &'a [Sample],
}

/// The per-layer metrics of a traced measurement.
pub fn per_layer(runs: &TracedRuns) -> Vec<Metric> {
    let loop_untraced = median_of(runs.untraced, "core.kernel.loop_s");
    PER_LAYER
        .iter()
        .filter_map(|&(name, unit)| {
            let v = match name {
                "core.kernel.speedup_over_1t" if runs.one_thread.is_empty() => Some(1.0),
                "core.kernel.speedup_over_1t" => {
                    Some(median_of(runs.one_thread, "core.kernel.loop_s")? / loop_untraced?)
                }
                "telemetry.overhead" => {
                    Some(median_of(runs.traced, "core.kernel.loop_s")? / loop_untraced?)
                }
                _ if FROM_UNTRACED.contains(&name) => median_of(runs.untraced, name),
                _ => median_of(runs.traced, name),
            };
            v.map(|v| (name, unit, v))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|&(n, _)| n)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
