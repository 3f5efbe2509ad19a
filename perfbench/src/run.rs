//! One run of one workload, in a process of its own.
//!
//! The run goes through the public scenario pipeline — read the file,
//! `parse_scenario`, `build_topology`, `NetworkBuilder::from_scenario(..)
//! .build()`, `run_with`, `world_digest` — and times each call from
//! outside. The process then reports its own peak RSS (`VmHWM`), so the
//! figure covers this one run and nothing else.
//!
//! A traced run additionally records telemetry with per-round metrics,
//! times a call to the partition function the kernel uses, and derives the
//! per-layer split from the `RunReport` and the spans.

use std::time::Instant;

use unison_core::partition::{
    fine_grained_partition, manual_partition, partition_below_bound, single_lp_partition,
    Partition, Partitioner,
};
use unison_core::telemetry::SpanKind;
use unison_core::{LinkGraph, MetricsLevel, PartitionMode, TelemetryConfig};
use unison_netsim::{world_digest, NetworkBuilder};
use unison_telemetry::json::Value;
use unison_telemetry::Timeline;

use crate::suite::{with_threads, Workload};

/// Span buffer per worker in a traced run: large enough that no workload
/// of the suite truncates (truncation is reported as
/// `telemetry.spans_truncated`).
const TRACE_SPAN_CAPACITY: usize = 1 << 22;

/// The outcome of one run: its digest, its configuration, and its raw
/// numbers keyed by metric name.
pub struct Sample {
    /// Final-state digest.
    pub digest: u64,
    /// Kernel, thread count, FEL backend, partitioner and scheduling, as
    /// the run reported them.
    pub config: Vec<(String, Value)>,
    /// Raw numbers keyed by metric name.
    pub nums: Vec<(String, f64)>,
}

impl Sample {
    /// The number recorded under `key`, if any.
    pub fn num(&self, key: &str) -> Option<f64> {
        self.nums.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// One-line JSON form (what a run process prints).
    pub fn to_json(&self) -> String {
        let nums = self
            .nums
            .iter()
            .map(|(k, v)| (k.clone(), Value::Num(*v)))
            .collect();
        Value::Obj(vec![
            ("digest".into(), Value::Str(format!("{:016x}", self.digest))),
            ("config".into(), Value::Obj(self.config.clone())),
            ("nums".into(), Value::Obj(nums)),
        ])
        .to_json()
    }

    /// Parses [`Sample::to_json`] output.
    pub fn from_json(line: &str) -> Result<Sample, String> {
        let v = unison_telemetry::json::parse(line)?;
        let digest = v
            .get("digest")
            .and_then(Value::as_str)
            .and_then(|d| u64::from_str_radix(d, 16).ok())
            .ok_or("run output has no digest")?;
        let config = match v.get("config") {
            Some(Value::Obj(pairs)) => pairs.clone(),
            _ => return Err("run output has no config".into()),
        };
        let nums = match v.get("nums") {
            Some(Value::Obj(pairs)) => pairs
                .iter()
                .map(|(k, v)| v.as_num().map(|n| (k.clone(), n)))
                .collect::<Option<Vec<_>>>()
                .ok_or("run output has a non-numeric value")?,
            _ => return Err("run output has no numbers".into()),
        };
        Ok(Sample {
            digest,
            config,
            nums,
        })
    }
}

/// Runs `workload` at `seed` with `threads` workers, traced or not.
pub fn run(workload: &Workload, seed: u64, threads: usize, traced: bool) -> Result<Sample, String> {
    let t_start = Instant::now();
    let src = std::fs::read_to_string(&workload.path)
        .map_err(|e| format!("{}: {e}", workload.path.display()))?;
    let mut spec = workload.spec(&src)?;
    let parse_s = t_start.elapsed().as_secs_f64();

    let t = Instant::now();
    let topo = spec.build_topology();
    let topology_s = t.elapsed().as_secs_f64();

    let mut cfg = spec.run_config(&topo);
    cfg.kernel = with_threads(&cfg.kernel, threads);
    if traced {
        cfg.telemetry = TelemetryConfig {
            span_capacity: TRACE_SPAN_CAPACITY,
            ..TelemetryConfig::enabled()
        };
        cfg.metrics = MetricsLevel::PerRound;
    }

    // Seeding generates the flows the builder would otherwise generate, so
    // it is timed with the build.
    let t = Instant::now();
    workload.apply_seed(&mut spec, &topo, seed);
    let sim = NetworkBuilder::from_scenario(&topo, &spec).build();
    let build_s = t.elapsed().as_secs_f64();

    let mut nums: Vec<(String, f64)> = Vec::new();
    let mut put = |k: &str, v: f64| nums.push((k.to_string(), v));

    if traced {
        let graph = sim.world.graph();
        let t = Instant::now();
        let partition = std::hint::black_box(partition_of(graph, &cfg.partition));
        put("core.partition.time_s", t.elapsed().as_secs_f64());
        put("core.partition.lp_count", f64::from(partition.lp_count));
        let cut = graph
            .live_links()
            .filter(|(_, l)| partition.lp_of(l.a) != partition.lp_of(l.b))
            .count();
        put("core.partition.cut_links", cut as f64);
        // No cut link means no lookahead bound at all; report 0 for it.
        let lookahead_us = if cut == 0 {
            0.0
        } else {
            partition.lookahead.as_nanos() as f64 / 1e3
        };
        put("core.partition.lookahead_us", lookahead_us);
    }

    let t = Instant::now();
    let res = sim
        .run_with(&cfg)
        .map_err(|e| format!("{}: {e}", workload.name))?;
    let run_call_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let digest = world_digest(&res.world);
    let digest_s = t.elapsed().as_secs_f64();
    let wall_s = t_start.elapsed().as_secs_f64();

    let r = &res.kernel;
    let loop_s = r.wall.as_secs_f64();
    let outside_loop_s = (run_call_s - loop_s).max(0.0);
    put("wall_s", wall_s);
    put("setup_s", parse_s + topology_s + build_s + outside_loop_s);
    put("peak_rss_mb", peak_rss_mb()?);
    put("scenario.parse_s", parse_s);
    put("topology.build_s", topology_s);
    put("netsim.build_s", build_s);
    put("netsim.snapshot.digest_s", digest_s);

    put("core.kernel.loop_s", loop_s);
    put("core.kernel.outside_loop_s", outside_loop_s);
    put("core.kernel.events", r.events as f64);
    put("core.kernel.global_events", r.global_events as f64);
    put("core.kernel.rounds", r.rounds as f64);
    put("core.kernel.fused_rounds", r.fused_rounds as f64);
    put(
        "core.kernel.events_per_round",
        r.events as f64 / r.rounds.max(1) as f64,
    );

    let psm = r.psm_total();
    put("core.kernel.process_s", psm.p_ns as f64 / 1e9);
    put(
        "core.kernel.ns_per_event",
        psm.p_ns as f64 / r.events.max(1) as f64,
    );
    put("core.mailbox.receive_s", psm.m_ns as f64 / 1e9);
    put("core.mailbox.pool_hit_rate", r.engine.pool_hit_rate());
    put("core.mailbox.pool_misses", r.engine.pool_misses as f64);
    put("core.sync.wait_s", psm.s_ns as f64 / 1e9);
    put(
        "core.sync.wait_per_round_us",
        psm.s_ns as f64 / 1e3 / r.rounds.max(1) as f64,
    );
    put("core.sched.claims", r.sched.claims as f64);
    put("core.sched.steals", r.sched.steals as f64);
    put("core.sched.lp_imbalance", r.imbalance());
    let worker_p: Vec<f64> = r.psm.iter().map(|p| p.p_ns as f64).collect();
    put("core.sched.worker_imbalance", max_over_mean(&worker_p));

    let flows = &res.flows;
    put("netsim.flows", flows.total_flows() as f64);
    put("netsim.flows_completed", flows.completed_flows() as f64);
    put("netsim.drops", flows.drops as f64);
    put("netsim.marks", flows.marks as f64);
    put("netsim.retx", flows.retransmits as f64);
    put("netsim.mean_fct_ms", flows.fct_us.mean() / 1e3);
    put("netsim.p99_fct_ms", flows.fct_us.percentile(99.0) / 1e3);

    if let Some(timeline) = Timeline::from_report(r) {
        let tel = timeline.telemetry();
        let spans = || tel.workers.iter().flat_map(|w| w.spans.iter());
        let (mut wait_ns, mut accounted_ns) = (0u64, 0u64);
        for w in timeline.barrier_wait() {
            wait_ns += w.barrier_ns;
            accounted_ns += w.accounted_ns;
        }
        put(
            "core.sync.wait_share",
            wait_ns as f64 / accounted_ns.max(1) as f64,
        );
        let barrier_waits = spans().filter(|s| s.kind == SpanKind::BarrierWait).count();
        put("core.sync.barrier_waits", barrier_waits as f64);
        let window_update_ns: u64 = spans()
            .filter(|s| s.kind == SpanKind::WindowUpdate)
            .map(|s| s.dur_ns)
            .sum();
        put("core.sched.window_update_s", window_update_ns as f64 / 1e9);
        let cross_lp: u64 = timeline
            .traffic_heaviest_first()
            .iter()
            .map(|&(_, _, n)| n)
            .sum();
        put("core.mailbox.cross_lp_events", cross_lp as f64);
        let truncated: u64 = tel.workers.iter().map(|w| w.truncated).sum();
        put("telemetry.spans_truncated", truncated as f64);
    }

    let fusion = cfg.sched.fusion;
    let config = vec![
        ("kernel".into(), Value::Str(cfg.kernel.name().into())),
        ("threads".into(), Value::Num(f64::from(r.threads))),
        ("fel".into(), Value::Str(r.engine.fel_impl.name().into())),
        (
            "partitioner".into(),
            Value::Str(partitioner_name(&cfg.partition)),
        ),
        (
            "sched_policy".into(),
            Value::Str(cfg.sched.policy.name().into()),
        ),
        (
            "fusion_threshold".into(),
            if fusion.enabled {
                Value::Num(fusion.threshold as f64)
            } else {
                Value::Null
            },
        ),
        ("events".into(), Value::Num(r.events as f64)),
    ];
    Ok(Sample {
        digest,
        config,
        nums,
    })
}

/// The partition the kernel builds for `mode`, through the same public
/// functions it calls.
fn partition_of(graph: &LinkGraph, mode: &PartitionMode) -> Partition {
    match mode {
        PartitionMode::Auto => fine_grained_partition(graph),
        PartitionMode::Bound(bound) => partition_below_bound(graph, *bound),
        PartitionMode::Manual(assignment) => manual_partition(graph, assignment),
        PartitionMode::SingleLp => single_lp_partition(graph),
        PartitionMode::Pipeline(pipeline) => pipeline.partition(graph),
    }
}

fn partitioner_name(mode: &PartitionMode) -> String {
    match mode {
        PartitionMode::Auto => "auto".into(),
        PartitionMode::Bound(bound) => format!("bound({}ns)", bound.as_nanos()),
        PartitionMode::Manual(_) => "manual".into(),
        PartitionMode::SingleLp => "single_lp".into(),
        PartitionMode::Pipeline(p) => format!("pipeline({})", p.stage_names().join("+")),
    }
}

/// Max over mean (1 when empty or all zero).
fn max_over_mean(xs: &[f64]) -> f64 {
    let sum: f64 = xs.iter().sum();
    if xs.is_empty() || sum == 0.0 {
        return 1.0;
    }
    xs.iter().fold(0.0f64, |m, &x| m.max(x)) * xs.len() as f64 / sum
}

/// This process's peak resident set (`VmHWM`), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}
