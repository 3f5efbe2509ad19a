//! Kernel perf baseline: wall-clock and events/sec per kernel, thread
//! count and partitioner on the fat-tree incast workload, emitted as
//! machine-readable JSON.
//!
//! ```sh
//! cargo run --release -p unison-bench --bin bench_kernels -- \
//!     --bench-json BENCH_kernels.json [--scale quick|full|large]
//! ```
//!
//! `--scale large` is the k=8 fat-tree tier (>= 10^7 events per run) that
//! backs the committed `async_over_unison_4t` and `unison_4t_over_1t`
//! headlines; `--full` is kept as an alias for `--scale full`.
//!
//! Without `--bench-json` the report prints to stdout. The committed
//! `BENCH_kernels.json` at the repository root is one large-scale snapshot
//! (the tier the headline acceptance ratios are defined on); numbers are
//! machine-dependent, so compare ratios (thread scaling, kernel against
//! kernel), not absolute rates, across machines.
//! The CI `perf-smoke` job regenerates the file as a build artifact on
//! every run.
//!
//! Schema kernels-v7: each row carries `"repeat"` (0 for grid rows, n ≥ 1
//! for the dedicated interleaved headline pairs — v4 emitted those
//! indistinguishable from grid rows) and `"fused_rounds"` (how many rounds
//! the unison kernel ran barrier-free, DESIGN.md §4.9). v6 dropped v5's FEL
//! axis since the ladder is the only FEL; v7 drops v6's scheduling-policy
//! axis — the per-row `"sched"`, `"steals"` and affinity-rate fields, the
//! steal-deque rows and the `steal_over_ljf_2t` headline — since the
//! shared LJF cursor is the only claim path.
//!
//! With `--fault-profile` (requires the `fault-profile` cargo feature,
//! which pulls in `unison-core/fault-inject`) the report additionally
//! measures the resilience contract's cost (DESIGN.md §4.7): the same
//! workload run plainly, under the resilient driver without faults
//! (checkpoint-chain overhead), and under the driver with a mid-run
//! injected worker panic (rollback + recovery overhead). Built without
//! the feature, the `fault_profile` field is `null`.

use unison_bench::harness::{bench_json_path, fat_tree_scenario, Scale, Scenario};
use unison_core::{DataRate, KernelKind, PartitionMode, PartitionPipeline, RunReport, Time};

/// One measured configuration.
struct Sample {
    kernel: &'static str,
    threads: u32,
    /// Partitioner label (`auto` or a pipeline's stage chain).
    partitioner: &'static str,
    /// 0 for grid rows (median-of-3, one row per configuration); n ≥ 1 for
    /// the dedicated interleaved headline pairs, which would otherwise be
    /// indistinguishable from the grid rows they duplicate (kernels-v5+).
    repeat: u32,
    report: RunReport,
}

/// Median-of-3 by wall-clock: reruns the configuration and keeps the
/// middle run, so one scheduling hiccup cannot skew the committed baseline.
fn measure(
    scenario: &Scenario,
    name: &'static str,
    kernel: KernelKind,
    threads: u32,
    partitioner: &'static str,
    partition: PartitionMode,
) -> Sample {
    let mut runs: Vec<RunReport> = (0..3)
        .map(|_| scenario.run_real(kernel.clone(), partition.clone()).kernel)
        .collect();
    runs.sort_by_key(|r| r.wall);
    let report = runs.swap_remove(1);
    eprintln!(
        "bench_kernels: {name} t={threads} part={partitioner} — {:.0} events/sec",
        report.events_per_sec()
    );
    Sample {
        kernel: name,
        threads,
        partitioner,
        repeat: 0,
        report,
    }
}

/// Serializes one sample as a JSON object (hand-rolled: every field is a
/// number or a controlled identifier, so no escaping is needed).
fn sample_json(s: &Sample) -> String {
    let r = &s.report;
    // Round-based kernels report rounds and zero grants/stalls; the async
    // kernel reports the reverse. `fused_rounds` counts the rounds the
    // unison kernel ran barrier-free (DESIGN.md §4.9); `repeat` tags the
    // dedicated headline pairs (kernels-v5+).
    let (grants, stalls) = r
        .async_stats
        .as_ref()
        .map(|a| (a.grants, a.stalls))
        .unwrap_or((0, 0));
    format!(
        "    {{\n      \"kernel\": \"{}\",\n      \"threads\": {},\n      \
         \"partitioner\": \"{}\",\n      \"repeat\": {},\n      \
         \"wall_ns\": {},\n      \"events\": {},\n      \
         \"events_per_sec\": {:.0},\n      \"rounds\": {},\n      \
         \"fused_rounds\": {},\n      \
         \"grants\": {},\n      \"stalls\": {},\n      \
         \"pool_hits\": {},\n      \"pool_misses\": {},\n      \
         \"pool_hit_rate\": {:.4}\n    }}",
        s.kernel,
        s.threads,
        s.partitioner,
        s.repeat,
        r.wall.as_nanos(),
        r.events,
        r.events_per_sec(),
        r.rounds,
        r.fused_rounds,
        grants,
        stalls,
        r.engine.pool_hits,
        r.engine.pool_misses,
        r.engine.pool_hit_rate(),
    )
}

/// The `--fault-profile` section: wall-clock cost of the resilience
/// contract (DESIGN.md §4.7) on the 2-thread Unison configuration —
/// plain run vs. resilient driver without faults vs. resilient driver
/// recovering from an injected mid-run worker panic. The recovered
/// world's digest is asserted identical to the unfailed one.
#[cfg(feature = "fault-profile")]
fn fault_profile_json(scenario: &Scenario) -> Option<String> {
    use std::time::{Duration, Instant};

    use unison_core::{
        fault, CheckpointConfig, FaultPlan, MetricsLevel, RecoveryPolicy, RunConfig, RunPhase,
        Snapshot, SnapshotWriter, World,
    };
    use unison_netsim::{NetNode, NetworkBuilder};

    if !unison_bench::args::flag("--fault-profile") {
        return None;
    }
    let threads = 2usize;
    let build = || {
        let mut b = NetworkBuilder::new(&scenario.topo)
            .transport(scenario.transport)
            .traffic(&scenario.traffic)
            .stop_at(scenario.stop);
        if let Some(q) = scenario.queue {
            b = b.queue(q);
        }
        b.build().world
    };
    let cfg = RunConfig {
        kernel: KernelKind::Unison { threads },
        partition: PartitionMode::Auto,
        sched: SchedConfig::default(),
        metrics: MetricsLevel::Summary,
        telemetry: Default::default(),
        watchdog: Default::default(),
        fault: Default::default(),
    };
    let digest = |w: &World<NetNode>| {
        let mut wr = SnapshotWriter::new();
        for n in w.nodes() {
            n.save(&mut wr);
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in wr.into_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    };

    // Warmup (untimed): page-faults, allocator pools and branch state
    // settle, so the three timed runs compare like for like.
    unison_core::kernel::try_run(build(), &cfg).expect("warmup run");

    // Plain run: the no-resilience baseline (also tells us the round
    // count, so the injected panic lands mid-run).
    let t0 = Instant::now();
    let (_, rep_plain) = unison_core::kernel::try_run(build(), &cfg).expect("plain run");
    let plain_wall = t0.elapsed();

    let dir = std::env::temp_dir().join(format!("unison-faultprof-{}", std::process::id()));
    let policy = RecoveryPolicy::new(CheckpointConfig::new(
        Time(scenario.stop.as_nanos() / 4),
        dir.clone(),
    ))
    .with_backoff_base(Duration::from_millis(1));

    // Resilient driver, no faults: checkpoint-chain + driver overhead.
    let t0 = Instant::now();
    let (w_clean, _) = fault::run_resilient(build(), &cfg, &policy).expect("resilient run");
    let resilient_wall = t0.elapsed();

    // Resilient driver recovering from a worker panic halfway through.
    let mut faulted_cfg = cfg.clone();
    faulted_cfg.fault = FaultPlan::new().worker_panic(rep_plain.rounds / 2, RunPhase::Process, 0);
    let t0 = Instant::now();
    let (w_rec, rep_rec) =
        fault::run_resilient(build(), &faulted_cfg, &policy).expect("recovered run");
    let faulted_wall = t0.elapsed();
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(
        digest(&w_clean),
        digest(&w_rec),
        "recovered run diverged from the unfailed run"
    );
    let log = rep_rec.recovery.expect("resilient runs always carry a log");
    assert!(log.rollback_count() > 0, "the injected panic never fired");
    let rounds_lost: u64 = log.rollbacks.iter().map(|r| r.rounds_lost).sum();
    eprintln!(
        "bench_kernels: fault profile — plain {:.1} ms, resilient {:.1} ms, recovered {:.1} ms \
         ({} rollback(s), {} rounds lost)",
        plain_wall.as_secs_f64() * 1e3,
        resilient_wall.as_secs_f64() * 1e3,
        faulted_wall.as_secs_f64() * 1e3,
        log.rollback_count(),
        rounds_lost,
    );
    Some(format!(
        "{{\n    \"threads\": {},\n    \"plain_wall_ns\": {},\n    \
         \"resilient_wall_ns\": {},\n    \"faulted_wall_ns\": {},\n    \
         \"rollbacks\": {},\n    \"rounds_lost\": {},\n    \
         \"recovery_wall_ns\": {},\n    \"checkpoint_overhead\": {:.3},\n    \
         \"recovery_overhead\": {:.3}\n  }}",
        threads,
        plain_wall.as_nanos(),
        resilient_wall.as_nanos(),
        faulted_wall.as_nanos(),
        log.rollback_count(),
        rounds_lost,
        log.total_recovery_wall.as_nanos(),
        resilient_wall.as_secs_f64() / plain_wall.as_secs_f64(),
        faulted_wall.as_secs_f64() / plain_wall.as_secs_f64(),
    ))
}

/// Built without the `fault-profile` feature: the section is always
/// `null`, and asking for it on the command line gets a pointer to the
/// feature instead of silence.
#[cfg(not(feature = "fault-profile"))]
fn fault_profile_json(_scenario: &Scenario) -> Option<String> {
    if unison_bench::args::flag("--fault-profile") {
        eprintln!(
            "bench_kernels: built without the `fault-profile` feature; \
             rebuild with --features fault-profile to measure recovery overhead"
        );
    }
    None
}

fn main() {
    let scale = Scale::from_args();
    let scenario = fat_tree_scenario(scale, 0.5, DataRate::gbps(100), Time::from_micros(3));

    let mut samples = vec![measure(
        &scenario,
        "sequential",
        KernelKind::Sequential { compat_keys: true },
        1,
        "auto",
        PartitionMode::Auto,
    )];
    // Thread sweep on the default partitioner.
    for threads in [1u32, 2, 4] {
        samples.push(measure(
            &scenario,
            "unison",
            KernelKind::Unison {
                threads: threads as usize,
            },
            threads,
            "auto",
            PartitionMode::Auto,
        ));
    }
    // The barrier-free asynchronous conservative kernel: its scheduling is
    // static ownership, so only the thread axis is swept.
    for threads in [1u32, 2, 4] {
        samples.push(measure(
            &scenario,
            "async_cons",
            KernelKind::AsyncCons {
                threads: threads as usize,
            },
            threads,
            "auto",
            PartitionMode::Auto,
        ));
    }
    // Partitioner axis at the parallel thread counts: the staged pipeline
    // with refinement + placement against the auto rows above.
    for threads in [2u32, 4] {
        samples.push(measure(
            &scenario,
            "unison",
            KernelKind::Unison {
                threads: threads as usize,
            },
            threads,
            "pipeline-refined",
            PartitionMode::Pipeline(PartitionPipeline::refined()),
        ));
    }

    // Thread-scaling and async headlines: the grid rows above are measured
    // minutes apart, so their ratios soak up machine drift; the headlines
    // instead come from three dedicated interleaved pairs with alternating
    // within-pair order, medians per arm — the same discipline as the
    // perf-smoke tripwires that guard them on the large tier. Each
    // dedicated run is also emitted into `runs`, tagged `"repeat": n` so
    // it cannot be mistaken for a grid row (the kernels-v4 duplicate-row
    // bug).
    let mut headline_pair = |x_kernel: KernelKind,
                             x_name: &'static str,
                             x_threads: u32,
                             y_kernel: KernelKind,
                             y_name: &'static str,
                             y_threads: u32| {
        let mut run = |kernel: &KernelKind, name: &'static str, threads: u32, repeat: u32| {
            let report = scenario
                .run_real(kernel.clone(), PartitionMode::Auto)
                .kernel;
            let rate = report.events_per_sec();
            samples.push(Sample {
                kernel: name,
                threads,
                partitioner: "auto",
                repeat,
                report,
            });
            rate
        };
        let (mut x, mut y) = (Vec::new(), Vec::new());
        for pair in 0u32..3 {
            if pair % 2 == 0 {
                x.push(run(&x_kernel, x_name, x_threads, pair + 1));
                y.push(run(&y_kernel, y_name, y_threads, pair + 1));
            } else {
                y.push(run(&y_kernel, y_name, y_threads, pair + 1));
                x.push(run(&x_kernel, x_name, x_threads, pair + 1));
            }
        }
        x.sort_unstable_by(|a, b| a.total_cmp(b));
        y.sort_unstable_by(|a, b| a.total_cmp(b));
        x[1] / y[1]
    };
    // Barrier-free vs. round-based at the widest measured thread count.
    let async_over_unison_4t = headline_pair(
        KernelKind::AsyncCons { threads: 4 },
        "async_cons",
        4,
        KernelKind::Unison { threads: 4 },
        "unison",
        4,
    );
    // The round-based kernel's own thread scaling — the ratio round fusion
    // and the tree barrier exist to lift above 1.0 (ROADMAP item 1).
    let unison_4t_over_1t = headline_pair(
        KernelKind::Unison { threads: 4 },
        "unison",
        4,
        KernelKind::Unison { threads: 1 },
        "unison",
        1,
    );
    eprintln!("bench_kernels: async_cons/unison at 4 threads: {async_over_unison_4t:.3}x");
    eprintln!("bench_kernels: unison 4t over 1t: {unison_4t_over_1t:.3}x");

    let fault_profile = fault_profile_json(&scenario).unwrap_or_else(|| "null".into());
    let runs: Vec<String> = samples.iter().map(sample_json).collect();
    let json = format!(
        "{{\n  \"schema\": \"unison-bench/kernels-v7\",\n  \
         \"scale\": \"{}\",\n  \
         \"workload\": \"fat-tree k={} incast 0.5, 100 Gbps links, 3 us delay\",\n  \
         \"async_over_unison_4t\": {:.3},\n  \
         \"unison_4t_over_1t\": {:.3},\n  \
         \"fault_profile\": {},\n  \
         \"runs\": [\n{}\n  ]\n}}\n",
        scale.name(),
        scale.pick(4, 8),
        async_over_unison_4t,
        unison_4t_over_1t,
        fault_profile,
        runs.join(",\n"),
    );

    match bench_json_path() {
        Some(path) => {
            // INVARIANT: the baseline file is the binary's whole purpose; an
            // unwritable path is an operator error worth aborting on.
            std::fs::write(&path, &json).expect("write --bench-json file");
            eprintln!("bench_kernels: wrote {}", path.display());
        }
        None => print!("{json}"),
    }
}
