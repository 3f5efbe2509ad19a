//! Round-trip tests: scenario text → AST → `RunConfig`/`Topology`/
//! `TrafficConfig`, for every kernel, partitioner, and scheduling knob the
//! dialect can name. The builder-equivalence half (AST → `NetworkBuilder`
//! vs. hand-assembled) lives in `crates/bench/tests/scenario_corpus.rs`,
//! where netsim is in scope.

use std::time::Duration;

use unison_core::kernel::{KernelKind, PartitionMode};
use unison_core::partition::PartitionPipeline;
use unison_core::pin::PinPolicy;
use unison_core::sched::SchedMetric;
use unison_core::Time;
use unison_scenario::{parse_scenario, QueueSpec, RoutingSpec, ScenarioSpec, TrafficPattern};
use unison_traffic::SizeDist;

/// A minimal valid scenario with `$RUN` spliced into the `[run]` section.
fn with_run(extra: &str) -> ScenarioSpec {
    let src = format!(
        r#"
name = "roundtrip"
[topology]
kind = "fat_tree_clusters"
clusters = 2
hosts_per_cluster = 4
[traffic]
load = 0.2
[run]
stop_us = 1000
{extra}
"#
    );
    parse_scenario(&src).unwrap_or_else(|e| panic!("parse failed for {extra:?}: {e}"))
}

#[test]
fn every_kernel_variant_maps() {
    let cases: &[(&str, KernelKind)] = &[
        (
            "kernel = \"sequential\"",
            KernelKind::Sequential { compat_keys: false },
        ),
        (
            "kernel = \"sequential_compat\"",
            KernelKind::Sequential { compat_keys: true },
        ),
        ("kernel = \"barrier\"", KernelKind::Barrier),
        ("kernel = \"nullmsg\"", KernelKind::NullMessage),
        (
            "kernel = \"unison\"\nthreads = 3",
            KernelKind::Unison { threads: 3 },
        ),
        (
            "kernel = \"async_cons\"\nthreads = 2",
            KernelKind::AsyncCons { threads: 2 },
        ),
        (
            "kernel = \"hybrid\"\nhosts = 2\nthreads_per_host = 2",
            KernelKind::Hybrid {
                hosts: 2,
                threads_per_host: 2,
            },
        ),
    ];
    for (run, want) in cases {
        let spec = with_run(run);
        let topo = spec.build_topology();
        let cfg = spec.run_config(&topo);
        assert_eq!(&cfg.kernel, want, "for {run:?}");
    }
}

#[test]
fn kernel_default_partitions() {
    let seq = with_run("kernel = \"sequential\"");
    let topo = seq.build_topology();
    assert_eq!(seq.run_config(&topo).partition, PartitionMode::SingleLp);

    let uni = with_run("kernel = \"unison\"\nthreads = 2");
    assert_eq!(uni.run_config(&topo).partition, PartitionMode::Auto);

    // barrier/nullmsg default to one LP per topology cluster.
    let bar = with_run("kernel = \"barrier\"");
    let mode = bar.run_config(&topo).partition;
    let PartitionMode::Manual(assign) = mode else {
        panic!("expected manual partition, got {mode:?}");
    };
    assert_eq!(assign, unison_topology::manual::by_cluster(&topo));
}

#[test]
fn every_partition_variant_maps() {
    let base = "kernel = \"unison\"\nthreads = 2\n";
    let topo = with_run(base).build_topology();
    let cases: &[(&str, PartitionMode)] = &[
        ("partition = \"auto\"", PartitionMode::Auto),
        ("partition = \"single_lp\"", PartitionMode::SingleLp),
        (
            "partition = \"bound\"\nbound_us = 5",
            PartitionMode::Bound(Time::from_micros(5)),
        ),
        (
            "partition = \"by_cluster\"",
            PartitionMode::Manual(unison_topology::manual::by_cluster(&topo)),
        ),
        (
            "partition = \"pipeline\"\npipeline = \"median_cut\"",
            PartitionMode::Pipeline(PartitionPipeline::median_cut()),
        ),
        (
            "partition = \"pipeline\"\npipeline = \"refined\"",
            PartitionMode::Pipeline(PartitionPipeline::refined()),
        ),
    ];
    for (part, want) in cases {
        let spec = with_run(&format!("{base}{part}"));
        let cfg = spec.run_config(&topo);
        // Pipelines compare by stage names (PartitionPipeline is not Eq).
        assert_eq!(
            format!("{:?}", cfg.partition),
            format!("{want:?}"),
            "for {part:?}"
        );
    }
    // An explicit per-node assignment (2 clusters of 4 hosts → node count
    // from the built topology).
    let n = topo.node_count();
    let assignment: Vec<String> = (0..n).map(|i| (i % 2).to_string()).collect();
    let spec = with_run(&format!(
        "{base}partition = \"manual\"\nassignment = [{}]",
        assignment.join(", ")
    ));
    let PartitionMode::Manual(got) = spec.run_config(&topo).partition else {
        panic!("expected manual");
    };
    assert_eq!(got.len(), n);
}

#[test]
fn sched_and_knobs_map() {
    let spec = with_run(
        "kernel = \"unison\"\nthreads = 2\n\
         sched_metric = \"by-pending-events\"\nsched_period = 4\n\
         fusion_threshold = 64\npin = \"compact\"\n\
         watchdog_ms = 2000\nper_round_metrics = true",
    );
    let topo = spec.build_topology();
    let cfg = spec.run_config(&topo);
    assert_eq!(cfg.sched.metric, SchedMetric::ByPendingEvents);
    assert_eq!(cfg.sched.period, Some(4));
    assert!(cfg.sched.fusion.enabled);
    assert_eq!(cfg.sched.fusion.threshold, 64);
    assert_eq!(cfg.sched.pin, PinPolicy::Compact);
    assert_eq!(
        cfg.watchdog.round_deadline,
        Some(Duration::from_millis(2000))
    );

    let spec = with_run("kernel = \"unison\"\nthreads = 2\nfusion = false");
    let cfg = spec.run_config(&topo);
    assert!(!cfg.sched.fusion.enabled);
    // Defaults when the keys are absent.
    let spec = with_run("kernel = \"unison\"\nthreads = 2");
    let cfg = spec.run_config(&topo);
    assert_eq!(cfg.sched.metric, SchedMetric::ByLastRoundTime);
    assert_eq!(cfg.watchdog.round_deadline, None);
}

#[test]
fn faults_ride_along() {
    let src = r#"
[topology]
kind = "fat_tree"
k = 4
[traffic]
load = 0.1
[run]
stop_us = 1000
kernel = "unison"
threads = 2
[[fault]]
kind = "worker_panic"
round = 3
phase = "receive"
worker = 1
[[fault]]
kind = "checkpoint_fail"
at_us = 500
"#;
    let spec = parse_scenario(src).unwrap();
    assert_eq!(spec.run.fault.specs().len(), 2);
    let topo = spec.build_topology();
    let cfg = spec.run_config(&topo);
    assert_eq!(cfg.fault.specs().len(), 2);
}

#[test]
fn traffic_and_topology_sections_map() {
    let src = r#"
name = "map"
[topology]
kind = "fat_tree_clusters"
clusters = 4
hosts_per_cluster = 4
rate_mbps = 100
delay_us = 500
[traffic]
pattern = "incast"
load = 0.5
incast_ratio = 0.7
sizes = "grpc"
seed = 11
start_us = 0
duration_us = 40000
[run]
stop_us = 60000
kernel = "unison"
threads = 2
"#;
    let spec = parse_scenario(src).unwrap();
    let topo = spec.build_topology();
    assert_eq!(topo.clusters, 4);
    assert_eq!(topo.hosts().len(), 16);
    // The rate/delay overrides hit every link.
    assert!(topo
        .links
        .iter()
        .all(|l| l.rate.as_bps() == 100_000_000 && l.delay == Time::from_micros(500)));
    let t = spec.traffic_config().unwrap();
    assert_eq!(t.load, 0.5);
    assert_eq!(t.incast_ratio, 0.7);
    assert_eq!(t.size_dist, SizeDist::Grpc);
    assert_eq!(t.seed, 11);
    assert_eq!(t.duration, Time::from_micros(40_000));
    assert_eq!(
        spec.traffic.as_ref().unwrap().pattern,
        TrafficPattern::Incast
    );
}

#[test]
fn transport_queue_routing_specs_parse() {
    let src = r#"
[topology]
kind = "dumbbell"
senders = 2
receivers = 2
edge_rate_mbps = 1000
bottleneck_rate_mbps = 1000
delay_us = 20
[transport]
kind = "dctcp"
profile = "dcn"
[queue]
kind = "dctcp"
limit_bytes = 400000
k_bytes = 8000
[routing]
kind = "rip"
update_interval_us = 10000
[[flow]]
src = 2
dst = 4
bytes = 2000000
start_us = 50
[run]
stop_us = 400000
kernel = "unison"
threads = 2
"#;
    let spec = parse_scenario(src).unwrap();
    assert_eq!(
        spec.queue,
        Some(QueueSpec::Dctcp {
            limit_bytes: 400_000,
            k_bytes: 8_000
        })
    );
    assert_eq!(
        spec.routing,
        RoutingSpec::Rip {
            update_interval: Time::from_millis(10)
        }
    );
    assert_eq!(spec.flows.len(), 1);
    assert_eq!(spec.flows[0].bytes, 2_000_000);
}

#[test]
fn strictness_rejects_mistakes() {
    let ok = r#"
[topology]
kind = "fat_tree"
k = 4
[traffic]
load = 0.1
[run]
stop_us = 1000
kernel = "unison"
threads = 2
"#;
    assert!(parse_scenario(ok).is_ok());
    // Unknown key in a known section.
    let e = parse_scenario(&ok.replace("k = 4", "k = 4\nkk = 9")).unwrap_err();
    assert!(e.msg.contains("unknown key `kk`"), "{e}");
    // Unknown section.
    let e = parse_scenario(&format!("{ok}[wat]\nx = 1\n")).unwrap_err();
    assert!(e.msg.contains("unknown section"), "{e}");
    // Unknown enum value, with the options listed.
    let e = parse_scenario(&ok.replace("\"unison\"", "\"warp\"")).unwrap_err();
    assert!(e.msg.contains("unknown kernel `warp`"), "{e}");
    assert!(e.msg.contains("async_cons"), "{e}");
    // Missing required key.
    let e = parse_scenario(&ok.replace("threads = 2", "")).unwrap_err();
    assert!(e.msg.contains("missing required key `threads`"), "{e}");
    // Type mismatch.
    let e = parse_scenario(&ok.replace("threads = 2", "threads = \"two\"")).unwrap_err();
    assert!(e.msg.contains("must be a"), "{e}");
    // `threads` on a kernel that has none.
    let e = parse_scenario(&ok.replace("kernel = \"unison\"", "kernel = \"barrier\"")).unwrap_err();
    assert!(e.msg.contains("not valid for kernel"), "{e}");
    // Semantic validation: flow endpoints must be hosts.
    let e = parse_scenario(&format!(
        "{ok}[[flow]]\nsrc = 0\ndst = 1\nbytes = 100\nstart_us = 0\n"
    ))
    .unwrap_err();
    assert!(e.msg.contains("is not a host"), "{e}");
    // Duplicate section.
    let e = parse_scenario(&format!("{ok}[run]\nstop_us = 1\nkernel = \"barrier\"\n")).unwrap_err();
    assert!(e.msg.contains("duplicate"), "{e}");
    // The FEL backend switch is gone: a file that still sets it fails at
    // the key, not silently.
    let e = parse_scenario(&format!("{ok}fel = \"binary_heap\"\n")).unwrap_err();
    assert!(e.msg.contains("unknown key `fel`"), "{e}");
    assert_eq!((e.line, e.col), (11, 1), "{e}");
    // Work stealing is gone too: the claim-policy key fails the same way.
    let e = parse_scenario(&format!("{ok}sched_policy = \"steal-deque\"\n")).unwrap_err();
    assert!(e.msg.contains("unknown key `sched_policy`"), "{e}");
    assert_eq!((e.line, e.col), (11, 1), "{e}");
}

#[test]
fn errors_carry_spans() {
    let e = parse_scenario(
        "[topology]\nkind = \"fat_tree\"\nk = 4\n  kindd = 9\n[run]\nstop_us = 1\nkernel = \"sequential\"\n",
    )
    .unwrap_err();
    assert_eq!((e.line, e.col), (4, 3), "{e}");
}
