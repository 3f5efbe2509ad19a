//! Ablation: *real wall-clock* kernel comparison on this machine.
//!
//! Everything else in the harness uses the virtual-core replay for the
//! parallel algorithms; this binary runs the actual threaded kernels and
//! reports measured wall time. On a single-core host the interesting
//! result is that Unison can still beat the sequential kernel (fine-
//! grained LP batching improves cache locality, the paper's §6.3 story);
//! on a multi-core host the full parallel speedup becomes visible.

use unison_bench::harness::{export_profile, header, profile_telemetry, row, Scale};
use unison_core::{KernelKind, MetricsLevel, PartitionMode, RunConfig, SchedConfig, Time};
use unison_netsim::NetworkBuilder;
use unison_topology::{fat_tree, manual};
use unison_traffic::{SizeDist, TrafficConfig};

fn main() {
    let scale = Scale::from_args();
    let window = scale.pick(Time::from_millis(2), Time::from_millis(8));
    let topo = fat_tree(4);
    let traffic = TrafficConfig::random_uniform(0.3)
        .with_seed(77)
        .with_sizes(SizeDist::Grpc)
        .with_window(Time::ZERO, window);
    let pods = manual::by_cluster(&topo);

    let configs: Vec<(&str, RunConfig)> = vec![
        ("sequential", RunConfig::sequential()),
        ("unison(1)", RunConfig::unison(1)),
        ("unison(2)", RunConfig::unison(2)),
        ("unison(4)", RunConfig::unison(4)),
        ("barrier(4 LPs)", RunConfig::barrier(pods.clone())),
        ("nullmsg(4 LPs)", RunConfig::nullmsg(pods)),
        (
            "hybrid(2x2)",
            RunConfig {
                watchdog: Default::default(),
                kernel: KernelKind::Hybrid {
                    hosts: 2,
                    threads_per_host: 2,
                },
                fault: Default::default(),
                partition: PartitionMode::Auto,
                sched: SchedConfig::default(),
                metrics: MetricsLevel::Summary,
                telemetry: Default::default(),
            },
        ),
    ];

    println!(
        "Real wall-clock kernel comparison ({} host CPUs visible)",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    let widths = [16, 12, 12, 11];
    header(&["kernel", "wall(s)", "events", "Mevents/s"], &widths);
    for (name, mut cfg) in configs {
        // Recording (--profile) perturbs the wall-clock numbers; without
        // the flag this stays the disabled sink and measures undisturbed.
        cfg.telemetry = profile_telemetry();
        // Median of three runs.
        let mut walls = Vec::new();
        let mut events = 0;
        for _ in 0..3 {
            let sim = NetworkBuilder::new(&topo)
                .traffic(&traffic)
                .stop_at(window + Time::from_millis(1))
                .build();
            let res = sim.run_with(&cfg).expect("run");
            export_profile(&res.kernel);
            walls.push(res.kernel.wall.as_secs_f64());
            events = res.kernel.events;
        }
        walls.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let wall = walls[1];
        row(
            &[
                name.to_string(),
                format!("{wall:.3}"),
                events.to_string(),
                format!("{:.2}", events as f64 / wall / 1e6),
            ],
            &widths,
        );
    }
}
