//! Incast showdown: the scenario that motivates the paper. Many senders
//! converge on one victim host; the static-partition PDES baselines spend
//! most of their time waiting at synchronization barriers while Unison's
//! load-adaptive scheduler keeps every thread busy.
//!
//! Run with: `cargo run --release --example incast_showdown`

use unison::core::{
    KernelKind, MetricsLevel, PartitionMode, PerfModel, RunConfig, SchedConfig, Time,
};
use unison::netsim::NetworkBuilder;
use unison::topology::{fat_tree_clusters, manual};
use unison::traffic::TrafficConfig;

fn main() {
    let topo = fat_tree_clusters(16, 4);
    let traffic = TrafficConfig::incast(0.4, 1.0)
        .with_seed(42)
        .with_window(Time::ZERO, Time::from_millis(2));

    // Profile the workload once per partition scheme on the instrumented
    // single-thread engine, then replay each algorithm's synchronization
    // structure (this is how the paper's performance figures are
    // regenerated on a small machine — see DESIGN.md).
    let profile = |partition: PartitionMode| {
        let sim = NetworkBuilder::new(&topo)
            .traffic(&traffic)
            .stop_at(Time::from_millis(4))
            .build();
        sim.run_with(&RunConfig {
            watchdog: Default::default(),
            kernel: KernelKind::Unison { threads: 1 },
            partition,
            sched: SchedConfig::default(),
            metrics: MetricsLevel::PerRound,
            telemetry: Default::default(),
            fault: Default::default(),
        })
        .expect("profiled run")
    };

    let base = profile(PartitionMode::Manual(manual::by_cluster(&topo)));
    let auto = profile(PartitionMode::Auto);
    let base_profile = base.kernel.rounds_profile.as_deref().unwrap_or(&[]);
    let auto_profile = auto.kernel.rounds_profile.as_deref().unwrap_or(&[]);

    let mb = PerfModel::new(base_profile);
    let mu = PerfModel::new(auto_profile);
    let seq = mb.sequential();
    let bar = mb.barrier();
    let uni = mu.unison(16, SchedConfig::default());

    println!(
        "incast ratio 1.0 on a 16-cluster fat-tree ({} events)",
        base.kernel.events
    );
    println!(
        "{:<26} {:>10} {:>8}",
        "algorithm (16 cores)", "time(s)", "S/T"
    );
    println!("{}", "-".repeat(48));
    for r in [&seq, &bar, &uni] {
        println!(
            "{:<26} {:>10.3} {:>7.0}%",
            r.algorithm,
            r.total_ns / 1e9,
            r.s_ratio() * 100.0
        );
    }
    println!(
        "\nUnison is {:.1}x faster than the barrier baseline at equal cores;",
        bar.total_ns / uni.total_ns
    );
    println!(
        "the baseline wastes {:.0}% of its core-time at synchronization barriers,",
        bar.s_ratio() * 100.0
    );
    println!(
        "Unison {:.0}% — the paper's Observation 1 and its fix.",
        uni.s_ratio() * 100.0
    );
    println!("\nvictim-side flow stats: {}", auto.flows.one_line());
}
