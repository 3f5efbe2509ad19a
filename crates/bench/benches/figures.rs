//! Smoke-scale Criterion versions of every figure/table family so that
//! `cargo bench --workspace` exercises each experiment's code path. The
//! presentation-quality runs live in `src/bin/fig*.rs` / `table*.rs`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use unison_bench::harness::{partition_info, Scenario};
use unison_bench::surrogate;
use unison_core::{
    DataRate, KernelKind, MetricsLevel, PartitionMode, PerfModel, RunConfig, SchedConfig,
    SchedMetric, Time,
};
use unison_netsim::NetworkBuilder;
use unison_topology::{fat_tree, fat_tree_clusters, manual, torus2d};
use unison_traffic::{SizeDist, TrafficConfig};

/// A tiny incast fat-tree scenario shared by several smoke benches.
fn tiny_scenario(incast: f64) -> Scenario {
    let topo = fat_tree(4);
    let traffic = TrafficConfig::incast(0.2, incast)
        .with_seed(1)
        .with_sizes(SizeDist::Grpc)
        .with_window(Time::ZERO, Time::from_micros(300));
    Scenario::new(topo, traffic, Time::from_micros(600))
}

/// Fig. 1 / Fig. 8 family: profile + replay all algorithms.
fn bench_fig01_family(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig01_fig08_replay");
    g.sample_size(10);
    g.bench_function("profile_and_replay", |b| {
        b.iter(|| {
            let s = tiny_scenario(1.0);
            let topo = &s.topo;
            let base = s.profile(PartitionMode::Manual(manual::by_cluster(topo)));
            let auto = s.profile(PartitionMode::Auto);
            let mb = PerfModel::new(&base.profile);
            let mu = PerfModel::new(&auto.profile);
            black_box((
                mb.sequential().total_ns,
                mb.barrier().total_ns,
                mb.nullmsg(&base.neighbors).total_ns,
                mu.unison(4, SchedConfig::default()).total_ns,
            ))
        })
    });
    g.finish();
}

/// Fig. 5 / Fig. 9 family: P/S/M decomposition paths.
fn bench_fig05_family(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig05_fig09_psm");
    g.sample_size(10);
    g.bench_function("psm_sweep_point", |b| {
        b.iter(|| {
            let s = tiny_scenario(0.5);
            let base = s.profile(PartitionMode::Manual(manual::by_cluster(&s.topo)));
            let m = PerfModel::new(&base.profile);
            let bar = m.barrier();
            black_box((bar.s_ratio(), bar.s_ratio_per_round.len()))
        })
    });
    g.finish();
}

/// Fig. 10 family: torus + model sweep.
fn bench_fig10_family(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig10_topologies");
    g.sample_size(10);
    g.bench_function("torus_profile_replay", |b| {
        b.iter(|| {
            let topo = torus2d(6, 6, DataRate::gbps(10), Time::from_micros(30));
            let traffic = TrafficConfig::random_uniform(0.2)
                .with_seed(2)
                .with_sizes(SizeDist::Grpc)
                .with_window(Time::ZERO, Time::from_micros(300));
            let s = Scenario::new(topo, traffic, Time::from_micros(600));
            let auto = s.profile(PartitionMode::Auto);
            black_box(
                PerfModel::new(&auto.profile)
                    .unison(8, SchedConfig::default())
                    .total_ns,
            )
        })
    });
    g.finish();
}

/// Fig. 11 family: determinism (two identical Unison runs must agree).
fn bench_fig11_determinism(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig11_determinism");
    g.sample_size(10);
    g.bench_function("unison_two_run_compare", |b| {
        b.iter(|| {
            let run = |threads| {
                let s = tiny_scenario(0.0);
                let sim = NetworkBuilder::new(&s.topo)
                    .traffic(&s.traffic)
                    .stop_at(s.stop)
                    .build();
                sim.run(KernelKind::Unison { threads }).kernel.events
            };
            let a = run(1);
            let b2 = run(2);
            assert_eq!(a, b2);
            black_box(a)
        })
    });
    g.finish();
}

/// Fig. 12 family: granularity sweep + scheduler metrics.
fn bench_fig12_family(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig12_partition_sched");
    g.sample_size(10);
    g.bench_function("granularity_point", |b| {
        b.iter(|| {
            let topo = torus2d(6, 6, DataRate::gbps(10), Time::from_micros(30));
            let traffic = TrafficConfig::random_uniform(0.2)
                .with_seed(3)
                .with_sizes(SizeDist::Grpc)
                .with_window(Time::ZERO, Time::from_micros(300));
            let sim = NetworkBuilder::new(&topo)
                .traffic(&traffic)
                .stop_at(Time::from_micros(600))
                .build();
            let res = sim
                .run_with(&RunConfig {
                    watchdog: Default::default(),
                    kernel: KernelKind::Unison { threads: 1 },
                    partition: PartitionMode::Manual(manual::by_id_range(&topo, 6)),
                    sched: SchedConfig::default(),
                    metrics: MetricsLevel::Summary,
                    telemetry: Default::default(),
                    fault: Default::default(),
                })
                .unwrap();
            black_box(res.kernel.node_switches())
        })
    });
    g.bench_function("slowdown_alpha", |b| {
        let s = tiny_scenario(0.0);
        let auto = s.profile(PartitionMode::Auto);
        b.iter(|| {
            let m = PerfModel::new(&auto.profile);
            black_box(
                m.unison_detailed(
                    8,
                    SchedConfig {
                        metric: SchedMetric::ByLastRoundTime,
                        period: None,
                        ..Default::default()
                    },
                )
                .slowdown,
            )
        })
    });
    g.finish();
}

/// Fig. 13 family: bucketed heat-map data.
fn bench_fig13_buckets(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig13_heatmap");
    g.sample_size(10);
    let s = tiny_scenario(0.6);
    let base = s.profile(PartitionMode::Manual(manual::by_cluster(&s.topo)));
    g.bench_function("bucketed_costs", |b| {
        b.iter(|| black_box(PerfModel::new(&base.profile).bucketed_costs(10)))
    });
    g.finish();
}

/// Table 1 family: partition-scheme construction.
fn bench_table1_partitions(c: &mut Criterion) {
    let mut g = c.benchmark_group("table1_manual_partitions");
    g.sample_size(20);
    let topo = fat_tree(4);
    g.bench_function("by_cluster", |b| {
        b.iter(|| black_box(manual::by_cluster(&topo)))
    });
    g.bench_function("partition_info_auto", |b| {
        b.iter(|| black_box(partition_info(&topo, &PartitionMode::Auto).0.lp_count))
    });
    g.finish();
}

/// Table 2 family: accuracy comparison path (tiny).
fn bench_table2_accuracy(c: &mut Criterion) {
    let mut g = c.benchmark_group("table2_accuracy");
    g.sample_size(10);
    g.bench_function("seq_vs_unison_vs_surrogate", |b| {
        b.iter(|| {
            let topo = fat_tree_clusters(2, 4)
                .with_rate(DataRate::mbps(100))
                .with_delay(Time::from_micros(500));
            let traffic = TrafficConfig::random_uniform(0.5)
                .with_seed(4)
                .with_sizes(SizeDist::Grpc)
                .with_window(Time::ZERO, Time::from_millis(5));
            let sim = NetworkBuilder::new(&topo)
                .traffic(&traffic)
                .stop_at(Time::from_millis(10))
                .build();
            let res = sim.run(KernelKind::Sequential { compat_keys: false });
            let flows = traffic.generate(&topo, DataRate::mbps(100));
            let sur = surrogate::predict(&topo, &flows, Time::from_millis(5));
            black_box((res.flows.fct_us.mean(), sur.mean_fct_ms))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_fig01_family,
    bench_fig05_family,
    bench_fig10_family,
    bench_fig11_determinism,
    bench_fig12_family,
    bench_fig13_buckets,
    bench_table1_partitions,
    bench_table2_accuracy
);
criterion_main!(benches);
