//! Workspace-level integration: self-checking smoke versions of the
//! paper's headline claims (full-size runs live in `unison-bench`'s
//! binaries; these assert the *directions* hold at test scale).

use unison::core::{
    KernelKind, MetricsLevel, PartitionMode, PerfModel, RunConfig, SchedConfig, SchedMetric, Time,
};
use unison::netsim::NetworkBuilder;
use unison::topology::{fat_tree, fat_tree_clusters, manual, torus2d};
use unison::traffic::{SizeDist, TrafficConfig};

struct Profiled {
    profile: Vec<unison::core::RoundRecord>,
    neighbors: Vec<Vec<u32>>,
}

fn profile(
    topo: &unison::topology::Topology,
    traffic: &TrafficConfig,
    partition: PartitionMode,
    stop: Time,
) -> Profiled {
    let sim = NetworkBuilder::new(topo)
        .traffic(traffic)
        .stop_at(stop)
        .build();
    let res = sim
        .run_with(&RunConfig {
            watchdog: Default::default(),
            kernel: KernelKind::Unison { threads: 1 },
            partition: partition.clone(),
            sched: SchedConfig::default(),
            metrics: MetricsLevel::PerRound,
            telemetry: Default::default(),
            fault: Default::default(),
        })
        .expect("profiled run");
    // LP adjacency for the null-message model.
    let mut graph = unison::core::LinkGraph::new(topo.node_count());
    for l in &topo.links {
        graph.add_link(
            unison::core::NodeId(l.a as u32),
            unison::core::NodeId(l.b as u32),
            l.delay,
        );
    }
    let p = match &partition {
        PartitionMode::Auto => unison::core::fine_grained_partition(&graph),
        PartitionMode::Manual(a) => unison::core::manual_partition(&graph, a),
        _ => unreachable!(),
    };
    let mut neighbors = vec![Vec::new(); p.lp_count as usize];
    for (a, b, _) in p.lp_channels(&graph) {
        neighbors[a.index()].push(b.0);
        neighbors[b.index()].push(a.0);
    }
    Profiled {
        profile: res.kernel.rounds_profile.unwrap_or_default(),
        neighbors,
    }
}

#[test]
fn claim_unison_beats_pdes_baselines_under_incast() {
    // Claims 1 & 5 (Fig. 1 / Fig. 9): at equal cores, Unison's replayed
    // time is below barrier and null message, and its S ratio is far below
    // the barrier's.
    let topo = fat_tree_clusters(8, 4);
    let traffic = TrafficConfig::incast(0.4, 1.0)
        .with_seed(42)
        .with_window(Time::ZERO, Time::from_millis(1));
    let stop = Time::from_millis(2);
    let base = profile(
        &topo,
        &traffic,
        PartitionMode::Manual(manual::by_cluster(&topo)),
        stop,
    );
    let auto = profile(&topo, &traffic, PartitionMode::Auto, stop);
    let mb = PerfModel::new(&base.profile);
    let mu = PerfModel::new(&auto.profile);
    let bar = mb.barrier();
    let nm = mb.nullmsg(&base.neighbors);
    let uni = mu.unison(8, SchedConfig::default());
    assert!(
        uni.total_ns < bar.total_ns && uni.total_ns < nm.total_ns,
        "unison {} vs barrier {} / nullmsg {}",
        uni.total_ns,
        bar.total_ns,
        nm.total_ns
    );
    assert!(
        uni.s_ratio() < bar.s_ratio(),
        "unison S ratio {} !< barrier {}",
        uni.s_ratio(),
        bar.s_ratio()
    );
}

#[test]
fn claim_sync_time_grows_with_incast_ratio() {
    // Claim 2 (Fig. 5a): the barrier baseline's S/T rises with skew. To
    // keep the test deterministic, per-LP costs are taken as event counts
    // (the wall-clock costs carry measurement noise at this tiny scale).
    let topo = fat_tree(4);
    let stop = Time::from_millis(2);
    let s_at = |ratio| {
        let traffic = TrafficConfig::incast(0.3, ratio)
            .with_seed(7)
            .with_window(Time::ZERO, Time::from_millis(1));
        let base = profile(
            &topo,
            &traffic,
            PartitionMode::Manual(manual::by_cluster(&topo)),
            stop,
        );
        let synthetic: Vec<unison::core::RoundRecord> = base
            .profile
            .iter()
            .map(|r| unison::core::RoundRecord {
                window_start: r.window_start,
                window_end: r.window_end,
                fused: r.fused,
                lp_cost_ns: r.lp_events.iter().map(|&e| e as f32 * 100.0).collect(),
                lp_events: r.lp_events.clone(),
                lp_recv: r.lp_recv.clone(),
            })
            .collect();
        PerfModel::new(&synthetic).barrier().s_ratio()
    };
    let balanced = s_at(0.0);
    let skewed = s_at(1.0);
    assert!(
        skewed > balanced,
        "S/T should rise with incast: balanced {balanced}, skewed {skewed}"
    );
}

#[test]
fn claim_lookahead_shrinks_sync_share() {
    // Claim 4 (Fig. 5c): larger link delay -> lower barrier S/T.
    let stop = Time::from_millis(2);
    let s_at = |delay| {
        let topo = fat_tree(4)
            .with_rate(unison::core::DataRate::gbps(10))
            .with_delay(delay);
        let traffic = TrafficConfig::random_uniform(0.3)
            .with_seed(7)
            .with_sizes(SizeDist::Grpc)
            .with_window(Time::ZERO, Time::from_millis(1));
        let base = profile(
            &topo,
            &traffic,
            PartitionMode::Manual(manual::by_cluster(&topo)),
            stop,
        );
        PerfModel::new(&base.profile).barrier().s_ratio()
    };
    let small = s_at(Time::from_micros(1));
    let large = s_at(Time::from_micros(300));
    assert!(
        small > large,
        "S/T should fall with delay: 1us {small}, 300us {large}"
    );
}

#[test]
fn claim_fine_granularity_improves_locality() {
    // Claim 9 (Fig. 12a): node switches fall monotonically with LP count.
    let topo = torus2d(
        6,
        6,
        unison::core::DataRate::gbps(10),
        Time::from_micros(30),
    );
    let traffic = TrafficConfig::random_uniform(0.3)
        .with_seed(13)
        .with_sizes(SizeDist::Grpc)
        .with_window(Time::ZERO, Time::from_millis(1));
    let switches_at = |lps: u32| {
        let sim = NetworkBuilder::new(&topo)
            .traffic(&traffic)
            .stop_at(Time::from_millis(3))
            .build();
        let res = sim
            .run_with(&RunConfig {
                watchdog: Default::default(),
                kernel: KernelKind::Unison { threads: 1 },
                partition: PartitionMode::Manual(manual::by_id_range(&topo, lps)),
                sched: SchedConfig::default(),
                metrics: MetricsLevel::Summary,
                telemetry: Default::default(),
                fault: Default::default(),
            })
            .expect("run");
        res.kernel.node_switches()
    };
    let coarse = switches_at(1);
    let medium = switches_at(6);
    let fine = switches_at(36);
    assert!(
        coarse > medium && medium > fine,
        "locality proxy must fall with granularity: {coarse} > {medium} > {fine}"
    );
}

#[test]
fn claim_load_adaptive_scheduling_beats_none() {
    // Claim 10 (Fig. 12c): the default metric's slowdown factor is below
    // the no-scheduling slowdown.
    let topo = fat_tree(4);
    let traffic = TrafficConfig::incast(0.3, 0.5)
        .with_seed(7)
        .with_window(Time::ZERO, Time::from_millis(1));
    let auto = profile(&topo, &traffic, PartitionMode::Auto, Time::from_millis(2));
    // Deterministic cost basis (event counts), as in the incast claim.
    let synthetic: Vec<unison::core::RoundRecord> = auto
        .profile
        .iter()
        .map(|r| unison::core::RoundRecord {
            window_start: r.window_start,
            window_end: r.window_end,
            fused: r.fused,
            lp_cost_ns: r.lp_events.iter().map(|&e| e as f32 * 100.0).collect(),
            lp_events: r.lp_events.clone(),
            lp_recv: r.lp_recv.clone(),
        })
        .collect();
    let model = PerfModel::new(&synthetic);
    let with = model
        .unison_detailed(
            8,
            SchedConfig {
                metric: SchedMetric::ByLastRoundTime,
                period: None,
                ..Default::default()
            },
        )
        .slowdown;
    let without = model
        .unison_detailed(
            8,
            SchedConfig {
                metric: SchedMetric::None,
                period: None,
                ..Default::default()
            },
        )
        .slowdown;
    assert!(with >= 1.0 - 1e-9);
    assert!(
        with <= without,
        "scheduling should not hurt: with {with}, without {without}"
    );
}

#[test]
fn claim_unison_matches_ground_truth_under_skew() {
    // Claim behind Table 2: Unison stays equal to the sequential ground
    // truth in both the balanced and the incast-skewed scenario (the
    // surrogate comparison runs in the table2 harness).
    use unison::core::DataRate;
    let tput_err = |clusters: usize| {
        let topo = fat_tree_clusters(clusters, 4)
            .with_rate(DataRate::mbps(100))
            .with_delay(Time::from_micros(500));
        let traffic = TrafficConfig {
            incast_ratio: 0.1,
            incast_cluster: Some(clusters as u32 - 1),
            ..TrafficConfig::random_uniform(0.7)
                .with_seed(9)
                .with_window(Time::ZERO, Time::from_millis(50))
        };
        let sim = NetworkBuilder::new(&topo)
            .traffic(&traffic)
            .stop_at(Time::from_millis(120))
            .build();
        let seq = sim.run(KernelKind::Sequential { compat_keys: false });
        let uni = NetworkBuilder::new(&topo)
            .traffic(&traffic)
            .stop_at(Time::from_millis(120))
            .build()
            .run(KernelKind::Unison { threads: 2 });
        assert_eq!(seq.kernel.events, uni.kernel.events);
        (
            seq.flows.throughput_bps.mean(),
            uni.flows.throughput_bps.mean(),
        )
    };
    let (seq2, uni2) = tput_err(2);
    assert_eq!(
        seq2.to_bits(),
        uni2.to_bits(),
        "Unison must match sequential"
    );
    let (seq4, uni4) = tput_err(4);
    assert_eq!(seq4.to_bits(), uni4.to_bits());
}
