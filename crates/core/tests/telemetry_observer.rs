//! Observer-effect tests (DESIGN.md §4.3): telemetry must be *provably
//! non-perturbing*. A run with recording enabled must produce a result
//! digest (order-sensitive per-node checksums + event totals + end time)
//! bit-identical to the same run with recording disabled — at 1, 2, and 4
//! worker threads, under both scheduling metrics. The recorder writes only
//! thread-local buffers and takes no locks, so this holds by construction;
//! these tests pin it against regressions.

#![cfg(feature = "telemetry")]

use unison_core::{
    kernel, telemetry::SpanKind, KernelKind, MetricsLevel, NodeId, PartitionMode, Rng, RunConfig,
    SchedConfig, SchedMetric, SimCtx, SimNode, TelemetryConfig, Time, WorldBuilder,
};

/// Same token-routing model as the cross-kernel tests: per-token RNG makes
/// the event *set* execution-order independent, per-node checksums make
/// the digest order-sensitive.
#[derive(Debug)]
struct Token {
    id: u64,
    rng: Rng,
    hops: u64,
}

struct Router {
    neighbors: Vec<(NodeId, Time)>,
    checksum: u64,
    seen: u64,
}

impl SimNode for Router {
    type Payload = Token;

    fn handle(&mut self, mut token: Token, ctx: &mut dyn SimCtx<Self>) {
        self.seen += 1;
        self.checksum = self
            .checksum
            .wrapping_mul(0x100000001B3)
            .wrapping_add(ctx.now().as_nanos())
            .wrapping_add(token.id.wrapping_mul(0x9E3779B97F4A7C15));
        token.hops += 1;
        let pick = token.rng.next_below(self.neighbors.len() as u64) as usize;
        let (next, delay) = self.neighbors[pick];
        ctx.schedule(delay, next, token);
    }
}

const N: usize = 12;
const DELAY: Time = Time(3_000);
const TOKENS: u64 = 32;
const STOP: Time = Time(900_000);

fn ring_world() -> unison_core::World<Router> {
    let mut b = WorldBuilder::new();
    let ids: Vec<NodeId> = (0..N).map(|i| NodeId(i as u32)).collect();
    for i in 0..N {
        let prev = ids[(i + N - 1) % N];
        let next = ids[(i + 1) % N];
        b.add_node(Router {
            neighbors: vec![(prev, DELAY), (next, DELAY)],
            checksum: 0,
            seen: 0,
        });
    }
    for i in 0..N {
        b.add_link(ids[i], ids[(i + 1) % N], DELAY);
    }
    let mut seed_rng = Rng::new(0xDEAD_BEEF);
    for t in 0..TOKENS {
        b.schedule(
            Time::from_nanos(t % 7),
            ids[(t as usize) % N],
            Token {
                id: t,
                rng: seed_rng.fork(t),
                hops: 0,
            },
        );
    }
    b.stop_at(STOP);
    b.build()
}

/// The comparison digest: bit-identical runs agree on every component.
type Digest = (Vec<(u64, u64)>, u64, u64, Time);

fn run_digest(cfg: &RunConfig) -> (Digest, Option<usize>) {
    let (world, report) = kernel::run(ring_world(), cfg).expect("run");
    let digest = (
        world.nodes().map(|n| (n.checksum, n.seen)).collect(),
        report.events,
        report.rounds,
        report.end_time,
    );
    (digest, report.telemetry.as_ref().map(|t| t.span_count()))
}

fn unison_cfg(threads: usize, metric: SchedMetric, telemetry: TelemetryConfig) -> RunConfig {
    RunConfig {
        watchdog: Default::default(),
        kernel: KernelKind::Unison { threads },
        partition: PartitionMode::Auto,
        sched: SchedConfig {
            metric,
            period: Some(4),
            ..Default::default()
        },
        metrics: MetricsLevel::Summary,
        telemetry,
        fault: Default::default(),
    }
}

#[test]
fn telemetry_does_not_perturb_unison_results() {
    for metric in [SchedMetric::ByLastRoundTime, SchedMetric::ByPendingEvents] {
        for threads in [1usize, 2, 4] {
            let (off, tel_off) =
                run_digest(&unison_cfg(threads, metric, TelemetryConfig::default()));
            let (on, tel_on) = run_digest(&unison_cfg(threads, metric, TelemetryConfig::enabled()));
            assert_eq!(
                off, on,
                "telemetry changed the digest at {threads} threads under {metric:?}"
            );
            assert!(tel_off.is_none(), "disabled run must not attach telemetry");
            let spans = tel_on.expect("enabled run attaches telemetry");
            assert!(spans > 0, "enabled run recorded no spans");
        }
    }
}

#[test]
fn telemetry_does_not_perturb_other_kernels() {
    let manual: Vec<u32> = (0..N as u32).map(|i| i / 3).collect();
    let mk = |kernel: KernelKind, telemetry: TelemetryConfig| RunConfig {
        watchdog: Default::default(),
        kernel,
        partition: PartitionMode::Auto,
        sched: SchedConfig::default(),
        metrics: MetricsLevel::Summary,
        telemetry,
        fault: Default::default(),
    };
    let kernels = [
        (
            "sequential(compat)",
            KernelKind::Sequential { compat_keys: true },
        ),
        (
            "hybrid",
            KernelKind::Hybrid {
                hosts: 2,
                threads_per_host: 2,
            },
        ),
    ];
    for (name, kind) in &kernels {
        let (off, _) = run_digest(&mk(kind.clone(), TelemetryConfig::default()));
        let (on, spans) = run_digest(&mk(kind.clone(), TelemetryConfig::enabled()));
        assert_eq!(off, on, "telemetry changed the {name} digest");
        assert!(spans.expect("telemetry attached") > 0, "{name}: no spans");
    }
    // LP-pinned kernels use a manual partition (LP identity is part of
    // their event order); totals still must not move.
    for cfg_of in [RunConfig::barrier, RunConfig::nullmsg] {
        let cfg_off = cfg_of(manual.clone());
        let cfg_on = cfg_of(manual.clone()).with_telemetry();
        let (_, rep_off) = kernel::run(ring_world(), &cfg_off).expect("run");
        let (_, rep_on) = kernel::run(ring_world(), &cfg_on).expect("run");
        assert_eq!(rep_off.events, rep_on.events);
        assert!(rep_off.telemetry.is_none());
        let tel = rep_on.telemetry.expect("telemetry attached");
        assert!(tel.span_count() > 0);
    }
}

#[test]
fn enabled_unison_run_records_every_phase_and_decisions() {
    let cfg = unison_cfg(2, SchedMetric::ByLastRoundTime, TelemetryConfig::enabled());
    let (_, report) = kernel::run(ring_world(), &cfg).expect("run");
    let tel = report.telemetry.expect("telemetry attached");
    // One sink per worker; the control thread doubles as worker 0.
    assert_eq!(tel.workers.len() as u32, report.threads);
    for kind in [
        SpanKind::Process,
        SpanKind::Global,
        SpanKind::Receive,
        SpanKind::WindowUpdate,
        SpanKind::BarrierWait,
        SpanKind::MailboxFlush,
        SpanKind::LpTask,
    ] {
        assert!(
            tel.workers
                .iter()
                .flat_map(|w| &w.spans)
                .any(|s| s.kind == kind),
            "no {kind:?} span recorded"
        );
    }
    // The ring re-sorts every 4 rounds (period override above); the log
    // must hold decisions with the configured metric's name.
    assert!(!tel.sched.is_empty(), "no scheduler decisions logged");
    assert!(tel
        .sched
        .iter()
        .all(|d| d.metric == "by-last-round-time" && d.order.len() == N));
    // Cross-LP tokens produce mailbox traffic with real sender attribution.
    let traffic = tel.traffic();
    assert!(!traffic.is_empty(), "no traffic recorded");
    assert!(traffic.iter().all(|&(s, d, n)| s != d && n > 0));
}

#[test]
fn span_capacity_bounds_memory_and_counts_drops() {
    let mut cfg = unison_cfg(2, SchedMetric::ByLastRoundTime, TelemetryConfig::enabled());
    cfg.telemetry.span_capacity = 8;
    let (_, report) = kernel::run(ring_world(), &cfg).expect("run");
    let tel = report.telemetry.expect("telemetry attached");
    let truncated: u64 = tel.workers.iter().map(|w| w.truncated).sum();
    assert!(tel.workers.iter().all(|w| w.spans.len() <= 8));
    assert!(truncated > 0, "a long run must overflow an 8-span buffer");
}
