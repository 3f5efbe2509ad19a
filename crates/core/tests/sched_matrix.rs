//! Determinism matrix over the scheduling/partitioning extension points.
//!
//! The §5.2 tie-breaking keys make Unison's results independent of *which
//! worker executes which LP when* — so every (partitioner, thread-count,
//! sched-metric) combination must produce bit-identical model state. This
//! suite pins that claim for the pluggable pipeline partitioners: the
//! shared LJF cursor only decides which worker runs each LP of a round's
//! fixed task set, and cross-LP sends commit through the mailbox +
//! tie-break key path.
//!
//! Digests are compared only *within* one partition: the tie-break key
//! embeds `sender_lp` and per-LP sequence numbers, so different partitions
//! legitimately produce different (each internally deterministic) event
//! orders. `PartitionPipeline::median_cut()` reproduces the `Auto`
//! partition exactly, so those two are digest-compatible — also asserted.

use unison_core::{
    kernel, FusionConfig, KernelKind, NodeId, PartitionMode, PartitionPipeline, Rng, RunConfig,
    SchedConfig, SchedMetric, SimCtx, SimNode, Time, WorldBuilder,
};

/// A token with its own deterministic randomness (the kernels.rs model).
#[derive(Debug)]
struct Token {
    id: u64,
    rng: Rng,
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
        let pick = token.rng.next_below(self.neighbors.len() as u64) as usize;
        let (next, delay) = self.neighbors[pick];
        ctx.schedule(delay, next, token);
    }
}

/// A ring with one fine (sub-median) link so the refined pipeline has a
/// non-trivial coarse structure to balance and place.
fn world() -> unison_core::World<Router> {
    const N: usize = 12;
    let mut b = WorldBuilder::new();
    let ids: Vec<NodeId> = (0..N).map(|i| NodeId(i as u32)).collect();
    for i in 0..N {
        let prev = ids[(i + N - 1) % N];
        let next = ids[(i + 1) % N];
        // One short link (0-1) stays intra-LP under the median bound.
        let d = |a: usize, b: usize| {
            if (a.min(b), a.max(b)) == (0, 1) {
                Time(500)
            } else {
                Time(3_000)
            }
        };
        b.add_node(Router {
            neighbors: vec![(prev, d(i, (i + N - 1) % N)), (next, d(i, (i + 1) % N))],
            checksum: 0,
            seen: 0,
        });
    }
    for i in 0..N {
        b.add_link(
            ids[i],
            ids[(i + 1) % N],
            if i == 0 { Time(500) } else { Time(3_000) },
        );
    }
    let mut seed_rng = Rng::new(0xFEED_F00D);
    for t in 0..32u64 {
        b.schedule(
            Time::from_nanos(t % 5),
            ids[(t as usize) % N],
            Token {
                id: t,
                rng: seed_rng.fork(t),
            },
        );
    }
    b.stop_at(Time(600_000));
    b.build()
}

type Digest = (Vec<(u64, u64)>, u64);

fn run(kernel_kind: KernelKind, partition: PartitionMode, sched: SchedConfig) -> Digest {
    let (w, report) = kernel::run(
        world(),
        &RunConfig {
            watchdog: Default::default(),
            kernel: kernel_kind,
            partition,
            sched,
            metrics: Default::default(),
            telemetry: Default::default(),
            fault: Default::default(),
        },
    )
    .unwrap();
    let sums: Vec<(u64, u64)> = w.nodes().map(|n| (n.checksum, n.seen)).collect();
    (sums, report.events)
}

fn partitioners() -> Vec<(&'static str, PartitionMode)> {
    vec![
        ("auto", PartitionMode::Auto),
        (
            "pipeline:median-cut",
            PartitionMode::Pipeline(PartitionPipeline::median_cut()),
        ),
        (
            "pipeline:refined",
            PartitionMode::Pipeline(PartitionPipeline::refined()),
        ),
    ]
}

/// The full matrix: per partitioner, every {threads} × {metric}
/// combination matches that partitioner's single-thread reference.
#[test]
fn every_thread_metric_combination_is_bit_identical() {
    for (pname, pmode) in partitioners() {
        let reference = run(
            KernelKind::Unison { threads: 1 },
            pmode.clone(),
            SchedConfig::default(),
        );
        assert!(reference.1 > 0, "{pname}: reference run executed no events");
        for threads in [1usize, 2, 4] {
            for metric in [SchedMetric::ByLastRoundTime, SchedMetric::ByPendingEvents] {
                let got = run(
                    KernelKind::Unison { threads },
                    pmode.clone(),
                    SchedConfig {
                        metric,
                        period: Some(4),
                        ..Default::default()
                    },
                );
                assert_eq!(
                    reference, got,
                    "digest mismatch: partitioner={pname} threads={threads} metric={metric:?}"
                );
            }
        }
    }
}

/// `PartitionPipeline::median_cut()` is the free function behind `Auto`, so
/// the two modes are digest-compatible (same LPs → same tie-break keys).
#[test]
fn median_cut_pipeline_digest_matches_auto() {
    let auto = run(
        KernelKind::Unison { threads: 2 },
        PartitionMode::Auto,
        SchedConfig::default(),
    );
    let pipe = run(
        KernelKind::Unison { threads: 2 },
        PartitionMode::Pipeline(PartitionPipeline::median_cut()),
        SchedConfig::default(),
    );
    assert_eq!(auto, pipe);
}

/// The hybrid kernel builds one claim cursor per host group; the number of
/// workers per host must not perturb results, and neither does the host
/// split itself (same partition → same digest as plain Unison).
#[test]
fn hybrid_kernel_is_thread_invariant() {
    let sched = SchedConfig {
        metric: SchedMetric::ByLastRoundTime,
        period: Some(4),
        ..Default::default()
    };
    let refined = || PartitionMode::Pipeline(PartitionPipeline::refined());
    let mk = |threads_per_host| {
        run(
            KernelKind::Hybrid {
                hosts: 2,
                threads_per_host,
            },
            refined(),
            sched,
        )
    };
    let reference = run(KernelKind::Unison { threads: 2 }, refined(), sched);
    assert_eq!(mk(1), reference);
    assert_eq!(mk(2), reference);
}

/// The asynchronous conservative kernel has no rounds to schedule, so its
/// matrix is {partitioner} × {threads}; every cell must match the
/// 1-thread compat-keys sequential digest exactly (DESIGN.md §4.8: keys
/// are preserved across channels, so the merge order *is* the sequential
/// order regardless of partition or thread count).
#[test]
fn async_cons_matrix_is_bit_identical_to_sequential() {
    let reference = run(
        KernelKind::Sequential { compat_keys: true },
        PartitionMode::Auto,
        SchedConfig::default(),
    );
    assert!(reference.1 > 0, "sequential reference executed no events");
    for (pname, pmode) in partitioners() {
        for threads in [1usize, 2, 4] {
            let got = run(
                KernelKind::AsyncCons { threads },
                pmode.clone(),
                SchedConfig::default(),
            );
            assert_eq!(
                reference, got,
                "digest mismatch: async_cons partitioner={pname} threads={threads}"
            );
        }
    }
}

/// The async kernel reports grant/stall/gate progress counters instead of
/// rounds (`rounds == 0`), with one stall-wait slot per worker.
#[test]
fn async_cons_reports_async_stats() {
    let (_, report) = kernel::run(world(), &RunConfig::async_cons(4)).unwrap();
    assert_eq!(report.kernel, "async_cons(4)");
    assert_eq!(report.rounds, 0, "async_cons has no rounds");
    let stats = report
        .async_stats
        .as_ref()
        .expect("async_cons populates RunReport::async_stats");
    assert!(stats.grants > 0, "no time-advance grants were issued");
    assert_eq!(
        stats.stall_wait_ns.len(),
        4,
        "one stall-wait slot per worker"
    );
    // Round-based kernels leave the field empty.
    let (_, unison) = kernel::run(world(), &RunConfig::unison(2)).unwrap();
    assert!(unison.async_stats.is_none());
    assert!(unison.rounds > 0);
}

/// The report surfaces the claim counters: the shared cursor names
/// itself, counts its claims and never steals.
#[test]
fn ljf_cursor_reports_claims() {
    let (_, ljf) = kernel::run(world(), &RunConfig::unison(4)).unwrap();
    assert_eq!(ljf.sched.policy, "ljf-cursor");
    assert_eq!(ljf.sched.steals, 0);
    assert!(ljf.sched.claims > 0);
}

/// Round fusion is a pure scheduling optimization: for every
/// {partitioner} × {threads} cell, the fusion-on digest is
/// bit-identical to the fusion-off digest (DESIGN.md §4.9 — a fused round
/// runs the same four phases through the same mailbox commit path, just
/// without waking the workers).
#[test]
fn fusion_on_off_digests_are_bit_identical() {
    for (pname, pmode) in partitioners() {
        for threads in [1usize, 2, 4] {
            let on = run(
                KernelKind::Unison { threads },
                pmode.clone(),
                SchedConfig::default(),
            );
            let off = run(
                KernelKind::Unison { threads },
                pmode.clone(),
                SchedConfig {
                    fusion: FusionConfig::off(),
                    ..Default::default()
                },
            );
            assert!(on.1 > 0, "{pname}: run executed no events");
            assert_eq!(
                on, off,
                "fusion changed the digest: partitioner={pname} threads={threads}"
            );
        }
    }
}

/// Fusion engages on this low-load workload, the report counts fused
/// rounds, and the per-round profile's `fused` flags agree with the
/// aggregate counter.
#[test]
fn fused_rounds_are_counted_and_profiled() {
    let (_, report) = kernel::run(world(), &RunConfig::unison(2).with_per_round_metrics()).unwrap();
    assert!(
        report.fused_rounds > 0,
        "fusion never engaged on a low-load workload (threshold too small?)"
    );
    assert!(
        report.fused_rounds < report.rounds,
        "cross-LP traffic must force at least one parallel round"
    );
    let profile = report.rounds_profile.as_ref().expect("per-round profile");
    let flagged = profile.iter().filter(|r| r.fused).count() as u64;
    assert_eq!(
        flagged, report.fused_rounds,
        "profile flags disagree with counter"
    );
    // Fusion off: the counter stays at zero and no round is flagged.
    let (_, off) = kernel::run(
        world(),
        &RunConfig::unison(2)
            .without_fusion()
            .with_per_round_metrics(),
    )
    .unwrap();
    assert_eq!(off.fused_rounds, 0);
    assert!(off
        .rounds_profile
        .as_ref()
        .expect("per-round profile")
        .iter()
        .all(|r| !r.fused));
}

/// The fallback contract: a cross-LP send landing inside a fused window
/// forces the *next* round back onto the parallel path (the kernel cannot
/// prove the drained events stay cheap, so it re-engages the workers for
/// exactly one round before re-evaluating). Pinned via the per-round
/// profile: every fused round that drained mailbox events is followed by
/// an unfused round, and the case actually occurs on this ring workload.
#[test]
fn cross_lp_send_in_fused_window_forces_parallel_fallback() {
    let (_, report) = kernel::run(world(), &RunConfig::unison(2).with_per_round_metrics()).unwrap();
    let profile = report.rounds_profile.as_ref().expect("per-round profile");
    let mut fused_with_recv = 0u64;
    for pair in profile.windows(2) {
        let recv: u64 = pair[0].lp_recv.iter().map(|&r| u64::from(r)).sum();
        if pair[0].fused && recv > 0 {
            fused_with_recv += 1;
            assert!(
                !pair[1].fused,
                "round after a fused round with {recv} cross-LP receive(s) \
                 (window {:?}..{:?}) must fall back to the parallel path",
                pair[0].window_start, pair[0].window_end
            );
        }
    }
    assert!(
        fused_with_recv > 0,
        "vacuous test: no fused round ever drained a cross-LP send on the \
         ring workload"
    );
}
