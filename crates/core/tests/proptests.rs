//! Property-based tests of the kernel's core data structures and
//! invariants.

use std::collections::BTreeMap;

use proptest::prelude::*;

use unison_core::sched::{ideal_makespan, lpt_makespan, order_by_estimate};
use unison_core::{
    fine_grained_partition, BalancedRefine, Event, EventKey, Fel, LinkGraph, LpId, MedianCut,
    NodeId, PartitionPipeline, Partitioner, Rng, Time,
};

/// Builds an arbitrary multigraph on `n` nodes from raw edge tuples
/// (self-loops dropped, endpoints folded into range) — the shared input
/// shape of the partition properties below.
fn build_graph(n: usize, edges: &[(usize, usize, u64)]) -> LinkGraph {
    let mut g = LinkGraph::new(n);
    for &(a, b, d) in edges {
        let (a, b) = (a % n, b % n);
        if a != b {
            g.add_link(NodeId(a as u32), NodeId(b as u32), Time(d));
        }
    }
    g
}

fn arb_key() -> impl Strategy<Value = EventKey> {
    (0u64..1_000, 0u64..1_000, 0u32..8, 0u64..10_000).prop_map(|(ts, sts, lp, seq)| EventKey {
        ts: Time(ts),
        sender_ts: Time(sts),
        sender_lp: LpId(lp),
        seq,
    })
}

/// One step of the differential FEL workload.
#[derive(Debug, Clone)]
enum FelOp {
    Push(EventKey),
    PushExternal(u64, u64),
    Extend(Vec<EventKey>),
    PopBelow(u64),
    PopN(usize),
}

/// Comparable identity of a popped event.
fn ident(ev: &Event<u64>) -> (EventKey, u64) {
    (ev.key, ev.payload)
}

/// One random step of the differential workload: a selector picks the op,
/// the remaining tuple slots feed whichever operands it needs. Batches
/// reach past the ladder's 64-event split threshold, so sequences mix
/// small re-primes sorted straight into the bottom tier with rung-building
/// ones and fold-backs of an overgrown rung-less bottom.
fn arb_op() -> impl Strategy<Value = FelOp> {
    (
        0u8..6,
        arb_key(),
        proptest::collection::vec(arb_key(), 0..160),
        0u64..1_200,
        1usize..20,
    )
        .prop_map(|(sel, key, batch, bound, n)| match sel {
            // Push one internal-keyed event.
            0 => FelOp::Push(key),
            // Push one external-keyed event (sentinel sender LP).
            1 => FelOp::PushExternal(key.ts.0, key.seq),
            // Bulk insert a batch (the receive-phase path).
            2 => FelOp::Extend(batch),
            // Drain everything strictly below a bound.
            3 => FelOp::PopBelow(bound),
            // A far-future outlier (the RTO-timer shape): a small re-prime
            // holding it sets a far horizon, so later pushes pile up in
            // the rung-less bottom until it folds back.
            4 => FelOp::PushExternal(1_000_000_000 + key.ts.0, key.seq),
            // Pop a few unconditionally.
            _ => FelOp::PopN(n),
        })
}

proptest! {
    /// The FEL pops events in exactly sorted key order.
    #[test]
    fn fel_pops_sorted(keys in proptest::collection::vec(arb_key(), 0..200)) {
        let mut fel: Fel<usize> = Fel::new();
        for (i, k) in keys.iter().enumerate() {
            fel.push(Event { key: *k, node: NodeId(0), payload: i });
        }
        let mut sorted = keys.clone();
        sorted.sort();
        let mut popped = Vec::new();
        while let Some(ev) = fel.pop() {
            popped.push(ev.key);
        }
        prop_assert_eq!(popped, sorted);
    }

    /// `count_below` agrees with a linear scan, and `pop_below` respects
    /// its bound.
    #[test]
    fn fel_bounds(keys in proptest::collection::vec(arb_key(), 0..100), bound in 0u64..1_200) {
        let mut fel: Fel<usize> = Fel::new();
        for (i, k) in keys.iter().enumerate() {
            fel.push(Event { key: *k, node: NodeId(0), payload: i });
        }
        let expected = keys.iter().filter(|k| k.ts < Time(bound)).count();
        prop_assert_eq!(fel.count_below(Time(bound)), expected);
        let mut n = 0;
        while let Some(ev) = fel.pop_below(Time(bound)) {
            prop_assert!(ev.key.ts < Time(bound));
            n += 1;
        }
        prop_assert_eq!(n, expected);
    }

    /// Differential suite for the ladder FEL (DESIGN.md §4.4): under an
    /// arbitrary interleaving of single pushes, bulk `extend` batches
    /// (external and internal tie-break keys alike), far-future outliers,
    /// and bounded / unbounded pops, the ladder must produce the exact pop
    /// sequence of a sorted-map reference — keys *and* payloads — across
    /// small re-primes, fold-backs and rungs, and agree with it on every
    /// query after every step.
    #[test]
    fn ladder_matches_sorted_reference(
        ops in proptest::collection::vec(arb_op(), 0..150)
    ) {
        let mut fel: Fel<u64> = Fel::new();
        let mut oracle: BTreeMap<EventKey, u64> = BTreeMap::new();
        let mut payload = 0u64;
        let mut mk = |mut key: EventKey| {
            payload += 1;
            // Keys in the real system are unique (per-sender seq counters,
            // DESIGN.md §4.1); disambiguate generated duplicates the same
            // way, since pop order among *equal* keys is unspecified (and
            // the oracle's map would merge them).
            key.seq = key.seq * 100_000 + payload;
            Event { key, node: NodeId(0), payload }
        };
        for op in ops {
            match op {
                FelOp::Push(k) => {
                    let ev = mk(k);
                    oracle.insert(ev.key, ev.payload);
                    fel.push(ev);
                }
                FelOp::PushExternal(ts, seq) => {
                    let ev = mk(EventKey::external(Time(ts), seq));
                    oracle.insert(ev.key, ev.payload);
                    fel.push(ev);
                }
                FelOp::Extend(keys) => {
                    let batch: Vec<Event<u64>> = keys.into_iter().map(&mut mk).collect();
                    oracle.extend(batch.iter().map(ident));
                    fel.extend(batch);
                }
                FelOp::PopBelow(bound) => loop {
                    let want = match oracle.first_key_value() {
                        Some((k, _)) if k.ts < Time(bound) => oracle.pop_first(),
                        _ => None,
                    };
                    let got = fel.pop_below(Time(bound));
                    prop_assert_eq!(got.as_ref().map(ident), want);
                    if want.is_none() {
                        break;
                    }
                },
                FelOp::PopN(n) => {
                    for _ in 0..n {
                        prop_assert_eq!(fel.pop().as_ref().map(ident), oracle.pop_first());
                    }
                }
            }
            prop_assert_eq!(fel.len(), oracle.len());
            prop_assert_eq!(
                fel.next_ts(),
                oracle.first_key_value().map_or(Time::MAX, |(k, _)| k.ts)
            );
            prop_assert_eq!(fel.peek_key(), oracle.first_key_value().map(|(k, _)| *k));
            prop_assert_eq!(
                fel.count_below(Time(500)),
                oracle.keys().filter(|k| k.ts < Time(500)).count()
            );
        }
        // Final full drain must agree too.
        loop {
            let want = oracle.pop_first();
            prop_assert_eq!(fel.pop().as_ref().map(ident), want);
            if want.is_none() {
                break;
            }
        }
    }

    /// Partition invariants on arbitrary graphs: LP ids are dense, every
    /// link below the (effective) bound is intra-LP, and the lookahead is
    /// the minimum inter-LP link delay.
    #[test]
    fn partition_invariants(
        n in 2usize..40,
        edges in proptest::collection::vec((0usize..40, 0usize..40, 0u64..10_000), 0..120),
    ) {
        let mut g = LinkGraph::new(n);
        for (a, b, d) in edges {
            let (a, b) = (a % n, b % n);
            if a != b {
                g.add_link(NodeId(a as u32), NodeId(b as u32), Time(d));
            }
        }
        let p = fine_grained_partition(&g);
        // Dense ids covering 0..lp_count.
        let mut seen = vec![false; p.lp_count as usize];
        for lp in &p.node_lp {
            prop_assert!(lp.0 < p.lp_count);
            seen[lp.index()] = true;
        }
        prop_assert!(seen.iter().all(|s| *s));
        // The effective bound: max(median, 1ns).
        let mut delays: Vec<u64> = g.live_links().map(|(_, l)| l.delay.0).collect();
        if !delays.is_empty() {
            delays.sort_unstable();
            let bound = delays[(delays.len() - 1) / 2].max(1);
            let mut min_cut = u64::MAX;
            for (_, l) in g.live_links() {
                let same = p.lp_of(l.a) == p.lp_of(l.b);
                if l.delay.0 < bound {
                    prop_assert!(same, "link below bound must be intra-LP");
                }
                if !same {
                    min_cut = min_cut.min(l.delay.0);
                }
            }
            prop_assert_eq!(p.lookahead.0, min_cut);
        }
    }

    /// Every pipeline partitioner output covers every node exactly once:
    /// dense LP ids, each node in exactly one LP's node list, at the index
    /// `node_lp` claims — for both the bare median-cut pipeline and the
    /// refined one (with `BalancedRefine` + `TopoPlace`).
    #[test]
    fn partitioner_covers_every_node_exactly_once(
        n in 2usize..40,
        edges in proptest::collection::vec((0usize..40, 0usize..40, 0u64..10_000), 0..120),
    ) {
        let g = build_graph(n, &edges);
        for pipeline in [PartitionPipeline::median_cut(), PartitionPipeline::refined()] {
            let p = pipeline.partition(&g);
            prop_assert_eq!(p.node_lp.len(), n);
            prop_assert_eq!(p.lp_nodes.len(), p.lp_count as usize);
            let mut covered = vec![0u32; n];
            for (lp, nodes) in p.lp_nodes.iter().enumerate() {
                prop_assert!(!nodes.is_empty(), "LP {} is empty", lp);
                for node in nodes {
                    covered[node.index()] += 1;
                    prop_assert_eq!(p.node_lp[node.index()], LpId(lp as u32));
                }
            }
            prop_assert!(covered.iter().all(|&c| c == 1), "node covered != once");
            if !p.affinity.is_empty() {
                // A placement stage ran: one rank per LP, forming a
                // permutation of 0..lp_count.
                let mut ranks: Vec<u32> = p.affinity.clone();
                ranks.sort_unstable();
                let expect: Vec<u32> = (0..p.lp_count).collect();
                prop_assert_eq!(ranks, expect);
            }
        }
    }

    /// `lp_channels` is exactly the cut of the partition: one entry per
    /// unordered LP pair joined by a live link, carrying the minimum delay
    /// among that pair's links, and the global lookahead is the minimum
    /// over the channels.
    #[test]
    fn lp_channel_lookaheads_match_min_cut_delay(
        n in 2usize..40,
        edges in proptest::collection::vec((0usize..40, 0usize..40, 0u64..10_000), 0..120),
    ) {
        let g = build_graph(n, &edges);
        let p = fine_grained_partition(&g);
        let mut expected: std::collections::BTreeMap<(u32, u32), u64> =
            std::collections::BTreeMap::new();
        for (_, l) in g.live_links() {
            let (pa, pb) = (p.lp_of(l.a), p.lp_of(l.b));
            if pa != pb {
                let key = (pa.0.min(pb.0), pa.0.max(pb.0));
                let e = expected.entry(key).or_insert(u64::MAX);
                *e = (*e).min(l.delay.0);
            }
        }
        let chans = p.lp_channels(&g);
        prop_assert_eq!(chans.len(), expected.len());
        for (a, b, d) in chans {
            prop_assert_eq!(expected.get(&(a.0, b.0)).copied(), Some(d.0));
        }
        let min_cut = expected.values().copied().min().unwrap_or(u64::MAX);
        prop_assert_eq!(p.lookahead.0, min_cut);
    }

    /// `BalancedRefine` never increases the maximum LP weight (node count)
    /// and never cuts a link finer than the median bound.
    #[test]
    fn balanced_refine_never_increases_max_lp_weight(
        n in 2usize..40,
        edges in proptest::collection::vec((0usize..40, 0usize..40, 0u64..10_000), 0..120),
    ) {
        use unison_core::{CutStage, RefineStage};
        let g = build_graph(n, &edges);
        let before = MedianCut.cut(&g);
        let max_before = before.lp_nodes.iter().map(Vec::len).max().unwrap_or(0);
        let mut after = before.clone();
        BalancedRefine.refine(&g, &mut after);
        let max_after = after.lp_nodes.iter().map(Vec::len).max().unwrap_or(0);
        prop_assert!(
            max_after <= max_before,
            "refine grew the heaviest LP: {} -> {}", max_before, max_after
        );
        // Fine links (below the effective median bound) must stay intra-LP,
        // exactly as the cut stage left them.
        let mut delays: Vec<u64> = g.live_links().map(|(_, l)| l.delay.0).collect();
        if !delays.is_empty() {
            delays.sort_unstable();
            let bound = delays[(delays.len() - 1) / 2].max(1);
            for (_, l) in g.live_links() {
                if l.delay.0 < bound {
                    prop_assert_eq!(after.lp_of(l.a), after.lp_of(l.b));
                }
            }
        }
        // The refined assignment is still a valid cover.
        let mut covered = vec![0u32; n];
        for (lp, nodes) in after.lp_nodes.iter().enumerate() {
            for node in nodes {
                covered[node.index()] += 1;
                prop_assert_eq!(after.node_lp[node.index()], LpId(lp as u32));
            }
        }
        prop_assert!(covered.iter().all(|&c| c == 1));
    }

    /// LPT makespan bounds: at least the largest job and the mean load, at
    /// most the total work; and never better than the exact-knowledge
    /// ideal by more than floating noise.
    #[test]
    fn lpt_bounds(
        jobs in proptest::collection::vec(0u64..10_000, 1..100),
        threads in 1usize..24,
    ) {
        let actual: Vec<f64> = jobs.iter().map(|&j| j as f64).collect();
        let order = order_by_estimate(&jobs);
        let ms = lpt_makespan(&order, &actual, threads);
        let total: f64 = actual.iter().sum();
        let max = actual.iter().cloned().fold(0.0, f64::max);
        prop_assert!(ms >= max - 1e-9);
        prop_assert!(ms >= total / threads as f64 - 1e-9);
        prop_assert!(ms <= total + 1e-9);
        let ideal = ideal_makespan(&actual, threads);
        prop_assert!(ms + 1e-9 >= ideal);
    }

    /// The deterministic RNG respects bounds and is reproducible.
    #[test]
    fn rng_bounds(seed in any::<u64>(), bound in 1u64..u64::MAX) {
        let mut a = Rng::new(seed);
        let mut b = Rng::new(seed);
        for _ in 0..50 {
            let x = a.next_below(bound);
            prop_assert!(x < bound);
            prop_assert_eq!(x, b.next_below(bound));
        }
    }

    /// Time arithmetic never panics on extreme values.
    #[test]
    fn time_saturating(a in any::<u64>(), b in any::<u64>()) {
        let (ta, tb) = (Time(a), Time(b));
        let _ = ta.saturating_add(tb);
        let _ = ta.saturating_sub(tb);
        let _ = ta.min(tb);
        let _ = ta.max(tb);
        prop_assert_eq!(ta.saturating_add(Time::ZERO), ta);
        prop_assert_eq!(ta.saturating_sub(Time::ZERO), ta);
    }
}

/// Determinism property at the kernel level: a token-routing world produces
/// identical checksums on 1 and 3 threads for arbitrary seeds/sizes.
mod kernel_determinism {
    use super::*;
    use unison_core::{kernel, RunConfig, SimCtx, SimNode, WorldBuilder};

    struct Router {
        neighbors: Vec<NodeId>,
        delay: Time,
        checksum: u64,
    }

    #[derive(Debug)]
    struct Token(Rng, u64);

    impl SimNode for Router {
        type Payload = Token;
        fn handle(&mut self, mut t: Token, ctx: &mut dyn SimCtx<Self>) {
            self.checksum = self
                .checksum
                .wrapping_mul(31)
                .wrapping_add(ctx.now().as_nanos())
                .wrapping_add(t.1);
            let next = self.neighbors[t.0.next_below(self.neighbors.len() as u64) as usize];
            ctx.schedule(self.delay, next, t);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn unison_thread_count_invariant(
            seed in any::<u64>(),
            n in 3usize..10,
            tokens in 1u64..8,
        ) {
            let build = || {
                let mut b = WorldBuilder::new();
                let delay = Time(1_000);
                for i in 0..n {
                    b.add_node(Router {
                        neighbors: vec![
                            NodeId(((i + 1) % n) as u32),
                            NodeId(((i + n - 1) % n) as u32),
                        ],
                        delay,
                        checksum: 0,
                    });
                }
                for i in 0..n {
                    b.add_link(NodeId(i as u32), NodeId(((i + 1) % n) as u32), delay);
                }
                let mut rng = Rng::new(seed);
                for t in 0..tokens {
                    b.schedule(Time(t), NodeId((t % n as u64) as u32), Token(rng.fork(t), t));
                }
                b.stop_at(Time(200_000));
                b.build()
            };
            let run = |threads| {
                let (w, r) = kernel::run(build(), &RunConfig::unison(threads)).unwrap();
                let sums: Vec<u64> = w.nodes().map(|n| n.checksum).collect();
                (sums, r.events)
            };
            prop_assert_eq!(run(1), run(3));
        }
    }
}
