//! Topology partitioning into logical processes.
//!
//! Implements the paper's Algorithm 1 (*Fine-Grained-Partition*): the
//! lookahead lower bound is the **median** link delay, every link whose delay
//! reaches the bound is logically cut, and each connected component of the
//! remaining graph becomes one LP. The resulting lookahead — the
//! synchronization window — is the minimum delay among cut links.
//!
//! Manual (static) partitions used by the PDES baselines are expressed as an
//! explicit node→LP assignment; their lookahead is computed the same way
//! (minimum delay among inter-LP links).
//!
//! Beyond the reference algorithm, partitioning is an extension point
//! (DESIGN.md §4.5): a [`Partitioner`] turns a [`LinkGraph`] into a
//! [`Partition`], and the staged [`PartitionPipeline`] composes one
//! [`CutStage`] (component discovery), any number of [`RefineStage`]s
//! (deterministic improvement passes such as [`BalancedRefine`]), and an
//! optional [`PlaceStage`] ([`TopoPlace`]) that attaches worker-affinity
//! hints for the scheduler. Every stage must be deterministic: the same
//! graph must always produce the same partition, because LP numbering feeds
//! the §5.2 tie-breaking keys and therefore the run digests.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::event::{LpId, NodeId};
use crate::graph::LinkGraph;
use crate::time::Time;

/// A partition of the topology into logical processes.
#[derive(Clone, Debug)]
pub struct Partition {
    /// LP assignment per node, indexed by `NodeId`.
    pub node_lp: Vec<LpId>,
    /// Number of LPs.
    pub lp_count: u32,
    /// Node ids per LP, in ascending node order (deterministic).
    pub lp_nodes: Vec<Vec<NodeId>>,
    /// Global lookahead: the minimum delay among inter-LP links, or
    /// [`Time::MAX`] when no link crosses LPs.
    pub lookahead: Time,
    /// Worker-affinity hint per LP: a stable locality rank (LPs with nearby
    /// ranks are topologically close and benefit from sharing a worker).
    /// Empty when no placement stage ran. The async_cons kernel uses it for
    /// static LP ownership; the Unison claim cursor ignores it. Affinity is
    /// a *hint*: it may only influence which worker executes an LP, never
    /// the simulation results.
    pub affinity: Vec<u32>,
}

impl Partition {
    /// LP of a node.
    #[inline]
    pub fn lp_of(&self, node: NodeId) -> LpId {
        self.node_lp[node.index()]
    }

    /// Sorted, deduplicated list of LP pairs joined by at least one live
    /// link, with the per-pair minimum delay (the channel lookahead used by
    /// the null-message kernel and for mailbox pre-allocation).
    pub fn lp_channels(&self, graph: &LinkGraph) -> Vec<(LpId, LpId, Time)> {
        let mut chans: Vec<(u32, u32, Time)> = Vec::new();
        for (_, l) in graph.live_links() {
            let (pa, pb) = (self.lp_of(l.a), self.lp_of(l.b));
            if pa != pb {
                let key = if pa.0 < pb.0 {
                    (pa.0, pb.0)
                } else {
                    (pb.0, pa.0)
                };
                chans.push((key.0, key.1, l.delay));
            }
        }
        chans.sort_unstable_by_key(|&(a, b, d)| (a, b, d));
        chans.dedup_by(|next, keep| {
            if next.0 == keep.0 && next.1 == keep.1 {
                // Entries are sorted by delay within a pair, so `keep`
                // already holds the minimum.
                true
            } else {
                false
            }
        });
        chans
            .into_iter()
            .map(|(a, b, d)| (LpId(a), LpId(b), d))
            .collect()
    }

    /// Recomputes the lookahead after a topology change (§4.2): minimum delay
    /// among live links crossing LPs. The LP structure itself is kept.
    pub fn recompute_lookahead(&mut self, graph: &LinkGraph) {
        let mut la = Time::MAX;
        for (_, l) in graph.live_links() {
            if self.lp_of(l.a) != self.lp_of(l.b) {
                la = la.min(l.delay);
            }
        }
        self.lookahead = la;
    }
}

/// Computes the median (lower median) of live link delays, the lookahead
/// lower bound of Algorithm 1. Returns `None` for a linkless graph.
fn median_delay(graph: &LinkGraph) -> Option<Time> {
    let mut delays: Vec<Time> = graph.live_links().map(|(_, l)| l.delay).collect();
    if delays.is_empty() {
        return None;
    }
    let mid = (delays.len() - 1) / 2;
    let (_, m, _) = delays.select_nth_unstable(mid);
    Some(*m)
}

/// Runs Algorithm 1: fine-grained partition.
///
/// Nodes joined by a live link whose delay is *below* the lookahead lower
/// bound (the median link delay) are merged into the same LP (breadth-first
/// flood); every remaining link is logically cut. Zero-delay links are never
/// cut — a zero lookahead would stall the window — so the effective bound is
/// `max(median, 1ns)`.
///
/// The traversal visits nodes in ascending id order, so LP numbering is
/// deterministic for a given topology.
///
/// # Examples
///
/// ```
/// use unison_core::{fine_grained_partition, LinkGraph, NodeId, Time};
///
/// // A chain 0-1-2-3 with uniform delays: every link is cut, one LP per node.
/// let mut g = LinkGraph::new(4);
/// for i in 0..3 {
///     g.add_link(NodeId(i), NodeId(i + 1), Time::from_micros(3));
/// }
/// let p = fine_grained_partition(&g);
/// assert_eq!(p.lp_count, 4);
/// assert_eq!(p.lookahead, Time::from_micros(3));
/// ```
pub fn fine_grained_partition(graph: &LinkGraph) -> Partition {
    let bound = median_delay(graph)
        .map(|m| m.max(Time(1)))
        .unwrap_or(Time(1));
    partition_below_bound(graph, bound)
}

/// Partition by flooding across links with delay strictly below `bound`.
/// Exposed separately so micro-benchmarks can sweep the granularity
/// (Fig. 12a explores manual granularities).
///
/// Degenerate bounds are made safe rather than rejected:
///
/// - a bound of zero is clamped to 1 ns, so zero-delay links are never cut —
///   a cut zero-delay link would put a zero-lookahead channel in the tables
///   and stall the synchronization window forever;
/// - a bound above the maximum delay merges every connected component into
///   one LP, yielding empty channel tables and a [`Time::MAX`] lookahead
///   (the single-LP fast path, valid by construction).
pub fn partition_below_bound(graph: &LinkGraph, bound: Time) -> Partition {
    let bound = bound.max(Time(1));
    let n = graph.node_count();
    let adj = graph.adjacency();
    let mut node_lp = vec![LpId(u32::MAX); n];
    let mut lp_count: u32 = 0;
    let mut queue = VecDeque::new();
    for start in 0..n {
        if node_lp[start] != LpId(u32::MAX) {
            continue;
        }
        let lp = LpId(lp_count);
        lp_count += 1;
        node_lp[start] = lp;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            for &(u, delay) in &adj[v] {
                if node_lp[u.index()] == LpId(u32::MAX) && delay < bound {
                    node_lp[u.index()] = lp;
                    queue.push_back(u.index());
                }
            }
        }
    }
    finish(graph, node_lp, lp_count)
}

/// Builds a partition from an explicit node→LP assignment (the manual,
/// static schemes used by the barrier and null-message baselines).
///
/// # Panics
///
/// Panics if `assignment.len()` differs from the graph's node count, or if
/// LP ids are not dense in `0..lp_count`.
pub fn manual_partition(graph: &LinkGraph, assignment: &[u32]) -> Partition {
    assert_eq!(
        assignment.len(),
        graph.node_count(),
        "assignment must cover every node"
    );
    let lp_count = assignment.iter().copied().max().map_or(0, |m| m + 1);
    let mut seen = vec![false; lp_count as usize];
    for &lp in assignment {
        seen[lp as usize] = true;
    }
    assert!(
        seen.iter().all(|s| *s),
        "LP ids must be dense in 0..lp_count"
    );
    let node_lp = assignment.iter().map(|&l| LpId(l)).collect();
    finish(graph, node_lp, lp_count)
}

/// A single-LP partition (the degenerate case used by the sequential kernel
/// for key compatibility checks and by Fig. 12a's coarsest granularity).
pub fn single_lp_partition(graph: &LinkGraph) -> Partition {
    let lp_count = if graph.node_count() == 0 { 0 } else { 1 };
    finish(graph, vec![LpId(0); graph.node_count()], lp_count)
}

fn finish(graph: &LinkGraph, node_lp: Vec<LpId>, lp_count: u32) -> Partition {
    let mut lp_nodes = vec![Vec::new(); lp_count as usize];
    for (i, lp) in node_lp.iter().enumerate() {
        lp_nodes[lp.index()].push(NodeId(i as u32));
    }
    let mut p = Partition {
        node_lp,
        lp_count,
        lp_nodes,
        lookahead: Time::MAX,
        affinity: Vec::new(),
    };
    p.recompute_lookahead(graph);
    p
}

/// Turns a topology into a [`Partition`].
///
/// Implementations must be deterministic (same graph → same partition; LP
/// numbering feeds the tie-breaking keys) and must produce a valid
/// partition: dense LP ids, every node covered exactly once, `lp_nodes` in
/// ascending node order, and a lookahead equal to the minimum cut-link
/// delay. The property tests in `crates/core/tests/proptests.rs` check
/// these obligations for the in-tree implementations.
pub trait Partitioner: std::fmt::Debug + Send + Sync {
    /// Computes the partition.
    fn partition(&self, graph: &LinkGraph) -> Partition;
    /// Display name (reports, bench tables).
    fn name(&self) -> String;
}

/// Stage 1 of a [`PartitionPipeline`]: discover LPs from scratch.
pub trait CutStage: std::fmt::Debug + Send + Sync {
    /// Produces the initial partition.
    fn cut(&self, graph: &LinkGraph) -> Partition;
    /// Short stage name.
    fn name(&self) -> &'static str;
}

/// Stage 2 of a [`PartitionPipeline`]: improve an existing partition in
/// place. A refine stage may move nodes between LPs but must keep LP ids
/// dense (no LP may become empty), keep `lp_nodes` consistent with
/// `node_lp`, and leave the lookahead recomputed.
pub trait RefineStage: std::fmt::Debug + Send + Sync {
    /// Refines `part` in place.
    fn refine(&self, graph: &LinkGraph, part: &mut Partition);
    /// Short stage name.
    fn name(&self) -> &'static str;
}

/// Stage 3 of a [`PartitionPipeline`]: assign each LP a worker-affinity
/// hint (a stable locality rank; see [`Partition::affinity`]). Placement
/// must not alter the partition itself.
pub trait PlaceStage: std::fmt::Debug + Send + Sync {
    /// Returns one rank per LP (`lp_count` entries).
    fn place(&self, graph: &LinkGraph, part: &Partition) -> Vec<u32>;
    /// Short stage name.
    fn name(&self) -> &'static str;
}

/// A staged partitioner: cut → refine* → place? (DESIGN.md §4.5).
///
/// Stages are shared behind [`Arc`] so a pipeline can live inside the
/// cloneable [`crate::PartitionMode`]. Equality compares *stage names* —
/// two pipelines are equal when they are built from the same stage
/// sequence, which is what configuration comparison needs.
#[derive(Clone, Debug)]
pub struct PartitionPipeline {
    cut: Arc<dyn CutStage>,
    refine: Vec<Arc<dyn RefineStage>>,
    place: Option<Arc<dyn PlaceStage>>,
}

impl PartitionPipeline {
    /// The reference pipeline: the median-delay cut alone. Produces exactly
    /// what [`fine_grained_partition`] produces (no affinity hints).
    pub fn median_cut() -> Self {
        PartitionPipeline {
            cut: Arc::new(MedianCut),
            refine: Vec::new(),
            place: None,
        }
    }

    /// The full default pipeline: [`MedianCut`] → [`BalancedRefine`] →
    /// [`TopoPlace`].
    pub fn refined() -> Self {
        PartitionPipeline::median_cut()
            .with_refine(Arc::new(BalancedRefine))
            .with_place(Arc::new(TopoPlace))
    }

    /// A pipeline starting from a custom cut stage.
    pub fn with_cut(cut: Arc<dyn CutStage>) -> Self {
        PartitionPipeline {
            cut,
            refine: Vec::new(),
            place: None,
        }
    }

    /// Appends a refine stage (stages run in insertion order).
    pub fn with_refine(mut self, stage: Arc<dyn RefineStage>) -> Self {
        self.refine.push(stage);
        self
    }

    /// Sets the placement stage (at most one; the last call wins).
    pub fn with_place(mut self, stage: Arc<dyn PlaceStage>) -> Self {
        self.place = Some(stage);
        self
    }

    /// The ordered stage names, e.g. `["median-cut", "balanced-refine",
    /// "topo-place"]`. This is also the identity used by `PartialEq`.
    pub fn stage_names(&self) -> Vec<&'static str> {
        let mut names = vec![self.cut.name()];
        names.extend(self.refine.iter().map(|s| s.name()));
        if let Some(p) = &self.place {
            names.push(p.name());
        }
        names
    }
}

impl PartialEq for PartitionPipeline {
    fn eq(&self, other: &Self) -> bool {
        self.stage_names() == other.stage_names()
    }
}

impl Eq for PartitionPipeline {}

impl Partitioner for PartitionPipeline {
    fn partition(&self, graph: &LinkGraph) -> Partition {
        let mut p = self.cut.cut(graph);
        for stage in &self.refine {
            stage.refine(graph, &mut p);
        }
        if let Some(place) = &self.place {
            p.affinity = place.place(graph, &p);
            debug_assert_eq!(
                p.affinity.len(),
                p.lp_count as usize,
                "placement must rank every LP"
            );
        }
        p
    }

    fn name(&self) -> String {
        self.stage_names().join("+")
    }
}

/// The reference cut: the paper's Algorithm 1 (median-delay fine-grained
/// partition), as a pipeline stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct MedianCut;

impl CutStage for MedianCut {
    fn cut(&self, graph: &LinkGraph) -> Partition {
        fine_grained_partition(graph)
    }

    fn name(&self) -> &'static str {
        "median-cut"
    }
}

/// K-way balance refinement: deterministic greedy node moves that shrink
/// the heaviest LP (weight = node count) without cutting sub-median links.
///
/// Each pass picks the heaviest LP (lowest id on ties) and tries to move
/// one of its nodes — in ascending node order — to an adjacent lighter LP.
/// A move is legal only when every link from the node back into its source
/// LP has a delay at or above the median bound (so the cut set gains no
/// sub-bound link and the lookahead cannot shrink below the bound) and the
/// target stays strictly below the current maximum even after gaining the
/// node. The maximum LP weight therefore never increases — the property
/// test `balanced_refine_never_increases_max_weight` pins this down.
#[derive(Clone, Copy, Debug, Default)]
pub struct BalancedRefine;

impl RefineStage for BalancedRefine {
    fn refine(&self, graph: &LinkGraph, part: &mut Partition) {
        let n = graph.node_count();
        let k = part.lp_count as usize;
        if k < 2 || n == 0 {
            return;
        }
        let bound = median_delay(graph)
            .map(|m| m.max(Time(1)))
            .unwrap_or(Time(1));
        let adj = graph.adjacency();
        let mut weight: Vec<u32> = part.lp_nodes.iter().map(|ns| ns.len() as u32).collect();
        // Each move strictly shrinks some heaviest LP, so the sorted weight
        // vector decreases lexicographically and the loop terminates; the
        // move cap is a belt-and-suspenders bound, not a correctness need.
        let mut moves = 0usize;
        while moves < n {
            // INVARIANT: k >= 2, so `weight` is non-empty.
            let wmax = *weight.iter().max().expect("k >= 2 LPs");
            if wmax < 2 {
                break;
            }
            let mut moved = false;
            'src: for src in 0..k {
                if weight[src] != wmax {
                    continue;
                }
                // Nodes are scanned in ascending id order: deterministic.
                for (v, adj_v) in adj.iter().enumerate() {
                    if part.node_lp[v].index() != src {
                        continue;
                    }
                    // Never cut a sub-bound link: every edge from `v` back
                    // into the source LP must carry at least the bound.
                    let splits_fine_link = adj_v
                        .iter()
                        .any(|&(u, d)| part.node_lp[u.index()].index() == src && d < bound);
                    if splits_fine_link {
                        continue;
                    }
                    // Candidate targets: adjacent LPs that stay strictly
                    // below the current max after gaining the node.
                    // Lightest wins; ties go to the lowest LP id.
                    let mut best: Option<usize> = None;
                    for &(u, _) in adj_v {
                        let dst = part.node_lp[u.index()].index();
                        if dst == src || weight[dst] + 1 >= wmax {
                            continue;
                        }
                        best = match best {
                            None => Some(dst),
                            Some(cur)
                                if weight[dst] < weight[cur]
                                    || (weight[dst] == weight[cur] && dst < cur) =>
                            {
                                Some(dst)
                            }
                            Some(cur) => Some(cur),
                        };
                    }
                    if let Some(dst) = best {
                        part.node_lp[v] = LpId(dst as u32);
                        weight[src] -= 1;
                        weight[dst] += 1;
                        moves += 1;
                        moved = true;
                        break 'src;
                    }
                }
            }
            if !moved {
                break;
            }
        }
        if moves > 0 {
            for nodes in part.lp_nodes.iter_mut() {
                nodes.clear();
            }
            for (i, lp) in part.node_lp.iter().enumerate() {
                part.lp_nodes[lp.index()].push(NodeId(i as u32));
            }
            part.recompute_lookahead(graph);
        }
    }

    fn name(&self) -> &'static str {
        "balanced-refine"
    }
}

/// Topology-locality placement: BFS over the LP channel graph from LP 0
/// (neighbors in ascending id order, restarting at the lowest unvisited LP
/// per component) assigns each LP its visit position as the affinity rank.
/// Adjacent LPs get nearby ranks, so a scheduler that blocks ranks onto
/// workers keeps cross-LP channels worker-local where possible.
#[derive(Clone, Copy, Debug, Default)]
pub struct TopoPlace;

impl PlaceStage for TopoPlace {
    fn place(&self, graph: &LinkGraph, part: &Partition) -> Vec<u32> {
        let k = part.lp_count as usize;
        let mut nbrs: Vec<Vec<u32>> = vec![Vec::new(); k];
        for (a, b, _) in part.lp_channels(graph) {
            nbrs[a.index()].push(b.0);
            nbrs[b.index()].push(a.0);
        }
        for l in nbrs.iter_mut() {
            l.sort_unstable();
            l.dedup();
        }
        let mut rank = vec![u32::MAX; k];
        let mut next: u32 = 0;
        let mut queue = VecDeque::new();
        for start in 0..k {
            if rank[start] != u32::MAX {
                continue;
            }
            rank[start] = next;
            next += 1;
            queue.push_back(start);
            while let Some(v) = queue.pop_front() {
                for &u in &nbrs[v] {
                    if rank[u as usize] == u32::MAX {
                        rank[u as usize] = next;
                        next += 1;
                        queue.push_back(u as usize);
                    }
                }
            }
        }
        rank
    }

    fn name(&self) -> &'static str {
        "topo-place"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Builds the illustration of §4.2: a two-level tree where bottom links
    /// have zero-ish delay and top links have a large delay.
    fn two_tier(bottom_delay: Time, top_delay: Time) -> LinkGraph {
        // Nodes: 0..4 hosts, 4..6 aggregation, 6 core.
        let mut g = LinkGraph::new(7);
        g.add_link(n(0), n(4), bottom_delay);
        g.add_link(n(1), n(4), bottom_delay);
        g.add_link(n(2), n(5), bottom_delay);
        g.add_link(n(3), n(5), bottom_delay);
        g.add_link(n(4), n(6), top_delay);
        g.add_link(n(5), n(6), top_delay);
        g
    }

    #[test]
    fn uniform_delays_yield_one_lp_per_node() {
        let g = two_tier(Time(3000), Time(3000));
        let p = fine_grained_partition(&g);
        assert_eq!(p.lp_count, 7);
        assert_eq!(p.lookahead, Time(3000));
    }

    #[test]
    fn low_bottom_delay_merges_racks() {
        // Median of [1,1,1,1,3000,3000] is 1 -> bound max(1,1)=1 -> links
        // with delay >= 1 are all cut... bottom delay must be 0 to merge.
        let g = two_tier(Time(0), Time(3000));
        let p = fine_grained_partition(&g);
        // Hosts merge with their aggregation switch; core is alone.
        assert_eq!(p.lp_count, 3);
        assert_eq!(p.lp_of(n(0)), p.lp_of(n(4)));
        assert_eq!(p.lp_of(n(1)), p.lp_of(n(4)));
        assert_ne!(p.lp_of(n(4)), p.lp_of(n(5)));
        assert_eq!(p.lookahead, Time(3000));
    }

    #[test]
    fn median_cut_merges_lower_half() {
        // Delays [10, 10, 100, 100]: lower median = 10, so the 10ns links
        // are NOT below the bound and everything is cut.
        let mut g = LinkGraph::new(5);
        g.add_link(n(0), n(1), Time(10));
        g.add_link(n(1), n(2), Time(10));
        g.add_link(n(2), n(3), Time(100));
        g.add_link(n(3), n(4), Time(100));
        let p = fine_grained_partition(&g);
        assert_eq!(p.lp_count, 5);
        // Delays [10, 10, 10, 100, 100]: lower median is 10 again.
        g.add_link(n(0), n(4), Time(10));
        let p = fine_grained_partition(&g);
        assert_eq!(p.lp_count, 5);
    }

    #[test]
    fn heterogeneous_delays_merge_below_median() {
        // Delays [1, 1, 1, 9, 9]: median 1 -> nothing below 1 is... the 1ns
        // links are not < 1, so all cut. Use [1,1,2,9,9]: median 2 -> the
        // 1ns links merge.
        let mut g = LinkGraph::new(6);
        g.add_link(n(0), n(1), Time(1));
        g.add_link(n(1), n(2), Time(1));
        g.add_link(n(2), n(3), Time(2));
        g.add_link(n(3), n(4), Time(9));
        g.add_link(n(4), n(5), Time(9));
        let p = fine_grained_partition(&g);
        assert_eq!(p.lp_of(n(0)), p.lp_of(n(1)));
        assert_eq!(p.lp_of(n(1)), p.lp_of(n(2)));
        assert_ne!(p.lp_of(n(2)), p.lp_of(n(3)));
        assert_eq!(p.lp_count, 4);
        assert_eq!(p.lookahead, Time(2));
    }

    #[test]
    fn lp_numbering_is_deterministic_and_dense() {
        let g = two_tier(Time(0), Time(3000));
        let p1 = fine_grained_partition(&g);
        let p2 = fine_grained_partition(&g);
        assert_eq!(p1.node_lp, p2.node_lp);
        let mut lps: Vec<u32> = p1.node_lp.iter().map(|l| l.0).collect();
        lps.sort_unstable();
        lps.dedup();
        assert_eq!(lps, (0..p1.lp_count).collect::<Vec<_>>());
    }

    #[test]
    fn manual_partition_lookahead() {
        let g = two_tier(Time(500), Time(3000));
        // Two pods + core in pod 0.
        let p = manual_partition(&g, &[0, 0, 1, 1, 0, 1, 0]);
        assert_eq!(p.lp_count, 2);
        // Inter-LP links: 5-6 (3000). 2-5,3-5 are internal to LP1, 4-6 internal to LP0.
        assert_eq!(p.lookahead, Time(3000));
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn manual_partition_requires_dense_ids() {
        let g = two_tier(Time(1), Time(2));
        manual_partition(&g, &[0, 0, 2, 2, 0, 2, 0]);
    }

    #[test]
    fn lp_channels_min_delay() {
        let mut g = LinkGraph::new(4);
        g.add_link(n(0), n(1), Time(5));
        g.add_link(n(0), n(2), Time(7));
        g.add_link(n(1), n(3), Time(9));
        let p = manual_partition(&g, &[0, 1, 1, 1]);
        let chans = p.lp_channels(&g);
        // LP0 -> LP1 via 0-1 (5) and 0-2 (7): min is 5. Link 1-3 is internal.
        assert_eq!(chans, vec![(LpId(0), LpId(1), Time(5))]);
    }

    #[test]
    fn recompute_lookahead_after_change() {
        let mut g = LinkGraph::new(2);
        let idx = g.add_link(n(0), n(1), Time(10));
        let mut p = manual_partition(&g, &[0, 1]);
        assert_eq!(p.lookahead, Time(10));
        g.set_delay(idx, Time(4));
        p.recompute_lookahead(&g);
        assert_eq!(p.lookahead, Time(4));
        g.remove_link(idx);
        p.recompute_lookahead(&g);
        assert_eq!(p.lookahead, Time::MAX);
    }

    #[test]
    fn empty_graph() {
        let g = LinkGraph::new(3);
        let p = fine_grained_partition(&g);
        assert_eq!(p.lp_count, 3);
        assert_eq!(p.lookahead, Time::MAX);
    }

    /// Regression (degenerate bound, low end): a zero bound must not cut
    /// zero-delay links — a cut zero-delay link would put a zero-lookahead
    /// channel in the tables and stall the window forever.
    #[test]
    fn zero_bound_never_cuts_zero_delay_links() {
        let g = two_tier(Time(0), Time(3000));
        let p = partition_below_bound(&g, Time(0));
        // Zero-delay bottom links merge (clamped bound 1ns); top links cut.
        assert_eq!(p.lp_count, 3);
        assert_eq!(p.lookahead, Time(3000));
        for (_, _, la) in p.lp_channels(&g) {
            assert!(la > Time(0), "channel lookahead must be positive");
        }
        // Same graph, explicit zero request: identical to the clamped form.
        assert_eq!(
            partition_below_bound(&g, Time(1)).node_lp,
            partition_below_bound(&g, Time(0)).node_lp
        );
    }

    /// Regression (degenerate bound, high end): a bound above the maximum
    /// delay merges the connected topology into one LP with an empty channel
    /// table and an infinite lookahead.
    #[test]
    fn bound_above_max_delay_yields_single_lp_tables() {
        let g = two_tier(Time(500), Time(3000));
        let p = partition_below_bound(&g, Time(1_000_000));
        assert_eq!(p.lp_count, 1);
        assert_eq!(p.lookahead, Time::MAX);
        assert!(p.lp_channels(&g).is_empty());
        let nodes: usize = p.lp_nodes.iter().map(|v| v.len()).sum();
        assert_eq!(nodes, 7);
    }

    #[test]
    fn median_cut_pipeline_matches_free_function() {
        let g = two_tier(Time(0), Time(3000));
        let reference = fine_grained_partition(&g);
        let p = PartitionPipeline::median_cut().partition(&g);
        assert_eq!(p.node_lp, reference.node_lp);
        assert_eq!(p.lookahead, reference.lookahead);
        assert!(p.affinity.is_empty(), "no placement stage, no hints");
    }

    #[test]
    fn balanced_refine_shrinks_heaviest_lp() {
        // A 6-node path with one fine link (0-1) and coarse links elsewhere.
        // Median of [1, 9, 9, 9, 9] is 9 -> bound 9: links below 9 merge.
        // Cut yields LPs {0,1}, {2}, {3}, {4}, {5}: max weight 2. Both nodes
        // of the heaviest LP are pinned by the fine 0-1 link (moving either
        // would cut it), so refine must leave the partition valid and the
        // max weight unchanged — no oscillation, no empty LPs.
        let mut g = LinkGraph::new(6);
        g.add_link(n(0), n(1), Time(1));
        g.add_link(n(1), n(2), Time(9));
        g.add_link(n(2), n(3), Time(9));
        g.add_link(n(3), n(4), Time(9));
        g.add_link(n(4), n(5), Time(9));
        let mut p = fine_grained_partition(&g);
        let max_before = p.lp_nodes.iter().map(|v| v.len()).max().unwrap();
        BalancedRefine.refine(&g, &mut p);
        let max_after = p.lp_nodes.iter().map(|v| v.len()).max().unwrap();
        assert!(max_after <= max_before);
        // Still a valid partition: every node exactly once, dense ids.
        let covered: usize = p.lp_nodes.iter().map(|v| v.len()).sum();
        assert_eq!(covered, 6);
        for (lp, nodes) in p.lp_nodes.iter().enumerate() {
            assert!(!nodes.is_empty(), "LP {lp} became empty");
            for &node in nodes {
                assert_eq!(p.node_lp[node.index()], LpId(lp as u32));
            }
        }
    }

    #[test]
    fn balanced_refine_moves_only_coarse_boundary_nodes() {
        // Star of coarse links around node 0, plus a fine cluster 0-1-2.
        // Median of [1, 1, 50, 50, 50, 50] is 50 (lower median of sorted
        // [1,1,50,50,50,50] at index 2)... delays sorted: 1,1,50,50,50,50;
        // mid index (6-1)/2 = 2 -> 50. Bound 50: the 1ns links merge ->
        // LP {0,1,2} plus singletons {3},{4},{5},{6}. Node 1 and 2 are
        // pinned by their fine link to node 0; node 0 is pinned by both.
        // The heaviest LP cannot shed, so refine must leave it intact.
        let mut g = LinkGraph::new(7);
        g.add_link(n(0), n(1), Time(1));
        g.add_link(n(0), n(2), Time(1));
        g.add_link(n(0), n(3), Time(50));
        g.add_link(n(0), n(4), Time(50));
        g.add_link(n(0), n(5), Time(50));
        g.add_link(n(0), n(6), Time(50));
        let mut p = fine_grained_partition(&g);
        assert_eq!(p.lp_count, 5);
        let before = p.node_lp.clone();
        BalancedRefine.refine(&g, &mut p);
        assert_eq!(p.node_lp, before, "pinned cluster must not be split");
    }

    #[test]
    fn topo_place_ranks_follow_channel_locality() {
        // Chain of 4 LPs: ranks must follow the chain from LP 0.
        let mut g = LinkGraph::new(4);
        g.add_link(n(0), n(1), Time(10));
        g.add_link(n(1), n(2), Time(10));
        g.add_link(n(2), n(3), Time(10));
        let p = manual_partition(&g, &[0, 1, 2, 3]);
        assert_eq!(TopoPlace.place(&g, &p), vec![0, 1, 2, 3]);
        // Disconnected LPs each start a new BFS component, in id order.
        let g2 = LinkGraph::new(4);
        let p2 = manual_partition(&g2, &[0, 1, 2, 3]);
        assert_eq!(TopoPlace.place(&g2, &p2), vec![0, 1, 2, 3]);
    }

    #[test]
    fn refined_pipeline_sets_affinity_and_is_deterministic() {
        let g = two_tier(Time(0), Time(3000));
        let pipe = PartitionPipeline::refined();
        let p1 = pipe.partition(&g);
        let p2 = pipe.partition(&g);
        assert_eq!(p1.node_lp, p2.node_lp);
        assert_eq!(p1.affinity, p2.affinity);
        assert_eq!(p1.affinity.len(), p1.lp_count as usize);
        // Ranks are a permutation of 0..lp_count.
        let mut ranks = p1.affinity.clone();
        ranks.sort_unstable();
        assert_eq!(ranks, (0..p1.lp_count).collect::<Vec<_>>());
    }

    #[test]
    fn pipeline_identity_is_its_stage_sequence() {
        assert_eq!(
            PartitionPipeline::refined().stage_names(),
            vec!["median-cut", "balanced-refine", "topo-place"]
        );
        assert_eq!(PartitionPipeline::refined(), PartitionPipeline::refined());
        assert_ne!(
            PartitionPipeline::refined(),
            PartitionPipeline::median_cut()
        );
        assert_eq!(
            PartitionPipeline::refined().name(),
            "median-cut+balanced-refine+topo-place"
        );
    }
}
