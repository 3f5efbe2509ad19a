//! Simulation kernels.
//!
//! Four interchangeable kernels execute a [`World`]:
//!
//! - [`sequential`]: classic single-threaded DES (the ns-3 default kernel in
//!   the paper's comparisons);
//! - [`barrier`]: conservative PDES with a static partition, one thread per
//!   LP, and global barrier synchronization per window (ns-3's distributed
//!   simulator);
//! - [`nullmsg`]: conservative PDES with Chandy–Misra–Bryant null messages
//!   between neighbor LPs;
//! - [`unison`]: the paper's kernel — automatic fine-grained partition,
//!   load-adaptive LP scheduling on a thread pool, lock-free four-phase
//!   rounds, deterministic tie-breaking, and public-LP global events.
//!
//! The model code is identical for all kernels (*user transparency*): pick a
//! kernel by configuration only.

pub mod async_cons;
pub mod barrier;
pub mod hybrid;
pub mod nullmsg;
pub mod sequential;
pub mod unison;
pub(crate) mod watchdog;

use crate::error::SimError;

use crate::event::{Event, EventKey, LpId, NodeId};
use crate::fault::FaultPlan;
use crate::fel::Fel;
use crate::global::GlobalFn;
use crate::lp::{LpState, PendingGlobal};
use crate::mailbox::Mailboxes;
use crate::metrics::{MetricsLevel, RunReport};
use crate::partition::{
    fine_grained_partition, manual_partition, partition_below_bound, single_lp_partition,
    Partition, PartitionPipeline, Partitioner,
};
use crate::sched::SchedConfig;
use crate::telemetry::TelemetryConfig;
// Shimmed so `RoundCtx` (shared with the Unison kernel) type-checks when the
// whole crate is compiled under `--cfg loom` for model checking.
use crate::sync_shim::{AtomicBool, Ordering};
use crate::time::Time;
use crate::world::{NodeDirectory, SimCtx, SimNode, World};

/// Which kernel executes the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KernelKind {
    /// Single-threaded DES. `compat_keys = false` reproduces ns-3's
    /// insertion-order tie-breaking; `true` uses Unison's deterministic
    /// tie-break keys, making results bit-identical to the Unison kernel.
    Sequential {
        /// Use Unison-compatible tie-break keys.
        compat_keys: bool,
    },
    /// Barrier-synchronized PDES, one thread pinned per LP.
    Barrier,
    /// Null-message (CMB) PDES, one thread pinned per LP.
    NullMessage,
    /// The Unison kernel with a worker pool of `threads`.
    Unison {
        /// Worker thread count (≥ 1). LPs are scheduled onto these threads
        /// adaptively each round.
        threads: usize,
    },
    /// The hybrid distributed kernel (§5.2): the topology is first divided
    /// into `hosts` coarse partitions synchronized with the barrier
    /// algorithm; inside each host a Unison instance runs `threads_per_host`
    /// workers over a fine-grained sub-partition.
    Hybrid {
        /// Number of simulated cluster hosts.
        hosts: usize,
        /// Unison worker threads per host.
        threads_per_host: usize,
    },
    /// The barrier-free asynchronous conservative kernel (DESIGN.md §4.8):
    /// `threads` workers each own a static set of LPs and advance them
    /// independently to per-neighbor channel-clock bounds, with lazy
    /// null-message grants instead of round barriers. Deterministic
    /// (digest-identical to the compat-keys sequential kernel) at any
    /// thread count; requires a stop time.
    AsyncCons {
        /// Worker thread count (≥ 1). LPs are statically assigned to
        /// workers (affinity hints when the partitioner provides them).
        threads: usize,
    },
}

impl KernelKind {
    /// Display name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            KernelKind::Sequential { compat_keys: false } => "sequential",
            KernelKind::Sequential { compat_keys: true } => "sequential(compat)",
            KernelKind::Barrier => "barrier",
            KernelKind::NullMessage => "nullmsg",
            KernelKind::Unison { .. } => "unison",
            KernelKind::Hybrid { .. } => "hybrid",
            KernelKind::AsyncCons { .. } => "async_cons",
        }
    }
}

/// How the topology is split into LPs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartitionMode {
    /// The paper's Algorithm 1 (median-delay fine-grained partition).
    Auto,
    /// Flood across links with delay strictly below the bound (granularity
    /// sweeps, Fig. 12a).
    Bound(Time),
    /// Explicit node → LP assignment (the baselines' manual schemes).
    Manual(Vec<u32>),
    /// Everything in one LP.
    SingleLp,
    /// A staged [`PartitionPipeline`] (cut → refine → place; DESIGN.md
    /// §4.5). `PartitionPipeline::median_cut()` reproduces [`PartitionMode::Auto`]
    /// exactly; `PartitionPipeline::refined()` adds balance refinement and
    /// worker-affinity placement.
    Pipeline(PartitionPipeline),
}

/// Round-progress watchdog configuration.
///
/// When `round_deadline` is set, the parallel kernels spawn a monitor
/// thread that aborts the run (via barrier poisoning / waker bumping) when
/// no synchronization round completes — and no null-message progress is
/// made — within the deadline, returning [`SimError::Stalled`] with a
/// diagnosis instead of hanging. Disabled by default: a deadline turns
/// wall-clock pauses (e.g. a suspended laptop) into run failures, so it is
/// opt-in. The sequential kernel ignores the watchdog (a single thread
/// cannot be preempted between events; see DESIGN.md §4.2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Maximum wall-clock time a synchronization round may take before the
    /// run is aborted as stalled. `None` disables the watchdog.
    pub round_deadline: Option<std::time::Duration>,
}

impl WatchdogConfig {
    /// A watchdog with the given per-round deadline.
    pub fn deadline(d: std::time::Duration) -> Self {
        WatchdogConfig {
            round_deadline: Some(d),
        }
    }
}

/// Full run configuration.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Kernel selection.
    pub kernel: KernelKind,
    /// Partitioning scheme.
    pub partition: PartitionMode,
    /// Scheduling heuristics (Unison kernel only).
    pub sched: SchedConfig,
    /// Instrumentation level.
    pub metrics: MetricsLevel,
    /// Round-progress watchdog (disabled by default).
    pub watchdog: WatchdogConfig,
    /// Span/decision telemetry recording (disabled by default; see
    /// DESIGN.md §4.3).
    pub telemetry: TelemetryConfig,
    /// Deterministic fault-injection plan (default: empty). Inert unless
    /// the `fault-inject` cargo feature compiled the kernel hooks in; see
    /// DESIGN.md §4.7.
    pub fault: FaultPlan,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig::sequential()
    }
}

impl RunConfig {
    /// A sequential run with ns-3-style insertion-order tie-breaking.
    pub fn sequential() -> Self {
        RunConfig {
            kernel: KernelKind::Sequential { compat_keys: false },
            partition: PartitionMode::SingleLp,
            sched: SchedConfig::default(),
            metrics: MetricsLevel::Summary,
            watchdog: WatchdogConfig::default(),
            telemetry: TelemetryConfig::default(),
            fault: FaultPlan::default(),
        }
    }

    /// A Unison run with `threads` workers and automatic partitioning.
    pub fn unison(threads: usize) -> Self {
        RunConfig {
            kernel: KernelKind::Unison { threads },
            partition: PartitionMode::Auto,
            sched: SchedConfig::default(),
            metrics: MetricsLevel::Summary,
            watchdog: WatchdogConfig::default(),
            telemetry: TelemetryConfig::default(),
            fault: FaultPlan::default(),
        }
    }

    /// An asynchronous-conservative run with `threads` workers and
    /// automatic partitioning (DESIGN.md §4.8). The world must carry a
    /// stop time (`WorldBuilder::stop_at`).
    pub fn async_cons(threads: usize) -> Self {
        RunConfig {
            kernel: KernelKind::AsyncCons { threads },
            partition: PartitionMode::Auto,
            sched: SchedConfig::default(),
            metrics: MetricsLevel::Summary,
            watchdog: WatchdogConfig::default(),
            telemetry: TelemetryConfig::default(),
            fault: FaultPlan::default(),
        }
    }

    /// A barrier-PDES run over a manual partition.
    pub fn barrier(assignment: Vec<u32>) -> Self {
        RunConfig {
            kernel: KernelKind::Barrier,
            partition: PartitionMode::Manual(assignment),
            sched: SchedConfig::default(),
            metrics: MetricsLevel::Summary,
            watchdog: WatchdogConfig::default(),
            telemetry: TelemetryConfig::default(),
            fault: FaultPlan::default(),
        }
    }

    /// A null-message-PDES run over a manual partition.
    pub fn nullmsg(assignment: Vec<u32>) -> Self {
        RunConfig {
            kernel: KernelKind::NullMessage,
            partition: PartitionMode::Manual(assignment),
            sched: SchedConfig::default(),
            metrics: MetricsLevel::Summary,
            watchdog: WatchdogConfig::default(),
            telemetry: TelemetryConfig::default(),
            fault: FaultPlan::default(),
        }
    }

    /// Enables per-round profiling (input to the virtual-core model).
    pub fn with_per_round_metrics(mut self) -> Self {
        self.metrics = MetricsLevel::PerRound;
        self
    }

    /// Overrides the scheduling configuration.
    pub fn with_sched(mut self, sched: SchedConfig) -> Self {
        self.sched = sched;
        self
    }

    /// Overrides the round-fusion configuration (Unison/hybrid kernels;
    /// DESIGN.md §4.9). Results are bit-identical with fusion on or off —
    /// only barrier-crossing counts and wall-clock change.
    pub fn with_fusion(mut self, fusion: crate::sched::FusionConfig) -> Self {
        self.sched.fusion = fusion;
        self
    }

    /// Disables round fusion (every round crosses the phase barriers).
    pub fn without_fusion(mut self) -> Self {
        self.sched.fusion = crate::sched::FusionConfig::off();
        self
    }

    /// Sets the worker→core pinning policy (default off). Placement only:
    /// pinning never affects simulation results.
    pub fn with_pinning(mut self, pin: crate::pin::PinPolicy) -> Self {
        self.sched.pin = pin;
        self
    }

    /// Partitions the topology through a staged [`PartitionPipeline`]
    /// instead of the built-in modes (DESIGN.md §4.5).
    pub fn with_partitioner(mut self, pipeline: PartitionPipeline) -> Self {
        self.partition = PartitionMode::Pipeline(pipeline);
        self
    }

    /// Enables the round-progress watchdog with the given per-round
    /// wall-clock deadline.
    pub fn with_watchdog(mut self, round_deadline: std::time::Duration) -> Self {
        self.watchdog = WatchdogConfig::deadline(round_deadline);
        self
    }

    /// Enables span/decision telemetry recording with default capacities
    /// (provably non-perturbing; see DESIGN.md §4.3).
    pub fn with_telemetry(mut self) -> Self {
        self.telemetry = TelemetryConfig::enabled();
        self
    }

    /// Overrides the full telemetry configuration.
    pub fn with_telemetry_config(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Attaches a deterministic fault-injection plan (DESIGN.md §4.7).
    /// Without the `fault-inject` cargo feature the plan is carried but
    /// never consulted — the kernel hooks are compiled out.
    pub fn with_faults(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }
}

/// Errors surfaced before a run starts.
#[derive(Debug, PartialEq, Eq)]
pub enum KernelError {
    /// The chosen baseline kernel cannot execute global events (topology
    /// changes etc.); only Unison and the sequential kernel support them.
    GlobalEventsUnsupported(&'static str),
    /// A partition parameter is inconsistent with the world.
    InvalidPartition(String),
    /// A kernel parameter is out of range.
    InvalidConfig(String),
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::GlobalEventsUnsupported(k) => {
                write!(f, "kernel `{k}` does not support global events; use Unison")
            }
            KernelError::InvalidPartition(m) => write!(f, "invalid partition: {m}"),
            KernelError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
        }
    }
}

impl std::error::Error for KernelError {}

/// Runs `world` under `cfg`, returning the final world (with all node state,
/// e.g. statistics) and a [`RunReport`].
///
/// This is the legacy infallible entry point: configuration errors are
/// reported as [`KernelError`], but a contained worker panic or a watchdog
/// abort (see [`try_run`]) re-panics on the calling thread, carrying the
/// full diagnostic string. Use [`try_run`] to receive those as values.
pub fn run<N: SimNode>(
    world: World<N>,
    cfg: &RunConfig,
) -> Result<(World<N>, RunReport), KernelError> {
    match try_run(world, cfg) {
        Ok(out) => Ok(out),
        Err(SimError::Config(e)) => Err(e),
        Err(e) => panic!("{e}"),
    }
}

/// Runs `world` under `cfg`, returning every failure — including contained
/// worker panics and watchdog aborts — as a structured [`SimError`].
///
/// On [`SimError::WorkerPanic`] and [`SimError::Stalled`] the surviving
/// workers have been drained via barrier poisoning and joined; the error
/// carries the diagnostics plus the partial [`RunReport`] accumulated up to
/// the abort. The world is consumed (its node state may be mid-event and is
/// not returned).
pub fn try_run<N: SimNode>(
    world: World<N>,
    cfg: &RunConfig,
) -> Result<(World<N>, RunReport), SimError> {
    match &cfg.kernel {
        KernelKind::Sequential { compat_keys } => sequential::run(world, cfg, *compat_keys),
        KernelKind::Barrier => barrier::run(world, cfg),
        KernelKind::NullMessage => nullmsg::run(world, cfg),
        KernelKind::Unison { threads } => unison::run(world, cfg, *threads),
        KernelKind::Hybrid {
            hosts,
            threads_per_host,
        } => hybrid::run(world, cfg, *hosts, *threads_per_host),
        KernelKind::AsyncCons { threads } => async_cons::run(world, cfg, *threads),
    }
}

/// Builds the configured partition for a world.
pub(crate) fn build_partition<N: SimNode>(
    world: &World<N>,
    mode: &PartitionMode,
) -> Result<Partition, KernelError> {
    let graph = &world.graph;
    let p = match mode {
        PartitionMode::Auto => fine_grained_partition(graph),
        PartitionMode::Bound(bound) => partition_below_bound(graph, *bound),
        PartitionMode::SingleLp => single_lp_partition(graph),
        PartitionMode::Pipeline(pipeline) => pipeline.partition(graph),
        PartitionMode::Manual(assign) => {
            if assign.len() != graph.node_count() {
                return Err(KernelError::InvalidPartition(format!(
                    "assignment covers {} nodes, world has {}",
                    assign.len(),
                    graph.node_count()
                )));
            }
            manual_partition(graph, assign)
        }
    };
    Ok(p)
}

/// Everything a kernel needs from a dismantled world: per-LP states, the
/// node directory, the link graph, pending global events, the stop time,
/// and the starting external sequence number (non-zero after a restore).
pub(crate) type BuiltLps<N> = (
    Vec<LpState<N>>,
    NodeDirectory,
    crate::graph::LinkGraph,
    Vec<(Time, GlobalFn<N>)>,
    Option<Time>,
    u64,
);

/// Distributes a world's nodes and initial events into per-LP states.
pub(crate) fn build_lps<N: SimNode>(world: World<N>, partition: &Partition) -> BuiltLps<N> {
    let World {
        nodes,
        graph,
        init_events,
        init_globals,
        stop_at,
        restored_lp_seqs,
        restored_ext_seq,
    } = world;
    let directory = NodeDirectory::from_lp_nodes(nodes.len(), &partition.lp_nodes);
    let mut lps: Vec<LpState<N>> = (0..partition.lp_count)
        .map(|i| LpState::new(LpId(i)))
        .collect();
    // Nodes move into their LPs in ascending node order (matching
    // `Partition::lp_nodes` and the directory's local indices).
    for (i, node) in nodes.into_iter().enumerate() {
        let (lp, local) = directory.locate(NodeId(i as u32));
        debug_assert_eq!(lps[lp.index()].nodes.len(), local as usize);
        lps[lp.index()].nodes.push(node);
    }
    for ev in init_events {
        let (lp, _) = directory.locate(ev.node);
        lps[lp.index()].fel.push(ev);
    }
    // Checkpoint restore: sequence counters continue where the saved run
    // stopped, so post-resume events get the same tie-break keys the
    // uninterrupted run would have assigned. The caller is responsible for
    // resuming under the saved partition (LP counts must line up).
    if let Some(seqs) = restored_lp_seqs {
        assert_eq!(
            seqs.len(),
            lps.len(),
            "restored world must run under its original partition \
             (checkpoint had {} LPs, this partition has {})",
            seqs.len(),
            lps.len()
        );
        for (lp, seq) in lps.iter_mut().zip(seqs) {
            lp.seq = seq;
        }
    }
    for lp in &mut lps {
        lp.refresh_next_ts();
    }
    let globals = init_globals.into_iter().map(|g| (g.ts, g.f)).collect();
    (lps, directory, graph, globals, stop_at, restored_ext_seq)
}

/// Reassembles a [`World`] from finished LP states (nodes return to their
/// original ascending-id order; event lists are dropped).
pub(crate) fn reassemble_world<N: SimNode>(
    lps: Vec<LpState<N>>,
    partition: &Partition,
    graph: crate::graph::LinkGraph,
    stop_at: Option<Time>,
) -> World<N> {
    let node_count: usize = partition.lp_nodes.iter().map(|v| v.len()).sum();
    let mut slots: Vec<Option<N>> = (0..node_count).map(|_| None).collect();
    for (lp_idx, lp) in lps.into_iter().enumerate() {
        for (local, node) in lp.nodes.into_iter().enumerate() {
            let id = partition.lp_nodes[lp_idx][local];
            slots[id.index()] = Some(node);
        }
    }
    World {
        nodes: slots
            .into_iter()
            // INVARIANT: `partition.lp_nodes` covers every node id exactly
            // once (checked when the partition is built), so the loop above
            // filled each slot.
            .map(|n| n.expect("every node slot filled"))
            .collect(),
        graph,
        init_events: Vec::new(),
        init_globals: Vec::new(),
        stop_at,
        restored_lp_seqs: None,
        restored_ext_seq: 0,
    }
}

/// The [`SimCtx`] implementation used by the round-based kernels (Unison and
/// the instrumented single-thread engine). Borrows disjoint fields of the
/// current [`LpState`] so the executing node and the scheduler can coexist.
pub(crate) struct RoundCtx<'a, N: SimNode> {
    pub now: Time,
    pub self_node: NodeId,
    pub lp_id: LpId,
    pub window_end: Time,
    pub fel: &'a mut Fel<N::Payload>,
    pub seq: &'a mut u64,
    pub outflow: &'a mut Vec<Event<N::Payload>>,
    pub pending_globals: &'a mut Vec<PendingGlobal<N>>,
    pub dir: &'a NodeDirectory,
    pub mailboxes: Option<&'a Mailboxes<N::Payload>>,
    pub stop_flag: &'a AtomicBool,
}

impl<N: SimNode> SimCtx<N> for RoundCtx<'_, N> {
    fn now(&self) -> Time {
        self.now
    }

    fn self_node(&self) -> NodeId {
        self.self_node
    }

    fn schedule(&mut self, delay: Time, target: NodeId, payload: N::Payload) {
        let ts = self.now.saturating_add(delay);
        let key = EventKey {
            ts,
            sender_ts: self.now,
            sender_lp: self.lp_id,
            seq: *self.seq,
        };
        *self.seq += 1;
        let ev = Event {
            key,
            node: target,
            payload,
        };
        let dst = self.dir.lp_of(target);
        if dst == self.lp_id {
            self.fel.push(ev);
            return;
        }
        // Causality: a cross-LP event may not land inside the current
        // window — guaranteed when the model routes packets across cut
        // links with at least the link's propagation delay (≥ lookahead).
        debug_assert!(
            ts >= self.window_end,
            "cross-LP event at {ts:?} lands inside the current window \
             (ends {:?}); the scheduling delay must be >= the lookahead",
            self.window_end
        );
        match self.mailboxes {
            Some(m) => {
                if let Err(ev) = m.try_push(self.lp_id.0, dst.0, ev) {
                    self.outflow.push(ev);
                }
            }
            None => self.outflow.push(ev),
        }
    }

    fn schedule_global(&mut self, delay: Time, f: GlobalFn<N>) {
        // Global events run on the public LP no earlier than the end of the
        // current window; the kernel clamps the timestamp accordingly (the
        // paper's model only creates globals before the run or from other
        // globals, where no clamping ever applies).
        let ts = self.now.saturating_add(delay);
        self.pending_globals.push(PendingGlobal {
            ts,
            sender_ts: self.now,
            f,
        });
    }

    fn request_stop(&mut self) {
        self.stop_flag.store(true, Ordering::Release);
    }
}
