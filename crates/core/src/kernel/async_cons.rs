//! The asynchronous conservative kernel (`KernelKind::AsyncCons`):
//! barrier-free PDES with channel clocks, time-advance grants and a
//! deterministic k-way merge (ROADMAP item 2).
//!
//! Unlike the Unison kernel there is **no round barrier**: a fixed pool of
//! `threads` workers each owns a static set of LPs and advances every owned
//! LP to the bound implied by its in-neighbors' *channel clocks* (the last
//! granted timestamp on each directed channel). A worker that can make no
//! progress parks on a per-worker condvar until a neighbor's grant or event
//! delivery wakes it — null-message-style grants are published lazily
//! (`fetch_max` no-ops unless the promise actually rose) and a wake-up is
//! only issued when a channel would otherwise keep its receiver stalled.
//!
//! Determinism (DESIGN.md §4.8): cross-LP events travel through the pooled
//! per-channel [`Mailboxes`] queues **with their original tie-break keys**
//! (assigned from the sender's per-LP monotone counter, exactly as the
//! Unison and compat-keys sequential kernels assign them). Each LP merges
//! its in-channel deliveries through a deterministic k-way [`Merger`] keyed
//! by the §5.2 `(timestamp, sender-time, sender-LP, seq)` order and pops
//! its FEL in full-key order, so every LP processes the *same event
//! sequence in the same order* at any thread count — digests are
//! bit-identical to the 1-thread sequential reference.
//!
//! Global events (including checkpoint writes) execute on the main thread
//! at *quiesced virtual-time fronts*: `gate_ts` holds the timestamp of the
//! next pending global; workers treat it as a hard processing bound, and
//! once every worker has advanced all of its LPs to the gate they
//! rendezvous on a condvar. The main thread then has exclusive world
//! access (every worker is parked), executes all due globals, republishes
//! the gate and releases the workers. Between gates there is no global
//! synchronization of any kind.
//!
//! A zero-lookahead cycle with pending events below the gate can neither
//! progress nor reach the gate; the round-progress watchdog converts that
//! silence into [`SimError::Stalled`] with a cycle walk over the channel
//! clocks captured at abort time (same diagnosis as the null-message
//! kernel). A worker panic is contained: the failing worker poisons its
//! out-channels to `u64::MAX`, raises the stop flag and wakes everyone, so
//! the run drains out with [`SimError::WorkerPanic`] diagnostics.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use crate::error::{
    panic_message, record_failure, FailureDiagnostics, RunPhase, SimError, StallDiagnostics,
};
use crate::event::{Event, EventKey, LpId, NodeId};
use crate::fel::Fel;
use crate::global::{CkptEnv, GlobalFn, WorldAccess};
use crate::lp::LpSlots;
use crate::mailbox::Mailboxes;
use crate::metrics::{AsyncStats, EngineStats, LpTotals, Psm, RunReport, SchedStats};
use crate::sync_shim::CachePadded;
use crate::telemetry::{SpanKind, TelContext, WorkerTel, NO_LP};
use crate::time::Time;
use crate::world::{NodeDirectory, SimCtx, SimNode, World};

use super::watchdog::Watchdog;
use super::{build_lps, build_partition, reassemble_world, KernelError, RunConfig};

// ---------------------------------------------------------------------------
// Wake-up plumbing
// ---------------------------------------------------------------------------

/// Wake-up channel for one worker: version counter + condvar. The version
/// is bumped *after* the input change it publishes (under the same lock a
/// sleeper re-checks under), so wake-ups are never lost.
struct Waker {
    version: Mutex<u64>,
    cond: Condvar,
}

impl Waker {
    fn new() -> Self {
        Waker {
            version: Mutex::new(0),
            cond: Condvar::new(),
        }
    }

    /// Signals the owning worker that some input changed.
    fn bump(&self) {
        // A poisoned lock (a bumper panicked mid-bump) must not take the
        // containment path down with it: the counter is a plain u64.
        let mut v = self.version.lock().unwrap_or_else(|e| e.into_inner());
        *v += 1;
        self.cond.notify_all();
    }
}

/// Rendezvous state for the quiesced virtual-time front.
struct GateState {
    /// Incremented by the main thread each time it republishes the gate;
    /// workers wait for the epoch to move past their arrival.
    epoch: u64,
    /// Workers that have arrived at the current gate in this epoch.
    arrived: usize,
}

/// The gate condvar: workers arrive when every owned LP has quiesced at
/// `gate_ts`; the main thread waits for `arrived == threads`, then holds
/// the state lock through its entire exclusive global window (arrived
/// workers are parked in `cond` waits, so they cannot touch the world
/// until the lock is released).
struct Gate {
    state: Mutex<GateState>,
    cond: Condvar,
}

// ---------------------------------------------------------------------------
// Deterministic k-way merge
// ---------------------------------------------------------------------------

/// Deterministic k-way merger for in-channel event deliveries.
///
/// Each in-channel drains into its own run; `merge_into` produces the runs'
/// union in ascending full §5.2 event-key order. Keys are globally unique
/// (sender LP + per-sender monotone sequence), so the merged order is a
/// pure function of the event set — independent of arrival interleaving,
/// channel order and thread count.
pub(crate) struct Merger<P> {
    runs: Vec<Vec<Event<P>>>,
    k: usize,
}

impl<P> Merger<P> {
    pub(crate) fn new() -> Self {
        Merger {
            runs: Vec::new(),
            k: 0,
        }
    }

    /// Starts a merge over `k` runs (buffers are reused across calls).
    pub(crate) fn begin(&mut self, k: usize) {
        if self.runs.len() < k {
            self.runs.resize_with(k, Vec::new);
        }
        for r in &mut self.runs[..k] {
            r.clear();
        }
        self.k = k;
    }

    /// The input buffer for run `j` (one per in-channel).
    pub(crate) fn run_mut(&mut self, j: usize) -> &mut Vec<Event<P>> {
        &mut self.runs[j]
    }

    /// Total events across all runs.
    pub(crate) fn total(&self) -> usize {
        self.runs[..self.k].iter().map(|r| r.len()).sum()
    }

    /// Merges all runs into `out` in ascending full-key order, draining the
    /// run buffers (their capacity is retained for reuse).
    ///
    /// Keys are globally unique (sender LP + per-sender monotone sequence),
    /// so the sorted order of the runs' union *is* the k-way merged order —
    /// the merge is one concatenation plus one sort by the full key. On the
    /// hot path this beats k per-run sorts followed by a cursor min-scan:
    /// within one channel a sender's deliveries arrive FIFO in *send* order
    /// (each send's delay differs), so per-run pre-sorting buys nothing the
    /// final sort does not already do.
    pub(crate) fn merge_into(&mut self, out: &mut Vec<Event<P>>) {
        for r in &mut self.runs[..self.k] {
            out.append(r);
        }
        out.sort_unstable_by_key(|e| e.key);
    }
}

// ---------------------------------------------------------------------------
// Scheduling context
// ---------------------------------------------------------------------------

/// [`SimCtx`] for the asynchronous conservative kernel.
///
/// Keys are assigned exactly as the Unison kernel's `RoundCtx` assigns them
/// (per-LP monotone `seq`, §5.2 tie-break fields) and travel unmodified, so
/// the merged processing order matches the sequential reference. Cross-LP
/// sends must follow a topology channel and respect its lookahead; there is
/// no overflow path (no main-thread routing phase exists to forward one),
/// so an off-channel send is a model error and panics (contained).
struct AsyncCtx<'a, N: SimNode> {
    now: Time,
    self_node: NodeId,
    lp_id: LpId,
    fel: &'a mut Fel<N::Payload>,
    seq: &'a mut u64,
    dir: &'a NodeDirectory,
    mailboxes: &'a Mailboxes<N::Payload>,
    stop_flag: &'a AtomicBool,
    /// This LP's out-channels as `(dst LP, channel index)`, sorted by dst.
    out_pair: &'a [(u32, usize)],
    /// Per-channel lookahead (atomic: the main thread rewrites these inside
    /// its exclusive gate window after a topology mutation).
    chan_la: &'a [CachePadded<AtomicU64>],
    /// Destination LPs sent to while processing this LP (for wake-ups).
    touched: &'a mut Vec<u32>,
}

impl<N: SimNode> SimCtx<N> for AsyncCtx<'_, N> {
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
        let i = match self.out_pair.binary_search_by_key(&dst.0, |&(d, _)| d) {
            Ok(i) => i,
            Err(_) => panic!(
                "async_cons: no channel between LP {} and LP {}; cross-LP \
                 events must follow topology links",
                self.lp_id.0, dst.0
            ),
        };
        // Causality: the send may not undercut this channel's published
        // promise — guaranteed when the delay covers the link lookahead.
        debug_assert!(
            ts >= self.now.saturating_add(Time(
                self.chan_la[self.out_pair[i].1].load(Ordering::Relaxed)
            )),
            "cross-LP event at {ts:?} undercuts the channel lookahead \
             (sent from {:?}); the scheduling delay must be >= the link delay",
            self.now
        );
        if self.mailboxes.try_push(self.lp_id.0, dst.0, ev).is_err() {
            // INVARIANT: mailboxes are built from the same channel list as
            // `out_pair`, so a present pair always has a queue.
            panic!(
                "async_cons: mailbox missing for channel {} -> {}",
                self.lp_id.0, dst.0
            );
        }
        if !self.touched.contains(&dst.0) {
            self.touched.push(dst.0);
        }
    }

    fn schedule_global(&mut self, _delay: Time, _f: GlobalFn<N>) {
        panic!(
            "async_cons does not support global events scheduled from node \
             handlers (no per-round routing phase exists to collect them); \
             schedule globals before the run or from other globals, or use \
             the Unison kernel"
        );
    }

    fn request_stop(&mut self) {
        self.stop_flag.store(true, Ordering::Release);
    }
}

/// Per-worker completion record.
struct WorkerDone {
    psm: Psm,
    end_time: Time,
    iterations: u64,
    grants: u64,
    stalls: u64,
    stall_wait_ns: u64,
    tel: WorkerTel,
}

// ---------------------------------------------------------------------------
// The kernel
// ---------------------------------------------------------------------------

pub(super) fn run<N: SimNode>(
    world: World<N>,
    cfg: &RunConfig,
    threads: usize,
) -> Result<(World<N>, RunReport), SimError> {
    if threads == 0 {
        return Err(KernelError::InvalidConfig("threads must be >= 1".into()).into());
    }
    let mut partition = build_partition(&world, &cfg.partition)?;
    let channels = partition.lp_channels(&world.graph);
    let (lps, dir, mut graph, init_globals, stop_at, restored_ext_seq) =
        build_lps(world, &partition);
    let lp_count = lps.len();
    if lp_count == 0 {
        return Err(KernelError::InvalidPartition("world has no nodes".into()).into());
    }
    // Without a horizon, channel promises on drained FELs creep forward by
    // one lookahead per exchange and the run never terminates (same
    // constraint as the null-message kernel).
    let stop = match stop_at {
        Some(t) => t,
        None => {
            return Err(KernelError::InvalidConfig(
                "the async-conservative kernel requires a stop time".into(),
            )
            .into())
        }
    };

    // Directed channels: two per undirected LP pair. `chan_clock[c]` is the
    // source's granted promise for that direction; `chan_la[c]` the link
    // lookahead (atomic because topology globals rewrite it inside the main
    // thread's exclusive gate window).
    let mut chan_src: Vec<u32> = Vec::new();
    let mut chan_dst: Vec<u32> = Vec::new();
    let mut la_init: Vec<u64> = Vec::new();
    for (a, b, la) in &channels {
        chan_src.push(a.0);
        chan_dst.push(b.0);
        la_init.push(la.0);
        chan_src.push(b.0);
        chan_dst.push(a.0);
        la_init.push(la.0);
    }
    let chan_count = chan_src.len();
    // Padded: channel clocks are written by the sender and spun on by
    // the receiver — the hottest cross-worker words in this kernel.
    let chan_la: Vec<CachePadded<AtomicU64>> = la_init
        .into_iter()
        .map(|la| CachePadded::new(AtomicU64::new(la)))
        .collect();
    // Cache-padded: each clock is written by exactly one worker (the
    // channel source's owner) and read by its receiver's owner every
    // sweep; packing them 8-to-a-line would false-share every grant.
    let chan_clock: Vec<CachePadded<AtomicU64>> = (0..chan_count)
        .map(|_| CachePadded::new(AtomicU64::new(0)))
        .collect();
    let mut in_chans: Vec<Vec<usize>> = vec![Vec::new(); lp_count];
    let mut out_chans: Vec<Vec<usize>> = vec![Vec::new(); lp_count];
    let mut out_pair: Vec<Vec<(u32, usize)>> = vec![Vec::new(); lp_count];
    for c in 0..chan_count {
        out_chans[chan_src[c] as usize].push(c);
        in_chans[chan_dst[c] as usize].push(c);
        out_pair[chan_src[c] as usize].push((chan_dst[c], c));
    }
    for p in &mut out_pair {
        p.sort_unstable_by_key(|&(d, _)| d);
    }
    // (src, dst) -> channel index, for the post-topology-change lookahead
    // rewrite.
    let mut chan_index: Vec<((u32, u32), usize)> = (0..chan_count)
        .map(|c| ((chan_src[c], chan_dst[c]), c))
        .collect();
    chan_index.sort_unstable_by_key(|&(pair, _)| pair);

    let pairs: Vec<(u32, u32)> = channels.iter().map(|(a, b, _)| (a.0, b.0)).collect();
    let mailboxes: Mailboxes<N::Payload> = Mailboxes::new(lp_count, &pairs);
    // Inbox slot of each channel at its destination, resolved once so the
    // per-sweep drain probe is a direct index instead of a binary search.
    let chan_slot: Vec<usize> = (0..chan_count)
        .map(|c| {
            mailboxes
                .channel_slot(chan_src[c], chan_dst[c])
                // INVARIANT: `mailboxes` was built from `pairs`, the same
                // channel list `chan_src`/`chan_dst` were derived from, so
                // every directed channel has an inbox slot.
                .expect("mailboxes are built from the same channel list")
        })
        .collect();

    // Static LP ownership: the placement stage's affinity hints when the
    // partitioner produced them, contiguous blocks otherwise. Ownership is
    // config-deterministic; results do not depend on it either way.
    let owner: Vec<usize> = if partition.affinity.len() == lp_count {
        partition
            .affinity
            .iter()
            .map(|&a| a as usize % threads)
            .collect()
    } else {
        (0..lp_count).map(|lp| lp * threads / lp_count).collect()
    };
    let mut mine: Vec<Vec<usize>> = vec![Vec::new(); threads];
    for (lp, &w) in owner.iter().enumerate() {
        mine[w].push(lp);
    }
    let my_out: Vec<Vec<usize>> = (0..threads)
        .map(|w| {
            mine[w]
                .iter()
                .flat_map(|&lp| out_chans[lp].iter().copied())
                .collect()
        })
        .collect();

    let slots = LpSlots::new(lps, dir);

    // Public LP: init globals plus the stop global, keyed from the external
    // sequence (continuing a restored checkpoint's counter).
    let mut public: Fel<GlobalFn<N>> = Fel::new();
    let mut ext_seq: u64 = restored_ext_seq;
    for (ts, f) in init_globals {
        public.push(Event {
            key: EventKey::external(ts, ext_seq),
            node: NodeId(u32::MAX),
            payload: f,
        });
        ext_seq += 1;
    }
    public.push(Event {
        key: EventKey::external(stop, ext_seq),
        node: NodeId(u32::MAX),
        payload: Box::new(|wa: &mut WorldAccess<'_, N>| wa.stop()),
    });
    ext_seq += 1;

    // The gate: timestamp of the next pending global. The stop global is
    // always queued, so while the run is live the gate is finite and the
    // promise lower bound `min(next, safe, gate)` can never creep past a
    // global that later injects events (grant soundness).
    let gate_ts = AtomicU64::new(public.next_ts().0);
    let gate = Gate {
        state: Mutex::new(GateState {
            epoch: 0,
            arrived: 0,
        }),
        cond: Condvar::new(),
    };

    let wakers: Vec<Waker> = (0..threads).map(|_| Waker::new()).collect();
    let stop_flag = AtomicBool::new(false);

    let started = Instant::now();
    let mut results: Vec<Option<WorkerDone>> = Vec::with_capacity(threads);

    // Telemetry: the main (control) thread is sink 0, workers 1..=threads.
    let telctx = TelContext::new(&cfg.telemetry);
    let mut main_tel = telctx.worker(0);
    let sched_log = telctx.sched_log();

    // Crash safety (DESIGN.md §4.2): first contained panic wins the slot;
    // the watchdog aborts when neither events, grants nor gates progress
    // within the deadline.
    let failure: Mutex<Option<FailureDiagnostics>> = Mutex::new(None);
    let wd = Watchdog::new();
    // Channel promises as they stood when the watchdog fired (the abort
    // drain overwrites the live clocks with `u64::MAX`).
    // PADDING: written only on the abort drain — a cold failure path.
    let stall_clocks: Vec<AtomicU64> = (0..chan_count).map(|_| AtomicU64::new(u64::MAX)).collect();

    let mut gates_run: u64 = 0;
    let mut global_events: u64 = 0;
    let mut ctl_end = Time::ZERO;
    let mut main_psm = Psm::default();

    std::thread::scope(|scope| {
        if let Some(deadline) = cfg.watchdog.round_deadline {
            let wd = &wd;
            let wakers = &wakers;
            let stop_flag = &stop_flag;
            let gate = &gate;
            let chan_clock = &chan_clock;
            let stall_clocks = &stall_clocks;
            scope.spawn(move || {
                wd.monitor(deadline, || {
                    for (snap, live) in stall_clocks.iter().zip(chan_clock.iter()) {
                        snap.store(live.load(Ordering::Acquire), Ordering::Release);
                    }
                    stop_flag.store(true, Ordering::Release);
                    for w in wakers.iter() {
                        w.bump();
                    }
                    let _st = gate.state.lock().unwrap_or_else(|e| e.into_inner());
                    gate.cond.notify_all();
                });
            });
        }

        let mut handles = Vec::new();
        for w in 0..threads {
            let mine = &mine[w];
            let my_out = &my_out[w];
            let owner = &owner;
            let chan_dst = &chan_dst;
            let chan_la = &chan_la;
            let chan_clock = &chan_clock;
            let chan_slot = &chan_slot;
            let in_chans = &in_chans;
            let out_chans = &out_chans;
            let out_pair = &out_pair;
            let wakers = &wakers;
            let gate = &gate;
            let gate_ts = &gate_ts;
            let stop_flag = &stop_flag;
            let mailboxes = &mailboxes;
            let slots = &slots;
            let failure = &failure;
            let wd = &wd;
            let telctx = &telctx;
            handles.push(scope.spawn(move || {
                // Failure site, readable after a contained panic.
                let iter_c: Cell<u64> = Cell::new(0);
                let site_c: Cell<(Option<LpId>, Time)> = Cell::new((None, Time::ZERO));
                let poison = || {
                    for &c in my_out {
                        chan_clock[c].store(u64::MAX, Ordering::Release);
                    }
                    for wk in wakers.iter() {
                        wk.bump();
                    }
                    let _st = gate.state.lock().unwrap_or_else(|e| e.into_inner());
                    gate.cond.notify_all();
                };
                let body = catch_unwind(AssertUnwindSafe(|| {
                    let dir = slots.directory();
                    let mut psm = Psm::default();
                    let mut tel = telctx.worker((w + 1) as u32);
                    let mut merger: Merger<N::Payload> = Merger::new();
                    let mut batch: Vec<Event<N::Payload>> = Vec::new();
                    // Highest promise this worker has published per owned
                    // out-channel (clocks start at 0 and only rise).
                    let mut pub_cache: Vec<u64> = vec![0; chan_clock.len()];
                    let mut touched: Vec<u32> = Vec::new();
                    let mut wake_list: Vec<usize> = Vec::new();
                    let mut end_time = Time::ZERO;
                    let mut iterations: u64 = 0;
                    let mut grants: u64 = 0;
                    let mut stalls: u64 = 0;
                    let mut stall_wait_ns: u64 = 0;
                    let mut arrived_epoch: Option<u64> = None;
                    loop {
                        iterations += 1;
                        iter_c.set(iterations);
                        #[cfg(feature = "fault-inject")]
                        {
                            cfg.fault.fire_phase(iterations, RunPhase::Process, w);
                            cfg.fault.fire_stall(iterations, w);
                        }
                        // Waker version snapshot, taken *before* any input
                        // is read: a bump between this read and the sleep
                        // decision aborts the sleep, so an input change is
                        // either observed by this sweep or wakes us.
                        let v0 = *wakers[w].version.lock().unwrap_or_else(|e| e.into_inner());
                        // Abort drain: exit before touching any FEL so a
                        // watchdog/panic abort leaves the stall diagnosis
                        // intact.
                        if stop_flag.load(Ordering::Acquire) {
                            poison();
                            break;
                        }
                        let gate_now = Time(gate_ts.load(Ordering::Acquire));
                        let mut progressed = false;
                        let mut all_at_gate = true;
                        for &lp_idx in mine {
                            // SAFETY: ownership is a static disjoint
                            // partition of the LP set; the main thread only
                            // touches slots inside its exclusive gate window
                            // (all workers parked). Claim-audited.
                            let lp = unsafe { slots.get_mut(lp_idx) };
                            // (1) Safety bound FIRST: the Acquire loads
                            // happen before the drains, so every event below
                            // the observed promise is already visible in the
                            // channel queue (sender pushes, then fetch_max
                            // Release-publishes the promise).
                            let ins = &in_chans[lp_idx];
                            let mut safe = Time::MAX;
                            for &c in ins {
                                safe = safe.min(Time(chan_clock[c].load(Ordering::Acquire)));
                            }
                            // (2) Merge in-channel deliveries (k-way,
                            // deterministic) into the FEL, keys preserved.
                            // The drain probes are untimed: most sweeps find
                            // every channel empty, and two clock reads per
                            // idle LP would dominate the probe itself.
                            merger.begin(ins.len());
                            for (j, &c) in ins.iter().enumerate() {
                                mailboxes.drain_slot(
                                    lp_idx as u32,
                                    chan_slot[c],
                                    merger.run_mut(j),
                                );
                            }
                            let recv = merger.total() as u64;
                            if recv > 0 {
                                let tel_start = tel.start();
                                let t0 = Instant::now();
                                debug_assert!(batch.is_empty());
                                merger.merge_into(&mut batch);
                                if tel.enabled() {
                                    for ev in batch.iter() {
                                        tel.edge(ev.key.sender_lp.0, lp_idx as u32);
                                    }
                                }
                                lp.fel.extend(batch.drain(..));
                                progressed = true;
                                let m_cost = t0.elapsed().as_nanos() as u64;
                                psm.m_ns += m_cost;
                                tel.span_dur(
                                    SpanKind::Merge,
                                    iterations,
                                    lp_idx as u32,
                                    tel_start,
                                    m_cost,
                                    recv,
                                    0,
                                );
                            }
                            // (3) Advance: execute strictly below
                            // min(safe, gate). The gate cap keeps promises
                            // from outrunning globals that may still inject
                            // events at the gate timestamp. `next_ts` is a
                            // lower bound (exact for the heap, tier bound
                            // for the ladder), so the guard never skips a
                            // poppable event — it only skips the clock
                            // reads when the FEL has nothing below the
                            // limit.
                            let limit = safe.min(gate_now);
                            if lp.fel.next_ts() < limit {
                                let tel_start = tel.start();
                                let t0 = Instant::now();
                                let mut processed: u64 = 0;
                                while let Some(ev) = lp.fel.pop_below(limit) {
                                    if ev.node.0 != lp.last_node {
                                        lp.node_switches += 1;
                                        lp.last_node = ev.node.0;
                                    }
                                    end_time = end_time.max(ev.key.ts);
                                    site_c.set((Some(lp.id), ev.key.ts));
                                    let (owner_lp, local) = dir.locate(ev.node);
                                    debug_assert_eq!(owner_lp, lp.id);
                                    let node = &mut lp.nodes[local as usize];
                                    let mut ctx = AsyncCtx::<N> {
                                        now: ev.key.ts,
                                        self_node: ev.node,
                                        lp_id: lp.id,
                                        fel: &mut lp.fel,
                                        seq: &mut lp.seq,
                                        dir,
                                        mailboxes,
                                        stop_flag,
                                        out_pair: &out_pair[lp_idx],
                                        chan_la,
                                        touched: &mut touched,
                                    };
                                    node.handle(ev.payload, &mut ctx);
                                    processed += 1;
                                }
                                lp.total_events += processed;
                                let p_cost = t0.elapsed().as_nanos() as u64;
                                psm.p_ns += p_cost;
                                lp.last_cost_ns = p_cost;
                                if processed > 0 {
                                    progressed = true;
                                    tel.span_dur(
                                        SpanKind::Advance,
                                        iterations,
                                        lp_idx as u32,
                                        tel_start,
                                        p_cost,
                                        processed,
                                        0,
                                    );
                                }
                            }
                            // (4) Grants: refresh out-channel promises.
                            // `lb` bounds every event this LP can still
                            // process (FEL, future arrivals, gate), so
                            // `lb + lookahead` bounds its future sends.
                            // `fetch_max` publishes only a rise — the lazy
                            // null message — and is monotone under races.
                            // `pub_cache` floor-bounds the published clock
                            // (this worker is the channel's only writer, and
                            // the clock never decreases), so a promise at or
                            // below the cache would be a fetch_max no-op:
                            // skipping it drops the contended RMW — and the
                            // timing reads — from every idle sweep.
                            let lb = lp.fel.next_ts().min(safe).min(gate_now);
                            let mut rose: u64 = 0;
                            let mut tel_start = 0u64;
                            let mut t0: Option<Instant> = None;
                            for &c in &out_chans[lp_idx] {
                                let promise =
                                    lb.saturating_add(Time(chan_la[c].load(Ordering::Relaxed)));
                                if promise.0 <= pub_cache[c] {
                                    continue;
                                }
                                if t0.is_none() {
                                    tel_start = tel.start();
                                    t0 = Some(Instant::now());
                                }
                                let prev = chan_clock[c].fetch_max(promise.0, Ordering::AcqRel);
                                pub_cache[c] = promise.0;
                                if prev < promise.0 {
                                    rose += 1;
                                    // A neighbor must re-check when our
                                    // promise rose.
                                    let ow = owner[chan_dst[c] as usize];
                                    if ow != w && !wake_list.contains(&ow) {
                                        wake_list.push(ow);
                                    }
                                }
                            }
                            // ... and when we sent it events (sends land on
                            // out-channels, so every touched LP is a dst).
                            for &t in touched.iter() {
                                let ow = owner[t as usize];
                                if ow != w && !wake_list.contains(&ow) {
                                    wake_list.push(ow);
                                }
                            }
                            touched.clear();
                            if rose > 0 {
                                grants += rose;
                                progressed = true;
                                if let Some(t0) = t0 {
                                    let g_cost = t0.elapsed().as_nanos() as u64;
                                    psm.m_ns += g_cost;
                                    tel.span_dur(
                                        SpanKind::Grant,
                                        iterations,
                                        lp_idx as u32,
                                        tel_start,
                                        g_cost,
                                        rose,
                                        0,
                                    );
                                }
                            }
                            if safe < gate_now || lp.fel.next_ts() < gate_now {
                                all_at_gate = false;
                            }
                        }
                        // Wake-ups are batched per sweep, once per distinct
                        // owner, *after* every publish they cover (a bump
                        // issued before a later publish could be consumed
                        // early and the publish missed — the bump-after-
                        // publish order is what makes the version-snapshot
                        // sleep race-free).
                        for &ow in &wake_list {
                            wakers[ow].bump();
                        }
                        wake_list.clear();
                        if progressed {
                            // Events, deliveries or rising grants all count
                            // as progress; a zero-lookahead deadlock
                            // produces none and trips the deadline.
                            wd.tick();
                            continue;
                        }
                        if all_at_gate {
                            #[cfg(feature = "fault-inject")]
                            cfg.fault.fire_barrier_delay(iterations, w);
                            // Gate rendezvous: count this worker once per
                            // epoch, wake the main thread when the count
                            // completes, park until the gate moves.
                            let tel_start = tel.start();
                            let t0 = Instant::now();
                            let mut st = gate.state.lock().unwrap_or_else(|e| e.into_inner());
                            if Time(gate_ts.load(Ordering::Acquire)) == gate_now
                                && !stop_flag.load(Ordering::Acquire)
                            {
                                let epoch0 = st.epoch;
                                if arrived_epoch != Some(epoch0) {
                                    arrived_epoch = Some(epoch0);
                                    st.arrived += 1;
                                    if st.arrived == threads {
                                        gate.cond.notify_all();
                                    }
                                }
                                while st.epoch == epoch0 && !stop_flag.load(Ordering::Acquire) {
                                    st = gate.cond.wait(st).unwrap_or_else(|e| e.into_inner());
                                }
                            }
                            drop(st);
                            let s_cost = t0.elapsed().as_nanos() as u64;
                            psm.s_ns += s_cost;
                            tel.span_dur(
                                SpanKind::BarrierWait,
                                iterations,
                                NO_LP,
                                tel_start,
                                s_cost,
                                0,
                                0,
                            );
                            continue;
                        }
                        // (5) Stall: below the gate but blocked on neighbor
                        // promises. Sleep unless an input changed since the
                        // version snapshot (the bump-under-lock discipline
                        // makes this race-free).
                        stalls += 1;
                        let tel_start = tel.start();
                        let t0 = Instant::now();
                        {
                            let guard = wakers[w].version.lock().unwrap_or_else(|e| e.into_inner());
                            if *guard == v0 && !stop_flag.load(Ordering::Acquire) {
                                let _guard = wakers[w]
                                    .cond
                                    .wait(guard)
                                    .unwrap_or_else(|e| e.into_inner());
                            }
                        }
                        let s_cost = t0.elapsed().as_nanos() as u64;
                        psm.s_ns += s_cost;
                        stall_wait_ns += s_cost;
                        tel.span_dur(
                            SpanKind::StallWait,
                            iterations,
                            NO_LP,
                            tel_start,
                            s_cost,
                            0,
                            0,
                        );
                    }
                    WorkerDone {
                        psm,
                        end_time,
                        iterations,
                        grants,
                        stalls,
                        stall_wait_ns,
                        tel,
                    }
                }));
                match body {
                    Ok(done) => Some(done),
                    Err(payload) => {
                        let (lp, virtual_time) = site_c.get();
                        record_failure(
                            failure,
                            FailureDiagnostics {
                                kernel: "async_cons",
                                round: iter_c.get(),
                                phase: RunPhase::Process,
                                lp,
                                virtual_time,
                                worker: w,
                                panic_message: panic_message(payload.as_ref()),
                            },
                        );
                        stop_flag.store(true, Ordering::Release);
                        // This worker will never grant again: release its
                        // out-channels so neighbors are not pinned by a dead
                        // worker, then wake everyone to observe the flag.
                        poison();
                        None
                    }
                }
            }));
        }

        // Main thread: the gate loop. Exclusive world access holds for the
        // whole window because every worker is parked in a `gate.cond` wait
        // and the state lock is held until the gate is republished.
        loop {
            let tel_wait = main_tel.start();
            let t0 = Instant::now();
            let mut st = gate.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if stop_flag.load(Ordering::Acquire) || st.arrived == threads {
                    break;
                }
                st = gate.cond.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            let wait_ns = t0.elapsed().as_nanos() as u64;
            main_psm.s_ns += wait_ns;
            main_tel.span_dur(
                SpanKind::BarrierWait,
                gates_run + 1,
                NO_LP,
                tel_wait,
                wait_ns,
                0,
                0,
            );
            if stop_flag.load(Ordering::Acquire) {
                // Abort (panic or watchdog): release parked workers so they
                // drain out through the stop check.
                st.epoch += 1;
                st.arrived = 0;
                gate.cond.notify_all();
                break;
            }
            gates_run += 1;
            let gate_now = Time(gate_ts.load(Ordering::Acquire));
            let stopped;
            // Invalidate the workers' claim generation for the exclusive
            // window, and again after it for the workers' next sweeps.
            slots.begin_phase();
            let tel_start = main_tel.start();
            let t0 = Instant::now();
            let r = catch_unwind(AssertUnwindSafe(|| {
                #[cfg(feature = "fault-inject")]
                cfg.fault.fire_phase(gates_run, RunPhase::Global, 0);
                let mut topology_dirty = false;
                let mut ran: u64 = 0;
                let mut stop_req = false;
                // `Time::MAX` means "no global" and must not satisfy the
                // bound; while live, the stop global keeps the FEL
                // non-empty.
                while !stop_req && public.next_ts() != Time::MAX && public.next_ts() <= gate_now {
                    // INVARIANT: `next_ts != Time::MAX` implies non-empty.
                    let g = public.pop().expect("public FEL non-empty");
                    let now = g.key.ts;
                    ctl_end = ctl_end.max(now);
                    let mut stop_one = false;
                    let mut new_globals: Vec<(Time, GlobalFn<N>)> = Vec::new();
                    {
                        // SAFETY: every worker is parked on `gate.cond`
                        // under the held state lock — the main thread has
                        // exclusive access to all LP slots.
                        let mut wa = unsafe {
                            WorldAccess::new(
                                now,
                                &slots,
                                &mut graph,
                                &mut partition,
                                &mut topology_dirty,
                                &mut stop_one,
                                &mut new_globals,
                                &mut ext_seq,
                                Some(CkptEnv {
                                    mailboxes: &mailboxes,
                                    stop_at,
                                    wd: &wd,
                                    fault: &cfg.fault,
                                }),
                            )
                        };
                        (g.payload)(&mut wa);
                    }
                    ran += 1;
                    for (ts, f) in new_globals {
                        public.push(Event {
                            key: EventKey::external(ts, ext_seq),
                            node: NodeId(u32::MAX),
                            payload: f,
                        });
                        ext_seq += 1;
                    }
                    if stop_one {
                        stop_req = true;
                    }
                }
                if topology_dirty {
                    partition.recompute_lookahead(&graph);
                    // Rewrite the per-channel lookaheads from the fresh
                    // channel map; pairs no longer connected become MAX
                    // (their promises saturate — an unreachable channel
                    // never constrains its receiver). Relaxed suffices: the
                    // gate rendezvous orders these writes against every
                    // worker read.
                    let fresh = partition.lp_channels(&graph);
                    for la in chan_la.iter() {
                        la.store(u64::MAX, Ordering::Relaxed);
                    }
                    for (a, b, la) in &fresh {
                        for (s, d) in [(a.0, b.0), (b.0, a.0)] {
                            if let Ok(i) =
                                chan_index.binary_search_by_key(&(s, d), |&(pair, _)| pair)
                            {
                                chan_la[chan_index[i].1].store(la.0, Ordering::Relaxed);
                            }
                        }
                    }
                }
                (ran, stop_req)
            }));
            let g_dur = t0.elapsed().as_nanos() as u64;
            main_psm.p_ns += g_dur;
            match r {
                Ok((ran, stop_req)) => {
                    global_events += ran;
                    stopped = stop_req;
                    main_tel.span_dur(SpanKind::Global, gates_run, NO_LP, tel_start, g_dur, ran, 0);
                }
                Err(payload) => {
                    record_failure(
                        &failure,
                        FailureDiagnostics {
                            kernel: "async_cons",
                            round: gates_run,
                            phase: RunPhase::Global,
                            lp: None,
                            virtual_time: ctl_end,
                            worker: 0,
                            panic_message: panic_message(payload.as_ref()),
                        },
                    );
                    stopped = true;
                }
            }
            slots.begin_phase();
            if stopped {
                stop_flag.store(true, Ordering::Release);
            }
            // Republish the gate and release the workers.
            st.epoch += 1;
            st.arrived = 0;
            let next_gate = if stopped {
                u64::MAX
            } else {
                public.next_ts().0
            };
            gate_ts.store(next_gate, Ordering::Release);
            gate.cond.notify_all();
            drop(st);
            if stopped {
                break;
            }
            wd.tick();
        }

        wd.finish();
        for (w, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(res) => results.push(res),
                // Worker bodies are fully contained; a join error means the
                // containment itself died. Record it — `try_run` must not
                // panic.
                Err(payload) => {
                    stop_flag.store(true, Ordering::Release);
                    for wk in wakers.iter() {
                        wk.bump();
                    }
                    {
                        let _st = gate.state.lock().unwrap_or_else(|e| e.into_inner());
                        gate.cond.notify_all();
                    }
                    record_failure(
                        &failure,
                        FailureDiagnostics {
                            kernel: "async_cons",
                            round: 0,
                            phase: RunPhase::Control,
                            lp: None,
                            virtual_time: Time::ZERO,
                            worker: w,
                            panic_message: panic_message(payload.as_ref()),
                        },
                    );
                    results.push(None);
                }
            }
        }
    });

    let wall = started.elapsed();
    let stalled = wd.stalled();
    let (mut lps, _) = slots.into_inner();
    // An abort can leave cross-LP events undelivered in their channel
    // queues. Deliver them now so the stall diagnosis sees every LP that
    // still has work; on a completed run the mailboxes are already empty.
    for lp in lps.iter_mut() {
        let id = lp.id.0;
        mailboxes.drain(id, |ev| lp.fel.push(ev));
    }

    let mut psm = vec![main_psm];
    let mut tels = vec![main_tel];
    let mut grants: u64 = 0;
    let mut stalls: u64 = 0;
    let mut stall_wait_ns: Vec<u64> = Vec::with_capacity(threads);
    let mut iterations: u64 = 0;
    let mut end_time = ctl_end;
    for (w, res) in results.into_iter().enumerate() {
        match res {
            Some(done) => {
                grants += done.grants;
                stalls += done.stalls;
                stall_wait_ns.push(done.stall_wait_ns);
                iterations = iterations.max(done.iterations);
                end_time = end_time.max(done.end_time);
                psm.push(done.psm);
                tels.push(done.tel);
            }
            None => {
                // Panicked worker: keep the per-worker vectors rectangular.
                stall_wait_ns.push(0);
                psm.push(Psm::default());
                tels.push(telctx.worker((w + 1) as u32));
            }
        }
    }
    let lp_totals = LpTotals {
        events: lps.iter().map(|lp| lp.total_events).collect(),
        cost_ns: lps.iter().map(|lp| lp.last_cost_ns).collect(),
        node_switches: lps.iter().map(|lp| lp.node_switches).collect(),
    };
    let events: u64 = lp_totals.events.iter().sum();
    let (pool_hits, pool_misses) = mailboxes.pool_stats();
    let report = RunReport {
        kernel: format!("async_cons({threads})"),
        wall,
        events,
        global_events,
        // No synchronization rounds exist; see `async_stats` for the
        // kernel's own progress counters.
        rounds: 0,
        fused_rounds: 0,
        lp_count: lp_count as u32,
        threads: threads as u32,
        lookahead: partition.lookahead,
        end_time,
        psm,
        psm_per_lp: false,
        lp_totals,
        engine: EngineStats {
            pool_hits: pool_hits as u64,
            pool_misses: pool_misses as u64,
            ..EngineStats::default()
        },
        sched: SchedStats::default(),
        rounds_profile: None,
        telemetry: telctx.collect(tels, sched_log),
        recovery: None,
        async_stats: Some(AsyncStats {
            grants,
            stalls,
            gates: gates_run,
            stall_wait_ns,
        }),
    };
    if let Some(diag) = failure.into_inner().unwrap_or_else(|e| e.into_inner()) {
        return Err(SimError::WorkerPanic {
            diag,
            partial: Box::new(report),
        });
    }
    if stalled {
        // LPs still holding work below the horizon were conservatively
        // blocked. Walk each blocked LP's binding input channel (minimal
        // promise in the abort-time snapshot) back to its source to expose
        // the dependency cycle.
        let blocked: Vec<LpId> = lps
            .iter()
            .filter(|lp| lp.fel.next_ts() < stop)
            .map(|lp| lp.id)
            .collect();
        let mut cycle: Vec<LpId> = Vec::new();
        if let Some(start) = blocked.first() {
            let mut path: Vec<u32> = Vec::new();
            let mut cur = start.0;
            loop {
                if let Some(pos) = path.iter().position(|&l| l == cur) {
                    cycle = path[pos..].iter().map(|&l| LpId(l)).collect();
                    cycle.push(LpId(cur));
                    break;
                }
                path.push(cur);
                let mut best: Option<(u64, usize)> = None;
                for &c in &in_chans[cur as usize] {
                    let clk = stall_clocks[c].load(Ordering::Acquire);
                    if clk != u64::MAX && best.is_none_or(|(b, _)| clk < b) {
                        best = Some((clk, c));
                    }
                }
                match best {
                    Some((_, c)) => cur = chan_src[c],
                    None => break,
                }
            }
        }
        let virtual_time = lps
            .iter()
            .filter(|lp| lp.fel.next_ts() < stop)
            .map(|lp| lp.fel.next_ts())
            .fold(Time::MAX, Time::min);
        let diag = StallDiagnostics {
            kernel: "async_cons",
            round: iterations,
            deadline: cfg.watchdog.round_deadline.unwrap_or_default(),
            virtual_time: if virtual_time == Time::MAX {
                end_time
            } else {
                virtual_time
            },
            blocked,
            cycle,
        };
        return Err(SimError::Stalled {
            diag,
            partial: Box::new(report),
        });
    }
    let world = reassemble_world(lps, &partition, graph, stop_at);
    Ok((world, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKey, LpId};
    use crate::time::Time;

    fn ev(ts: u64, lp: u32, seq: u64) -> Event<u32> {
        Event {
            key: EventKey {
                ts: Time(ts),
                sender_ts: Time(ts.saturating_sub(1)),
                sender_lp: LpId(lp),
                seq,
            },
            node: crate::event::NodeId(0),
            payload: 0,
        }
    }

    #[test]
    fn merger_orders_by_full_key_across_runs() {
        let mut m: Merger<u32> = Merger::new();
        m.begin(3);
        // Runs arrive unsorted (per-channel FIFO is send-order, not key
        // order) and interleaved in time.
        m.run_mut(0).push(ev(30, 0, 2));
        m.run_mut(0).push(ev(10, 0, 1));
        m.run_mut(1).push(ev(20, 1, 5));
        m.run_mut(1).push(ev(10, 1, 9));
        // Run 2 stays empty (a channel that delivered nothing).
        assert_eq!(m.total(), 4);
        let mut out = Vec::new();
        m.merge_into(&mut out);
        let keys: Vec<(u64, u32, u64)> = out
            .iter()
            .map(|e| (e.key.ts.0, e.key.sender_lp.0, e.key.seq))
            .collect();
        assert_eq!(keys, vec![(10, 0, 1), (10, 1, 9), (20, 1, 5), (30, 0, 2)]);
    }

    #[test]
    fn merger_is_permutation_invariant() {
        // The same event set split differently across runs merges to the
        // same sequence — the determinism argument of DESIGN.md §4.8.
        // (`Event` is intentionally not `Clone`, so both splits rebuild
        // the set from the same parameters.)
        let params = [(5, 2, 0), (5, 1, 0), (7, 1, 1), (3, 2, 1)];
        let mut a: Merger<u32> = Merger::new();
        a.begin(2);
        a.run_mut(0)
            .extend(params[..2].iter().map(|&(t, l, s)| ev(t, l, s)));
        a.run_mut(1)
            .extend(params[2..].iter().map(|&(t, l, s)| ev(t, l, s)));
        let mut out_a = Vec::new();
        a.merge_into(&mut out_a);

        let mut b: Merger<u32> = Merger::new();
        b.begin(4);
        for (i, &(t, l, s)) in params.iter().rev().enumerate() {
            b.run_mut(i).push(ev(t, l, s));
        }
        let mut out_b = Vec::new();
        b.merge_into(&mut out_b);

        let ka: Vec<EventKey> = out_a.iter().map(|e| e.key).collect();
        let kb: Vec<EventKey> = out_b.iter().map(|e| e.key).collect();
        assert_eq!(ka, kb);
        assert!(ka.windows(2).all(|w| w[0] < w[1]), "strictly key-sorted");
    }

    #[test]
    fn merger_buffers_are_reusable() {
        let mut m: Merger<u32> = Merger::new();
        m.begin(2);
        m.run_mut(0).push(ev(1, 0, 0));
        let mut out = Vec::new();
        m.merge_into(&mut out);
        assert_eq!(out.len(), 1);
        out.clear();
        // Second cycle with fewer runs: stale buffers must not leak in.
        m.begin(1);
        m.run_mut(0).push(ev(2, 0, 1));
        m.merge_into(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].key.ts, Time(2));
    }
}
