//! The Unison kernel (§4–§5 of the paper).
//!
//! Fine-grained LPs are scheduled onto a pool of worker threads each round.
//! A round has four phases separated by atomic barriers (Fig. 7):
//!
//! 1. **Process events** — workers claim LPs longest-first through their
//!    group's shared [`LjfCursor`] and execute each claimed LP's events
//!    inside the window. Cross-LP events go to lock-free mailboxes.
//! 2. **Handle global events** — the main thread routes overflow events,
//!    merges node-scheduled globals into the public LP, executes due global
//!    events (which may mutate the topology → lookahead recompute).
//! 3. **Receive events** — workers claim LPs again and drain their
//!    mailboxes into their FELs (deterministic source order).
//! 4. **Update window** — the main thread reduces the per-LP next-event
//!    timestamps into the next LBTS (Eq. 2), re-sorts the LP schedule every
//!    scheduling period, and records metrics.
//!
//! Determinism: event keys are assigned from per-LP monotone counters and
//! ordered by the §5.2 tie-breaking rule, so results are identical for any
//! worker count (including 1) and identical to the compat-keys sequential
//! kernel.
//!
//! The same machinery also powers the *hybrid* kernel (§5.2): LPs are
//! grouped into simulated hosts and each host's workers only claim LPs of
//! their own group, modeling the cluster deployment where load balancing
//! happens within a host and only the window all-reduce is global.

use std::cell::{Cell, UnsafeCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

use crate::error::{
    panic_message, record_failure, FailureDiagnostics, RunPhase, SimError, StallDiagnostics,
};
use crate::event::{Event, EventKey, LpId, NodeId};
use crate::fel::Fel;
use crate::global::{CkptEnv, GlobalFn, WorldAccess};
use crate::lp::LpSlots;
use crate::mailbox::Mailboxes;
use crate::metrics::{
    EngineStats, LpTotals, MetricsLevel, Psm, RoundRecord, RunReport, SchedStats,
};
use crate::sched::{order_by_estimate_into, LjfCursor, SchedMetric};
use crate::sync::{TreeBarrier, TreeWaiter};
use crate::sync_shim::{AtomicBool, AtomicUsize, CachePadded, Ordering};
use crate::telemetry::{SpanKind, TelContext, WorkerTel, NO_LP};
use crate::time::Time;
use crate::world::{SimNode, World};

use super::watchdog::Watchdog;
use super::{build_lps, build_partition, reassemble_world, KernelError, RoundCtx, RunConfig};

/// Failure site updated by the processing phase just before each handler
/// runs, so a contained panic can be attributed to an LP and virtual time.
type Site = Cell<(Option<LpId>, Time)>;

/// How LPs and workers are grouped (single group = plain Unison; one group
/// per simulated host = hybrid kernel).
pub(super) struct Grouping {
    /// Group of each LP.
    pub lp_group: Vec<u32>,
    /// Group of each worker thread (worker 0 is the main thread).
    pub worker_group: Vec<u32>,
    /// Number of groups.
    pub groups: usize,
}

impl Grouping {
    /// Everything in one group with `threads` workers.
    pub fn single(lp_count: usize, threads: usize) -> Self {
        Grouping {
            lp_group: vec![0; lp_count],
            worker_group: vec![0; threads],
            groups: 1,
        }
    }
}

/// Round plan published by the main thread between rounds.
struct RoundPlan {
    /// Per-group LP visit order for the processing phase.
    order: Vec<Vec<u32>>,
    /// Per-group LP list for the receive phase (static).
    group_lps: Vec<Vec<u32>>,
    /// Start of the current window.
    window_start: Time,
    /// End of the current window (the LBTS).
    window_end: Time,
    /// The round number workers are released into. Published (instead of
    /// counted locally by each worker) because fused rounds advance the
    /// main thread's round counter while the workers stay parked at B0 —
    /// a local counter would drift from the authoritative one.
    round: u64,
    /// Set when the simulation is complete.
    done: bool,
    /// Per-LP cost estimates behind the current `order`, published only
    /// when telemetry records (empty otherwise) so `lp-task` spans can
    /// carry estimate-vs-actual data.
    est: Vec<u64>,
}

/// Shared cell for the round plan.
///
/// Mutated exclusively by the main thread between the round's last barrier
/// and the next round's first barrier (while all workers wait); read-only
/// during parallel phases. The barriers provide the happens-before edges.
struct PlanCell(UnsafeCell<RoundPlan>);

// SAFETY: see the access discipline above — main-thread writes and worker
// reads are separated by `TreeBarrier::wait`, which performs an acquire/
// release handshake.
unsafe impl Sync for PlanCell {}

pub(super) fn run<N: SimNode>(
    world: World<N>,
    cfg: &RunConfig,
    threads: usize,
) -> Result<(World<N>, RunReport), SimError> {
    if threads == 0 {
        return Err(KernelError::InvalidConfig("threads must be >= 1".into()).into());
    }
    run_grouped(world, cfg, threads, None, "unison")
}

/// Shared implementation for the Unison and hybrid kernels.
pub(super) fn run_grouped<N: SimNode>(
    world: World<N>,
    cfg: &RunConfig,
    threads: usize,
    grouping: Option<Grouping>,
    kernel_name: &'static str,
) -> Result<(World<N>, RunReport), SimError> {
    let mut partition = build_partition(&world, &cfg.partition)?;
    let (lps, dir, mut graph, init_globals, stop_at, restored_ext_seq) =
        build_lps(world, &partition);
    let lp_count = lps.len();
    if lp_count == 0 {
        return Err(KernelError::InvalidPartition("world has no nodes".into()).into());
    }
    let grouping = grouping.unwrap_or_else(|| Grouping::single(lp_count, threads));
    if grouping.worker_group.len() != threads || grouping.lp_group.len() != lp_count {
        return Err(
            KernelError::InvalidConfig("grouping does not match thread/LP counts".into()).into(),
        );
    }
    let groups = grouping.groups;

    let channels: Vec<(u32, u32)> = partition
        .lp_channels(&graph)
        .into_iter()
        .map(|(a, b, _)| (a.0, b.0))
        .collect();
    let mailboxes: Mailboxes<N::Payload> = Mailboxes::new(lp_count, &channels);
    let slots = LpSlots::new(lps, dir);

    // Public LP. The external sequence counter continues from a restored
    // checkpoint's value (0 for a fresh world).
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
    if let Some(stop) = stop_at {
        public.push(Event {
            key: EventKey::external(stop, ext_seq),
            node: NodeId(u32::MAX),
            payload: Box::new(|wa: &mut WorldAccess<'_, N>| wa.stop()),
        });
        ext_seq += 1;
    }

    // Static per-group LP lists and initial (identity) orders.
    let mut group_lps: Vec<Vec<u32>> = vec![Vec::new(); groups];
    for (lp, &g) in grouping.lp_group.iter().enumerate() {
        group_lps[g as usize].push(lp as u32);
    }
    let initial_order = group_lps.clone();

    // One claim cursor per group, published before any worker threads
    // exist. Re-sorts permute a group's order in place, so its length (all
    // the cursor needs) never changes.
    let cursors: Vec<LjfCursor> = initial_order
        .iter()
        .map(|order_g| {
            let c = LjfCursor::new();
            c.publish(order_g.len());
            c
        })
        .collect();

    // Initial window.
    let initial_min = {
        let mut m = Time::MAX;
        for i in 0..lp_count {
            // SAFETY: no worker threads exist yet.
            m = m.min(unsafe { slots.get_mut(i) }.next_ts);
        }
        m
    };
    let initial_window = public
        .next_ts()
        .min(initial_min.saturating_add(partition.lookahead));
    let plan = PlanCell(UnsafeCell::new(RoundPlan {
        order: initial_order,
        group_lps,
        window_start: Time::ZERO,
        window_end: initial_window,
        round: 1,
        done: initial_min == Time::MAX && public.next_ts() == Time::MAX,
        est: Vec::new(),
    }));

    // Round fusion (DESIGN.md §4.9): disabled while a fault plan is armed,
    // so execution-point faults land on the configured worker and phase
    // (fused rounds run every phase on the main thread).
    let fusion = cfg.sched.fusion;
    let fusion_on = fusion.enabled && cfg.fault.is_empty();
    // Oversubscription clause (DESIGN.md §4.9): when the run asks for more
    // workers than the machine has cores, parallel rounds only time-slice —
    // serializing them on the control thread is strictly cheaper, so lift
    // the load threshold entirely. Deterministic per machine and
    // digest-neutral: fusion never changes the event order, only who runs
    // the phases (pinned by the fusion on/off digest matrix).
    let fusion_threshold = if std::thread::available_parallelism().is_ok_and(|c| threads > c.get())
    {
        u64::MAX
    } else {
        fusion.threshold
    };
    // Entry-predicate seed for round 1: the pending event count below the
    // initial window stands in for "the previous round's load".
    let mut last_load: u64 = 0;
    for i in 0..lp_count {
        // SAFETY: no worker threads exist yet.
        last_load += unsafe { slots.get_mut(i) }.fel.count_below(initial_window) as u64;
    }
    let mut last_recv: u64 = 0;
    let mut last_fused = false;
    let mut fused_rounds: u64 = 0;

    let barrier = TreeBarrier::new(threads);
    let cursor_recv: Vec<CachePadded<AtomicUsize>> = (0..groups)
        .map(|_| CachePadded::new(AtomicUsize::new(0)))
        .collect();
    let stop_flag = AtomicBool::new(false);
    let sched_period = cfg.sched.effective_period(lp_count);

    let mut rounds_profile: Option<Vec<RoundRecord>> = match cfg.metrics {
        MetricsLevel::PerRound => Some(Vec::new()),
        MetricsLevel::Summary => None,
    };
    let mut rounds: u64 = 0;
    let mut global_events: u64 = 0;
    let mut end_time = Time::ZERO;
    let started = Instant::now();

    let mut worker_psm: Vec<Psm> = Vec::new();
    let mut main_psm = Psm::default();
    let main_group = grouping.worker_group[0] as usize;

    // Telemetry sinks: one per worker (sole writer: that worker), plus the
    // scheduler-decision log written only by the main thread in phase 4.
    // All no-ops unless `cfg.telemetry.enabled` (see DESIGN.md §4.3).
    let telctx = TelContext::new(&cfg.telemetry);
    let mut main_tel = telctx.worker(0);
    let mut sched_log = telctx.sched_log();
    let mut worker_tels: Vec<WorkerTel> = Vec::new();

    // Crash-safety plumbing (DESIGN.md §4.2): the first contained panic
    // wins the diagnostics slot; the watchdog aborts rounds that exceed
    // their wall-clock deadline. Both abort paths poison the barrier so
    // every thread drains out at its next synchronization point.
    let failure: Mutex<Option<FailureDiagnostics>> = Mutex::new(None);
    let wd = Watchdog::new();

    std::thread::scope(|scope| {
        // Round-progress monitor (opt-in): fires when the main thread stops
        // ticking for longer than the deadline.
        if let Some(deadline) = cfg.watchdog.round_deadline {
            let wd = &wd;
            let barrier = &barrier;
            scope.spawn(move || {
                wd.monitor(deadline, || barrier.poison());
            });
        }

        // Spawn `threads - 1` workers; the main thread is worker 0 and also
        // runs the serial phases.
        let mut handles = Vec::new();
        for w in 1..threads {
            let g = grouping.worker_group[w] as usize;
            let slots = &slots;
            let plan = &plan;
            let barrier = &barrier;
            let cursors = &cursors;
            let cursor_recv = &cursor_recv;
            let stop_flag = &stop_flag;
            let mailboxes = &mailboxes;
            let failure = &failure;
            let telctx = &telctx;
            handles.push(scope.spawn(move || {
                // Deterministic placement (default off): pin worker `w`
                // before the first barrier arrival. The main thread (worker
                // 0) is the caller's thread and is never pinned — the run
                // must not mutate the caller's affinity mask.
                cfg.sched.pin.apply(w);
                let mut psm = Psm::default();
                let mut tel = telctx.worker(w as u32);
                let mut waiter = barrier.waiter(w);
                // Reusable receive-phase batch buffer (DESIGN.md §4.4).
                let mut recv_buf: Vec<Event<N::Payload>> = Vec::new();
                let mut round: u64 = 0;
                loop {
                    // B0: plan published
                    wait_timed(barrier, &mut waiter, &mut psm.s_ns, &mut tel, round + 1, 0);
                    if barrier.is_poisoned() {
                        break;
                    }
                    // SAFETY: read-only access during parallel phases.
                    let p = unsafe { &*plan.0.get() };
                    if p.done {
                        break;
                    }
                    // Authoritative round number: fused rounds advance it
                    // while workers are parked, so it may jump.
                    round = p.round;
                    let site: Site = Cell::new((None, p.window_start));
                    let tel_start = tel.start();
                    let t0 = Instant::now();
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        #[cfg(feature = "fault-inject")]
                        cfg.fault.fire_phase(round, RunPhase::Process, w);
                        process_phase(
                            slots,
                            mailboxes,
                            &cursors[g],
                            &p.order[g],
                            p,
                            stop_flag,
                            &site,
                            &mut tel,
                            round,
                        )
                    }));
                    let p_dur = t0.elapsed().as_nanos() as u64;
                    psm.p_ns += p_dur;
                    match r {
                        Ok(events) => tel.span_dur(
                            SpanKind::Process,
                            round,
                            NO_LP,
                            tel_start,
                            p_dur,
                            events,
                            0,
                        ),
                        Err(payload) => {
                            contain(
                                failure,
                                barrier,
                                kernel_name,
                                round,
                                RunPhase::Process,
                                &site,
                                w,
                                payload,
                            );
                            break;
                        }
                    }
                    wait_timed(barrier, &mut waiter, &mut psm.s_ns, &mut tel, round, 1); // B1
                    if barrier.is_poisoned() {
                        break;
                    }
                    // B2 (main ran globals)
                    wait_timed(barrier, &mut waiter, &mut psm.s_ns, &mut tel, round, 2);
                    if barrier.is_poisoned() {
                        break;
                    }
                    let site: Site = Cell::new((None, p.window_end));
                    let tel_start = tel.start();
                    let t0 = Instant::now();
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        #[cfg(feature = "fault-inject")]
                        {
                            cfg.fault.fire_phase(round, RunPhase::Receive, w);
                            cfg.fault.fire_stall(round, w);
                        }
                        receive_phase(
                            slots,
                            mailboxes,
                            &cursor_recv[g],
                            &p.group_lps[g],
                            &site,
                            &mut tel,
                            round,
                            &mut recv_buf,
                        )
                    }));
                    let m_dur = t0.elapsed().as_nanos() as u64;
                    psm.m_ns += m_dur;
                    match r {
                        Ok(recv) => {
                            tel.span_dur(SpanKind::Receive, round, NO_LP, tel_start, m_dur, recv, 0)
                        }
                        Err(payload) => {
                            contain(
                                failure,
                                barrier,
                                kernel_name,
                                round,
                                RunPhase::Receive,
                                &site,
                                w,
                                payload,
                            );
                            break;
                        }
                    }
                    #[cfg(feature = "fault-inject")]
                    cfg.fault.fire_barrier_delay(round, w);
                    wait_timed(barrier, &mut waiter, &mut psm.s_ns, &mut tel, round, 3); // B3
                    if barrier.is_poisoned() {
                        break;
                    }
                }
                (psm, tel)
            }));
        }

        // Main thread control loop. Claim-audit generations are bumped by
        // the main thread inside its exclusive windows, always *before* the
        // barrier that releases workers into the phase the bump covers.
        //
        // Persistent scratch: the main thread's receive-phase batch buffer
        // and the phase-4 LJF re-sort buffers, reused every round/period so
        // the steady-state control loop stays off the allocator
        // (DESIGN.md §4.4).
        let mut main_recv_buf: Vec<Event<N::Payload>> = Vec::new();
        let mut estimates: Vec<u64> = Vec::new();
        let mut group_est: Vec<u64> = Vec::new();
        let mut group_order: Vec<u32> = Vec::new();
        let mut waiter0 = barrier.waiter(0);
        slots.begin_phase(); // covers phase 1 of round 1
        loop {
            // SAFETY: the main thread is exclusive until its B0 arrival —
            // workers are parked inside the B0 wait (it cannot complete
            // without main) and only read the plan after it does.
            let p = unsafe { &*plan.0.get() };
            // Round fusion (DESIGN.md §4.9): when the previous round's
            // load was below the threshold, the four barrier crossings
            // cost more than this round's events — run the round serially
            // right here while the workers stay parked at B0. A cross-LP
            // arrival during a fused round ends the span (the next round
            // steps through the barrier path).
            let fuse = fusion_on
                && !p.done
                && !barrier.is_poisoned()
                && last_load <= fusion_threshold
                && !(last_fused && last_recv > 0);
            let round = rounds + 1;
            let window_start = p.window_start;
            let window_end = p.window_end;
            let round_tel_start = main_tel.start();
            let round_t0 = Instant::now();
            if !fuse {
                // B0
                wait_timed(
                    &barrier,
                    &mut waiter0,
                    &mut main_psm.s_ns,
                    &mut main_tel,
                    round,
                    0,
                );
                if barrier.is_poisoned() {
                    break;
                }
                if p.done {
                    break;
                }
            }
            let site: Site = Cell::new((None, window_start));
            let tel_start = main_tel.start();
            let t0 = Instant::now();
            let r = catch_unwind(AssertUnwindSafe(|| {
                #[cfg(feature = "fault-inject")]
                cfg.fault.fire_phase(round, RunPhase::Process, 0);
                if fuse {
                    // Fused round: this thread claims every group's whole
                    // order; the parked workers never contend for claims.
                    let mut events = 0;
                    for (g, cursor) in cursors.iter().enumerate() {
                        events += process_phase(
                            &slots,
                            &mailboxes,
                            cursor,
                            &p.order[g],
                            p,
                            &stop_flag,
                            &site,
                            &mut main_tel,
                            round,
                        );
                    }
                    events
                } else {
                    process_phase(
                        &slots,
                        &mailboxes,
                        &cursors[main_group],
                        &p.order[main_group],
                        p,
                        &stop_flag,
                        &site,
                        &mut main_tel,
                        round,
                    )
                }
            }));
            let p_dur = t0.elapsed().as_nanos() as u64;
            main_psm.p_ns += p_dur;
            match r {
                Ok(events) => {
                    main_tel.span_dur(SpanKind::Process, round, NO_LP, tel_start, p_dur, events, 0)
                }
                Err(payload) => {
                    contain(
                        &failure,
                        &barrier,
                        kernel_name,
                        round,
                        RunPhase::Process,
                        &site,
                        0,
                        payload,
                    );
                    break;
                }
            }
            if !fuse {
                wait_timed(
                    &barrier,
                    &mut waiter0,
                    &mut main_psm.s_ns,
                    &mut main_tel,
                    round,
                    1,
                ); // B1
                if barrier.is_poisoned() {
                    break;
                }
            }

            // ---- Phase 2: global events (main thread only) ----
            slots.begin_phase(); // covers phase 2 (workers idle until B2)
            let tel_start = main_tel.start();
            let globals_before = global_events;
            let t0 = Instant::now();
            let mut stopped = stop_flag.load(Ordering::Acquire);
            let site: Site = Cell::new((None, window_end));
            let r = catch_unwind(AssertUnwindSafe(|| {
                #[cfg(feature = "fault-inject")]
                cfg.fault.fire_phase(round, RunPhase::Global, 0);
                let mut topology_dirty = false;
                for c in cursor_recv.iter() {
                    c.store(0, Ordering::Relaxed);
                }
                // Route overflow events and merge node-scheduled globals.
                for i in 0..lp_count {
                    let (outflow, pending) = {
                        // SAFETY: workers wait at B2; main is exclusive. The
                        // borrow ends inside this block, before any other slot
                        // is touched.
                        let lp = unsafe { slots.get_mut(i) };
                        if lp.outflow.is_empty() && lp.pending_globals.is_empty() {
                            continue;
                        }
                        (
                            std::mem::take(&mut lp.outflow),
                            std::mem::take(&mut lp.pending_globals),
                        )
                    };
                    for ev in outflow {
                        let dst = slots.directory().lp_of(ev.node);
                        // SAFETY: main-thread exclusivity; the source LP borrow
                        // above has already ended.
                        let dst_lp = unsafe { slots.get_mut(dst.index()) };
                        dst_lp.fel.push(ev);
                    }
                    for pg in pending {
                        public.push(Event {
                            key: EventKey {
                                // Clamp: globals cannot precede the end of the
                                // window that scheduled them.
                                ts: pg.ts.max(window_end),
                                sender_ts: pg.sender_ts,
                                sender_lp: LpId(i as u32),
                                seq: ext_seq,
                            },
                            node: NodeId(u32::MAX),
                            payload: pg.f,
                        });
                        ext_seq += 1;
                    }
                }
                // Execute due global events.
                // `Time::MAX` means "no global event" — it must not satisfy the
                // bound even when the window itself is unbounded (linkless
                // worlds have an infinite lookahead).
                while !stopped && public.next_ts() != Time::MAX && public.next_ts() <= window_end {
                    // INVARIANT: `next_ts != Time::MAX` implies non-empty.
                    let g = public.pop().expect("public FEL non-empty");
                    let now = g.key.ts;
                    end_time = end_time.max(now);
                    site.set((None, now));
                    let mut stop = false;
                    let mut new_globals: Vec<(Time, GlobalFn<N>)> = Vec::new();
                    {
                        // SAFETY: workers wait at B2; the main thread holds
                        // exclusive access to every LP slot.
                        let mut wa = unsafe {
                            WorldAccess::new(
                                now,
                                &slots,
                                &mut graph,
                                &mut partition,
                                &mut topology_dirty,
                                &mut stop,
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
                    global_events += 1;
                    for (ts, f) in new_globals {
                        public.push(Event {
                            key: EventKey::external(ts, ext_seq),
                            node: NodeId(u32::MAX),
                            payload: f,
                        });
                        ext_seq += 1;
                    }
                    if stop {
                        stopped = true;
                    }
                }
                if topology_dirty {
                    partition.recompute_lookahead(&graph);
                }
            }));
            let g_dur = t0.elapsed().as_nanos() as u64;
            main_psm.p_ns += g_dur;
            if let Err(payload) = r {
                contain(
                    &failure,
                    &barrier,
                    kernel_name,
                    round,
                    RunPhase::Global,
                    &site,
                    0,
                    payload,
                );
                break;
            }
            main_tel.span_dur(
                SpanKind::Global,
                round,
                NO_LP,
                tel_start,
                g_dur,
                global_events - globals_before,
                0,
            );
            slots.begin_phase(); // covers phase 3 (released by B2)
            if !fuse {
                wait_timed(
                    &barrier,
                    &mut waiter0,
                    &mut main_psm.s_ns,
                    &mut main_tel,
                    round,
                    2,
                ); // B2
                if barrier.is_poisoned() {
                    break;
                }
            }

            // ---- Phase 3: receive (parallel; fused rounds drain every
            // group serially on the main thread) ----
            let site: Site = Cell::new((None, window_end));
            let tel_start = main_tel.start();
            let t0 = Instant::now();
            let r = catch_unwind(AssertUnwindSafe(|| {
                #[cfg(feature = "fault-inject")]
                {
                    cfg.fault.fire_phase(round, RunPhase::Receive, 0);
                    cfg.fault.fire_stall(round, 0);
                }
                if fuse {
                    let mut recv = 0u64;
                    for (g, cursor) in cursor_recv.iter().enumerate() {
                        recv += receive_phase(
                            &slots,
                            &mailboxes,
                            cursor,
                            &p.group_lps[g],
                            &site,
                            &mut main_tel,
                            round,
                            &mut main_recv_buf,
                        );
                    }
                    recv
                } else {
                    receive_phase(
                        &slots,
                        &mailboxes,
                        &cursor_recv[main_group],
                        &p.group_lps[main_group],
                        &site,
                        &mut main_tel,
                        round,
                        &mut main_recv_buf,
                    )
                }
            }));
            let m_dur = t0.elapsed().as_nanos() as u64;
            main_psm.m_ns += m_dur;
            match r {
                Ok(recv) => {
                    main_tel.span_dur(SpanKind::Receive, round, NO_LP, tel_start, m_dur, recv, 0)
                }
                Err(payload) => {
                    contain(
                        &failure,
                        &barrier,
                        kernel_name,
                        round,
                        RunPhase::Receive,
                        &site,
                        0,
                        payload,
                    );
                    break;
                }
            }
            if !fuse {
                #[cfg(feature = "fault-inject")]
                cfg.fault.fire_barrier_delay(round, 0);
                wait_timed(
                    &barrier,
                    &mut waiter0,
                    &mut main_psm.s_ns,
                    &mut main_tel,
                    round,
                    3,
                ); // B3
                if barrier.is_poisoned() {
                    break;
                }
            }

            // ---- Phase 4: update window + schedule (main thread only) ----
            slots.begin_phase(); // covers phase 4 (workers idle until B0)
            let tel_start = main_tel.start();
            let t0 = Instant::now();
            rounds += 1;
            if fuse {
                fused_rounds += 1;
            }
            let mut min_next = Time::MAX;
            let mut load: u64 = 0;
            let mut recv_total: u64 = 0;
            for i in 0..lp_count {
                // SAFETY: workers are between B3 and B0 (fused rounds: still
                // parked at B0); main is exclusive.
                let lp = unsafe { slots.get_mut(i) };
                min_next = min_next.min(lp.next_ts);
                load += lp.round_events + lp.round_recv;
                recv_total += lp.round_recv;
            }
            let n_pub = public.next_ts();
            let next_window = n_pub.min(min_next.saturating_add(partition.lookahead));
            let done = stopped || (min_next == Time::MAX && n_pub == Time::MAX);

            // Record this round's profile and reset per-round fields.
            if let Some(profile) = rounds_profile.as_mut() {
                let mut rec = RoundRecord {
                    window_start,
                    window_end,
                    fused: fuse,
                    lp_cost_ns: Vec::with_capacity(lp_count),
                    lp_events: Vec::with_capacity(lp_count),
                    lp_recv: Vec::with_capacity(lp_count),
                };
                for i in 0..lp_count {
                    // SAFETY: main-thread exclusivity between barriers.
                    let lp = unsafe { slots.get_mut(i) };
                    rec.lp_cost_ns.push(lp.last_cost_ns as f32);
                    rec.lp_events.push(lp.round_events as u32);
                    rec.lp_recv.push(lp.round_recv as u32);
                }
                profile.push(rec);
            }

            // Load-adaptive scheduling: re-sort the LP order every period.
            if !done
                && cfg.sched.metric != SchedMetric::None
                && rounds.is_multiple_of(sched_period as u64)
            {
                estimates.clear();
                estimates.resize(lp_count, 0);
                match cfg.sched.metric {
                    SchedMetric::ByLastRoundTime => {
                        for (i, e) in estimates.iter_mut().enumerate() {
                            // SAFETY: main-thread exclusivity.
                            *e = unsafe { slots.get_mut(i) }.last_cost_ns;
                        }
                    }
                    SchedMetric::ByPendingEvents => {
                        for (i, e) in estimates.iter_mut().enumerate() {
                            // SAFETY: main-thread exclusivity.
                            let lp = unsafe { slots.get_mut(i) };
                            *e = lp.fel.count_below(next_window) as u64;
                        }
                    }
                    SchedMetric::None => unreachable!(),
                }
                // SAFETY: main-thread exclusivity between B3 and B0.
                let plan_mut = unsafe { &mut *plan.0.get() };
                // Allocation-free LJF: gather each group's estimates and
                // sort into the group's published order slot, all through
                // reused scratch buffers.
                for (g, lps_of_g) in plan_mut.group_lps.iter().enumerate() {
                    group_est.clear();
                    group_est.extend(lps_of_g.iter().map(|&l| estimates[l as usize]));
                    order_by_estimate_into(&group_est, &mut group_order);
                    let out = &mut plan_mut.order[g];
                    out.clear();
                    out.extend(group_order.iter().map(|&i| lps_of_g[i as usize]));
                }
                if sched_log.enabled() {
                    // Log the LJF decision per group: the order applies
                    // from the next round (`rounds + 1`) until the next
                    // re-sort. Estimates ride along for regret analysis.
                    for (g, order_g) in plan_mut.order.iter().enumerate() {
                        sched_log.record(
                            rounds + 1,
                            g as u32,
                            cfg.sched.metric.name(),
                            order_g.clone(),
                            order_g.iter().map(|&l| estimates[l as usize]).collect(),
                        );
                    }
                    // Publish the estimates so phase-1 `lp-task` spans can
                    // carry estimate-vs-actual arguments.
                    plan_mut.est.clear();
                    plan_mut.est.extend_from_slice(&estimates);
                }
            }

            if !done {
                end_time = end_time.max(window_end);
            }
            // Publish the next round's plan.
            {
                // SAFETY: main-thread exclusivity between B3 and B0.
                let plan_mut = unsafe { &mut *plan.0.get() };
                plan_mut.window_start = window_end;
                plan_mut.window_end = next_window;
                plan_mut.done = done;
                // Fused rounds advance `rounds` while the workers stay parked
                // at B0, so the plan carries the authoritative round number.
                plan_mut.round = rounds + 1;
            }
            for cursor in cursors.iter() {
                cursor.begin_round();
            }
            slots.begin_phase(); // covers the next round's phase 1
            let w_dur = t0.elapsed().as_nanos() as u64;
            main_psm.m_ns += w_dur;
            main_tel.span_dur(
                SpanKind::WindowUpdate,
                rounds,
                NO_LP,
                tel_start,
                w_dur,
                window_end.0,
                next_window.0,
            );
            if fuse {
                // A whole-round span marking that every phase of this round
                // ran on the main thread with no barrier crossing. `a` is
                // the round's total load, `b` the cross-LP events it drained
                // (the round that forces the fallback).
                main_tel.span_dur(
                    SpanKind::FusedRound,
                    rounds,
                    NO_LP,
                    round_tel_start,
                    round_t0.elapsed().as_nanos() as u64,
                    load,
                    recv_total,
                );
            }
            // Feed the fusion predictor for the next round.
            last_load = load;
            last_recv = recv_total;
            last_fused = fuse;
            // One round completed: feed the watchdog.
            wd.tick();
        }

        // Unblock the monitor thread (if any) before joining workers, so a
        // clean shutdown never waits out the deadline.
        wd.finish();
        for (i, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok((psm, tel)) => {
                    worker_psm.push(psm);
                    worker_tels.push(tel);
                }
                // Workers contain their own panics, so a join error means
                // the containment machinery itself died (e.g. a panic in
                // barrier bookkeeping). Record it instead of propagating —
                // `try_run` must not panic.
                Err(payload) => {
                    barrier.poison();
                    record_failure(
                        &failure,
                        FailureDiagnostics {
                            kernel: kernel_name,
                            round: rounds,
                            phase: RunPhase::Control,
                            lp: None,
                            virtual_time: end_time,
                            worker: i + 1,
                            panic_message: panic_message(payload.as_ref()),
                        },
                    );
                }
            }
        }
    });

    let wall = started.elapsed();
    let stalled = wd.stalled();
    let (mut lps, _) = slots.into_inner();
    // An abort can leave cross-LP events sent in the aborted round's process
    // phase undelivered (the receive phase never ran). Deliver them now so
    // the stall diagnosis sees every LP that still has work; on a completed
    // run the mailboxes are already empty.
    for lp in lps.iter_mut() {
        let id = lp.id.0;
        mailboxes.drain(id, |ev| lp.fel.push(ev));
    }
    let lp_totals = LpTotals {
        events: lps.iter().map(|lp| lp.total_events).collect(),
        cost_ns: lps.iter().map(|lp| lp.last_cost_ns).collect(),
        node_switches: lps.iter().map(|lp| lp.node_switches).collect(),
    };
    let events: u64 = lp_totals.events.iter().sum();
    let mut psm = vec![main_psm];
    psm.extend(worker_psm);
    let mut tels = vec![main_tel];
    tels.extend(worker_tels);
    let (pool_hits, pool_misses) = mailboxes.pool_stats();
    let sched_stats = SchedStats {
        policy: cfg.sched.policy.name(),
        claims: cursors.iter().map(LjfCursor::claims).sum(),
        ..Default::default()
    };
    let report = RunReport {
        kernel: format!("{kernel_name}({threads})"),
        wall,
        events,
        global_events,
        rounds,
        fused_rounds,
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
        sched: sched_stats,
        rounds_profile,
        telemetry: telctx.collect(tels, sched_log),
        recovery: None,
        async_stats: None,
    };
    if let Some(diag) = failure.into_inner().unwrap_or_else(|e| e.into_inner()) {
        return Err(SimError::WorkerPanic {
            diag,
            partial: Box::new(report),
        });
    }
    if stalled {
        let blocked: Vec<LpId> = lps
            .iter()
            .filter(|lp| lp.fel.next_ts() != Time::MAX || !lp.outflow.is_empty())
            .map(|lp| lp.id)
            .collect();
        let diag = StallDiagnostics {
            kernel: kernel_name,
            round: rounds,
            deadline: cfg.watchdog.round_deadline.unwrap_or_default(),
            virtual_time: end_time,
            blocked,
            cycle: Vec::new(),
        };
        return Err(SimError::Stalled {
            diag,
            partial: Box::new(report),
        });
    }
    let world = reassemble_world(lps, &partition, graph, stop_at);
    Ok((world, report))
}

/// Records a contained panic's diagnostics (first failure wins) and poisons
/// the barrier so every other thread drains out of the round loop.
#[allow(clippy::too_many_arguments)]
fn contain(
    failure: &Mutex<Option<FailureDiagnostics>>,
    barrier: &TreeBarrier,
    kernel: &'static str,
    round: u64,
    phase: RunPhase,
    site: &Site,
    worker: usize,
    payload: Box<dyn std::any::Any + Send>,
) {
    let (lp, virtual_time) = site.get();
    record_failure(
        failure,
        FailureDiagnostics {
            kernel,
            round,
            phase,
            lp,
            virtual_time,
            worker,
            panic_message: panic_message(payload.as_ref()),
        },
    );
    barrier.poison();
}

/// Barrier wait with the blocked time charged to `s_ns` and recorded as a
/// `barrier-wait` span (`arg` = barrier index 0–3 within `round`). The
/// wall-clock measurement lives in [`TreeBarrier::wait_timed`].
#[inline]
#[allow(clippy::too_many_arguments)]
fn wait_timed(
    barrier: &TreeBarrier,
    waiter: &mut TreeWaiter,
    s_ns: &mut u64,
    tel: &mut WorkerTel,
    round: u64,
    which: u64,
) {
    let tel_start = tel.start();
    let before = *s_ns;
    barrier.wait_timed(waiter, s_ns);
    tel.span_dur(
        SpanKind::BarrierWait,
        round,
        NO_LP,
        tel_start,
        *s_ns - before,
        which,
        0,
    );
}

/// Phase 1: claim LPs through the group's LJF cursor and execute their
/// window events. Returns the number of events this worker executed.
#[allow(clippy::too_many_arguments)]
fn process_phase<N: SimNode>(
    slots: &LpSlots<N>,
    mailboxes: &Mailboxes<N::Payload>,
    cursor: &LjfCursor,
    order: &[u32],
    plan: &RoundPlan,
    stop_flag: &AtomicBool,
    site: &Site,
    tel: &mut WorkerTel,
    round: u64,
) -> u64 {
    let dir = slots.directory();
    let mut total_events: u64 = 0;
    while let Some(i) = cursor.claim() {
        let lp_idx = order[i] as usize;
        // SAFETY: `LjfCursor::claim` hands each position to exactly one
        // worker per round (each `fetch_add` returns a distinct index); phases
        // are separated by barriers.
        let lp = unsafe { slots.get_mut(lp_idx) };
        // The cache is exact here: it was refreshed at the end of the last
        // receive phase (after outflow routing), and the window-planning
        // phase between never touches LP FELs. Probing the cache instead of
        // the FEL keeps the idle-LP skip O(1) under the ladder backend,
        // whose `next_ts` may scan a rung bucket.
        debug_assert_eq!(lp.next_ts, lp.fel.next_ts(), "stale next_ts cache");
        if lp.next_ts >= plan.window_end {
            // Idle this round: skip the clock calls entirely so idle LPs
            // record zero cost (and cost nothing).
            lp.round_events = 0;
            lp.last_cost_ns = 0;
            continue;
        }
        let tel_start = tel.start();
        let t0 = Instant::now();
        let mut round_events: u64 = 0;
        while let Some(ev) = lp.fel.pop_below(plan.window_end) {
            if ev.node.0 != lp.last_node {
                lp.node_switches += 1;
                lp.last_node = ev.node.0;
            }
            let (owner, local) = dir.locate(ev.node);
            debug_assert_eq!(owner, lp.id, "event routed to wrong LP");
            site.set((Some(lp.id), ev.key.ts));
            let node = &mut lp.nodes[local as usize];
            let mut ctx = RoundCtx::<N> {
                now: ev.key.ts,
                self_node: ev.node,
                lp_id: lp.id,
                window_end: plan.window_end,
                fel: &mut lp.fel,
                seq: &mut lp.seq,
                outflow: &mut lp.outflow,
                pending_globals: &mut lp.pending_globals,
                dir,
                mailboxes: Some(mailboxes),
                stop_flag,
            };
            node.handle(ev.payload, &mut ctx);
            round_events += 1;
        }
        lp.round_events = round_events;
        lp.total_events += round_events;
        lp.last_cost_ns = t0.elapsed().as_nanos() as u64;
        total_events += round_events;
        if tel.enabled() {
            // `plan.est` is only published when telemetry records; 0 means
            // "no estimate" (before the first re-sort, or metric None).
            let est = plan.est.get(lp_idx).copied().unwrap_or(0);
            tel.span_dur(
                SpanKind::LpTask,
                round,
                lp_idx as u32,
                tel_start,
                lp.last_cost_ns,
                round_events,
                est,
            );
        }
    }
    total_events
}

/// Phase 3: claim LPs and drain their mailboxes into their FELs. Returns
/// the number of events this worker received.
///
/// The hand-off is batched: `Mailboxes::drain_batch` appends each claimed
/// LP's pending events (recycling the queue nodes onto their pools) into
/// this worker's reusable `recv_buf`, and `Fel::extend` ingests the whole
/// batch at once — no per-event closure dispatch, no per-event heap sift,
/// and zero allocation once `recv_buf` has grown to the steady-state burst
/// size.
#[allow(clippy::too_many_arguments)]
fn receive_phase<N: SimNode>(
    slots: &LpSlots<N>,
    mailboxes: &Mailboxes<N::Payload>,
    cursor: &AtomicUsize,
    group_lps: &[u32],
    site: &Site,
    tel: &mut WorkerTel,
    round: u64,
    recv_buf: &mut Vec<Event<N::Payload>>,
) -> u64 {
    let mut total_recv: u64 = 0;
    loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= group_lps.len() {
            break;
        }
        let lp_idx = group_lps[i] as usize;
        site.set((Some(LpId(lp_idx as u32)), site.get().1));
        // SAFETY: unique claim via the cursor, as in `process_phase`.
        let lp = unsafe { slots.get_mut(lp_idx) };
        let tel_start = tel.start();
        debug_assert!(recv_buf.is_empty());
        let recv = mailboxes.drain_batch(lp_idx as u32, recv_buf) as u64;
        if tel.enabled() {
            for ev in recv_buf.iter() {
                tel.edge(ev.key.sender_lp.0, lp_idx as u32);
            }
        }
        lp.fel.extend(recv_buf.drain(..));
        lp.round_recv = recv;
        lp.refresh_next_ts();
        total_recv += recv;
        if recv > 0 {
            tel.span(
                SpanKind::MailboxFlush,
                round,
                lp_idx as u32,
                tel_start,
                recv,
            );
        }
    }
    total_recv
}
