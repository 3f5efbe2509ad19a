//! The barrier-synchronization PDES baseline (ns-3's distributed simulator).
//!
//! One OS thread is pinned to each LP of a *static* partition. Execution
//! proceeds in rounds: all threads compute the LBTS (Eq. 1), process their
//! events inside the window, then meet at a global barrier before exchanging
//! cross-LP events and starting the next round.
//!
//! Faithful to the baseline it models:
//!
//! - simultaneous events run in *insertion order* (ns-3 semantics), and the
//!   insertion order of cross-LP events depends on real-time arrival
//!   interleaving — so repeated parallel runs are **not deterministic**
//!   (reproducing Fig. 11's observation);
//! - global events are not supported (only stopping at a fixed time);
//! - the partition is fixed: LP count = thread count, chosen by the user.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::error::{
    panic_message, record_failure, FailureDiagnostics, RunPhase, SimError, StallDiagnostics,
};
use crate::event::{Event, EventKey, LpId, NodeId};
use crate::fel::Fel;
use crate::global::GlobalFn;
use crate::lp::LpState;
use crate::metrics::{
    EngineStats, LpTotals, MetricsLevel, Psm, RoundRecord, RunReport, SchedStats,
};
use crate::queue::MpscQueue;
use crate::sync::TreeBarrier;
use crate::telemetry::{SpanKind, TelContext, WorkerTel};
use crate::time::Time;
use crate::world::{NodeDirectory, SimCtx, SimNode, World};

use super::watchdog::Watchdog;
use super::{build_lps, build_partition, reassemble_world, KernelError, RunConfig};

/// Per-LP thread result: final state, P/S/M, samples, end time, rounds,
/// telemetry sink (thread = LP here, so spans carry the LP id).
type LpResult<N> = (LpState<N>, Psm, Vec<RoundSample>, Time, u64, WorkerTel);

/// Per-thread, per-round sample kept for `MetricsLevel::PerRound`.
struct RoundSample {
    window_start: Time,
    window_end: Time,
    cost_ns: f32,
    events: u32,
    recv: u32,
}

/// [`SimCtx`] for the LP-pinned baselines: ns-3 insertion-order keys.
pub(crate) struct PinnedCtx<'a, N: SimNode> {
    pub now: Time,
    pub self_node: NodeId,
    pub lp_id: LpId,
    pub fel: &'a mut Fel<N::Payload>,
    /// Local insertion counter (FIFO among simultaneous events).
    pub insert_seq: &'a mut u64,
    pub dir: &'a NodeDirectory,
    /// One shared inbox per LP; arrival order is real-time interleaved.
    pub inboxes: &'a [MpscQueue<Event<N::Payload>>],
    pub stop_flag: &'a AtomicBool,
    pub kernel_name: &'static str,
}

impl<N: SimNode> SimCtx<N> for PinnedCtx<'_, N> {
    fn now(&self) -> Time {
        self.now
    }

    fn self_node(&self) -> NodeId {
        self.self_node
    }

    fn schedule(&mut self, delay: Time, target: NodeId, payload: N::Payload) {
        let ts = self.now.saturating_add(delay);
        let dst = self.dir.lp_of(target);
        if dst == self.lp_id {
            let key = EventKey {
                ts,
                sender_ts: Time::ZERO,
                sender_lp: LpId(0),
                seq: *self.insert_seq,
            };
            *self.insert_seq += 1;
            self.fel.push(Event {
                key,
                node: target,
                payload,
            });
        } else {
            // The receiver assigns the insertion sequence when it drains its
            // inbox; only the timestamp travels.
            self.inboxes[dst.index()].push(Event {
                key: EventKey {
                    ts,
                    sender_ts: Time::ZERO,
                    sender_lp: LpId(0),
                    seq: 0,
                },
                node: target,
                payload,
            });
        }
    }

    fn schedule_global(&mut self, _delay: Time, _f: GlobalFn<N>) {
        panic!(
            "kernel `{}` does not support global events scheduled from \
             node handlers; use the Unison kernel",
            self.kernel_name
        );
    }

    fn request_stop(&mut self) {
        self.stop_flag.store(true, Ordering::Release);
    }
}

pub(super) fn run<N: SimNode>(
    world: World<N>,
    cfg: &RunConfig,
) -> Result<(World<N>, RunReport), SimError> {
    if !world.init_globals.is_empty() {
        return Err(KernelError::GlobalEventsUnsupported("barrier").into());
    }
    let partition = build_partition(&world, &cfg.partition)?;
    let (lps, dir, graph, _globals, stop_at, _restored_ext_seq) = build_lps(world, &partition);
    let lp_count = lps.len();
    if lp_count == 0 {
        return Err(KernelError::InvalidPartition("world has no nodes".into()).into());
    }
    let lookahead = partition.lookahead;
    let bound = stop_at.unwrap_or(Time::MAX);
    let per_round = cfg.metrics == MetricsLevel::PerRound;

    let inboxes: Vec<MpscQueue<Event<N::Payload>>> =
        (0..lp_count).map(|_| MpscQueue::new()).collect();
    // PADDING: the lock-step kernel is the deliberately naive baseline the
    // paper compares against; each word has a single writer per round.
    let next_ts: Vec<AtomicU64> = lps.iter().map(|lp| AtomicU64::new(lp.next_ts.0)).collect();
    let barrier = TreeBarrier::new(lp_count);
    let stop_flag = AtomicBool::new(false);

    let started = Instant::now();
    let mut results: Vec<Option<LpResult<N>>> = Vec::with_capacity(lp_count);

    // Telemetry: one sink per LP thread (DESIGN.md §4.3). This kernel has
    // no scheduler, so the decision log stays empty; inbox events do not
    // carry their sender (ns-3 semantics zero it), so no traffic matrix.
    let telctx = TelContext::new(&cfg.telemetry);
    let sched_log = telctx.sched_log();

    // Crash safety (DESIGN.md §4.2): first contained panic wins the slot;
    // the watchdog aborts rounds exceeding the wall-clock deadline. Both
    // poison the barrier and raise the stop flag so survivors drain.
    let failure: Mutex<Option<FailureDiagnostics>> = Mutex::new(None);
    let wd = Watchdog::new();

    std::thread::scope(|scope| {
        if let Some(deadline) = cfg.watchdog.round_deadline {
            let wd = &wd;
            let barrier = &barrier;
            let stop_flag = &stop_flag;
            scope.spawn(move || {
                wd.monitor(deadline, || {
                    stop_flag.store(true, Ordering::Release);
                    barrier.poison();
                });
            });
        }

        let mut handles = Vec::new();
        for (idx, mut lp) in lps.into_iter().enumerate() {
            let inboxes = &inboxes;
            let next_ts = &next_ts;
            let barrier = &barrier;
            let stop_flag = &stop_flag;
            let dir = &dir;
            let failure = &failure;
            let wd = &wd;
            let telctx = &telctx;
            handles.push(scope.spawn(move || {
                // Failure site, readable after a contained panic.
                let round_c: Cell<u64> = Cell::new(0);
                let vt_c: Cell<Time> = Cell::new(Time::ZERO);
                let body = catch_unwind(AssertUnwindSafe(|| {
                    let mut psm = Psm::default();
                    let mut waiter = barrier.waiter(idx);
                    let mut tel = telctx.worker(idx as u32);
                    let mut samples: Vec<RoundSample> = Vec::new();
                    let mut insert_seq: u64 = lp.fel.len() as u64;
                    let mut end_time = Time::ZERO;
                    let mut rounds: u64 = 0;
                    let mut last_window = Time::ZERO;
                    loop {
                        // LBTS: min over all LPs' next timestamps + lookahead.
                        let mut min = Time::MAX;
                        for a in next_ts.iter() {
                            min = min.min(Time(a.load(Ordering::Acquire)));
                        }
                        if min >= bound || min == Time::MAX || stop_flag.load(Ordering::Acquire) {
                            break;
                        }
                        let window_end = min.saturating_add(lookahead).min(bound);
                        rounds += 1;
                        round_c.set(rounds);

                        // Process.
                        let tel_start = tel.start();
                        let t0 = Instant::now();
                        let mut round_events: u32 = 0;
                        while let Some(ev) = lp.fel.pop_below(window_end) {
                            if ev.node.0 != lp.last_node {
                                lp.node_switches += 1;
                                lp.last_node = ev.node.0;
                            }
                            end_time = end_time.max(ev.key.ts);
                            vt_c.set(ev.key.ts);
                            let (owner, local) = dir.locate(ev.node);
                            debug_assert_eq!(owner, lp.id);
                            let node = &mut lp.nodes[local as usize];
                            let mut ctx = PinnedCtx::<N> {
                                now: ev.key.ts,
                                self_node: ev.node,
                                lp_id: lp.id,
                                fel: &mut lp.fel,
                                insert_seq: &mut insert_seq,
                                dir,
                                inboxes,
                                stop_flag,
                                kernel_name: "barrier",
                            };
                            node.handle(ev.payload, &mut ctx);
                            round_events += 1;
                        }
                        lp.total_events += round_events as u64;
                        let cost = t0.elapsed().as_nanos() as u64;
                        psm.p_ns += cost;
                        tel.span_dur(
                            SpanKind::Process,
                            rounds,
                            idx as u32,
                            tel_start,
                            cost,
                            round_events as u64,
                            0,
                        );

                        // Watchdog: a round only counts as progress when it
                        // executed events or moved the window — an empty
                        // zero-lookahead round loop must trip the deadline,
                        // not feed it.
                        if round_events > 0 || window_end > last_window {
                            wd.tick();
                        }
                        last_window = window_end;

                        // Synchronize: everyone must finish sending first.
                        let tel_start = tel.start();
                        let s_before = psm.s_ns;
                        barrier.wait_timed(&mut waiter, &mut psm.s_ns);
                        tel.span_dur(
                            SpanKind::BarrierWait,
                            rounds,
                            idx as u32,
                            tel_start,
                            psm.s_ns - s_before,
                            0,
                            0,
                        );

                        // Receive: drain the shared inbox in arrival order.
                        let tel_start = tel.start();
                        let t0 = Instant::now();
                        let mut recv: u32 = 0;
                        inboxes[idx].drain(|mut ev| {
                            ev.key.seq = insert_seq;
                            insert_seq += 1;
                            lp.fel.push(ev);
                            recv += 1;
                        });
                        next_ts[idx].store(lp.fel.next_ts().0, Ordering::Release);
                        let m_cost = t0.elapsed().as_nanos() as u64;
                        psm.m_ns += m_cost;
                        tel.span_dur(
                            SpanKind::MailboxFlush,
                            rounds,
                            idx as u32,
                            tel_start,
                            m_cost,
                            recv as u64,
                            0,
                        );

                        if per_round {
                            samples.push(RoundSample {
                                window_start: min,
                                window_end,
                                cost_ns: cost as f32,
                                events: round_events,
                                recv,
                            });
                        }

                        // Second barrier: next timestamps are published.
                        let tel_start = tel.start();
                        let s_before = psm.s_ns;
                        barrier.wait_timed(&mut waiter, &mut psm.s_ns);
                        tel.span_dur(
                            SpanKind::BarrierWait,
                            rounds,
                            idx as u32,
                            tel_start,
                            psm.s_ns - s_before,
                            1,
                            0,
                        );
                    }
                    (lp, psm, samples, end_time, rounds, tel)
                }));
                match body {
                    Ok(res) => Some(res),
                    Err(payload) => {
                        record_failure(
                            failure,
                            FailureDiagnostics {
                                kernel: "barrier",
                                round: round_c.get(),
                                phase: RunPhase::Process,
                                lp: Some(LpId(idx as u32)),
                                virtual_time: vt_c.get(),
                                worker: idx,
                                panic_message: panic_message(payload.as_ref()),
                            },
                        );
                        // Release every thread blocked at the barrier and
                        // stop the round loop; the panicking LP's state is
                        // lost (mid-event), so the world is not reassembled.
                        stop_flag.store(true, Ordering::Release);
                        barrier.poison();
                        // Unblock peers' LBTS loop: without our next_ts this
                        // LP would still bound the window.
                        next_ts[idx].store(Time::MAX.0, Ordering::Release);
                        None
                    }
                }
            }));
        }
        for (idx, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(res) => results.push(res),
                // The thread body is fully contained; a join error means the
                // containment itself died. Record it — `try_run` must not
                // panic.
                Err(payload) => {
                    stop_flag.store(true, Ordering::Release);
                    barrier.poison();
                    record_failure(
                        &failure,
                        FailureDiagnostics {
                            kernel: "barrier",
                            round: 0,
                            phase: RunPhase::Control,
                            lp: Some(LpId(idx as u32)),
                            virtual_time: Time::ZERO,
                            worker: idx,
                            panic_message: panic_message(payload.as_ref()),
                        },
                    );
                    results.push(None);
                }
            }
        }
        wd.finish();
    });

    let wall = started.elapsed();
    let stalled = wd.stalled();
    let mut results: Vec<LpResult<N>> = results.into_iter().flatten().collect();
    let complete = results.len() == lp_count;
    // Threads finish in join order; restore LP order by id.
    results.sort_by_key(|(lp, ..)| lp.id);
    let rounds = results.first().map_or(0, |r| r.4);
    let rounds_profile = if per_round && complete {
        let n_rounds = results[0].2.len();
        let mut profile = Vec::with_capacity(n_rounds);
        for r in 0..n_rounds {
            profile.push(RoundRecord {
                window_start: results[0].2[r].window_start,
                window_end: results[0].2[r].window_end,
                fused: false,
                lp_cost_ns: results.iter().map(|(_, _, s, ..)| s[r].cost_ns).collect(),
                lp_events: results.iter().map(|(_, _, s, ..)| s[r].events).collect(),
                lp_recv: results.iter().map(|(_, _, s, ..)| s[r].recv).collect(),
            });
        }
        Some(profile)
    } else {
        None
    };

    let end_time = results
        .iter()
        .map(|(_, _, _, t, _, _)| *t)
        .fold(Time::ZERO, Time::max);
    let psm: Vec<Psm> = results.iter().map(|(_, p, ..)| *p).collect();
    let mut tels: Vec<WorkerTel> = Vec::with_capacity(results.len());
    let mut lps: Vec<LpState<N>> = Vec::with_capacity(results.len());
    for (lp, _, _, _, _, tel) in results {
        lps.push(lp);
        tels.push(tel);
    }
    let lp_totals = LpTotals {
        events: lps.iter().map(|lp| lp.total_events).collect(),
        cost_ns: vec![0; lps.len()],
        node_switches: lps.iter().map(|lp| lp.node_switches).collect(),
    };
    let events = lp_totals.events.iter().sum();
    let report = RunReport {
        kernel: "barrier".into(),
        wall,
        events,
        global_events: 0,
        rounds,
        fused_rounds: 0,
        lp_count: lp_count as u32,
        threads: lp_count as u32,
        lookahead,
        end_time,
        psm,
        psm_per_lp: true,
        lp_totals,
        // The shared inboxes have multiple concurrent producers, so this
        // kernel keeps the plain allocating push (no pool).
        engine: EngineStats::default(),
        sched: SchedStats::default(),
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
            .filter(|lp| lp.fel.next_ts() < bound)
            .map(|lp| lp.id)
            .collect();
        let diag = StallDiagnostics {
            kernel: "barrier",
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
