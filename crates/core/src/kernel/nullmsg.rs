//! The null-message (Chandy–Misra–Bryant) PDES baseline.
//!
//! One OS thread is pinned to each LP of a static partition. Instead of
//! global barriers, neighbor LPs exchange *channel clock* promises ("no
//! event earlier than t will ever arrive from this neighbor"): an LP may
//! safely process events up to the minimum of its input channel clocks.
//! After each processing step an LP eagerly refreshes its output promises —
//! the null messages — to `min(next local event, input safety) + channel
//! lookahead`, which is monotonically non-decreasing, so simulations with
//! positive lookahead on every channel never deadlock.
//!
//! Cross-LP events are delivered through a per-destination inbox and merged
//! into the destination FEL whenever the destination iterates; the channel
//! clocks alone bound what may be *processed*, so early delivery is safe
//! (every event's timestamp is at least the promise its sender had already
//! published).
//!
//! As with the barrier baseline, cross-LP arrival interleaving makes
//! repeated parallel runs nondeterministic, and global events are not
//! supported.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use crate::error::{
    panic_message, record_failure, FailureDiagnostics, RunPhase, SimError, StallDiagnostics,
};
use crate::event::{Event, LpId};
use crate::lp::LpState;
use crate::metrics::{EngineStats, LpTotals, Psm, RunReport, SchedStats};
use crate::queue::MpscQueue;
use crate::telemetry::{SpanKind, TelContext, WorkerTel};
use crate::time::Time;
use crate::world::{SimNode, World};

use super::barrier::PinnedCtx;
use super::watchdog::Watchdog;
use super::{build_lps, build_partition, reassemble_world, KernelError, RunConfig};

/// Wake-up channel for one LP thread: version counter + condvar.
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

    /// Signals the owner that some input changed.
    fn bump(&self) {
        // A poisoned waker lock (a bumper panicked mid-bump) must not take
        // the containment path down with it: the counter is a plain u64, so
        // the value is usable regardless.
        let mut v = self.version.lock().unwrap_or_else(|e| e.into_inner());
        *v += 1;
        self.cond.notify_all();
    }
}

/// Per-LP completion record: final state, P/S/M, local clock, iterations,
/// telemetry sink (thread = LP here, so spans carry the LP id).
type LpDone<N> = (LpState<N>, Psm, Time, u64, WorkerTel);

pub(super) fn run<N: SimNode>(
    world: World<N>,
    cfg: &RunConfig,
) -> Result<(World<N>, RunReport), SimError> {
    if !world.init_globals.is_empty() {
        return Err(KernelError::GlobalEventsUnsupported("nullmsg").into());
    }
    let partition = build_partition(&world, &cfg.partition)?;
    let channels = partition.lp_channels(&world.graph);
    let (lps, dir, graph, _globals, stop_at, _restored_ext_seq) = build_lps(world, &partition);
    let lp_count = lps.len();
    if lp_count == 0 {
        return Err(KernelError::InvalidPartition("world has no nodes".into()).into());
    }
    // Without a stop time, promise propagation on an empty FEL would creep
    // forward by one lookahead per exchange and never terminate; the CMB
    // kernel therefore requires an explicit horizon (as ns-3's does).
    let bound = match stop_at {
        Some(t) => t,
        None => {
            return Err(KernelError::InvalidConfig(
                "the null-message kernel requires a stop time".into(),
            )
            .into())
        }
    };

    // Directed channels: two per undirected LP pair. `chan_clock[c]` holds
    // the source's promise for that direction.
    let mut chan_src: Vec<u32> = Vec::new();
    let mut chan_dst: Vec<u32> = Vec::new();
    let mut chan_la: Vec<Time> = Vec::new();
    for (a, b, la) in &channels {
        chan_src.push(a.0);
        chan_dst.push(b.0);
        chan_la.push(*la);
        chan_src.push(b.0);
        chan_dst.push(a.0);
        chan_la.push(*la);
    }
    let chan_count = chan_src.len();
    // PADDING: the null-message kernel is a comparison baseline; each
    // channel clock has a single writer (the source LP's current owner).
    let chan_clock: Vec<AtomicU64> = (0..chan_count).map(|_| AtomicU64::new(0)).collect();
    let mut in_chans: Vec<Vec<usize>> = vec![Vec::new(); lp_count];
    let mut out_chans: Vec<Vec<usize>> = vec![Vec::new(); lp_count];
    for c in 0..chan_count {
        out_chans[chan_src[c] as usize].push(c);
        in_chans[chan_dst[c] as usize].push(c);
    }

    let wakers: Vec<Waker> = (0..lp_count).map(|_| Waker::new()).collect();
    let stop_flag = AtomicBool::new(false);
    // Per-destination inboxes (arrival order is real-time interleaved).
    let inboxes: Vec<MpscQueue<Event<N::Payload>>> =
        (0..lp_count).map(|_| MpscQueue::new()).collect();

    let started = Instant::now();
    let mut results: Vec<Option<LpDone<N>>> = Vec::with_capacity(lp_count);

    // Telemetry: one sink per LP thread (DESIGN.md §4.3). No scheduler →
    // empty decision log; inbox events do not carry their sender (ns-3
    // semantics zero it), so no traffic matrix. The CMB iteration maps to
    // the span `round` field.
    let telctx = TelContext::new(&cfg.telemetry);
    let sched_log = telctx.sched_log();

    // Crash safety (DESIGN.md §4.2). Aborts (contained panic or watchdog)
    // raise the stop flag and bump every waker so sleeping LPs re-check it.
    let failure: Mutex<Option<FailureDiagnostics>> = Mutex::new(None);
    let wd = Watchdog::new();
    // Channel promises as they stood when the watchdog fired: the abort
    // drain overwrites the live clocks with `u64::MAX`, so the stall
    // diagnosis walks this snapshot instead.
    // PADDING: written only on the abort drain — a cold failure path.
    let stall_clocks: Vec<AtomicU64> = (0..chan_count).map(|_| AtomicU64::new(u64::MAX)).collect();

    std::thread::scope(|scope| {
        if let Some(deadline) = cfg.watchdog.round_deadline {
            let wd = &wd;
            let wakers = &wakers;
            let stop_flag = &stop_flag;
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
                });
            });
        }

        let mut handles = Vec::new();
        for (idx, mut lp) in lps.into_iter().enumerate() {
            let chan_clock = &chan_clock;
            let chan_la = &chan_la;
            let chan_dst = &chan_dst;
            let in_chans = &in_chans[idx];
            let out_chans = &out_chans[idx];
            let wakers = &wakers;
            let inboxes = &inboxes;
            let stop_flag = &stop_flag;
            let dir = &dir;
            let failure = &failure;
            let wd = &wd;
            let telctx = &telctx;
            handles.push(scope.spawn(move || {
                // Failure site, readable after a contained panic.
                let iter_c: Cell<u64> = Cell::new(0);
                let vt_c: Cell<Time> = Cell::new(Time::ZERO);
                let body = catch_unwind(AssertUnwindSafe(|| {
                    let mut psm = Psm::default();
                    let mut tel = telctx.worker(idx as u32);
                    let mut insert_seq: u64 = lp.fel.len() as u64;
                    let mut end_time = Time::ZERO;
                    let mut iterations: u64 = 0;
                    loop {
                        iterations += 1;
                        iter_c.set(iterations);
                        // Receive every delivered event (messaging time).
                        let tel_start = tel.start();
                        let t0 = Instant::now();
                        let mut recv: u64 = 0;
                        inboxes[idx].drain(|mut ev| {
                            ev.key.seq = insert_seq;
                            insert_seq += 1;
                            lp.fel.push(ev);
                            recv += 1;
                        });
                        let m_cost = t0.elapsed().as_nanos() as u64;
                        psm.m_ns += m_cost;
                        if recv > 0 {
                            tel.span_dur(
                                SpanKind::MailboxFlush,
                                iterations,
                                idx as u32,
                                tel_start,
                                m_cost,
                                recv,
                                0,
                            );
                        }

                        // Abort drain: exit *before* processing anything further,
                        // so a watchdog/panic abort leaves every FEL (and hence
                        // the stall diagnosis) intact.
                        if stop_flag.load(Ordering::Acquire) {
                            for &c in out_chans {
                                chan_clock[c].store(u64::MAX, Ordering::Release);
                                wakers[chan_dst[c] as usize].bump();
                            }
                            break;
                        }

                        // Safety bound: min over input channel clocks.
                        let mut safe = Time::MAX;
                        for &c in in_chans {
                            safe = safe.min(Time(chan_clock[c].load(Ordering::Acquire)));
                        }
                        let limit = safe.min(bound);

                        // Process events strictly below the limit.
                        let tel_start = tel.start();
                        let t0 = Instant::now();
                        let mut processed: u64 = 0;
                        while let Some(ev) = lp.fel.pop_below(limit) {
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
                                kernel_name: "nullmsg",
                            };
                            node.handle(ev.payload, &mut ctx);
                            processed += 1;
                        }
                        lp.total_events += processed;
                        let p_cost = t0.elapsed().as_nanos() as u64;
                        psm.p_ns += p_cost;
                        if processed > 0 {
                            tel.span_dur(
                                SpanKind::Process,
                                iterations,
                                idx as u32,
                                tel_start,
                                p_cost,
                                processed,
                                0,
                            );
                        }

                        // Null messages: refresh output promises. `lb` is a lower
                        // bound on the timestamp of anything this LP may still
                        // process, hence `lb + lookahead` bounds future sends.
                        let t0 = Instant::now();
                        let lb = lp.fel.next_ts().min(safe);
                        let finished = safe >= bound && lp.fel.next_ts() >= bound;
                        let mut wake: Vec<u32> = Vec::with_capacity(out_chans.len());
                        let mut progressed = processed > 0;
                        for &c in out_chans {
                            let promise = if finished {
                                Time::MAX
                            } else {
                                lb.saturating_add(chan_la[c])
                            };
                            let prev = chan_clock[c].fetch_max(promise.0, Ordering::AcqRel);
                            if prev < promise.0 || processed > 0 {
                                if prev < promise.0 {
                                    progressed = true;
                                }
                                // A neighbor must re-check when our promise rose
                                // or when we may have sent it events.
                                let dst = chan_dst[c];
                                if !wake.contains(&dst) {
                                    wake.push(dst);
                                }
                            }
                        }
                        for dst in wake {
                            wakers[dst as usize].bump();
                        }
                        // Watchdog: executed events or a rising promise is
                        // progress; a conservative deadlock (zero-lookahead
                        // cycle) produces neither and trips the deadline.
                        if progressed {
                            wd.tick();
                        }
                        psm.m_ns += t0.elapsed().as_nanos() as u64;

                        if finished || stop_flag.load(Ordering::Acquire) {
                            for &c in out_chans {
                                chan_clock[c].store(u64::MAX, Ordering::Release);
                                wakers[chan_dst[c] as usize].bump();
                            }
                            break;
                        }

                        if processed == 0 {
                            // No progress: sleep until an input changes. The
                            // version lock is held while re-checking, and every
                            // writer bumps under the same lock, so wake-ups are
                            // never lost.
                            let tel_start = tel.start();
                            let t0 = Instant::now();
                            let guard = wakers[idx]
                                .version
                                .lock()
                                .unwrap_or_else(|e| e.into_inner());
                            let mut cur = Time::MAX;
                            for &c in in_chans {
                                cur = cur.min(Time(chan_clock[c].load(Ordering::Acquire)));
                            }
                            if cur <= safe
                                && inboxes[idx].is_empty()
                                && !stop_flag.load(Ordering::Acquire)
                            {
                                let _guard = wakers[idx]
                                    .cond
                                    .wait(guard)
                                    .unwrap_or_else(|e| e.into_inner());
                            }
                            let s_cost = t0.elapsed().as_nanos() as u64;
                            psm.s_ns += s_cost;
                            // The CMB analogue of a barrier wait: blocked on
                            // neighbor promises.
                            tel.span_dur(
                                SpanKind::BarrierWait,
                                iterations,
                                idx as u32,
                                tel_start,
                                s_cost,
                                0,
                                0,
                            );
                        }
                    }
                    (lp, psm, end_time, iterations, tel)
                }));
                match body {
                    Ok(res) => Some(res),
                    Err(payload) => {
                        record_failure(
                            failure,
                            FailureDiagnostics {
                                kernel: "nullmsg",
                                round: iter_c.get(),
                                phase: RunPhase::Process,
                                lp: Some(LpId(idx as u32)),
                                virtual_time: vt_c.get(),
                                worker: idx,
                                panic_message: panic_message(payload.as_ref()),
                            },
                        );
                        stop_flag.store(true, Ordering::Release);
                        // This LP will never advance its promises again:
                        // release its output channels so neighbors' safety
                        // bounds are not pinned by a dead LP, then wake
                        // everyone to observe the stop flag.
                        for &c in out_chans {
                            chan_clock[c].store(u64::MAX, Ordering::Release);
                        }
                        for w in wakers.iter() {
                            w.bump();
                        }
                        None
                    }
                }
            }));
        }
        for (idx, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(res) => results.push(res),
                // Thread bodies are fully contained; a join error means the
                // containment itself died. Record it — `try_run` must not
                // panic.
                Err(payload) => {
                    stop_flag.store(true, Ordering::Release);
                    for w in wakers.iter() {
                        w.bump();
                    }
                    record_failure(
                        &failure,
                        FailureDiagnostics {
                            kernel: "nullmsg",
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
    let mut results: Vec<LpDone<N>> = results.into_iter().flatten().collect();
    results.sort_by_key(|(lp, ..)| lp.id);
    let rounds = results.iter().map(|r| r.3).max().unwrap_or(0);
    let end_time = results
        .iter()
        .map(|(_, _, t, _, _)| *t)
        .fold(Time::ZERO, Time::max);
    let psm: Vec<Psm> = results.iter().map(|(_, p, ..)| *p).collect();
    let mut tels: Vec<WorkerTel> = Vec::with_capacity(results.len());
    let mut lps: Vec<LpState<N>> = Vec::with_capacity(results.len());
    for (lp, _, _, _, tel) in results {
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
        kernel: "nullmsg".into(),
        wall,
        events,
        global_events: 0,
        rounds,
        fused_rounds: 0,
        lp_count: lp_count as u32,
        threads: lp_count as u32,
        lookahead: partition.lookahead,
        end_time,
        psm,
        psm_per_lp: true,
        lp_totals,
        // Shared inboxes (multiple concurrent producers): no pool.
        engine: EngineStats::default(),
        sched: SchedStats::default(),
        rounds_profile: None,
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
        // The LPs that still had work below the horizon were conservatively
        // blocked. Walk each blocked LP's *binding* input channel (the one
        // with the minimal promise) back to its source to expose the
        // dependency cycle — with zero lookahead on a cycle, every LP on it
        // pins its successor's safety bound.
        let blocked: Vec<LpId> = lps
            .iter()
            .filter(|lp| lp.fel.next_ts() < bound)
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
            .filter(|lp| lp.fel.next_ts() < bound)
            .map(|lp| lp.fel.next_ts())
            .fold(Time::MAX, Time::min);
        let diag = StallDiagnostics {
            kernel: "nullmsg",
            round: rounds,
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
