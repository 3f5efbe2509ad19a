//! Crash-safety integration tests (DESIGN.md §4.2).
//!
//! Injects panics and stalls into every kernel and asserts that `try_run`
//! returns a structured [`SimError`] — with accurate diagnostics and a
//! partial report — instead of hanging or tearing down the process. These
//! tests are the PR's acceptance gate: a regression here typically means a
//! join on a dead thread or an un-poisoned barrier, i.e. a hang, so CI runs
//! this suite under a timeout.

use std::time::Duration;

use unison_core::{
    kernel, KernelKind, MetricsLevel, NodeId, PartitionMode, RunConfig, RunPhase, SchedConfig,
    SimCtx, SimError, SimNode, Time, WorldBuilder,
};

/// A forwarding node with injectable faults: panic at/after a virtual time,
/// or sleep on every event (to trip the round-progress watchdog).
struct Bomb {
    next: NodeId,
    delay: Time,
    /// Panic when handling any event at or after this time.
    panic_at: Option<Time>,
    /// Wall-clock sleep per handled event.
    slow: Option<Duration>,
    seen: u64,
}

impl SimNode for Bomb {
    type Payload = u64;

    fn handle(&mut self, token: u64, ctx: &mut dyn SimCtx<Self>) {
        if let Some(t) = self.panic_at {
            if ctx.now() >= t {
                panic!(
                    "injected fault at node {} t={}",
                    ctx.self_node().0,
                    ctx.now()
                );
            }
        }
        if let Some(d) = self.slow {
            std::thread::sleep(d);
        }
        self.seen += 1;
        ctx.schedule(self.delay, self.next, token);
    }
}

/// A ring of `n` Bombs with uniform `delay` links; node `faulty` gets the
/// fault configuration, one token starts at node 0 at t=0.
fn bomb_ring(
    n: usize,
    delay: Time,
    faulty: usize,
    panic_at: Option<Time>,
    slow: Option<Duration>,
    stop: Time,
) -> unison_core::World<Bomb> {
    let mut b = WorldBuilder::new();
    for i in 0..n {
        b.add_node(Bomb {
            next: NodeId(((i + 1) % n) as u32),
            delay,
            panic_at: if i == faulty { panic_at } else { None },
            slow: if i == faulty { slow } else { None },
            seen: 0,
        });
    }
    for i in 0..n {
        b.add_link(NodeId(i as u32), NodeId(((i + 1) % n) as u32), delay);
    }
    b.schedule(Time::ZERO, NodeId(0), 1u64);
    b.stop_at(stop);
    b.build()
}

fn expect_worker_panic(
    res: Result<(unison_core::World<Bomb>, unison_core::RunReport), SimError>,
) -> SimError {
    match res {
        Err(e @ SimError::WorkerPanic { .. }) => e,
        Err(e) => panic!("expected WorkerPanic, got {e}"),
        Ok(_) => panic!("expected WorkerPanic, run succeeded"),
    }
}

const DELAY: Time = Time(1_000);
const PANIC_AT: Time = Time(50_000);
const STOP: Time = Time(1_000_000);

#[test]
fn unison_contains_injected_panic() {
    let world = bomb_ring(8, DELAY, 3, Some(PANIC_AT), None, STOP);
    let err = expect_worker_panic(kernel::try_run(
        world,
        &world_cfg(KernelKind::Unison { threads: 4 }),
    ));
    let SimError::WorkerPanic { diag, partial } = &err else {
        unreachable!()
    };
    assert_eq!(diag.kernel, "unison");
    assert_eq!(diag.phase, RunPhase::Process);
    assert!(
        diag.panic_message.contains("injected fault"),
        "{}",
        diag.panic_message
    );
    assert!(diag.lp.is_some(), "panic site must name the executing LP");
    assert!(
        diag.virtual_time >= PANIC_AT,
        "panic at t={}",
        diag.virtual_time
    );
    assert!(diag.round > 0);
    // The ring ran ~50 hops before the fault; the partial report has them.
    assert!(
        partial.events > 0,
        "partial report must carry pre-fault totals"
    );
    // The full Display line is the operator's first diagnostic.
    let msg = err.to_string();
    assert!(
        msg.contains("unison") && msg.contains("injected fault"),
        "{msg}"
    );
}

#[test]
fn hybrid_contains_injected_panic() {
    let world = bomb_ring(8, DELAY, 5, Some(PANIC_AT), None, STOP);
    let err = expect_worker_panic(kernel::try_run(
        world,
        &world_cfg(KernelKind::Hybrid {
            hosts: 2,
            threads_per_host: 2,
        }),
    ));
    let SimError::WorkerPanic { diag, .. } = &err else {
        unreachable!()
    };
    assert_eq!(diag.kernel, "hybrid");
    assert_eq!(diag.phase, RunPhase::Process);
}

#[test]
fn barrier_contains_injected_panic() {
    let world = bomb_ring(4, DELAY, 3, Some(PANIC_AT), None, STOP);
    let cfg = RunConfig::barrier((0..4).collect());
    let err = expect_worker_panic(kernel::try_run(world, &cfg));
    let SimError::WorkerPanic { diag, partial } = &err else {
        unreachable!()
    };
    assert_eq!(diag.kernel, "barrier");
    assert_eq!(diag.phase, RunPhase::Process);
    // One LP per node under the identity assignment: the faulty node is LP 3.
    assert_eq!(diag.lp, Some(unison_core::LpId(3)));
    assert_eq!(diag.worker, 3);
    assert!(diag.virtual_time >= PANIC_AT);
    assert!(partial.events > 0);
}

#[test]
fn nullmsg_contains_injected_panic() {
    let world = bomb_ring(4, DELAY, 2, Some(PANIC_AT), None, STOP);
    let cfg = RunConfig::nullmsg((0..4).collect());
    let err = expect_worker_panic(kernel::try_run(world, &cfg));
    let SimError::WorkerPanic { diag, partial } = &err else {
        unreachable!()
    };
    assert_eq!(diag.kernel, "nullmsg");
    assert_eq!(diag.phase, RunPhase::Process);
    assert_eq!(diag.lp, Some(unison_core::LpId(2)));
    assert!(diag.virtual_time >= PANIC_AT);
    assert!(partial.events > 0);
}

#[test]
fn sequential_contains_injected_panic() {
    let world = bomb_ring(4, DELAY, 1, Some(PANIC_AT), None, STOP);
    let err = expect_worker_panic(kernel::try_run(world, &RunConfig::sequential()));
    let SimError::WorkerPanic { diag, partial } = &err else {
        unreachable!()
    };
    assert_eq!(diag.kernel, "sequential");
    assert_eq!(diag.phase, RunPhase::Process);
    assert!(diag.virtual_time >= PANIC_AT);
    assert!(partial.events > 0);
}

#[test]
fn async_cons_contains_injected_panic() {
    let world = bomb_ring(8, DELAY, 3, Some(PANIC_AT), None, STOP);
    let err = expect_worker_panic(kernel::try_run(
        world,
        &world_cfg(KernelKind::AsyncCons { threads: 4 }),
    ));
    let SimError::WorkerPanic { diag, partial } = &err else {
        unreachable!()
    };
    assert_eq!(diag.kernel, "async_cons");
    assert_eq!(diag.phase, RunPhase::Process);
    assert!(
        diag.panic_message.contains("injected fault"),
        "{}",
        diag.panic_message
    );
    assert!(diag.lp.is_some(), "panic site must name the executing LP");
    assert!(diag.virtual_time >= PANIC_AT);
    assert!(
        partial.events > 0,
        "partial report must carry pre-fault totals"
    );
    // Surviving workers drained through the poison path, not a hang — the
    // partial report still carries the async progress counters.
    assert!(partial.async_stats.is_some());
}

#[test]
fn async_cons_zero_lookahead_deadlock_detected() {
    // The same three-LP zero-delay cycle as the nullmsg case: every
    // channel-clock grant is pinned at 0, `safe` never reaches the first
    // event at t=5, and every worker parks in stall-wait. The watchdog
    // must wake them and diagnose the blocked cycle.
    let mut b = WorldBuilder::new();
    for i in 0..3u32 {
        b.add_node(Bomb {
            next: NodeId((i + 1) % 3),
            delay: Time::ZERO,
            panic_at: None,
            slow: None,
            seen: 0,
        });
    }
    for i in 0..3u32 {
        b.add_link(NodeId(i), NodeId((i + 1) % 3), Time::ZERO);
    }
    for i in 0..3u32 {
        b.schedule(Time(5), NodeId(i), u64::from(i));
    }
    b.stop_at(Time(1_000));
    let world = b.build();
    let cfg = RunConfig {
        kernel: KernelKind::AsyncCons { threads: 3 },
        partition: PartitionMode::Manual(vec![0, 1, 2]),
        sched: SchedConfig::default(),
        metrics: MetricsLevel::Summary,
        telemetry: Default::default(),
        watchdog: Default::default(),
        fault: Default::default(),
    }
    .with_watchdog(Duration::from_millis(50));
    match kernel::try_run(world, &cfg) {
        Err(SimError::Stalled { diag, partial }) => {
            assert_eq!(diag.kernel, "async_cons");
            assert_eq!(diag.blocked.len(), 3, "all three LPs are blocked: {diag}");
            assert!(
                diag.cycle.len() >= 3,
                "expected a dependency cycle, got {diag}"
            );
            assert_eq!(
                diag.cycle.first(),
                diag.cycle.last(),
                "cycle must close on itself: {diag}"
            );
            assert_eq!(partial.events, 0);
            assert_eq!(diag.virtual_time, Time(5));
        }
        Err(e) => panic!("expected Stalled, got {e}"),
        Ok(_) => panic!("zero-lookahead cycle must deadlock, but the run succeeded"),
    }
}

#[test]
fn async_cons_requires_stop_time() {
    // Without a stop horizon the async kernel has no finite gate and
    // channel promises would creep forever; it must refuse to start.
    let mut b = WorldBuilder::new();
    b.add_node(Bomb {
        next: NodeId(0),
        delay: DELAY,
        panic_at: None,
        slow: None,
        seen: 0,
    });
    b.schedule(Time::ZERO, NodeId(0), 1u64);
    let world = b.build();
    match kernel::try_run(world, &RunConfig::async_cons(2)) {
        Err(SimError::Config(e)) => {
            let msg = e.to_string();
            assert!(msg.contains("stop"), "unhelpful message: {msg}")
        }
        Err(e) => panic!("expected Config error, got {e}"),
        Ok(_) => panic!("async_cons must reject worlds without a stop time"),
    }
}

#[test]
fn run_wrapper_repanics_with_diagnostics() {
    let world = bomb_ring(4, DELAY, 0, Some(PANIC_AT), None, STOP);
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let _ = kernel::run(world, &RunConfig::unison(2));
    }));
    let payload = res.expect_err("legacy run() must re-panic on a contained fault");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        msg.contains("injected fault"),
        "re-panic lost diagnostics: {msg}"
    );
}

#[test]
fn unison_watchdog_aborts_stalled_round() {
    // Every event on node 2 sleeps well past the 40ms round deadline; the
    // watchdog poisons the barrier mid-round and the run returns Stalled.
    let world = bomb_ring(4, DELAY, 2, None, Some(Duration::from_millis(250)), STOP);
    let cfg = RunConfig::unison(2).with_watchdog(Duration::from_millis(40));
    match kernel::try_run(world, &cfg) {
        Err(SimError::Stalled { diag, partial }) => {
            assert_eq!(diag.kernel, "unison");
            assert_eq!(diag.deadline, Duration::from_millis(40));
            assert!(!diag.blocked.is_empty(), "a stalled ring has pending LPs");
            let _ = partial;
        }
        Err(e) => panic!("expected Stalled, got {e}"),
        Ok(_) => panic!("expected Stalled, run succeeded"),
    }
}

#[test]
fn watchdog_does_not_fire_on_healthy_runs() {
    // A generous deadline on a fast run: completes normally.
    let world = bomb_ring(8, DELAY, 0, None, None, Time(200_000));
    let cfg = RunConfig::unison(2).with_watchdog(Duration::from_secs(30));
    let (world, report) = kernel::try_run(world, &cfg).expect("healthy run must succeed");
    assert!(report.events > 0);
    assert!(world.nodes().map(|n| n.seen).sum::<u64>() > 0);
}

#[test]
fn nullmsg_zero_lookahead_deadlock_detected() {
    // Three LPs joined by zero-delay links: every channel promise is pinned
    // at 0, nobody can process, and without a watchdog the CMB kernel would
    // sleep forever. The watchdog must diagnose the blocked cycle.
    let mut b = WorldBuilder::new();
    for i in 0..3u32 {
        b.add_node(Bomb {
            next: NodeId((i + 1) % 3),
            delay: Time::ZERO,
            panic_at: None,
            slow: None,
            seen: 0,
        });
    }
    for i in 0..3u32 {
        b.add_link(NodeId(i), NodeId((i + 1) % 3), Time::ZERO);
    }
    for i in 0..3u32 {
        b.schedule(Time(5), NodeId(i), u64::from(i));
    }
    b.stop_at(Time(1_000));
    let world = b.build();
    let cfg = RunConfig::nullmsg(vec![0, 1, 2]).with_watchdog(Duration::from_millis(50));
    match kernel::try_run(world, &cfg) {
        Err(SimError::Stalled { diag, partial }) => {
            assert_eq!(diag.kernel, "nullmsg");
            assert_eq!(diag.blocked.len(), 3, "all three LPs are blocked: {diag}");
            assert!(
                diag.cycle.len() >= 3,
                "expected a dependency cycle, got {diag}"
            );
            assert_eq!(
                diag.cycle.first(),
                diag.cycle.last(),
                "cycle must close on itself: {diag}"
            );
            // Nothing was ever safe to process.
            assert_eq!(partial.events, 0);
            assert_eq!(diag.virtual_time, Time(5));
        }
        Err(e) => panic!("expected Stalled, got {e}"),
        Ok(_) => panic!("zero-lookahead cycle must deadlock, but the run succeeded"),
    }
}

#[test]
fn barrier_zero_lookahead_livelock_detected() {
    // The barrier kernel spins through empty rounds when the window cannot
    // advance (window_end == min next_ts with zero lookahead). The tick
    // policy only counts rounds that execute events or move the window, so
    // the watchdog fires.
    let mut b = WorldBuilder::new();
    for i in 0..2u32 {
        b.add_node(Bomb {
            next: NodeId(1 - i),
            delay: Time::ZERO,
            panic_at: None,
            slow: None,
            seen: 0,
        });
    }
    b.add_link(NodeId(0), NodeId(1), Time::ZERO);
    b.schedule(Time(5), NodeId(0), 7u64);
    b.stop_at(Time(1_000));
    let world = b.build();
    let cfg = RunConfig::barrier(vec![0, 1]).with_watchdog(Duration::from_millis(50));
    match kernel::try_run(world, &cfg) {
        Err(SimError::Stalled { diag, .. }) => {
            assert_eq!(diag.kernel, "barrier");
            assert!(!diag.blocked.is_empty());
        }
        Err(e) => panic!("expected Stalled, got {e}"),
        Ok(_) => panic!("zero-lookahead livelock must be detected"),
    }
}

/// Unison/hybrid configuration helper over an auto partition.
fn world_cfg(kernel: KernelKind) -> RunConfig {
    RunConfig {
        kernel,
        partition: PartitionMode::Auto,
        sched: SchedConfig::default(),
        metrics: MetricsLevel::Summary,
        telemetry: Default::default(),
        watchdog: Default::default(),
        fault: Default::default(),
    }
}
