//! The fault-injection acceptance matrix (DESIGN.md §4.7).
//!
//! {worker panic, mailbox stall, checkpoint-write failure} ×
//! {sequential, unison, hybrid} × {1, 2, 4 threads}: every recovered
//! [`fault::run_resilient`] run must be digest-identical to the fault-free
//! run — and to a plain [`kernel::try_run`] under the same pinned
//! partition — with the rollback recorded in the `RecoveryLog`. Fault
//! points key off the deterministic round/phase structure, so the same
//! plan fires at the same virtual point at every thread count, and the
//! whole matrix is reproducible across reruns.
//!
//! Cells that cannot apply (the sequential kernel has no receive phase to
//! stall and takes no mid-run checkpoints) must degrade gracefully: the
//! spec stays armed and the run completes clean.

#![cfg(feature = "fault-inject")]

use std::path::PathBuf;
use std::time::Duration;

use unison_core::{
    fault, kernel, snapshot_struct, CheckpointConfig, FaultPlan, KernelKind, MetricsLevel, NodeId,
    PartitionMode, RecoveryPolicy, Rng, RunConfig, RunPhase, SchedConfig, SimCtx, SimError,
    SimNode, Time, WorldBuilder,
};

/// The checkpoint-suite model: a token with its own deterministic
/// randomness, routers keeping an order-sensitive checksum.
#[derive(Debug)]
struct Token {
    id: u64,
    rng: Rng,
    hops: u64,
}

snapshot_struct!(Token { id, rng, hops });

struct Router {
    neighbors: Vec<(NodeId, Time)>,
    checksum: u64,
    seen: u64,
}

snapshot_struct!(Router {
    neighbors,
    checksum,
    seen
});

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
const TOKENS: u64 = 24;
const STOP: Time = Time(600_000);
const EVERY: Time = Time(50_000);
/// A sync round safely past several periodic checkpoints (each round
/// advances the window by ≥ the 3 µs lookahead, so round 60 sits past
/// t = 180k) and safely before the run ends (~200 rounds).
const LATE_ROUND: u64 = 60;

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
    let mut seed_rng = Rng::new(0xFA_117);
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

/// The fixed partition every run executes under (4 LPs): LP identity is
/// part of the tie-break keys, so digests compare only within it.
fn assignment() -> Vec<u32> {
    (0..N as u32).map(|i| i / 3).collect()
}

fn cfg(kernel: KernelKind) -> RunConfig {
    RunConfig {
        kernel,
        partition: PartitionMode::Manual(assignment()),
        sched: SchedConfig::default(),
        metrics: MetricsLevel::Summary,
        telemetry: Default::default(),
        watchdog: Default::default(),
        fault: Default::default(),
    }
}

fn digest(world: &unison_core::World<Router>) -> Vec<(u64, u64)> {
    world.nodes().map(|n| (n.checksum, n.seen)).collect()
}

/// A fresh checkpoint directory under the cargo-managed tmp dir.
fn ckpt_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("fault-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clean stale checkpoint dir");
    }
    dir
}

fn policy(tag: &str) -> RecoveryPolicy {
    RecoveryPolicy::new(CheckpointConfig::new(EVERY, ckpt_dir(tag)))
        .with_backoff_base(Duration::from_millis(1))
}

fn cleanup(p: &RecoveryPolicy) {
    std::fs::remove_dir_all(&p.checkpoints.dir).ok();
}

/// Every kernel under test, with its thread axis baked in.
fn kernels() -> Vec<(String, KernelKind)> {
    let mut v = vec![(
        "sequential".to_string(),
        KernelKind::Sequential { compat_keys: false },
    )];
    for threads in [1usize, 2, 4] {
        v.push((format!("unison-{threads}"), KernelKind::Unison { threads }));
    }
    for tph in [1usize, 2] {
        v.push((
            format!("hybrid-2x{tph}"),
            KernelKind::Hybrid {
                hosts: 2,
                threads_per_host: tph,
            },
        ));
    }
    for threads in [1usize, 2, 4] {
        v.push((
            format!("async-{threads}"),
            KernelKind::AsyncCons { threads },
        ));
    }
    v
}

fn is_windowed(kind: &KernelKind) -> bool {
    matches!(kind, KernelKind::Unison { .. } | KernelKind::Hybrid { .. })
}

/// The barrier-free kernel checkpoints at quiesced gates like the windowed
/// kernels, but its per-worker "round" is an iteration counter whose
/// virtual-time position is workload- and interleaving-dependent — so the
/// matrix asserts recovery shape, not exact rollback coordinates, for the
/// panic cell.
fn is_async(kind: &KernelKind) -> bool {
    matches!(kind, KernelKind::AsyncCons { .. })
}

/// The acceptance matrix: each fault cell recovers to the fault-free
/// digest with the rollback on record; inapplicable cells stay clean.
#[test]
fn fault_matrix_recovers_to_fault_free_digest() {
    for (name, kind) in kernels() {
        // Fault-free reference, both through the resilient driver and the
        // plain kernel entry point.
        let base = cfg(kind.clone());
        let (w_plain, _) = kernel::try_run(ring_world(), &base).expect("plain run");
        let reference = digest(&w_plain);
        let p0 = policy(&format!("{name}-base"));
        let (w0, r0) = fault::run_resilient(ring_world(), &base, &p0).expect("fault-free");
        let log0 = r0.recovery.expect("resilient run attaches a log");
        assert_eq!(log0.rollback_count(), 0, "{name}: clean run rolled back");
        assert_eq!(digest(&w0), reference, "{name}: driver changed results");
        cleanup(&p0);

        let windowed = is_windowed(&kind);
        let asynck = is_async(&kind);
        // Sequential "rounds" are 1-based event indices; windowed kernels
        // use the sync-round counter; the async kernel counts per-worker
        // iterations (it reaches LATE_ROUND long before the run ends).
        let panic_round = if windowed || asynck { LATE_ROUND } else { 50 };

        // --- worker panic ---
        let mut c = base.clone();
        c.fault = FaultPlan::new().worker_panic(panic_round, RunPhase::Process, 0);
        let p = policy(&format!("{name}-panic"));
        let (w, rep) = fault::run_resilient(ring_world(), &c, &p).expect("recover from panic");
        assert_eq!(digest(&w), reference, "{name}: panic recovery diverged");
        let log = rep.recovery.expect("log");
        assert_eq!(log.rollback_count(), 1, "{name}: expected one rollback");
        let rb = &log.rollbacks[0];
        assert_eq!(rb.phase, RunPhase::Process, "{name}");
        assert!(rb.fault.contains("injected fault"), "{name}: {}", rb.fault);
        if windowed {
            assert_eq!(rb.round, LATE_ROUND, "{name}");
            assert!(
                rb.rolled_back_to > Time::ZERO,
                "{name}: a late fault must land on a periodic checkpoint"
            );
        } else if asynck {
            // Iteration 60's virtual-time position is interleaving-
            // dependent, so only the firing coordinates are pinned.
            assert_eq!(rb.round, LATE_ROUND, "{name}");
        } else {
            assert_eq!(
                rb.rolled_back_to,
                Time::ZERO,
                "{name}: non-windowed kernels roll back to the initial image"
            );
        }
        cleanup(&p);

        // --- mailbox stall (receive phase; needs the watchdog) ---
        let mut c = base.clone();
        c.fault = FaultPlan::new().mailbox_stall(5, 0, 500);
        let c = c.with_watchdog(Duration::from_millis(100));
        let p = policy(&format!("{name}-stall"));
        let (w, rep) = fault::run_resilient(ring_world(), &c, &p).expect("recover from stall");
        assert_eq!(digest(&w), reference, "{name}: stall recovery diverged");
        let log = rep.recovery.expect("log");
        if windowed || asynck {
            assert_eq!(log.rollback_count(), 1, "{name}: stall must roll back");
            assert_eq!(log.rollbacks[0].phase, RunPhase::Control, "{name}");
        } else {
            // No receive phase to stall: the spec never fires.
            assert_eq!(log.rollback_count(), 0, "{name}");
            assert!(c.fault.specs()[0].armed(), "{name}: spec consumed");
        }
        cleanup(&p);

        // --- checkpoint-write failure (second periodic checkpoint) ---
        let mut c = base.clone();
        c.fault = FaultPlan::new().checkpoint_fail(Time(100_000));
        let p = policy(&format!("{name}-ckpt"));
        let (w, rep) = fault::run_resilient(ring_world(), &c, &p).expect("recover from ckpt fail");
        assert_eq!(digest(&w), reference, "{name}: ckpt-fail recovery diverged");
        let log = rep.recovery.expect("log");
        if windowed || asynck {
            assert_eq!(log.rollback_count(), 1, "{name}");
            let rb = &log.rollbacks[0];
            assert_eq!(
                rb.phase,
                RunPhase::Global,
                "{name}: fails in the global phase"
            );
            // The first periodic checkpoint (t = 50k) predates the failure
            // and must be the rollback target.
            assert_eq!(rb.rolled_back_to, Time(50_000), "{name}");
        } else {
            // No mid-run checkpoints are ever written.
            assert_eq!(log.rollback_count(), 0, "{name}");
            assert!(c.fault.specs()[0].armed(), "{name}: spec consumed");
        }
        cleanup(&p);
    }
}

/// Simulated OOM: an armed allocation failure panics inside the FEL push
/// and recovers like any other contained process-phase fault. The arm
/// persists from the planned round until the worker's next intra-LP send
/// (which LPs a worker claims in any one round is workload-dependent), so
/// it fires at every thread count as long as worker 0 pushes again before
/// the run ends.
#[test]
fn alloc_failure_is_contained_and_recovered() {
    for threads in [2usize, 4] {
        let mut c = cfg(KernelKind::Unison { threads });
        c.fault = FaultPlan::new().alloc_fail(LATE_ROUND, 0);
        let (w_plain, _) =
            kernel::try_run(ring_world(), &cfg(KernelKind::Unison { threads })).unwrap();
        let p = policy(&format!("alloc-{threads}"));
        let (w, rep) = fault::run_resilient(ring_world(), &c, &p).expect("recover from oom");
        assert_eq!(digest(&w), digest(&w_plain), "threads={threads}");
        let log = rep.recovery.expect("log");
        assert_eq!(log.rollback_count(), 1);
        assert!(
            log.rollbacks[0].fault.contains("allocation failure"),
            "{}",
            log.rollbacks[0].fault
        );
        cleanup(&p);
    }
}

/// Degraded retry: the pool is rebuilt with half the workers and — thread
/// count being free — still reproduces the reference digest.
#[test]
fn degraded_retry_is_digest_identical() {
    let (w_plain, _) =
        kernel::try_run(ring_world(), &cfg(KernelKind::Unison { threads: 4 })).unwrap();
    let mut c = cfg(KernelKind::Unison { threads: 4 });
    c.fault = FaultPlan::new().worker_panic(LATE_ROUND, RunPhase::Process, 3);
    let p = policy("degrade").with_degrade(true);
    let (w, rep) = fault::run_resilient(ring_world(), &c, &p).expect("degraded recovery");
    assert_eq!(digest(&w), digest(&w_plain));
    let log = rep.recovery.expect("log");
    assert_eq!(log.rollback_count(), 1);
    assert_eq!(log.rollbacks[0].degraded_threads, Some(2));
    cleanup(&p);
}

/// An exhausted retry budget surfaces the original structured error.
#[test]
fn exhausted_retry_budget_returns_the_fault() {
    let mut c = cfg(KernelKind::Unison { threads: 2 });
    // Three independent one-shot panics at the same coordinates: every
    // attempt fires the next armed spec.
    c.fault = FaultPlan::new()
        .worker_panic(5, RunPhase::Process, 0)
        .worker_panic(5, RunPhase::Process, 0)
        .worker_panic(5, RunPhase::Process, 0);
    let p = policy("budget").with_max_retries(2);
    match fault::run_resilient(ring_world(), &c, &p) {
        Err(SimError::WorkerPanic { diag, .. }) => {
            assert!(diag.panic_message.contains("injected fault"));
        }
        Err(e) => panic!("expected WorkerPanic, got {e}"),
        Ok(_) => panic!("three one-shot faults with two retries must fail"),
    }
    cleanup(&p);
}

/// A corrupt checkpoint file that sorts newest is skipped by the rollback
/// scan — recorded in `skipped_corrupt` — and the run still recovers to
/// the fault-free digest from the next older usable image.
#[test]
fn rollback_skips_corrupt_checkpoints() {
    let threads = 2;
    let (w_plain, _) = kernel::try_run(ring_world(), &cfg(KernelKind::Unison { threads })).unwrap();
    let mut c = cfg(KernelKind::Unison { threads });
    c.fault = FaultPlan::new().worker_panic(LATE_ROUND, RunPhase::Process, 0);
    let p = policy("corrupt-skip");
    // Seed the directory with a plausible-looking file (right name
    // pattern, right magic, garbage body) that sorts newest: the scan
    // must reject it rather than trust it.
    std::fs::create_dir_all(&p.checkpoints.dir).expect("create ckpt dir");
    let garbage = p.checkpoints.file_at(Time(u64::MAX));
    std::fs::write(&garbage, b"UNISCKPTgarbage-after-the-magic").expect("plant garbage");
    let (w, rep) = fault::run_resilient(ring_world(), &c, &p).expect("recover past garbage");
    assert_eq!(digest(&w), digest(&w_plain));
    let log = rep.recovery.expect("log");
    assert_eq!(log.rollback_count(), 1);
    assert_eq!(log.rollbacks[0].skipped_corrupt, 1);
    assert!(
        log.rollbacks[0].rolled_back_to > Time::ZERO,
        "a real periodic checkpoint must still be found"
    );
    cleanup(&p);
}

/// The same plan fires at the same point on every rerun: recovery logs and
/// digests are bit-stable.
#[test]
fn fault_matrix_is_deterministic_across_reruns() {
    let run_once = |tag: &str| {
        let mut c = cfg(KernelKind::Unison { threads: 2 });
        c.fault = FaultPlan::new().worker_panic(LATE_ROUND, RunPhase::Process, 1);
        let p = policy(tag);
        let (w, rep) = fault::run_resilient(ring_world(), &c, &p).expect("recover");
        let log = rep.recovery.expect("log");
        let shape: Vec<(u64, RunPhase, Time)> = log
            .rollbacks
            .iter()
            .map(|r| (r.round, r.phase, r.rolled_back_to))
            .collect();
        cleanup(&p);
        (digest(&w), shape)
    };
    assert_eq!(run_once("rerun-a"), run_once("rerun-b"));
}
