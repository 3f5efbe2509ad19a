//! Deterministic fault injection and the self-healing resilient driver
//! (DESIGN.md §4.7).
//!
//! PR 2 made worker failures *containable* (`try_run` returns a structured
//! [`SimError`] instead of hanging or aborting the process); this module
//! makes them *survivable* and — equally important — *testable*:
//!
//! - [`FaultPlan`] describes runtime faults at exact, reproducible points
//!   in the kernel's deterministic round/phase structure: a worker panic at
//!   round R in phase P, a mailbox-delivery stall, a barrier-arrival delay,
//!   a checkpoint-write failure, a simulated allocation failure in the FEL
//!   layer. Because the trigger coordinates (round, phase, worker, virtual
//!   time) are part of the deterministic execution structure, the same plan
//!   fires identically at 1, 2, or 4 threads.
//! - [`run_resilient`] wraps [`kernel::try_run`]: it pins the partition,
//!   writes an initial (t = 0) checkpoint, installs the periodic checkpoint
//!   chain, and on any *contained* failure rolls back to the newest usable
//!   checkpoint (skipping corrupt files), optionally degrades the thread
//!   pool, sleeps an exponential backoff, and retries — recording every
//!   rollback in a [`RecoveryLog`] surfaced via
//!   [`RunReport::recovery`](crate::metrics::RunReport::recovery).
//!
//! Checkpoints are bit-deterministic (DESIGN.md §4.2) and thread-count
//! invariance is a core kernel property, so a recovered run — even one that
//! finished on fewer workers than it started with — produces a final world
//! digest bit-identical to the run that never failed. The fault matrix
//! (`crates/core/tests/fault_matrix.rs`) pins exactly that.
//!
//! The injection call sites in the kernels compile to nothing unless the
//! `fault-inject` cargo feature is on (enforced by xtask lint rule
//! `fault-gate`); the plan type and the resilient driver are always
//! available, so production code can call [`run_resilient`] without
//! carrying any hook code in its hot paths.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
// Instant is waived for this file by xtask lint (recovery wall-cost
// accounting happens between attempts, never on a simulation hot path).
use std::time::Instant;

use crate::checkpoint::{self, CheckpointConfig, Snapshot, SnapshotError};
use crate::error::{RunPhase, SimError};
use crate::kernel::{self, KernelKind, PartitionMode, RunConfig};
use crate::metrics::RunReport;
use crate::time::Time;
use crate::world::{SimNode, World};

// ---------------------------------------------------------------------------
// Fault plans
// ---------------------------------------------------------------------------

/// One injectable fault, addressed by deterministic run coordinates.
///
/// "Round" is the kernel's synchronization round for the round-based
/// kernels (Unison, hybrid, barrier, null-message; the first round is 1)
/// and the 1-based node-event index for the sequential kernel, which has no
/// rounds. "Worker" is the kernel's worker index; worker 0 always exists
/// (it is the main thread in the Unison and hybrid kernels), so plans
/// keyed to worker 0 are valid at every thread count.
#[derive(Clone, Debug)]
pub enum FaultKind {
    /// Panic on `worker` at the start of `phase` in `round` — the fault the
    /// containment layer turns into [`SimError::WorkerPanic`].
    WorkerPanic {
        /// Synchronization round (sequential: node-event index), 1-based.
        round: u64,
        /// Phase within the round the panic fires in.
        phase: RunPhase,
        /// Worker index the panic fires on.
        worker: usize,
    },
    /// Suspend `worker` for `millis` of wall time at the start of its
    /// receive (mailbox-drain) phase in `round` — long enough, under a
    /// tight [`WatchdogConfig`](crate::kernel::WatchdogConfig), to trip the
    /// round-progress watchdog into [`SimError::Stalled`].
    MailboxStall {
        /// Synchronization round, 1-based.
        round: u64,
        /// Worker index to suspend.
        worker: usize,
        /// Wall-clock suspension in milliseconds.
        millis: u64,
    },
    /// Suspend `worker` for `millis` just before its end-of-round barrier
    /// arrival in `round` (a late-arrival fault: every other worker spins).
    BarrierDelay {
        /// Synchronization round, 1-based.
        round: u64,
        /// Worker index to delay.
        worker: usize,
        /// Wall-clock delay in milliseconds.
        millis: u64,
    },
    /// Fail the first checkpoint write whose virtual time is `>= at` with a
    /// simulated I/O error. The checkpoint chain treats a failed write as a
    /// contained panic (`RunPhase::Global`), so this exercises the
    /// "safety net itself failed" recovery path.
    CheckpointFail {
        /// Earliest virtual time at which a checkpoint write fails.
        at: Time,
    },
    /// Simulated out-of-memory: the next FEL insertion on `worker` after
    /// the start of `round`'s process phase panics, as a failing
    /// allocation in the event-engine layer would. The arm persists until
    /// that insertion happens (which LPs a worker claims in any one round
    /// is workload-dependent); a worker that never inserts again leaves
    /// the fault unfired.
    AllocFail {
        /// Synchronization round, 1-based.
        round: u64,
        /// Worker index whose next FEL push fails.
        worker: usize,
    },
}

/// A [`FaultKind`] plus its fire-once latch.
///
/// The latch is shared across clones of the plan (and therefore across
/// [`run_resilient`] retry attempts): each fault fires exactly once per
/// plan lifetime, so a recovered run does not re-hit the same fault on
/// replay — the semantics of a transient fault.
#[derive(Clone, Debug)]
pub struct FaultSpec {
    /// What to inject and where.
    pub kind: FaultKind,
    armed: Arc<AtomicBool>,
}

impl FaultSpec {
    fn new(kind: FaultKind) -> Self {
        FaultSpec {
            kind,
            armed: Arc::new(AtomicBool::new(true)),
        }
    }

    /// Consumes the latch; `true` exactly once per plan lifetime.
    #[cfg(feature = "fault-inject")]
    fn take(&self) -> bool {
        self.armed.swap(false, Ordering::Relaxed)
    }

    /// Whether this fault has not fired yet.
    pub fn armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }
}

/// A deterministic fault-injection plan, attached to a run via
/// [`RunConfig::with_faults`](crate::kernel::RunConfig::with_faults).
///
/// The default (empty) plan injects nothing. With the `fault-inject` cargo
/// feature off, plans are inert: the kernel call sites that would consult
/// them are compiled out.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a [`FaultKind::WorkerPanic`].
    pub fn worker_panic(mut self, round: u64, phase: RunPhase, worker: usize) -> Self {
        self.specs.push(FaultSpec::new(FaultKind::WorkerPanic {
            round,
            phase,
            worker,
        }));
        self
    }

    /// Adds a [`FaultKind::MailboxStall`].
    pub fn mailbox_stall(mut self, round: u64, worker: usize, millis: u64) -> Self {
        self.specs.push(FaultSpec::new(FaultKind::MailboxStall {
            round,
            worker,
            millis,
        }));
        self
    }

    /// Adds a [`FaultKind::BarrierDelay`].
    pub fn barrier_delay(mut self, round: u64, worker: usize, millis: u64) -> Self {
        self.specs.push(FaultSpec::new(FaultKind::BarrierDelay {
            round,
            worker,
            millis,
        }));
        self
    }

    /// Adds a [`FaultKind::CheckpointFail`].
    pub fn checkpoint_fail(mut self, at: Time) -> Self {
        self.specs
            .push(FaultSpec::new(FaultKind::CheckpointFail { at }));
        self
    }

    /// Adds a [`FaultKind::AllocFail`].
    pub fn alloc_fail(mut self, round: u64, worker: usize) -> Self {
        self.specs
            .push(FaultSpec::new(FaultKind::AllocFail { round, worker }));
        self
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The planned faults, in insertion order.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }
}

// ---------------------------------------------------------------------------
// Injection hooks (compiled only under the `fault-inject` feature)
// ---------------------------------------------------------------------------

#[cfg(feature = "fault-inject")]
thread_local! {
    /// Armed by `fire_phase` when an `AllocFail` matches the current
    /// worker's process phase; consumed by that thread's next `Fel::push`
    /// via [`alloc_check`], however many rounds later that happens (which
    /// LPs a worker claims in any one round is workload-dependent).
    /// Thread-local (not a process global) so concurrently running
    /// simulations — e.g. parallel tests — never see each other's
    /// injected failures.
    static ALLOC_ARMED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Simulated allocation-failure point, called from `Fel::push` (gated).
/// Panics exactly once after an [`FaultKind::AllocFail`] armed this thread.
#[cfg(feature = "fault-inject")]
pub(crate) fn alloc_check() {
    ALLOC_ARMED.with(|c| {
        if c.replace(false) {
            panic!("injected fault: allocation failure in FEL push");
        }
    });
}

#[cfg(feature = "fault-inject")]
impl FaultPlan {
    /// Phase-entry hook: fires matching [`FaultKind::WorkerPanic`] faults
    /// and arms matching [`FaultKind::AllocFail`] faults (process phase
    /// only). Called by the kernels at the start of each phase.
    pub(crate) fn fire_phase(&self, round: u64, phase: RunPhase, worker: usize) {
        for s in &self.specs {
            match s.kind {
                FaultKind::WorkerPanic {
                    round: r,
                    phase: p,
                    worker: w,
                } if r == round && p == phase && w == worker && s.take() => {
                    panic!(
                        "injected fault: worker {worker} panic in round {round} \
                         ({phase} phase)"
                    );
                }
                FaultKind::AllocFail {
                    round: r,
                    worker: w,
                } if phase == RunPhase::Process && r == round && w == worker && s.take() => {
                    ALLOC_ARMED.with(|c| c.set(true));
                }
                _ => {}
            }
        }
    }

    /// Receive-phase hook: suspends the calling worker when a
    /// [`FaultKind::MailboxStall`] matches.
    pub(crate) fn fire_stall(&self, round: u64, worker: usize) {
        for s in &self.specs {
            if let FaultKind::MailboxStall {
                round: r,
                worker: w,
                millis,
            } = s.kind
            {
                if r == round && w == worker && s.take() {
                    std::thread::sleep(Duration::from_millis(millis));
                }
            }
        }
    }

    /// Pre-barrier hook: suspends the calling worker just before its
    /// end-of-round barrier arrival when a [`FaultKind::BarrierDelay`]
    /// matches.
    pub(crate) fn fire_barrier_delay(&self, round: u64, worker: usize) {
        for s in &self.specs {
            if let FaultKind::BarrierDelay {
                round: r,
                worker: w,
                millis,
            } = s.kind
            {
                if r == round && w == worker && s.take() {
                    std::thread::sleep(Duration::from_millis(millis));
                }
            }
        }
    }

    /// Checkpoint-write hook: `true` (fail this write) for the first write
    /// whose virtual time reaches a planned [`FaultKind::CheckpointFail`].
    pub(crate) fn fire_ckpt_fail(&self, now: Time) -> bool {
        for s in &self.specs {
            if let FaultKind::CheckpointFail { at } = s.kind {
                if now >= at && s.take() {
                    return true;
                }
            }
        }
        false
    }
}

// ---------------------------------------------------------------------------
// Recovery policy and log
// ---------------------------------------------------------------------------

/// How [`run_resilient`] reacts to a contained failure.
#[derive(Clone, Debug)]
pub struct RecoveryPolicy {
    /// Where and how often checkpoints are written. The directory is
    /// created if missing; an initial (t = 0) image is always written so a
    /// failure before the first periodic checkpoint can still roll back.
    pub checkpoints: CheckpointConfig,
    /// Retry budget: total rollbacks allowed before the failure is
    /// returned to the caller (default 3).
    pub max_retries: u32,
    /// Base of the exponential retry backoff: attempt *n* sleeps
    /// `backoff_base * 2^n` before resuming (default 10 ms).
    pub backoff_base: Duration,
    /// Rebuild the pool *degraded* on retry: each rollback halves the
    /// worker count (Unison) or the per-host worker count (hybrid), never
    /// below 1 — the "failed worker stays dead" model. Thread count does
    /// not affect results, so degraded replays stay digest-identical
    /// (default off).
    pub degrade: bool,
}

impl RecoveryPolicy {
    /// A policy with the default retry budget (3), backoff base (10 ms)
    /// and no degradation.
    pub fn new(checkpoints: CheckpointConfig) -> Self {
        RecoveryPolicy {
            checkpoints,
            max_retries: 3,
            backoff_base: Duration::from_millis(10),
            degrade: false,
        }
    }

    /// Sets the retry budget.
    pub fn with_max_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Sets the exponential-backoff base.
    pub fn with_backoff_base(mut self, d: Duration) -> Self {
        self.backoff_base = d;
        self
    }

    /// Enables worker-pool degradation on retry.
    pub fn with_degrade(mut self, on: bool) -> Self {
        self.degrade = on;
        self
    }
}

/// One rollback performed by [`run_resilient`].
#[derive(Clone, Debug)]
pub struct RollbackRecord {
    /// Display form of the contained [`SimError`] that forced the rollback.
    pub fault: String,
    /// Synchronization round the failed attempt died in (the watchdog
    /// reports the last round that made progress).
    pub round: u64,
    /// Phase the failure happened in ([`RunPhase::Control`] for stalls).
    pub phase: RunPhase,
    /// Virtual time of the checkpoint the run rolled back to.
    pub rolled_back_to: Time,
    /// Rounds executed by the aborted attempt — an upper bound on the
    /// discarded work (checkpoints the attempt wrote before dying are
    /// reused, but the round ↔ checkpoint mapping is not recorded).
    pub rounds_lost: u64,
    /// Wall time spent on the aborted attempt plus the rollback itself
    /// (checkpoint scan + decode), excluding the backoff sleep.
    pub wall_cost: Duration,
    /// Corrupt checkpoint files skipped while scanning for a usable one.
    pub skipped_corrupt: u32,
    /// Worker count the pool was rebuilt with, when the policy degraded it
    /// (`None` when the count was unchanged).
    pub degraded_threads: Option<u32>,
    /// Backoff slept before this retry.
    pub backoff: Duration,
}

/// Rollback history of a resilient run, surfaced as
/// [`RunReport::recovery`](crate::metrics::RunReport::recovery).
#[derive(Clone, Debug, Default)]
pub struct RecoveryLog {
    /// Every rollback, in order.
    pub rollbacks: Vec<RollbackRecord>,
    /// Total wall time lost to failures: aborted attempts, rollbacks and
    /// backoff sleeps.
    pub total_recovery_wall: Duration,
}

impl RecoveryLog {
    /// Number of rollbacks performed.
    pub fn rollback_count(&self) -> usize {
        self.rollbacks.len()
    }
}

// ---------------------------------------------------------------------------
// The resilient driver
// ---------------------------------------------------------------------------

/// Runs a world with automatic rollback-and-retry on contained failures.
///
/// The driver:
///
/// 1. pins the partition (LP identity is part of the deterministic
///    tie-break keys, so every attempt must use the same assignment);
/// 2. writes an initial checkpoint at t = 0 and — for the Unison and
///    hybrid kernels, the ones that execute global events — installs the
///    periodic checkpoint chain of `policy.checkpoints`;
/// 3. runs [`kernel::try_run`]; on [`SimError::WorkerPanic`] or
///    [`SimError::Stalled`] it rolls back to the newest *usable* checkpoint
///    (corrupt files are skipped, older ones tried), optionally degrades
///    the worker pool, sleeps an exponential backoff and retries, up to
///    `policy.max_retries` rollbacks.
///
/// On success the returned report carries `Some(RecoveryLog)` — empty if no
/// failure happened. Configuration errors, checkpoint I/O errors and
/// exhausted retry budgets are returned as the original [`SimError`].
///
/// Checkpoints are bit-deterministic and results are thread-count
/// invariant, so a recovered run is digest-identical to one that never
/// failed — the invariant pinned by `crates/core/tests/fault_matrix.rs`.
///
/// Limitations (DESIGN.md §4.7): worlds carrying *user* global events
/// cannot be checkpointed (closures do not serialize) and are rejected
/// with [`SimError::Checkpoint`]; the sequential, barrier and null-message
/// kernels take no mid-run checkpoints (no global-event execution), so
/// recovery under them restarts from the initial image.
pub fn run_resilient<N>(
    world: World<N>,
    cfg: &RunConfig,
    policy: &RecoveryPolicy,
) -> Result<(World<N>, RunReport), SimError>
where
    N: SimNode + Snapshot,
    N::Payload: Snapshot,
{
    let partition = kernel::build_partition(&world, &cfg.partition)?;
    let assignment: Vec<u32> = partition.node_lp.iter().map(|lp| lp.0).collect();
    let mut run_cfg = cfg.clone();
    run_cfg.partition = PartitionMode::Manual(assignment);

    std::fs::create_dir_all(&policy.checkpoints.dir).map_err(SnapshotError::Io)?;
    let initial = policy.checkpoints.file_at(Time::ZERO);
    let mut world = checkpoint::write_initial(world, &partition, &initial)?;

    // Only the kernels that execute global events (Unison, hybrid, and the
    // async-conservative kernel at its quiesced gates) can run the periodic
    // chain; the others roll back to t = 0.
    let with_chain = matches!(
        cfg.kernel,
        KernelKind::Unison { .. } | KernelKind::Hybrid { .. } | KernelKind::AsyncCons { .. }
    );
    if with_chain {
        checkpoint::schedule_checkpoints(&mut world, &policy.checkpoints);
    }

    let mut log = RecoveryLog::default();
    let mut attempt: u32 = 0;
    loop {
        let attempt_start = Instant::now();
        match kernel::try_run(world, &run_cfg) {
            Ok((w, mut report)) => {
                report.recovery = Some(log);
                return Ok((w, report));
            }
            Err(err @ (SimError::WorkerPanic { .. } | SimError::Stalled { .. })) => {
                if attempt >= policy.max_retries {
                    return Err(err);
                }
                let attempt_wall = attempt_start.elapsed();
                let rollback_start = Instant::now();

                let degraded_threads = if policy.degrade {
                    degrade_kernel(&mut run_cfg.kernel)
                } else {
                    None
                };
                let (restored, rolled_back_to, skipped_corrupt) =
                    select_rollback::<N>(policy, with_chain)?;
                world = restored;
                let wall_cost = attempt_wall + rollback_start.elapsed();

                let backoff = policy
                    .backoff_base
                    .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX));
                std::thread::sleep(backoff);

                let (round, phase, rounds_lost) = match &err {
                    SimError::WorkerPanic { diag, partial } => {
                        (diag.round, diag.phase, partial.rounds)
                    }
                    SimError::Stalled { diag, partial } => {
                        (diag.round, RunPhase::Control, partial.rounds)
                    }
                    // INVARIANT: the outer match arm only binds the two
                    // variants above into `err`.
                    _ => unreachable!("non-recoverable error in recovery arm"),
                };
                log.rollbacks.push(RollbackRecord {
                    fault: err.to_string(),
                    round,
                    phase,
                    rolled_back_to,
                    rounds_lost,
                    wall_cost,
                    skipped_corrupt,
                    degraded_threads,
                    backoff,
                });
                log.total_recovery_wall += wall_cost + backoff;
                attempt += 1;
            }
            Err(other) => return Err(other),
        }
    }
}

/// Halves the worker count of a degraded retry (never below 1). Returns
/// the new count, or `None` when the kernel has no pool to shrink (or is
/// already at 1 worker).
fn degrade_kernel(kernel: &mut KernelKind) -> Option<u32> {
    match kernel {
        KernelKind::Unison { threads } if *threads > 1 => {
            *threads = (*threads / 2).max(1);
            Some(*threads as u32)
        }
        KernelKind::Hybrid {
            threads_per_host, ..
        } if *threads_per_host > 1 => {
            *threads_per_host = (*threads_per_host / 2).max(1);
            Some(*threads_per_host as u32)
        }
        KernelKind::AsyncCons { threads } if *threads > 1 => {
            *threads = (*threads / 2).max(1);
            Some(*threads as u32)
        }
        _ => None,
    }
}

/// Restores the newest usable checkpoint: corrupt files are skipped (and
/// counted), older checkpoints tried, I/O errors propagated. Errors with
/// [`SimError::CorruptSnapshot`] when no file in the directory decodes.
fn select_rollback<N>(
    policy: &RecoveryPolicy,
    with_chain: bool,
) -> Result<(World<N>, Time, u32), SimError>
where
    N: SimNode + Snapshot,
    N::Payload: Snapshot,
{
    let mut skipped = 0u32;
    let mut files = checkpoint::list_checkpoints(&policy.checkpoints.dir)?;
    while let Some(path) = files.pop() {
        let chain = if with_chain {
            Some(&policy.checkpoints)
        } else {
            None
        };
        match checkpoint::resume::<N>(&path, chain) {
            Ok(resumed) => return Ok((resumed.world, resumed.time, skipped)),
            Err(SnapshotError::Corrupt(_)) => {
                skipped += 1;
                continue;
            }
            Err(e) => return Err(e.into()),
        }
    }
    Err(SimError::CorruptSnapshot {
        detail: format!(
            "no usable checkpoint in {} ({skipped} corrupt file(s) skipped)",
            policy.checkpoints.dir.display()
        ),
    })
}

/// The checkpoint files a resilient run would consider for rollback, in
/// ascending virtual-time order (a thin public re-export of the scan
/// [`select_rollback`] uses, handy for tests and operational tooling).
pub fn rollback_candidates(policy: &RecoveryPolicy) -> Result<Vec<PathBuf>, SimError> {
    Ok(checkpoint::list_checkpoints(&policy.checkpoints.dir)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builder_collects_specs_in_order() {
        let plan = FaultPlan::new()
            .worker_panic(3, RunPhase::Process, 0)
            .mailbox_stall(2, 1, 50)
            .barrier_delay(4, 0, 10)
            .checkpoint_fail(Time(1_000))
            .alloc_fail(5, 0);
        assert_eq!(plan.specs().len(), 5);
        assert!(!plan.is_empty());
        assert!(plan.specs().iter().all(|s| s.armed()));
        assert!(matches!(
            plan.specs()[0].kind,
            FaultKind::WorkerPanic { round: 3, .. }
        ));
        assert!(matches!(
            plan.specs()[3].kind,
            FaultKind::CheckpointFail { at: Time(1_000) }
        ));
    }

    #[test]
    fn clones_share_the_fire_once_latch() {
        let plan = FaultPlan::new().worker_panic(1, RunPhase::Process, 0);
        let clone = plan.clone();
        assert!(plan.specs()[0].armed());
        assert!(clone.specs()[0].armed());
        // Consuming through one clone disarms the other (shared Arc).
        plan.specs()[0].armed.store(false, Ordering::Relaxed);
        assert!(!clone.specs()[0].armed());
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn fire_phase_panics_once_at_exact_coordinates() {
        let plan = FaultPlan::new().worker_panic(2, RunPhase::Receive, 1);
        // Wrong round / phase / worker: no effect.
        plan.fire_phase(1, RunPhase::Receive, 1);
        plan.fire_phase(2, RunPhase::Process, 1);
        plan.fire_phase(2, RunPhase::Receive, 0);
        assert!(plan.specs()[0].armed());
        let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.fire_phase(2, RunPhase::Receive, 1);
        }));
        assert!(hit.is_err());
        // Fire-once: the same coordinates are inert afterwards.
        plan.fire_phase(2, RunPhase::Receive, 1);
        assert!(!plan.specs()[0].armed());
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn alloc_fail_arms_thread_local_and_fires_on_next_push() {
        let plan = FaultPlan::new().alloc_fail(1, 0);
        plan.fire_phase(1, RunPhase::Process, 0);
        assert!(!plan.specs()[0].armed(), "arming consumes the latch");
        // The arm persists across later phase entries until a push happens.
        plan.fire_phase(2, RunPhase::Process, 0);
        let hit = std::panic::catch_unwind(alloc_check);
        assert!(hit.is_err(), "armed alloc_check must panic");
        // The panic consumed the thread-local: the next check is clean.
        alloc_check();
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn ckpt_fail_fires_on_first_write_at_or_after_time() {
        let plan = FaultPlan::new().checkpoint_fail(Time(500));
        assert!(!plan.fire_ckpt_fail(Time(499)));
        assert!(plan.fire_ckpt_fail(Time(512)), "clamped write times match");
        assert!(!plan.fire_ckpt_fail(Time(512)), "fires only once");
    }

    #[test]
    fn degrade_halves_down_to_one_worker() {
        let mut k = KernelKind::Unison { threads: 4 };
        assert_eq!(degrade_kernel(&mut k), Some(2));
        assert_eq!(degrade_kernel(&mut k), Some(1));
        assert_eq!(degrade_kernel(&mut k), None, "floor at 1 worker");
        let mut k = KernelKind::Hybrid {
            hosts: 2,
            threads_per_host: 2,
        };
        assert_eq!(degrade_kernel(&mut k), Some(1));
        assert_eq!(degrade_kernel(&mut k), None);
        let mut k = KernelKind::Sequential { compat_keys: true };
        assert_eq!(degrade_kernel(&mut k), None, "no pool to shrink");
    }
}
