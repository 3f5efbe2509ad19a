//! Perf-smoke tripwires for the hot-path event engine (CI `perf-smoke`
//! job; DESIGN.md §4.4).
//!
//! These are `#[ignore]`d by default — they measure wall-clock time, so
//! running them under `cargo test` on a loaded laptop would be noise. CI
//! runs them explicitly, serialized so the wall-clock arms never contend
//! with each other:
//!
//! ```sh
//! cargo test -p unison-bench --release --test perf_smoke -- --ignored \
//!     --test-threads=1
//! ```
//!
//! Three claims are guarded, with deliberately loose thresholds (these
//! are tripwires against large regressions, not micro-benchmarks — the
//! committed `BENCH_kernels.json` baseline holds the precise numbers):
//!
//! 1. the mailbox node pool reaches a > 90% hit rate at steady state —
//!    i.e. after warm-up, receive-phase traffic reuses recycled nodes
//!    instead of allocating;
//! 2. on the large tier (fat-tree k = 8, ≥ 10⁷ events) the barrier-free
//!    asynchronous conservative kernel at 4 threads holds parity or
//!    better against the Unison kernel at 4 threads (contract ≥ 1.0x,
//!    recorded in `BENCH_kernels.json`; enforcement floor 0.85 absorbs
//!    shared-runner noise — removing the round barrier is the kernel's
//!    entire reason to exist, DESIGN.md §4.8);
//! 3. on the same large tier the round-based Unison kernel at 4 threads
//!    holds parity or better against itself at 1 thread (contract ≥ 1.0x,
//!    the `unison_4t_over_1t` headline in `BENCH_kernels.json`; same 0.85
//!    enforcement floor for timesliced 1-CPU runners) — the ratio round
//!    fusion and the hierarchical tree barrier exist to lift (DESIGN.md
//!    §4.9, ROADMAP item 1).

use unison_bench::harness::{fat_tree_scenario, Scale, Scenario};
use unison_core::{DataRate, KernelKind, PartitionMode, Time};

/// The paper's §3.2 profiling workload at quick scale: a k=4 fat-tree with
/// a 50% incast share — mailbox- and FEL-heavy by construction.
fn incast() -> Scenario {
    fat_tree_scenario(Scale::Quick, 0.5, DataRate::gbps(100), Time::from_micros(3))
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_unstable_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Tripwire 1: at steady state the mailbox pool must serve > 90% of
/// pooled pushes from recycled nodes. Misses are expected only while each
/// inbox queue grows to its steady-state depth in the first rounds.
#[test]
#[ignore = "wall-clock tripwire; run explicitly in the CI perf-smoke job"]
fn pool_hit_rate_above_90_percent_steady_state() {
    let run = incast().run_real(KernelKind::Unison { threads: 2 }, PartitionMode::Auto);
    let engine = run.kernel.engine;
    let rate = engine.pool_hit_rate();
    eprintln!(
        "perf-smoke: pool hits {} misses {} (hit rate {:.1}%)",
        engine.pool_hits,
        engine.pool_misses,
        rate * 100.0
    );
    assert!(
        engine.pool_hits + engine.pool_misses > 0,
        "incast run produced no mailbox traffic — workload is broken"
    );
    assert!(
        rate > 0.9,
        "mailbox pool hit rate fell to {:.1}% (tripwire 90%) — drained \
         nodes are not being recycled onto the freelist",
        rate * 100.0
    );
}

/// Tripwire 2: the async-conservative kernel's headline. On the large
/// tier — big enough that per-event work dominates thread start-up — the
/// barrier-free kernel must not lose to the round-based Unison kernel at
/// the same thread count. Five interleaved sample pairs per arm, with the
/// within-pair order alternating so a monotone machine drift (cache and
/// allocator warm-up, frequency scaling) cannot systematically favor the
/// arm that runs second.
///
/// The contract is parity or better (≥ 1.0x medians; the committed
/// `async_over_unison_4t` in `BENCH_kernels.json` records the measured
/// ratio). The *enforcement* threshold is 0.85: on timesliced single-CPU
/// CI runners the per-pair ratio of two kernels at true parity was
/// measured to swing ±15% with neighbor load, so a 1.0 assertion would
/// trip on scheduler luck, not regressions. A median below 0.85 means the
/// barrier-free sweep machinery genuinely costs more than the barrier it
/// replaced.
#[test]
#[ignore = "wall-clock tripwire; run explicitly in the CI perf-smoke job"]
fn async_cons_not_slower_than_unison_on_large_tier() {
    let scenario = fat_tree_scenario(Scale::Large, 0.5, DataRate::gbps(100), Time::from_micros(3));
    let threads = 4usize;
    let sample_kernel = |kernel: KernelKind| {
        let run = scenario.run_real(kernel, PartitionMode::Auto);
        (run.kernel.events, run.kernel.events_per_sec())
    };
    // Warm-up (page cache, allocator, frequency scaling).
    sample_kernel(KernelKind::AsyncCons { threads });
    let mut async_rates = Vec::new();
    let mut unison_rates = Vec::new();
    let mut events = u64::MAX;
    for pair in 0..5 {
        let (first, second) = if pair % 2 == 0 {
            (
                KernelKind::AsyncCons { threads },
                KernelKind::Unison { threads },
            )
        } else {
            (
                KernelKind::Unison { threads },
                KernelKind::AsyncCons { threads },
            )
        };
        for kernel in [first, second] {
            let is_async = matches!(kernel, KernelKind::AsyncCons { .. });
            let (n, r) = sample_kernel(kernel);
            events = events.min(n);
            if is_async {
                async_rates.push(r);
            } else {
                unison_rates.push(r);
            }
        }
    }
    assert!(
        events >= 10_000_000,
        "the large tier must clear 10^7 events per run, got {events}"
    );
    let (a, u) = (median(&mut async_rates), median(&mut unison_rates));
    let ratio = a / u;
    eprintln!(
        "perf-smoke: large-tier events/sec — async_cons {a:.0}, unison \
         {u:.0} (ratio {ratio:.3}, {events} events)"
    );
    assert!(
        ratio >= 0.85,
        "the barrier-free kernel lost to the round-based kernel at \
         {threads} threads on the large tier: {a:.0} vs {u:.0} events/sec \
         (ratio {ratio:.3}, tripwire 0.85 — contract is parity, see \
         BENCH_kernels.json async_over_unison_4t)"
    );
}

/// Tripwire 3: the round-based kernel's own thread scaling on the large
/// tier — the `unison_4t_over_1t` headline. Round fusion (DESIGN.md §4.9)
/// removes barrier crossings from sparse rounds and the hierarchical tree
/// barrier cheapens the rest, so 4 threads must not run *slower* than 1
/// thread on a ≥ 10⁷-event workload (the kernels-v4 baseline measured
/// 0.96 — ROADMAP item 1 verbatim).
///
/// Same measurement discipline as tripwire 2: interleaved pairs with
/// alternating within-pair order, medians per arm. The contract is
/// parity or better (≥ 1.0x); the enforcement threshold is 0.85 because
/// on timesliced single-CPU runners four workers sharing one core pay
/// a context-switch tax no barrier topology can remove, and a 1.0
/// assertion there would trip on the runner, not the kernel.
#[test]
#[ignore = "wall-clock tripwire; run explicitly in the CI perf-smoke job"]
fn unison_4t_not_slower_than_1t_on_large_tier() {
    let scenario = fat_tree_scenario(Scale::Large, 0.5, DataRate::gbps(100), Time::from_micros(3));
    let sample_threads = |threads: usize| {
        let run = scenario.run_real(KernelKind::Unison { threads }, PartitionMode::Auto);
        (run.kernel.events, run.kernel.events_per_sec())
    };
    // Warm-up (page cache, allocator, frequency scaling).
    sample_threads(4);
    let mut wide = Vec::new();
    let mut narrow = Vec::new();
    let mut events = u64::MAX;
    for pair in 0..5 {
        let order: [usize; 2] = if pair % 2 == 0 { [4, 1] } else { [1, 4] };
        for threads in order {
            let (n, r) = sample_threads(threads);
            events = events.min(n);
            if threads == 4 {
                wide.push(r);
            } else {
                narrow.push(r);
            }
        }
    }
    assert!(
        events >= 10_000_000,
        "the large tier must clear 10^7 events per run, got {events}"
    );
    let (w, n) = (median(&mut wide), median(&mut narrow));
    let ratio = w / n;
    eprintln!(
        "perf-smoke: large-tier events/sec — unison 4t {w:.0}, unison 1t \
         {n:.0} (ratio {ratio:.3}, {events} events)"
    );
    assert!(
        ratio >= 0.85,
        "the round-based kernel at 4 threads lost to itself at 1 thread \
         on the large tier: {w:.0} vs {n:.0} events/sec (ratio {ratio:.3}, \
         tripwire 0.85 — contract is parity, see BENCH_kernels.json \
         unison_4t_over_1t and DESIGN.md §4.9)"
    );
}
