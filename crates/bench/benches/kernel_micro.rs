//! Micro-benchmarks of kernel primitives: FEL operations, partitioning,
//! mailboxes, scheduling, routing-table construction and raw event
//! throughput per kernel.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use unison_core::{
    fine_grained_partition, kernel, Event, EventKey, Fel, LinkGraph, NodeId, Rng, RunConfig,
    SimCtx, SimNode, Time, WorldBuilder,
};

/// FEL push+pop of a shuffled batch (the ladder queue, DESIGN.md §4.4).
fn bench_fel(c: &mut Criterion) {
    let mut rng = Rng::new(1);
    let mut keys: Vec<u64> = (0..1_000).collect();
    rng.shuffle(&mut keys);
    c.bench_function("fel_push_pop_1k", |b| {
        b.iter_batched(
            || keys.clone(),
            |keys| {
                let mut q: Fel<u64> = Fel::new();
                for &k in &keys {
                    q.push(Event {
                        key: EventKey::external(Time(k), k),
                        node: NodeId(0),
                        payload: k,
                    });
                }
                let mut sum = 0u64;
                while let Some(ev) = q.pop() {
                    sum = sum.wrapping_add(ev.payload);
                }
                black_box(sum)
            },
            BatchSize::SmallInput,
        )
    });
}

/// FEL windowed drain: pushes interleaved with `pop_below`, the access
/// pattern of the kernel's process phase (events cluster near the window).
/// Two shapes: 128 pushes per window (a busy LP, whose re-primes build
/// rungs) and 2-3 per window (the dumbbell's per-LP handful, which the
/// ladder's small re-prime path sorts straight into its bottom tier).
fn bench_fel_windowed(c: &mut Criterion) {
    for (name, windows, per_window) in [
        ("fel_windowed_8k", 64u64, &[128u64][..]),
        ("fel_windowed_tiny", 4_096, &[2, 3][..]),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                let mut q: Fel<u64> = Fel::new();
                let mut rng = Rng::new(7);
                let mut seq = 0u64;
                let mut sum = 0u64;
                for window in 0..windows {
                    let base = window * 1_000;
                    for _ in 0..per_window[window as usize % per_window.len()] {
                        seq += 1;
                        let ts = base + rng.next_below(4_000);
                        q.push(Event {
                            key: EventKey::external(Time(ts), seq),
                            node: NodeId(0),
                            payload: ts,
                        });
                    }
                    while let Some(ev) = q.pop_below(Time(base + 1_000)) {
                        sum = sum.wrapping_add(ev.payload);
                    }
                }
                while let Some(ev) = q.pop() {
                    sum = sum.wrapping_add(ev.payload);
                }
                black_box(sum)
            })
        });
    }
}

/// Algorithm 1 over the k=8 fat-tree graph.
fn bench_partition(c: &mut Criterion) {
    let topo = unison_topology::fat_tree(8);
    let mut graph = LinkGraph::new(topo.node_count());
    for l in &topo.links {
        graph.add_link(NodeId(l.a as u32), NodeId(l.b as u32), l.delay);
    }
    c.bench_function("fine_grained_partition_k8", |b| {
        b.iter(|| black_box(fine_grained_partition(&graph)))
    });
}

/// Mailbox round trip.
fn bench_mailbox(c: &mut Criterion) {
    use unison_core::mailbox::Mailboxes;
    let m: Mailboxes<u64> = Mailboxes::new(8, &[(0, 1), (2, 1), (3, 1)]);
    c.bench_function("mailbox_push_drain_100", |b| {
        b.iter(|| {
            for i in 0..100u64 {
                m.try_push(
                    0,
                    1,
                    Event {
                        key: EventKey::external(Time(i), i),
                        node: NodeId(1),
                        payload: i,
                    },
                )
                .unwrap();
            }
            let mut n = 0;
            m.drain(1, |_| n += 1);
            black_box(n)
        })
    });
}

/// Raw MPSC queue, pooled vs. plain, over repeated push/drain rounds — the
/// steady-state mailbox traffic pattern. The pooled arm recycles drained
/// nodes onto the freelist, so after round one it allocates nothing.
///
/// Read this A/B with care: it is single-threaded, which favors the
/// plain arm (thread-local malloc fast path, frees on the allocating
/// thread). The pool's value shows up in the parallel kernels, where
/// plain nodes are allocated on producer threads and freed on the
/// consumer — the cross-thread pattern allocators handle worst — and
/// where steady state must not allocate at all (perf-smoke pins the
/// hit rate above 90%).
fn bench_mailbox_pool(c: &mut Criterion) {
    use unison_core::queue::MpscQueue;
    let mut group = c.benchmark_group("mpsc_100x8_rounds");
    group.bench_function("plain_alloc", |b| {
        b.iter(|| {
            let q: MpscQueue<u64> = MpscQueue::new();
            let mut sum = 0u64;
            for _ in 0..8 {
                for i in 0..100u64 {
                    q.push(i);
                }
                q.drain(|v| sum = sum.wrapping_add(v));
            }
            black_box(sum)
        })
    });
    group.bench_function("pooled", |b| {
        b.iter(|| {
            let q: MpscQueue<u64> = MpscQueue::new();
            let mut sum = 0u64;
            for _ in 0..8 {
                for i in 0..100u64 {
                    q.push_pooled(i);
                }
                q.drain_recycle(|v| sum = sum.wrapping_add(v));
            }
            black_box(sum)
        })
    });
    group.finish();
}

/// LPT scheduling of 256 LPs on 16 cores.
fn bench_sched(c: &mut Criterion) {
    use unison_core::sched::{lpt_makespan, order_by_estimate};
    let mut rng = Rng::new(3);
    let est: Vec<u64> = (0..256).map(|_| rng.next_below(10_000)).collect();
    let actual: Vec<f64> = est.iter().map(|&e| e as f64 + 5.0).collect();
    c.bench_function("lpt_schedule_256x16", |b| {
        b.iter(|| {
            let order = order_by_estimate(&est);
            black_box(lpt_makespan(&order, &actual, 16))
        })
    });
}

/// ECMP static-table construction for the k=4 fat-tree.
fn bench_routes(c: &mut Criterion) {
    let topo = unison_topology::fat_tree(4);
    let mut adj: Vec<Vec<(u32, u8)>> = vec![Vec::new(); topo.node_count()];
    for l in &topo.links {
        let da = adj[l.a].len() as u8;
        let db = adj[l.b].len() as u8;
        adj[l.a].push((l.b as u32, da));
        adj[l.b].push((l.a as u32, db));
    }
    c.bench_function("static_routes_k4", |b| {
        b.iter(|| black_box(unison_netsim::route::compute_static_tables(&adj)))
    });
}

/// Token-ring hop node for raw event-throughput measurements.
struct Hop {
    next: NodeId,
    count: u64,
}

impl SimNode for Hop {
    type Payload = ();
    fn handle(&mut self, _p: (), ctx: &mut dyn SimCtx<Self>) {
        self.count += 1;
        ctx.schedule(Time(1_000), self.next, ());
    }
}

fn ring(n: usize, events: u64) -> unison_core::World<Hop> {
    let mut b = WorldBuilder::new();
    for i in 0..n {
        b.add_node(Hop {
            next: NodeId(((i + 1) % n) as u32),
            count: 0,
        });
    }
    for i in 0..n {
        b.add_link(NodeId(i as u32), NodeId(((i + 1) % n) as u32), Time(1_000));
    }
    b.schedule(Time::ZERO, NodeId(0), ());
    b.stop_at(Time(events * 1_000));
    b.build()
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_event_throughput");
    group.sample_size(10);
    for (name, cfg) in [
        ("sequential_10k", RunConfig::sequential()),
        ("unison1_10k", RunConfig::unison(1)),
        ("unison2_10k", RunConfig::unison(2)),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let (_, report) = kernel::run(ring(16, 10_000), &cfg).unwrap();
                black_box(report.events)
            })
        });
    }
    group.finish();
}

/// Telemetry perf guard (DESIGN.md §4.3): the profiler must be free when
/// not in use. Two configurations of the same unison(2) ring workload:
/// the default disabled sink (recorder compiled in, runtime-off — one
/// predictable branch per record site) and full recording.
///
/// Documented threshold: the *recording* median must stay within 1.5x of
/// the disabled-sink median over 15 interleaved runs. Recording is two
/// monotonic clock reads and one bounded push per span — far below the
/// event-processing work between spans — so a breach means a hot-path
/// regression (clock reads or allocation on the disabled path, a lock in
/// the recorder), and a fortiori bounds the disabled sink itself. The
/// compile-time-off path cannot be compared in this binary (cargo feature
/// unification re-enables `telemetry` through the netsim dependency);
/// CI's `--no-default-features` build of unison-core covers it.
fn bench_telemetry_overhead(c: &mut Criterion) {
    let disabled = RunConfig::unison(2);
    let recording = RunConfig::unison(2).with_telemetry();

    let time_once = |cfg: &RunConfig| -> u64 {
        let world = ring(16, 10_000);
        let t0 = std::time::Instant::now();
        let (_, report) = kernel::run(world, cfg).unwrap();
        black_box(report.events);
        t0.elapsed().as_nanos() as u64
    };
    // Warm-up, then interleave samples so drift hits both arms equally.
    for cfg in [&disabled, &recording] {
        time_once(cfg);
    }
    let mut d_ns = Vec::new();
    let mut r_ns = Vec::new();
    for _ in 0..15 {
        d_ns.push(time_once(&disabled));
        r_ns.push(time_once(&recording));
    }
    d_ns.sort_unstable();
    r_ns.sort_unstable();
    let (d, r) = (d_ns[d_ns.len() / 2], r_ns[r_ns.len() / 2]);
    let ratio = r as f64 / d as f64;
    assert!(
        ratio < 1.5,
        "telemetry overhead tripwire: recording median {r} ns is {ratio:.2}x \
         the disabled-sink median {d} ns (threshold 1.5x) — a hot-path \
         regression in the span recorder"
    );
    eprintln!("telemetry overhead: recording/disabled median ratio {ratio:.3}");

    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(10);
    for (name, cfg) in [
        ("unison2_10k_disabled_sink", &disabled),
        ("unison2_10k_recording", &recording),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let (_, report) = kernel::run(ring(16, 10_000), cfg).unwrap();
                black_box(report.events)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fel,
    bench_fel_windowed,
    bench_partition,
    bench_mailbox,
    bench_mailbox_pool,
    bench_sched,
    bench_routes,
    bench_kernels,
    bench_telemetry_overhead
);
criterion_main!(benches);
