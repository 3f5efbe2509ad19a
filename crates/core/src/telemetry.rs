//! Run telemetry: per-worker phase timelines, per-LP task spans, and the
//! scheduler-decision log (DESIGN.md §4.3).
//!
//! The recording side lives in `unison-core` so the kernels can write spans
//! from their hot loops; merging, analysis, and Chrome-trace export live in
//! the `unison-telemetry` crate. The discipline mirrors `netsim::trace`:
//! **one writer per worker**, bounded buffers, no shared mutation. A worker
//! only ever touches its own [`WorkerTel`], which the kernel moves back to
//! the control thread after the final barrier; the scheduler-decision log is
//! written exclusively by the control thread inside its serial phase-4
//! window. Telemetry therefore introduces no new synchronization edges and
//! cannot perturb simulation results — the observer-effect test in
//! `crates/core/tests/telemetry_observer.rs` proves runs are bit-identical
//! with telemetry on and off.
//!
//! Zero-cost when disabled, twice over:
//!
//! - **Runtime**: with [`TelemetryConfig::enabled`] unset (the default), the
//!   kernels install disabled sinks — every recording method checks one
//!   `bool` and returns; no clock is read, no memory is written.
//! - **Compile time**: without the `telemetry` cargo feature (on by
//!   default), [`TelContext`], [`WorkerTel`], and [`SchedLog`] are
//!   zero-sized no-ops whose inlined methods compile to nothing.
//!
//! Span timestamps are wall-clock nanoseconds since the run's origin (the
//! construction of the [`TelContext`]); virtual time never appears in a
//! span's clock fields, only in its arguments.

/// Telemetry configuration, part of [`crate::RunConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch: when `false` (the default) the kernels install
    /// disabled sinks and record nothing.
    pub enabled: bool,
    /// Maximum spans retained per worker; later spans are counted in
    /// [`WorkerSpans::truncated`] and dropped (bounded memory, the same
    /// policy as `netsim::trace`).
    pub span_capacity: usize,
    /// Maximum scheduler decisions retained by the control thread.
    pub sched_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: false,
            span_capacity: 1 << 16,
            sched_capacity: 1 << 12,
        }
    }
}

impl TelemetryConfig {
    /// An enabled configuration with the default capacities.
    pub fn enabled() -> Self {
        TelemetryConfig {
            enabled: true,
            ..TelemetryConfig::default()
        }
    }
}

/// `lp` value of a span that is not attributed to a single LP.
pub const NO_LP: u32 = u32::MAX;

/// What a [`Span`] measures. The `arg`/`arg2` fields are kind-specific.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpanKind {
    /// Phase 1 (claim + execute window events) as seen by one worker.
    /// `arg` = events executed by this worker.
    Process,
    /// Phase 2 (global events), control thread only. `arg` = global events
    /// executed this round.
    Global,
    /// Phase 3 (mailbox drain) as seen by one worker. `arg` = events
    /// received by this worker.
    Receive,
    /// Phase 4 (window reduction + scheduling), control thread only.
    /// `arg` = this round's window end, `arg2` = the next window end
    /// (virtual-time nanoseconds).
    WindowUpdate,
    /// Time blocked in a phase barrier (or the null-message kernel's
    /// neighbor wait). `arg` = barrier index within the round.
    BarrierWait,
    /// One LP's mailbox drain in phase 3. `arg` = events received.
    MailboxFlush,
    /// One LP's execution in phase 1. `arg` = events executed, `arg2` = the
    /// scheduler's cost estimate for this LP (0 when no estimate existed).
    LpTask,
    /// Async-conservative kernel: one LP advanced to its channel-clock
    /// bound (`round` = worker iteration). `arg` = events executed.
    Advance,
    /// Async-conservative kernel: one LP's in-channel deliveries merged
    /// through the deterministic k-way merger. `arg` = events merged.
    Merge,
    /// Async-conservative kernel: out-channel promise refresh that raised
    /// at least one channel clock. `arg` = channels whose promise rose.
    Grant,
    /// Async-conservative kernel: time parked waiting for a neighbor grant
    /// (the barrier-free analogue of `BarrierWait`, which that kernel only
    /// uses for gate rendezvous).
    StallWait,
    /// Unison kernel: a whole round that *fused* — every phase ran on the
    /// main thread with no barrier crossing (DESIGN.md §4.9). Control
    /// thread only; `arg` = the round's total load (events + cross-LP
    /// receives), `arg2` = cross-LP events drained (a non-zero value is
    /// what forces the next round back through the barrier path).
    FusedRound,
}

impl SpanKind {
    /// Every kind, for report iteration.
    pub const ALL: [SpanKind; 12] = [
        SpanKind::Process,
        SpanKind::Global,
        SpanKind::Receive,
        SpanKind::WindowUpdate,
        SpanKind::BarrierWait,
        SpanKind::MailboxFlush,
        SpanKind::LpTask,
        SpanKind::Advance,
        SpanKind::Merge,
        SpanKind::Grant,
        SpanKind::StallWait,
        SpanKind::FusedRound,
    ];

    /// Short display name (also the Chrome-trace event name).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Process => "process",
            SpanKind::Global => "global",
            SpanKind::Receive => "receive",
            SpanKind::WindowUpdate => "window-update",
            SpanKind::BarrierWait => "barrier-wait",
            SpanKind::MailboxFlush => "mailbox-flush",
            SpanKind::LpTask => "lp-task",
            SpanKind::Advance => "advance",
            SpanKind::Merge => "merge",
            SpanKind::Grant => "grant",
            SpanKind::StallWait => "stall-wait",
            SpanKind::FusedRound => "fused-round",
        }
    }
}

/// One recorded wall-clock span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What was measured.
    pub kind: SpanKind,
    /// Synchronization round (1-based; 0 when the kernel has no rounds).
    pub round: u64,
    /// LP attribution, or [`NO_LP`] for whole-phase spans.
    pub lp: u32,
    /// Start, nanoseconds since the run origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Kind-specific argument (see [`SpanKind`]).
    pub arg: u64,
    /// Kind-specific argument (see [`SpanKind`]).
    pub arg2: u64,
}

/// All spans recorded by one worker, plus its cross-LP traffic counts.
#[derive(Clone, Debug, Default)]
pub struct WorkerSpans {
    /// Worker id (0 = the control thread).
    pub worker: u32,
    /// Recorded spans in recording order (monotone `start_ns`).
    pub spans: Vec<Span>,
    /// Spans dropped after `span_capacity` was reached.
    pub truncated: u64,
    /// Mailbox traffic observed by this worker while draining in phase 3:
    /// `(src_lp, dst_lp, events)`, sorted by `(src, dst)`.
    pub traffic: Vec<(u32, u32, u64)>,
}

/// One scheduler decision: the LJF order published for a group.
#[derive(Clone, Debug)]
pub struct SchedDecision {
    /// First round the order applies to.
    pub round: u64,
    /// Scheduling group (0 for plain Unison; host id for the hybrid kernel).
    pub group: u32,
    /// Name of the estimate heuristic ([`crate::SchedMetric::name`]).
    pub metric: &'static str,
    /// LP visit order, longest estimate first.
    pub order: Vec<u32>,
    /// Estimates aligned with `order` (`estimates[i]` is the estimate of LP
    /// `order[i]`, in the metric's unit: ns or pending events).
    pub estimates: Vec<u64>,
}

/// Everything a run recorded, attached to [`crate::RunReport::telemetry`].
#[derive(Clone, Debug, Default)]
pub struct RunTelemetry {
    /// Per-worker span buffers (index = worker id).
    pub workers: Vec<WorkerSpans>,
    /// Scheduler decisions in publication order.
    pub sched: Vec<SchedDecision>,
    /// Decisions dropped after `sched_capacity` was reached.
    pub sched_truncated: u64,
}

impl RunTelemetry {
    /// Total spans across all workers.
    pub fn span_count(&self) -> usize {
        self.workers.iter().map(|w| w.spans.len()).sum()
    }

    /// Merged cross-worker traffic matrix entries, sorted by `(src, dst)`.
    pub fn traffic(&self) -> Vec<(u32, u32, u64)> {
        let mut merged: std::collections::BTreeMap<(u32, u32), u64> =
            std::collections::BTreeMap::new();
        for w in &self.workers {
            for &(s, d, n) in &w.traffic {
                *merged.entry((s, d)).or_insert(0) += n;
            }
        }
        merged.into_iter().map(|((s, d), n)| (s, d, n)).collect()
    }
}

#[cfg(feature = "telemetry")]
mod imp {
    use std::collections::BTreeMap;
    use std::time::Instant;

    use super::{RunTelemetry, SchedDecision, Span, SpanKind, TelemetryConfig, WorkerSpans};

    /// Per-run recording context: the shared wall-clock origin plus the
    /// configuration. Created once at kernel start; hands one [`WorkerTel`]
    /// to each worker and one [`SchedLog`] to the control thread.
    pub struct TelContext {
        origin: Instant,
        cfg: TelemetryConfig,
    }

    impl TelContext {
        /// Captures the run origin.
        pub fn new(cfg: &TelemetryConfig) -> Self {
            TelContext {
                origin: Instant::now(),
                cfg: *cfg,
            }
        }

        /// Whether sinks created by this context record anything.
        pub fn is_enabled(&self) -> bool {
            self.cfg.enabled
        }

        /// A recording sink for `worker` (sole writer: that worker).
        pub fn worker(&self, worker: u32) -> WorkerTel {
            WorkerTel {
                worker,
                origin: self.origin,
                enabled: self.cfg.enabled,
                capacity: self.cfg.span_capacity,
                spans: Vec::new(),
                last_end: 0,
                truncated: 0,
                traffic: BTreeMap::new(),
            }
        }

        /// The scheduler-decision sink (sole writer: the control thread).
        pub fn sched_log(&self) -> SchedLog {
            SchedLog {
                enabled: self.cfg.enabled,
                capacity: self.cfg.sched_capacity,
                decisions: Vec::new(),
                truncated: 0,
            }
        }

        /// Merges the per-worker sinks into the run's telemetry (`None`
        /// when recording was disabled).
        pub fn collect(self, workers: Vec<WorkerTel>, sched: SchedLog) -> Option<RunTelemetry> {
            if !self.cfg.enabled {
                return None;
            }
            Some(RunTelemetry {
                workers: workers.into_iter().map(WorkerTel::into_spans).collect(),
                sched: sched.decisions,
                sched_truncated: sched.truncated,
            })
        }
    }

    /// One worker's span sink. Exactly one thread writes to it (it is moved
    /// into the worker and moved back out at join), so recording is
    /// lock-free by construction.
    pub struct WorkerTel {
        worker: u32,
        origin: Instant,
        enabled: bool,
        capacity: usize,
        spans: Vec<Span>,
        last_end: u64,
        truncated: u64,
        traffic: BTreeMap<(u32, u32), u64>,
    }

    impl WorkerTel {
        /// Whether this sink records (callers may skip argument
        /// computation when it does not).
        #[inline]
        pub fn enabled(&self) -> bool {
            self.enabled
        }

        /// Nanoseconds since the run origin — a span's start timestamp.
        /// Returns 0 without reading the clock when disabled.
        #[inline]
        pub fn start(&self) -> u64 {
            if self.enabled {
                self.origin.elapsed().as_nanos() as u64
            } else {
                0
            }
        }

        /// Records a span from `start_ns` to "now".
        #[inline]
        pub fn span(&mut self, kind: SpanKind, round: u64, lp: u32, start_ns: u64, arg: u64) {
            if !self.enabled {
                return;
            }
            let end = self.origin.elapsed().as_nanos() as u64;
            self.push(Span {
                kind,
                round,
                lp,
                start_ns,
                dur_ns: end.saturating_sub(start_ns),
                arg,
                arg2: 0,
            });
        }

        /// Records a span whose duration the kernel already measured for
        /// its own metrics (no second clock read).
        #[inline]
        #[allow(clippy::too_many_arguments)]
        pub fn span_dur(
            &mut self,
            kind: SpanKind,
            round: u64,
            lp: u32,
            start_ns: u64,
            dur_ns: u64,
            arg: u64,
            arg2: u64,
        ) {
            if !self.enabled {
                return;
            }
            self.push(Span {
                kind,
                round,
                lp,
                start_ns,
                dur_ns,
                arg,
                arg2,
            });
        }

        /// Counts one cross-LP event `src → dst` in the traffic matrix.
        #[inline]
        pub fn edge(&mut self, src: u32, dst: u32) {
            if !self.enabled {
                return;
            }
            *self.traffic.entry((src, dst)).or_insert(0) += 1;
        }

        #[inline]
        fn push(&mut self, mut span: Span) {
            // Spans are pushed at close, so within a sink the end
            // timestamps follow push order — an invariant the exporter
            // tests rely on. [`Self::span_dur`] can violate it raw: its
            // duration comes from a kernel clock pair read moments after
            // `start()`, so a preemption gap between the two reads lands
            // the computed end before an earlier span's. Slide such a span
            // forward to the recorded frontier, keeping its measured
            // duration exact (the gap is time the thread did not run).
            let end = span.start_ns.saturating_add(span.dur_ns);
            if end < self.last_end {
                span.start_ns = self.last_end - span.dur_ns;
            } else {
                self.last_end = end;
            }
            if self.spans.len() < self.capacity {
                self.spans.push(span);
            } else {
                self.truncated += 1;
            }
        }

        fn into_spans(self) -> WorkerSpans {
            WorkerSpans {
                worker: self.worker,
                spans: self.spans,
                truncated: self.truncated,
                traffic: self
                    .traffic
                    .into_iter()
                    .map(|((s, d), n)| (s, d, n))
                    .collect(),
            }
        }
    }

    /// The scheduler-decision sink (control thread only).
    pub struct SchedLog {
        enabled: bool,
        capacity: usize,
        decisions: Vec<SchedDecision>,
        truncated: u64,
    }

    impl SchedLog {
        /// Whether this sink records.
        #[inline]
        pub fn enabled(&self) -> bool {
            self.enabled
        }

        /// Appends one group's decision (capacity-bounded).
        pub fn record(
            &mut self,
            round: u64,
            group: u32,
            metric: &'static str,
            order: Vec<u32>,
            estimates: Vec<u64>,
        ) {
            if !self.enabled {
                return;
            }
            if self.decisions.len() < self.capacity {
                self.decisions.push(SchedDecision {
                    round,
                    group,
                    metric,
                    order,
                    estimates,
                });
            } else {
                self.truncated += 1;
            }
        }
    }
}

#[cfg(not(feature = "telemetry"))]
mod imp {
    use super::{RunTelemetry, SpanKind, TelemetryConfig};

    /// Compile-time no-op twin of the recording context (`telemetry`
    /// feature off): zero-sized, every method inlines to nothing.
    pub struct TelContext;

    impl TelContext {
        /// See the `telemetry`-feature twin.
        #[inline]
        pub fn new(_cfg: &TelemetryConfig) -> Self {
            TelContext
        }

        /// Always `false`.
        #[inline]
        pub fn is_enabled(&self) -> bool {
            false
        }

        /// A no-op sink.
        #[inline]
        pub fn worker(&self, _worker: u32) -> WorkerTel {
            WorkerTel
        }

        /// A no-op sink.
        #[inline]
        pub fn sched_log(&self) -> SchedLog {
            SchedLog
        }

        /// Always `None`.
        #[inline]
        pub fn collect(self, _workers: Vec<WorkerTel>, _sched: SchedLog) -> Option<RunTelemetry> {
            None
        }
    }

    /// No-op span sink.
    pub struct WorkerTel;

    impl WorkerTel {
        /// Always `false`.
        #[inline]
        pub fn enabled(&self) -> bool {
            false
        }

        /// Always 0; never reads the clock.
        #[inline]
        pub fn start(&self) -> u64 {
            0
        }

        /// No-op.
        #[inline]
        pub fn span(&mut self, _kind: SpanKind, _round: u64, _lp: u32, _start_ns: u64, _arg: u64) {}

        /// No-op.
        #[inline]
        #[allow(clippy::too_many_arguments)]
        pub fn span_dur(
            &mut self,
            _kind: SpanKind,
            _round: u64,
            _lp: u32,
            _start_ns: u64,
            _dur_ns: u64,
            _arg: u64,
            _arg2: u64,
        ) {
        }

        /// No-op.
        #[inline]
        pub fn edge(&mut self, _src: u32, _dst: u32) {}
    }

    /// No-op scheduler-decision sink.
    pub struct SchedLog;

    impl SchedLog {
        /// Always `false`.
        #[inline]
        pub fn enabled(&self) -> bool {
            false
        }

        /// No-op.
        pub fn record(
            &mut self,
            _round: u64,
            _group: u32,
            _metric: &'static str,
            _order: Vec<u32>,
            _estimates: Vec<u64>,
        ) {
        }
    }
}

pub use imp::{SchedLog, TelContext, WorkerTel};

#[cfg(all(test, feature = "telemetry"))]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing_and_reads_no_clock() {
        let ctx = TelContext::new(&TelemetryConfig::default());
        assert!(!ctx.is_enabled());
        let mut tel = ctx.worker(0);
        assert!(!tel.enabled());
        assert_eq!(tel.start(), 0);
        tel.span(SpanKind::Process, 1, NO_LP, 0, 5);
        tel.span_dur(SpanKind::LpTask, 1, 3, 0, 10, 5, 2);
        tel.edge(0, 1);
        let mut log = ctx.sched_log();
        log.record(1, 0, "by-last-round-time", vec![0], vec![1]);
        assert!(ctx.collect(vec![tel], log).is_none());
    }

    #[test]
    fn enabled_sink_records_and_collects() {
        let ctx = TelContext::new(&TelemetryConfig::enabled());
        let mut tel = ctx.worker(2);
        let s = tel.start();
        tel.span(SpanKind::Receive, 4, NO_LP, s, 7);
        tel.span_dur(SpanKind::LpTask, 4, 9, s, 123, 7, 100);
        tel.edge(1, 9);
        tel.edge(1, 9);
        tel.edge(0, 9);
        let mut log = ctx.sched_log();
        log.record(5, 0, "by-pending-events", vec![1, 0], vec![9, 3]);
        let t = ctx.collect(vec![tel], log).expect("enabled run collects");
        assert_eq!(t.workers.len(), 1);
        assert_eq!(t.workers[0].worker, 2);
        assert_eq!(t.span_count(), 2);
        assert_eq!(t.workers[0].spans[1].dur_ns, 123);
        assert_eq!(t.workers[0].spans[1].arg2, 100);
        assert_eq!(t.workers[0].traffic, vec![(0, 9, 1), (1, 9, 2)]);
        assert_eq!(t.traffic(), vec![(0, 9, 1), (1, 9, 2)]);
        assert_eq!(t.sched.len(), 1);
        assert_eq!(t.sched[0].order, vec![1, 0]);
        assert_eq!(t.sched_truncated, 0);
    }

    #[test]
    fn sink_slides_regressing_span_ends_to_the_frontier() {
        // `span_dur` durations come from a clock pair separate from
        // `start()`; a preemption gap between the two reads can compute an
        // end before an already-pushed span's. The sink slides such spans
        // forward (duration untouched) so push order == end order.
        let ctx = TelContext::new(&TelemetryConfig::enabled());
        let mut tel = ctx.worker(0);
        tel.span_dur(SpanKind::Process, 1, NO_LP, 100, 50, 0, 0); // end 150
        tel.span_dur(SpanKind::Receive, 1, NO_LP, 110, 10, 0, 0); // raw end 120
        tel.span_dur(SpanKind::Process, 2, NO_LP, 160, 5, 0, 0); // end 165
        let log = ctx.sched_log();
        let t = ctx.collect(vec![tel], log).expect("enabled");
        let spans = &t.workers[0].spans;
        assert_eq!(spans[1].start_ns, 140, "slid to the 150 frontier");
        assert_eq!(spans[1].dur_ns, 10, "measured duration preserved");
        assert_eq!(spans[2].start_ns, 160, "non-regressing span untouched");
        let mut last = 0;
        for s in spans {
            assert!(s.start_ns + s.dur_ns >= last);
            last = s.start_ns + s.dur_ns;
        }
    }

    #[test]
    fn span_capacity_truncates_and_counts() {
        let cfg = TelemetryConfig {
            enabled: true,
            span_capacity: 2,
            sched_capacity: 1,
        };
        let ctx = TelContext::new(&cfg);
        let mut tel = ctx.worker(0);
        for r in 0..5 {
            tel.span_dur(SpanKind::Process, r, NO_LP, 0, 1, 0, 0);
        }
        let mut log = ctx.sched_log();
        log.record(1, 0, "none", vec![], vec![]);
        log.record(2, 0, "none", vec![], vec![]);
        let t = ctx.collect(vec![tel], log).expect("enabled");
        assert_eq!(t.workers[0].spans.len(), 2);
        assert_eq!(t.workers[0].truncated, 3);
        assert_eq!(t.sched.len(), 1);
        assert_eq!(t.sched_truncated, 1);
    }

    #[test]
    fn kind_names_are_stable() {
        for k in SpanKind::ALL {
            assert!(!k.name().is_empty());
            assert!(!k.name().contains(' '));
        }
    }
}
