//! End-to-end export test (ISSUE 3, satellite 5): run a small scenario
//! with telemetry enabled, export the Chrome trace, and check that the
//! emitted JSON is non-empty, validates as a trace_event array, and
//! round-trips through the crate's own parser bit-identically.

use unison_core::{
    DataRate, FusionConfig, KernelKind, MetricsLevel, PartitionMode, RunConfig, SchedConfig,
    TelemetryConfig, Time,
};
use unison_netsim::{NetworkBuilder, TransportKind};
use unison_telemetry::{chrome_trace_json, json, validate_chrome_trace};
use unison_topology::fat_tree;
use unison_traffic::TrafficConfig;

/// A deliberately small fat-tree incast: big enough to exercise every
/// span kind and the scheduler log, small enough for a test.
fn run_profiled_sched(threads: usize, sched: SchedConfig) -> unison_core::RunReport {
    let topo = fat_tree(4)
        .with_rate(DataRate::gbps(10))
        .with_delay(Time::from_micros(3));
    let traffic = TrafficConfig::incast(0.3, 0.6)
        .with_seed(7)
        .with_window(Time::ZERO, Time::from_micros(400));
    let sim = NetworkBuilder::new(&topo)
        .transport(TransportKind::NewReno)
        .traffic(&traffic)
        .stop_at(Time::from_micros(600))
        .build();
    sim.run_with(&RunConfig {
        watchdog: Default::default(),
        kernel: KernelKind::Unison { threads },
        partition: PartitionMode::Auto,
        sched,
        metrics: MetricsLevel::PerRound,
        telemetry: TelemetryConfig::enabled(),
        fault: Default::default(),
    })
    .expect("scenario run")
    .kernel
}

fn run_profiled(threads: usize) -> unison_core::RunReport {
    run_profiled_sched(threads, SchedConfig::default())
}

#[test]
fn exported_trace_is_valid_nonempty_and_round_trips() {
    let report = run_profiled(2);
    let tel = report.telemetry.as_ref().expect("telemetry attached");
    assert!(tel.span_count() > 0, "scenario produced no spans");

    let json_text = chrome_trace_json(tel);
    let summary = validate_chrome_trace(&json_text).expect("exported trace must validate");
    assert_eq!(
        summary.durations as usize,
        tel.span_count(),
        "every recorded span becomes exactly one duration event"
    );
    assert_eq!(
        summary.instants as usize,
        tel.sched.len(),
        "every scheduler decision becomes exactly one instant event"
    );
    // One thread_name metadata record per worker sink.
    assert_eq!(summary.metadata as usize, tel.workers.len());
    assert_eq!(
        summary.events,
        summary.durations + summary.instants + summary.metadata
    );

    // Round-trip: parse → re-serialize → bit-identical. The writer is the
    // canonical form, so one pass through the parser must be a fixpoint.
    let parsed = json::parse(&json_text).expect("own parser accepts own output");
    assert_eq!(parsed.to_json(), json_text, "serializer not a fixpoint");
}

#[test]
fn trace_timestamps_are_monotone_per_worker_within_kind() {
    let report = run_profiled(2);
    let tel = report.telemetry.as_ref().expect("telemetry attached");
    // The recorder is one-writer-per-worker and pushes a span when it
    // *closes*, so end timestamps never decrease within a sink (start
    // timestamps may: an enclosing phase span starts before the nested
    // LP-task spans it is recorded after).
    for w in &tel.workers {
        let mut last = 0u64;
        for s in &w.spans {
            let end = s.start_ns + s.dur_ns;
            assert!(
                end >= last,
                "worker {} spans out of order: end {end} < {last}",
                w.worker,
            );
            last = end;
        }
    }
}

/// Consistency of the async kernel's report surface (ISSUE satellite 4):
/// `rounds` is a round-based-kernel counter, so async_cons reports 0 there
/// and carries its progress in `async_stats`; the telemetry stream uses
/// the advance/merge/grant/stall-wait span kinds, exports to a valid
/// Chrome trace, and the profile report renders the progress section.
#[test]
fn async_cons_report_and_trace_are_consistent() {
    let topo = fat_tree(4)
        .with_rate(DataRate::gbps(10))
        .with_delay(Time::from_micros(3));
    let traffic = TrafficConfig::incast(0.3, 0.6)
        .with_seed(7)
        .with_window(Time::ZERO, Time::from_micros(400));
    let sim = NetworkBuilder::new(&topo)
        .transport(TransportKind::NewReno)
        .traffic(&traffic)
        .stop_at(Time::from_micros(600))
        .build();
    let threads = 2;
    let report = sim
        .run_with(&RunConfig {
            watchdog: Default::default(),
            kernel: KernelKind::AsyncCons { threads },
            partition: PartitionMode::Auto,
            sched: SchedConfig::default(),
            metrics: MetricsLevel::Summary,
            telemetry: TelemetryConfig::enabled(),
            fault: Default::default(),
        })
        .expect("async scenario run")
        .kernel;

    // The report surface: no rounds, async progress counters instead.
    assert_eq!(report.rounds, 0, "async_cons has no rounds to count");
    let stats = report.async_stats.as_ref().expect("async_stats attached");
    assert!(stats.grants > 0, "a multi-LP run must issue grants");
    assert!(stats.gates > 0, "the stop global implies at least one gate");
    assert_eq!(
        stats.stall_wait_ns.len(),
        threads,
        "one stall-wait accumulator per worker"
    );

    // The telemetry stream uses the async span vocabulary.
    let tel = report.telemetry.as_ref().expect("telemetry attached");
    let mut kinds: std::collections::BTreeSet<&str> = Default::default();
    for w in &tel.workers {
        for s in &w.spans {
            kinds.insert(s.kind.name());
        }
    }
    for needed in ["advance", "merge", "grant"] {
        assert!(kinds.contains(needed), "no {needed} spans in {kinds:?}");
    }
    assert!(
        !kinds.contains("process") && !kinds.contains("window-update"),
        "async workers must not emit round-phase spans: {kinds:?}"
    );

    // The export path handles the new kinds end to end.
    let json_text = chrome_trace_json(tel);
    let summary = validate_chrome_trace(&json_text).expect("async trace must validate");
    assert_eq!(summary.durations as usize, tel.span_count());
    let parsed = json::parse(&json_text).expect("own parser accepts own output");
    assert_eq!(parsed.to_json(), json_text, "serializer not a fixpoint");

    // And the profile report renders the async section.
    let text = unison_telemetry::report_string(&report);
    assert!(text.contains("asynchronous progress"), "{text}");
    assert!(!text.contains("rounds 0"), "stale rounds claim: {text}");
}

/// Round fusion's telemetry surface (ISSUE 9, satellite f): every fused
/// round emits exactly one `fused-round` envelope span on the control
/// thread, so the trace's span count for that kind equals the report's
/// `fused_rounds` counter — and the envelope carries its load/drain args
/// through the Chrome export.
#[test]
fn fused_round_spans_match_the_report_counter() {
    // An unbounded threshold makes the fusion predicate pass on every
    // round that is not a forced fallback, so the counter is non-zero on
    // any multi-round run.
    let report = run_profiled_sched(
        2,
        SchedConfig {
            fusion: FusionConfig {
                enabled: true,
                threshold: u64::MAX,
            },
            ..Default::default()
        },
    );
    assert!(report.rounds > 0);
    assert!(
        report.fused_rounds > 0,
        "an unbounded threshold must fuse at least the first round"
    );
    let tel = report.telemetry.as_ref().expect("telemetry attached");
    let fused_spans: usize = tel
        .workers
        .iter()
        .flat_map(|w| &w.spans)
        .filter(|s| s.kind.name() == "fused-round")
        .count();
    assert_eq!(
        fused_spans as u64, report.fused_rounds,
        "one fused-round envelope per fused round"
    );

    // The envelope's args survive the Chrome export, and the trace with
    // the new span kind still validates and round-trips.
    let json_text = chrome_trace_json(tel);
    validate_chrome_trace(&json_text).expect("trace with fused-round spans must validate");
    assert!(json_text.contains("fused-round"), "span kind missing");
    assert!(json_text.contains("cross_lp_recv"), "envelope args missing");
    let parsed = json::parse(&json_text).expect("own parser accepts own output");
    assert_eq!(parsed.to_json(), json_text, "serializer not a fixpoint");

    // Fusion off: no counter, no spans.
    let off = run_profiled_sched(
        2,
        SchedConfig {
            fusion: FusionConfig::off(),
            ..Default::default()
        },
    );
    assert_eq!(off.fused_rounds, 0);
    let off_tel = off.telemetry.as_ref().expect("telemetry attached");
    assert!(off_tel
        .workers
        .iter()
        .flat_map(|w| &w.spans)
        .all(|s| s.kind.name() != "fused-round"));
}

#[test]
fn validator_rejects_malformed_traces() {
    for (bad, why) in [
        ("{}", "not an array"),
        ("[]", "empty array"),
        (r#"[{"name":"x"}]"#, "missing ph"),
        (
            r#"[{"ph":"X","name":"x","ts":0,"pid":0,"tid":0}]"#,
            "duration event without dur",
        ),
        (
            r#"[{"ph":"X","name":"x","ts":-1,"dur":1,"pid":0,"tid":0}]"#,
            "negative timestamp",
        ),
    ] {
        assert!(
            validate_chrome_trace(bad).is_err(),
            "validator accepted a malformed trace ({why})"
        );
    }
}
