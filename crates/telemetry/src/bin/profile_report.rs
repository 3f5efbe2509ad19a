//! `profile-report`: run the paper's fat-tree incast workload with
//! telemetry enabled and print the profiler's analysis (per-round load
//! imbalance, barrier-wait share per worker, estimate-vs-actual scheduling
//! regret, mailbox traffic matrix).
//!
//! ```text
//! cargo run -p unison-telemetry --bin profile-report [--threads N] [--full]
//!     [--export trace.json]      # also write Chrome-trace JSON (Perfetto)
//!     [--validate trace.json]    # only validate an existing trace, no run
//! ```

use std::process::ExitCode;

use unison_core::{
    DataRate, KernelKind, MetricsLevel, PartitionMode, RunConfig, SchedConfig, TelemetryConfig,
    Time,
};
use unison_netsim::{NetworkBuilder, TransportKind};
use unison_telemetry::{chrome_trace_json, validate_chrome_trace, write_report};
use unison_topology::fat_tree;
use unison_traffic::TrafficConfig;

struct Args {
    threads: usize,
    full: bool,
    export: Option<String>,
    validate: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        threads: 4,
        full: false,
        export: None,
        validate: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                args.threads = v.parse().map_err(|e| format!("--threads {v:?}: {e}"))?;
            }
            "--full" => args.full = true,
            "--export" => args.export = Some(it.next().ok_or("--export needs a path")?),
            "--validate" => args.validate = Some(it.next().ok_or("--validate needs a path")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.threads == 0 {
        return Err("--threads must be >= 1".into());
    }
    Ok(args)
}

fn validate_file(path: &str) -> ExitCode {
    let json = match std::fs::read_to_string(path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match validate_chrome_trace(&json) {
        Ok(s) => {
            println!(
                "{path}: valid trace_event array ({} events: {} duration, {} instant, {} metadata)",
                s.events, s.durations, s.instants, s.metadata
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: INVALID trace: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("profile-report: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.validate {
        return validate_file(path);
    }

    // The §3.2 profiling workload: k-ary fat-tree with a 30%-load incast
    // pattern (k = 4 quick, k = 8 full).
    let k = if args.full { 8 } else { 4 };
    let window = if args.full {
        Time::from_millis(5)
    } else {
        Time::from_millis(2)
    };
    let topo = fat_tree(k)
        .with_rate(DataRate::gbps(10))
        .with_delay(Time::from_micros(3));
    let traffic = TrafficConfig::incast(0.3, 0.6)
        .with_seed(7)
        .with_window(Time::ZERO, window);
    let sim = NetworkBuilder::new(&topo)
        .transport(TransportKind::NewReno)
        .traffic(&traffic)
        .stop_at(window + Time::from_millis(1))
        .build();

    let res = match sim.run_with(&RunConfig {
        watchdog: Default::default(),
        kernel: KernelKind::Unison {
            threads: args.threads,
        },
        fault: Default::default(),
        partition: PartitionMode::Auto,
        sched: SchedConfig::default(),
        metrics: MetricsLevel::PerRound,
        telemetry: TelemetryConfig::enabled(),
    }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("profile-report: run failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut stdout = std::io::stdout().lock();
    if let Err(e) = write_report(&res.kernel, &mut stdout) {
        eprintln!("profile-report: write failed: {e}");
        return ExitCode::FAILURE;
    }

    if let Some(path) = &args.export {
        let Some(tel) = &res.kernel.telemetry else {
            eprintln!("profile-report: no telemetry to export (feature off?)");
            return ExitCode::FAILURE;
        };
        let json = chrome_trace_json(tel);
        // Export must round-trip: validate the exact bytes we write.
        if let Err(e) = validate_chrome_trace(&json) {
            eprintln!("profile-report: generated trace failed validation: {e}");
            return ExitCode::FAILURE;
        }
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("profile-report: write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!();
        println!("wrote Chrome trace: {path} (open in ui.perfetto.dev or chrome://tracing)");
    }
    ExitCode::SUCCESS
}
