//! `unison-perfbench`: the repository's benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fattree_incast --seed 7 --seconds 10 --trace 0
//! ```
//!
//! Each workload is a scenario file under `perfbench/workloads/`. One
//! invocation measures one workload (or, with `--workload all`, each in
//! turn) for `--seconds` seconds, every run in a fresh process, and prints
//! as its last stdout line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer split with `--trace 1`. The line before it records the host
//! and the run configuration.
//!
//! Every run is checked. At the workload's golden seed its digest must
//! equal the committed golden; at any other seed it must equal a 1-thread
//! run of the same seed, which is the paper's user-transparency property.
//! A run that errors or mismatches counts as failed and is kept out of the
//! metrics.

mod metrics;
mod run;
mod suite;

use std::io::Read as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use unison_telemetry::json::Value;

use metrics::{Metric, TracedRuns, END_TO_END, PER_LAYER};
use run::Sample;
use suite::{host_cpus, kernel_threads, workload_names, Workload};

/// Fewest measured repetitions per invocation, whatever `--seconds` says.
const MIN_REPS: u32 = 3;

/// A run process that takes longer than this is killed and counted failed.
const RUN_TIMEOUT: Duration = Duration::from_secs(120);

/// Command-line options.
struct Opts {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    suite: PathBuf,
    /// `Some(threads)` in a run process: execute one run and print it.
    run_threads: Option<usize>,
    traced: bool,
}

fn usage() -> String {
    "usage: unison-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1> \
     [--suite <dir>]"
        .into()
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        suite: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("workloads"),
        run_threads: None,
        traced: false,
    };
    let mut seen_seed = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--traced" {
            opts.traced = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value\n{}", usage()))?;
        let bad = |what: &str| format!("`{flag}` expects {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => {
                opts.seed = value.parse().map_err(|_| bad("an unsigned integer"))?;
                seen_seed = true;
            }
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s >= 1)
                    .ok_or_else(|| bad("a positive integer"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--suite" => opts.suite = PathBuf::from(&value),
            "--run-threads" => {
                let t = value
                    .parse()
                    .ok()
                    .filter(|&t| t >= 1)
                    .ok_or_else(|| bad("a positive integer"))?;
                opts.run_threads = Some(t);
            }
            _ => return Err(format!("unknown flag `{flag}`\n{}", usage())),
        }
    }
    if opts.workload.is_empty() || !seen_seed {
        return Err(usage());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("unison-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if opts.workload == "all" {
        workload_names(&opts.suite).and_then(|names| {
            names
                .iter()
                .try_for_each(|name| bench(&Workload::load(&opts.suite, name)?, &opts))
        })
    } else {
        Workload::load(&opts.suite, &opts.workload).and_then(|w| match opts.run_threads {
            Some(threads) => run::run(&w, opts.seed, threads, opts.traced).map(|s| {
                println!("{}", s.to_json());
            }),
            None => bench(&w, &opts),
        })
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("unison-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One kind of run within a measurement.
#[derive(Clone, Copy)]
struct RunKind {
    threads: usize,
    traced: bool,
}

/// Runs, checks and tallies the run processes of one invocation.
struct Runner<'a> {
    workload: &'a Workload,
    opts: &'a Opts,
    /// The digest every run must reproduce.
    expected: Option<u64>,
    attempted: u64,
    failed: u64,
    /// Configuration reported by the first passing run at the workload's
    /// own thread count.
    config: Option<Vec<(String, Value)>>,
}

impl Runner<'_> {
    /// Spawns one run process; returns its sample when it ran and its
    /// digest matched, and counts it failed otherwise.
    fn run(&mut self, kind: RunKind) -> Option<Sample> {
        self.attempted += 1;
        let outcome = spawn_run(self.workload, self.opts, kind).and_then(|s| match self.expected {
            Some(d) if d != s.digest => Err(format!(
                "digest {:016x} differs from the expected {d:016x} ({} thread(s){})",
                s.digest,
                kind.threads,
                if kind.traced { ", traced" } else { "" }
            )),
            _ => Ok(s),
        });
        match outcome {
            Ok(s) => {
                let num = |k: &str| s.num(k).unwrap_or(f64::NAN);
                eprintln!(
                    "{}: {} thread(s){}: wall {:.4} s, loop {:.4} s, {} events",
                    self.workload.name,
                    kind.threads,
                    if kind.traced { " traced" } else { "" },
                    num("wall_s"),
                    num("core.kernel.loop_s"),
                    num("core.kernel.events"),
                );
                Some(s)
            }
            Err(e) => {
                eprintln!("unison-perfbench: {}: run failed: {e}", self.workload.name);
                self.failed += 1;
                None
            }
        }
    }
}

/// Measures one workload and prints the result lines.
fn bench(workload: &Workload, opts: &Opts) -> Result<(), String> {
    let src = std::fs::read_to_string(&workload.path)
        .map_err(|e| format!("{}: {e}", workload.path.display()))?;
    let spec = workload.spec(&src)?;
    let kernel = spec.run_config(&spec.build_topology()).kernel;
    let threads = kernel_threads(&kernel).ok_or_else(|| {
        format!(
            "{}: kernel `{}` is not supported",
            workload.name,
            kernel.name()
        )
    })?;
    let cpus = host_cpus();
    if threads > cpus {
        return Err(format!(
            "{}: refused: {threads} threads would oversubscribe the {cpus} available CPU(s)",
            workload.name
        ));
    }
    let one = RunKind {
        threads: 1,
        traced: false,
    };

    let golden_seed = opts.seed == workload.golden_seed;
    let mut runner = Runner {
        workload,
        opts,
        expected: golden_seed.then_some(workload.golden_digest),
        attempted: 0,
        failed: 0,
        config: None,
    };
    // The reference run: 1 thread, untimed. Off the golden seed its digest
    // is what every measured run must reproduce.
    let reference = runner.run(one);
    if runner.expected.is_none() {
        runner.expected = reference.as_ref().map(|s| s.digest);
    }
    let metrics = match reference {
        Some(_) => measure(&mut runner, threads),
        None => Vec::new(),
    };
    print_result(workload, opts, &runner, &metrics);
    Ok(())
}

/// Repeats rounds of runs at the workload's own thread count until
/// `--seconds` is used up, and reduces them to the metrics.
fn measure(runner: &mut Runner, threads: usize) -> Vec<Metric> {
    let trace = runner.opts.trace;
    let budget = Duration::from_secs(runner.opts.seconds);
    let min_rounds = if trace { 1 } else { MIN_REPS };
    let started = Instant::now();
    let mut rounds = 0u32;
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut one_thread = Vec::new();
    loop {
        if let Some(s) = runner.run(RunKind {
            threads,
            traced: false,
        }) {
            runner.config.get_or_insert_with(|| s.config.clone());
            untraced.push(s);
        }
        if trace {
            traced.extend(runner.run(RunKind {
                threads,
                traced: true,
            }));
            if threads > 1 {
                one_thread.extend(runner.run(RunKind {
                    threads: 1,
                    traced: false,
                }));
            }
        }
        rounds += 1;
        // Stop once the minimum is met and another round would not fit.
        let elapsed = started.elapsed();
        if rounds >= min_rounds && elapsed + elapsed / rounds > budget {
            break;
        }
    }
    if trace {
        metrics::per_layer(&TracedRuns {
            untraced: &untraced,
            traced: &traced,
            one_thread: &one_thread,
        })
    } else {
        metrics::end_to_end(&untraced)
    }
}

/// Prints the host/configuration line and the result line.
fn print_result(workload: &Workload, opts: &Opts, runner: &Runner, metrics: &[Metric]) {
    let info = Value::Obj(vec![
        ("host".into(), host_info()),
        (
            "workload".into(),
            Value::Obj(vec![
                ("name".into(), Value::Str(workload.name.clone())),
                ("seed".into(), Value::Num(opts.seed as f64)),
                (
                    "golden_seed".into(),
                    Value::Num(workload.golden_seed as f64),
                ),
                ("seconds".into(), Value::Num(opts.seconds as f64)),
                ("trace".into(), Value::Bool(opts.trace)),
                (
                    "config".into(),
                    Value::Obj(runner.config.clone().unwrap_or_default()),
                ),
            ]),
        ),
    ]);
    println!("{}", info.to_json());

    let metrics_obj = Value::Obj(
        metrics
            .iter()
            .map(|&(name, unit, v)| {
                (
                    name.to_string(),
                    Value::Obj(vec![
                        ("value".into(), Value::Num(v)),
                        ("unit".into(), Value::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    );
    let declared = if opts.trace { PER_LAYER } else { END_TO_END };
    let complete = metrics.len() == declared.len();
    let result = Value::Obj(vec![
        (
            "correct".into(),
            Value::Bool(runner.failed == 0 && complete),
        ),
        ("attempted".into(), Value::Num(runner.attempted as f64)),
        ("failed".into(), Value::Num(runner.failed as f64)),
        ("metrics".into(), metrics_obj),
    ]);
    println!("{}", result.to_json());
}

/// Runs one run process and parses its sample.
fn spawn_run(workload: &Workload, opts: &Opts, kind: RunKind) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &workload.name])
        .args(["--seed", &opts.seed.to_string()])
        .arg("--suite")
        .arg(&opts.suite)
        .args(["--run-threads", &kind.threads.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if kind.traced {
        cmd.arg("--traced");
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawn: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    // Read on a helper thread so a chatty run can never block on a full
    // pipe while this thread polls for its exit.
    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        stdout.read_to_string(&mut out).map(|_| out)
    });
    let started = Instant::now();
    let status = loop {
        match child.try_wait().map_err(|e| format!("wait: {e}"))? {
            Some(status) => break status,
            None if started.elapsed() > RUN_TIMEOUT => {
                // Kill and reap; the reader then sees end of file.
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err(format!("timed out after {RUN_TIMEOUT:?}"));
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let out = reader
        .join()
        .map_err(|_| "stdout reader panicked".to_string())?
        .map_err(|e| format!("read stdout: {e}"))?;
    if !status.success() {
        return Err(format!("run process exited with {status}"));
    }
    let line = out.lines().last().ok_or("run process printed nothing")?;
    Sample::from_json(line)
}

/// The host block: CPUs, CPU model, compiler and commit.
fn host_info() -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .map_or(Value::Null, Value::Str);
    let rustc = command_line("rustc", &["-V"]).map_or(Value::Null, Value::Str);
    // Only a repository at this checkout's root names the commit: git must
    // not walk up into some enclosing repository.
    let git_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let commit = if git_dir.exists() {
        let git_dir = git_dir.to_string_lossy().into_owned();
        command_line("git", &["--git-dir", &git_dir, "rev-parse", "HEAD"])
    } else {
        None
    };
    Value::Obj(vec![
        (
            "available_parallelism".into(),
            Value::Num(host_cpus() as f64),
        ),
        ("cpu_model".into(), cpu_model),
        ("rustc".into(), rustc),
        ("commit".into(), commit.map_or(Value::Null, Value::Str)),
    ])
}

/// First line of a command's stdout, when it runs and succeeds.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout)
        .ok()?
        .lines()
        .next()
        .map(str::to_string)
}
