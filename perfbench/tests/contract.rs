//! The benchmark's own test, on shrunken variants of its workloads
//! (`tests/smoke/`): every metric `BENCHMARK.json` declares is emitted with
//! its unit, runs reproduce their goldens, and a wrong golden is counted as
//! a failed run rather than a pass.

use std::path::{Path, PathBuf};
use std::process::Command;

use unison_telemetry::json::{parse, Value};

const WORKLOADS: [&str; 4] = [
    "fattree_incast",
    "dumbbell_dctcp",
    "wan_rip",
    "fattree_incast_seq",
];

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn smoke_suite() -> PathBuf {
    manifest_dir().join("tests/smoke")
}

/// The golden seed of `workload` in `suite`.
fn golden_seed(suite: &Path, workload: &str) -> u64 {
    let src = std::fs::read_to_string(suite.join("goldens.toml")).expect("goldens.toml");
    let tables = unison_scenario::toml::parse(&src).expect("goldens.toml parses");
    let table = tables
        .iter()
        .find(|t| t.name == workload)
        .expect("workload has a golden");
    table.get_int("seed").expect("golden seed") as u64
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = manifest_dir().join("../BENCHMARK.json");
    let src = std::fs::read_to_string(&path).expect("BENCHMARK.json");
    let doc = parse(&src).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark and returns its result line.
fn bench(suite: &Path, workload: &str, seed: u64, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_unison-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .arg("--suite")
        .arg(suite)
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{workload}: exit {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    parse(last).expect("result line is JSON")
}

fn count(result: &Value, key: &str) -> f64 {
    result.get(key).and_then(Value::as_num).expect(key)
}

/// The result has exactly the four contract keys, no failed run, and the
/// declared metrics with their units.
fn assert_complete(result: &Value, expected: &[(String, String)], what: &str) {
    let Value::Obj(pairs) = result else {
        panic!("{what}: result is not an object")
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{what}");
    assert!(count(result, "attempted") >= 1.0, "{what}");
    assert_eq!(count(result, "failed"), 0.0, "{what}");
    let Some(Value::Obj(metrics)) = result.get("metrics") else {
        panic!("{what}: no metrics object")
    };
    let emitted: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Value::as_num).is_some(),
                "{what}: {name} has no numeric value"
            );
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect();
    assert_eq!(emitted, expected, "{what}");
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let suite = smoke_suite();
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in WORKLOADS {
        let seed = golden_seed(&suite, workload);
        let result = bench(&suite, workload, seed, false);
        assert_complete(&result, &end_to_end, &format!("{workload} untraced"));
        let result = bench(&suite, workload, seed, true);
        assert_complete(&result, &per_layer, &format!("{workload} traced"));
    }
}

#[test]
fn a_held_out_seed_is_checked_across_thread_counts() {
    let suite = smoke_suite();
    let seed = golden_seed(&suite, "fattree_incast") + 1;
    let result = bench(&suite, "fattree_incast", seed, false);
    assert_complete(&result, &declared("end_to_end"), "held-out seed");
}

#[test]
fn a_wrong_golden_is_a_failed_run() {
    let suite = smoke_suite();
    let broken = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("wrong_golden_suite");
    std::fs::create_dir_all(&broken).expect("temp suite");
    let workload = "fattree_incast";
    std::fs::copy(
        suite.join(format!("{workload}.toml")),
        broken.join(format!("{workload}.toml")),
    )
    .expect("copy scenario");
    let seed = golden_seed(&suite, workload);
    std::fs::write(
        broken.join("goldens.toml"),
        format!("[{workload}]\nseed = {seed}\ndigest = \"0123456789abcdef\"\n"),
    )
    .expect("write goldens");

    let result = bench(&broken, workload, seed, false);
    assert_eq!(result.get("correct"), Some(&Value::Bool(false)));
    let attempted = count(&result, "attempted");
    assert!(attempted >= 1.0);
    assert_eq!(count(&result, "failed"), attempted);
}
