//! The benchmark's self-test: every workload at tiny scale, traced and
//! untraced, must print every metric `BENCHMARK.json` names with its
//! unit, pass every check, and exit 0; bad arguments must fail without
//! printing a result.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Output};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| {
        let at = entry
            .find(&format!("\"{key}\""))
            .expect("entry has the key")
            + key.len()
            + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("string value") + 1;
        rest[open..open + rest[open..].find('"').expect("closed string")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn workloads() -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = json.find("\"workloads\"").expect("workloads listed");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("workloads is a list")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("perfbench runs")
}

/// Runs one workload at tiny scale, checks its result line against the
/// declared metrics, and returns the printed values by name.
fn check(workload: &str, trace: &str, seed: &str, section: &str) -> BTreeMap<String, f64> {
    let out = perfbench(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "0",
        "--trace",
        trace,
        "--scale",
        "tiny",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{stderr}"
    );
    assert!(
        stdout.contains("# provenance {"),
        "{workload}: no provenance line"
    );
    for key in [
        "\"nproc\"",
        "\"git_commit\"",
        "\"rustc\"",
        "\"date\"",
        "\"traced\"",
    ] {
        assert!(stdout.contains(key), "{workload}: provenance lacks {key}");
    }
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": ") && last.contains("\"failed\": 0,"),
        "{workload} trace {trace}: {last}"
    );
    let mut values = BTreeMap::new();
    for (name, unit) in declared(section) {
        let needle = format!("\"{name}\": {{\"value\": ");
        let at = last
            .find(&needle)
            .unwrap_or_else(|| panic!("{workload} trace {trace}: {name} not printed"));
        let rest = &last[at + needle.len()..];
        let comma = rest.find(',').expect("value then unit");
        let value: f64 = rest[..comma]
            .parse()
            .unwrap_or_else(|e| panic!("{workload}: {name} is not a number: {e}"));
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert!(
            rest[comma..].starts_with(&format!(", \"unit\": \"{unit}\"}}")),
            "{workload}: {name} not printed with unit {unit}"
        );
        if section == "end_to_end" {
            assert!(value > 0.0, "{workload}: end-to-end {name} must never be 0");
        }
        values.insert(name, value);
    }
    values
}

/// Every workload the benchmark implements; `BENCHMARK.json` lists
/// those whose spread fits the bounds (`md_arrays` is run by hand).
const ALL_WORKLOADS: [&str; 4] = ["hcsd_sa4", "md_arrays", "paper_studies", "explore_grid"];

#[test]
fn every_workload_prints_every_metric_and_passes_every_check() {
    let listed = workloads();
    assert!(listed.len() >= 2, "{listed:?}");
    for w in &listed {
        assert!(
            ALL_WORKLOADS.contains(&w.as_str()),
            "{w} is not implemented"
        );
    }
    for w in ALL_WORKLOADS {
        check(w, "0", "42", "end_to_end");
        let layers = check(w, "1", "42", "per_layer");
        if w == "hcsd_sa4" {
            // The drive model does nearly all the work, and the loop holds
            // one completion and no event calendar.
            let share = |layer: &str| layers[&format!("{layer}.share")];
            for other in ["workload", "array", "simkit"] {
                assert!(
                    share("intradisk") > share(other),
                    "{other} outweighs intradisk: {layers:?}"
                );
            }
            for (name, value) in &layers {
                if name.starts_with("simkit.") {
                    assert_eq!(*value, 0.0, "{name} on hcsd_sa4");
                }
            }
        }
    }
}

#[test]
fn another_seed_runs_the_same_checks_without_pinned_digests() {
    check("hcsd_sa4", "0", "7", "end_to_end");
    check("md_arrays", "0", "7", "end_to_end");
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "hcsd_sa4", "--trace", "2"],
        &["--workload", "hcsd_sa4", "--seed"],
        &["--bogus"],
    ] {
        let out = perfbench(args);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
}
