//! Self-profile export: counter JSON and phase-profile artifacts.
//!
//! This module assembles the two observability planes into files under
//! a `--profile` directory:
//!
//! * `counters.json` — every deterministic kernel counter
//!   (simkit wheel/slab/histogram, intradisk dispatch/cost/cache,
//!   array controller, workload ingestion, executor points), plus a
//!   quarantined `"host"` section for values that legitimately vary
//!   with `--jobs` (jobs, workers spawned). The `"deterministic"`
//!   section is **byte-identical** across runs, hosts, and `--jobs`;
//!   `scripts/verify.sh` gates on exactly that.
//! * `profile.txt` — the phase table ([`ProfReport::table`]), built
//!   from the phase times the executor and `repro` record.
//! * `profile.folded` — collapsed-stack lines, one per phase path,
//!   ready for any flamegraph renderer.
//! * `BENCH_profile.json` — the phase profile in the repo's BENCH
//!   schema so `scripts/bench_summary.sh` picks it up automatically.
//!
//! The JSON is hand-rolled (keys pre-sorted, 2-space indent, `\n`
//! line endings) precisely so its bytes are a stable contract.

use std::fs;
use std::io;
use std::path::Path;

use telemetry::prof::ProfReport;

/// Resets every counter in every crate's registry (both planes).
/// Call before a run that will export `counters.json`.
pub fn reset_counters() {
    simkit::counters::reset_all();
    intradisk::counters::reset_all();
    array::counters::reset_all();
    workload::counters::reset_all();
    crate::counters::reset_all();
}

/// Every deterministic counter in the workspace, in export order:
/// sorted by name across the per-crate registries.
fn deterministic_counters() -> Vec<&'static simkit::counters::Counter> {
    let mut all: Vec<&'static simkit::counters::Counter> = Vec::new();
    all.extend(simkit::counters::all());
    all.extend(intradisk::counters::all());
    all.extend(array::counters::all());
    all.extend(workload::counters::all());
    all.extend(crate::counters::deterministic());
    all.sort_unstable_by_key(|c| c.name());
    all
}

/// Renders the two-plane counter export.
///
/// `jobs` is recorded in the host section (it is an input, not a
/// measurement, but explains the other host values).
pub fn counters_json(jobs: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"deterministic\": {\n");
    let det = deterministic_counters();
    for (i, c) in det.iter().enumerate() {
        let comma = if i + 1 < det.len() { "," } else { "" };
        out.push_str(&format!("    \"{}\": {}{comma}\n", c.name(), c.get()));
    }
    out.push_str("  },\n  \"host\": {\n");
    let mut host: Vec<(String, u64)> = crate::counters::host()
        .iter()
        .map(|c| (c.name().to_string(), c.get()))
        .collect();
    host.push(("exec.jobs".to_string(), jobs as u64));
    host.sort_unstable();
    for (i, (name, v)) in host.iter().enumerate() {
        let comma = if i + 1 < host.len() { "," } else { "" };
        out.push_str(&format!("    \"{name}\": {v}{comma}\n"));
    }
    out.push_str("  }\n}\n");
    out
}

/// Renders the phase profile in the repo's `BENCH_*.json` schema
/// (`bench`/`date`/`host_cores`/`results`/`note`), so
/// `scripts/bench_summary.sh` validates it via its glob.
///
/// `results[0]` carries the run-level summary (wall, attributed,
/// unattributed, coverage); one row per phase path follows.
pub fn bench_profile_json(report: &ProfReport, date: &str, host_cores: usize) -> String {
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"profile\",\n");
    out.push_str(&format!("  \"date\": \"{date}\",\n"));
    out.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    out.push_str("  \"results\": [\n");
    out.push_str(&format!(
        "    {{\"label\": \"wall\", \"wall_ms\": {:.3}, \"attributed_ms\": {:.3}, \
         \"unattributed_ms\": {:.3}, \"coverage_pct\": {:.1}}}",
        ms(report.wall_ns),
        ms(report.attributed_ns()),
        ms(report.unattributed_ns()),
        report.coverage_pct()
    ));
    for line in &report.lines {
        out.push_str(",\n");
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"self_ms\": {:.3}, \"calls\": {}}}",
            line.path.join(";"),
            ms(line.self_ns),
            line.enters
        ));
    }
    out.push_str("\n  ],\n");
    out.push_str(
        "  \"note\": \"host wall-clock phase profile; self-time per phase path, \
         collapsed-stack twin in profile.folded\"\n",
    );
    out.push_str("}\n");
    out
}

/// Writes all four profile artifacts into `dir` (created if needed).
/// Returns the paths written, in write order.
pub fn write_profile(
    dir: &Path,
    report: &ProfReport,
    jobs: usize,
    date: &str,
    host_cores: usize,
) -> io::Result<Vec<std::path::PathBuf>> {
    fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    let txt = dir.join("profile.txt");
    fs::write(&txt, report.table())?;
    written.push(txt);
    let folded = dir.join("profile.folded");
    fs::write(&folded, report.folded())?;
    written.push(folded);
    let counters = dir.join("counters.json");
    fs::write(&counters, counters_json(jobs))?;
    written.push(counters);
    let bench = dir.join("BENCH_profile.json");
    fs::write(&bench, bench_profile_json(report, date, host_cores))?;
    written.push(bench);
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_json_is_two_sections_sorted() {
        let s = counters_json(2);
        assert!(s.starts_with("{\n  \"deterministic\": {\n"));
        assert!(s.contains("  \"host\": {"));
        assert!(s.contains("\"exec.jobs\": 2"));
        assert!(s.ends_with("  }\n}\n"));
        // Deterministic keys arrive name-sorted.
        let det: Vec<&str> = s
            .lines()
            .skip_while(|l| !l.contains("deterministic"))
            .skip(1)
            .take_while(|l| !l.contains("},"))
            .filter_map(|l| l.split('"').nth(1))
            .collect();
        let mut sorted = det.clone();
        sorted.sort_unstable();
        assert_eq!(det, sorted);
        assert!(det.contains(&"simkit.wheel.pushes"));
        assert!(det.contains(&"intradisk.dispatch.scans"));
        assert!(det.contains(&"workload.requests_pulled"));
        assert!(det.contains(&"experiments.points_run"));
    }

    #[test]
    fn bench_profile_matches_repo_schema() {
        let report = ProfReport { wall_ns: 2_000_000, lines: Vec::new() };
        let s = bench_profile_json(&report, "2026-08-08", 8);
        for key in ["\"bench\"", "\"date\"", "\"host_cores\"", "\"results\"", "\"note\""] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
        assert!(s.contains("\"label\": \"wall\""));
        assert!(s.contains("\"wall_ms\": 2.000"));
    }
}
