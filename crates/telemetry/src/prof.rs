//! Host-time phase profiling — plane 2 of the self-observability
//! layer.
//!
//! Everything else in this crate (and in every sim crate) runs on
//! *virtual* time; this module is the one sanctioned exception. It
//! gives the code that owns a run's coarse phases — the executor
//! (planning, points, waiting on workers, reduction) and `repro`
//! (the whole run, exports, heartbeats) — a [`Stopwatch`] to time them
//! and a [`PhaseTimes`] value to add the times up in, and renders the
//! result as a [`ProfReport`]. Nothing per request is timed: per-layer
//! work comes from the deterministic counters, which count it exactly
//! and cost no clock reads.
//!
//! # The wall-clock carve-out
//!
//! simlint's `no-wall-clock` rule bans host-time types in sim crates
//! because host time feeding simulation state destroys reproducibility.
//! This module *reads* the host clock but its measurements flow only
//! outward — to stderr, profile files, and heartbeat snapshots — never
//! into simulated state, event ordering, or results. The carve-out is
//! therefore a single aliased import below, annotated with a scoped
//! `simlint: allow`; the baseline stays empty and every other use site
//! in the crate remains lint-clean.
//!
//! # Design
//!
//! * No global state: a [`PhaseTimes`] is an ordinary value its owner
//!   fills in and hands over, so profiling needs no enable flag and is
//!   always on; it costs two clock reads per timed phase entry.
//! * Phases are two levels deep. A phase timed on the thread that runs
//!   the command is a child of `run`, and its time comes out of `run`'s
//!   self time; a phase timed on a worker thread is a root of its own
//!   (thread time, which overlaps the caller's `exec_idle`).
//! * [`ProfReport`] renders the times as a human-readable phase tree, a
//!   collapsed-stack (flamegraph-format) file, and feeds
//!   `BENCH_profile.json`.
//!
//! [`Heartbeat`] uses the same clock for periodic live-run snapshots
//! (stderr + atomically rewritten Prometheus textfile) and adds up the
//! time it spends beating.

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
// The one sanctioned host-clock import in the sim crates: prof
// measurements flow outward (files/stderr), never into sim state.
// simlint: allow(no-wall-clock)
use std::time::Instant as HostInstant;

/// A named execution phase: the coarse steps a `repro` run spends its
/// host time in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Whole-run root (study dispatch, reduction, rendering).
    Run,
    /// Planning a study's point list.
    Plan,
    /// One plan point's simulation.
    RunPoint,
    /// The calling thread waiting on worker results.
    ExecIdle,
    /// Plan-order result reduction.
    Reduce,
    /// Trace export (`--trace`).
    ExportTrace,
    /// Metrics export (`--metrics`).
    ExportMetrics,
    /// Heartbeat snapshot emission.
    Heartbeat,
}

/// Every phase, indexed by `Phase as usize`.
pub const PHASES: [Phase; 8] = [
    Phase::Run,
    Phase::Plan,
    Phase::RunPoint,
    Phase::ExecIdle,
    Phase::Reduce,
    Phase::ExportTrace,
    Phase::ExportMetrics,
    Phase::Heartbeat,
];

impl Phase {
    /// Stable name used in folded stacks and phase tables.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Run => "run",
            Phase::Plan => "plan",
            Phase::RunPoint => "run_point",
            Phase::ExecIdle => "exec_idle",
            Phase::Reduce => "reduce",
            Phase::ExportTrace => "export_trace",
            Phase::ExportMetrics => "export_metrics",
            Phase::Heartbeat => "heartbeat",
        }
    }
}

// ---------------------------------------------------------------------
// Phase times

/// Host time spent in one phase: `calls` timed entries, `ns` in total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTime {
    /// Nanoseconds over all calls.
    pub ns: u64,
    /// Timed entries.
    pub calls: u64,
}

impl PhaseTime {
    /// One call that took `ns`.
    pub fn once(ns: u64) -> Self {
        PhaseTime { ns, calls: 1 }
    }

    /// Adds `other`'s time and calls to this one.
    pub fn merge(&mut self, other: PhaseTime) {
        self.ns += other.ns;
        self.calls += other.calls;
    }
}

/// Host time per [`Phase`], on the thread that runs the command and on
/// worker threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    caller: [PhaseTime; PHASES.len()],
    workers: [PhaseTime; PHASES.len()],
}

impl PhaseTimes {
    /// Adds `t` to `phase` as timed on the thread that runs the
    /// command.
    pub fn add(&mut self, phase: Phase, t: PhaseTime) {
        self.caller[phase as usize].merge(t);
    }

    /// Adds `t` to `phase` as timed on worker threads.
    pub fn add_on_workers(&mut self, phase: Phase, t: PhaseTime) {
        self.workers[phase as usize].merge(t);
    }

    /// Adds every phase of `other` to this one.
    pub fn merge(&mut self, other: &PhaseTimes) {
        for phase in PHASES {
            self.add(phase, other.caller[phase as usize]);
            self.add_on_workers(phase, other.workers[phase as usize]);
        }
    }

    /// `phase`'s time on the thread that runs the command.
    pub fn get(&self, phase: Phase) -> PhaseTime {
        self.caller[phase as usize]
    }

    /// `phase`'s time on worker threads.
    pub fn on_workers(&self, phase: Phase) -> PhaseTime {
        self.workers[phase as usize]
    }
}

// ---------------------------------------------------------------------
// Report

/// One phase path's accumulated numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseLine {
    /// Phase names from root to leaf, e.g. `["run", "run_point"]`.
    pub path: Vec<&'static str>,
    /// Time attributed to exactly this path (children excluded).
    pub self_ns: u64,
    /// Timed entries.
    pub enters: u64,
    /// Timed exits; every timing that starts also stops, so this
    /// equals `enters`.
    pub exits: u64,
}

/// A harvested phase profile over one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfReport {
    /// End-to-end measured wall time the profile is judged against.
    pub wall_ns: u64,
    /// Per-path lines, sorted by path (depth-first, parents before
    /// children).
    pub lines: Vec<PhaseLine>,
}

impl ProfReport {
    /// Builds a report from `times` against the given measured wall
    /// time. Phases with no calls get no line; `run`'s self time is its
    /// time less that of its children, the phases timed on its thread.
    pub fn new(wall_ns: u64, times: &PhaseTimes) -> Self {
        let line = |path: Vec<&'static str>, self_ns: u64, t: PhaseTime| PhaseLine {
            path,
            self_ns,
            enters: t.calls,
            exits: t.calls,
        };
        let mut lines = Vec::new();
        let mut children_ns = 0u64;
        for phase in &PHASES[1..] {
            let t = times.get(*phase);
            if t.calls > 0 {
                children_ns += t.ns;
                lines.push(line(vec![Phase::Run.name(), phase.name()], t.ns, t));
            }
            let t = times.on_workers(*phase);
            if t.calls > 0 {
                lines.push(line(vec![phase.name()], t.ns, t));
            }
        }
        let run = times.get(Phase::Run);
        if run.calls > 0 {
            lines.push(line(vec![Phase::Run.name()], run.ns.saturating_sub(children_ns), run));
        }
        lines.sort_by(|a, b| a.path.cmp(&b.path));
        ProfReport { wall_ns, lines }
    }

    /// Wall time attributed to some named phase: the sum of all self
    /// times. On multi-threaded runs this is *thread* time and may
    /// legitimately exceed `wall_ns`.
    pub fn attributed_ns(&self) -> u64 {
        self.lines.iter().map(|l| l.self_ns).sum()
    }

    /// Measured wall time no phase accounts for.
    pub fn unattributed_ns(&self) -> u64 {
        self.wall_ns.saturating_sub(self.attributed_ns())
    }

    /// Percentage of wall time attributed to named phases, capped at
    /// 100 (parallel runs can attribute more thread time than wall).
    pub fn coverage_pct(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        let pct = self.attributed_ns() as f64 * 100.0 / self.wall_ns as f64;
        pct.min(100.0)
    }

    /// Total (self + descendant) time for the line at `idx`.
    pub fn total_ns(&self, idx: usize) -> u64 {
        let prefix = &self.lines[idx].path;
        self.lines
            .iter()
            .filter(|l| l.path.len() >= prefix.len() && &l.path[..prefix.len()] == prefix.as_slice())
            .map(|l| l.self_ns)
            .sum()
    }

    /// Collapsed-stack (flamegraph) rendering: one line per path,
    /// `name;name;name <self-time-in-microseconds>`, sorted by path.
    /// Feed to any stackcollapse-compatible flamegraph tool.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for l in &self.lines {
            let _ = writeln!(out, "{} {}", l.path.join(";"), l.self_ns / 1_000);
        }
        out
    }

    /// Human-readable phase table with a wall/attributed/unattributed
    /// footer. The unattributed remainder is always reported explicitly.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<44} {:>10} {:>12} {:>12}",
            "phase", "calls", "self(ms)", "total(ms)"
        );
        for (i, l) in self.lines.iter().enumerate() {
            let depth = l.path.len().saturating_sub(1);
            let name = l.path.last().copied().unwrap_or("?");
            let label = format!("{}{}", "  ".repeat(depth), name);
            let _ = writeln!(
                out,
                "{:<44} {:>10} {:>12.3} {:>12.3}",
                label,
                l.enters,
                l.self_ns as f64 / 1e6,
                self.total_ns(i) as f64 / 1e6,
            );
        }
        let attr = self.attributed_ns();
        let _ = writeln!(out);
        let _ = writeln!(out, "wall         {:>12.3} ms", self.wall_ns as f64 / 1e6);
        let _ = writeln!(
            out,
            "attributed   {:>12.3} ms ({:.1}% of wall)",
            attr as f64 / 1e6,
            self.coverage_pct()
        );
        let _ = writeln!(
            out,
            "unattributed {:>12.3} ms",
            self.unattributed_ns() as f64 / 1e6
        );
        out
    }
}

// ---------------------------------------------------------------------
// Stopwatch

/// A plain monotonic host-time stopwatch (phase times, progress lines,
/// ETA math).
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: HostInstant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch { start: HostInstant::now() }
    }

    /// Nanoseconds elapsed since [`start`](Self::start).
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// One call lasting from [`start`](Self::start) until now.
    pub fn lap(&self) -> PhaseTime {
        PhaseTime::once(self.elapsed_ns())
    }

    /// Seconds elapsed since [`start`](Self::start).
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed_ns() as f64 / 1e9
    }
}

// ---------------------------------------------------------------------
// Heartbeat

/// Peak resident-set size of this process in kB (`VmHWM` from
/// `/proc/self/status`), if the platform exposes it.
pub fn peak_rss_kb() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let digits: String = rest.chars().filter(|c| c.is_ascii_digit()).collect();
            return digits.parse().ok();
        }
    }
    None
}

/// Periodic live-run snapshots: a one-line stderr beat plus an
/// optional atomically rewritten Prometheus textfile — the seam a
/// future `reprod` `/metrics` endpoint serves from.
#[derive(Debug)]
pub struct Heartbeat {
    every_ns: u64,
    started: Stopwatch,
    /// When the last beat fired, in nanoseconds after `started`.
    last_beat_ns: u64,
    total: Option<u64>,
    file: Option<PathBuf>,
    beats: u64,
    time: PhaseTime,
}

impl Heartbeat {
    /// A heartbeat firing at most every `every_secs` seconds. `total`
    /// (expected completions) enables ETA; `file` names a Prometheus
    /// textfile to rewrite atomically on each beat.
    pub fn new(every_secs: f64, total: Option<u64>, file: Option<&Path>) -> Self {
        Heartbeat {
            every_ns: (every_secs.max(0.01) * 1e9) as u64,
            started: Stopwatch::start(),
            last_beat_ns: 0,
            total,
            file: file.map(Path::to_path_buf),
            beats: 0,
            time: PhaseTime::default(),
        }
    }

    /// Number of beats emitted so far.
    pub fn beats(&self) -> u64 {
        self.beats
    }

    /// Host time spent emitting beats, one call per beat.
    pub fn time(&self) -> PhaseTime {
        self.time
    }

    /// Emits a beat if the interval has elapsed. `p90_ms` is only
    /// invoked when a beat actually fires (it may be costly).
    /// Returns true if a beat was emitted.
    pub fn maybe_beat(&mut self, completed: u64, p90_ms: impl FnOnce() -> f64) -> bool {
        let now = self.started.elapsed_ns();
        if now.saturating_sub(self.last_beat_ns) < self.every_ns {
            return false;
        }
        let beat = Stopwatch::start();
        self.last_beat_ns = now;
        self.beats += 1;
        let elapsed_s = now as f64 / 1e9;
        let rate = completed as f64 / elapsed_s.max(1e-9);
        let p90 = p90_ms();
        let rss = peak_rss_kb().unwrap_or(0);
        let eta_s = self.total.map(|t| {
            let left = t.saturating_sub(completed) as f64;
            if rate > 0.0 { left / rate } else { f64::INFINITY }
        });
        let mut line = match (self.total, eta_s) {
            (Some(t), Some(eta)) => format!(
                "[hb {}: {completed}/{t} req, {rate:.0} req/s, eta {eta:.0}s",
                self.beats
            ),
            _ => format!("[hb {}: {completed} req, {rate:.0} req/s", self.beats),
        };
        let _ = write!(line, ", p90 {p90:.3} ms, rss {rss} kB]");
        line.push('\n');
        // One write_all of a full line so beats stay intact when
        // stderr is piped or interleaved with worker output.
        let mut err = std::io::stderr().lock();
        let _ = err.write_all(line.as_bytes());
        drop(err);
        if let Some(path) = self.file.clone() {
            self.write_textfile(&path, completed, rate, p90, rss, eta_s);
        }
        self.time.merge(beat.lap());
        true
    }

    fn write_textfile(
        &self,
        path: &Path,
        completed: u64,
        rate: f64,
        p90: f64,
        rss: u64,
        eta_s: Option<f64>,
    ) {
        let mut body = String::new();
        let _ = writeln!(body, "# TYPE repro_requests_completed counter");
        let _ = writeln!(body, "repro_requests_completed {completed}");
        let _ = writeln!(body, "# TYPE repro_requests_per_second gauge");
        let _ = writeln!(body, "repro_requests_per_second {rate:.3}");
        let _ = writeln!(body, "# TYPE repro_p90_response_ms gauge");
        let _ = writeln!(body, "repro_p90_response_ms {p90:.6}");
        let _ = writeln!(body, "# TYPE repro_peak_rss_kb gauge");
        let _ = writeln!(body, "repro_peak_rss_kb {rss}");
        if let Some(eta) = eta_s {
            if eta.is_finite() {
                let _ = writeln!(body, "# TYPE repro_eta_seconds gauge");
                let _ = writeln!(body, "repro_eta_seconds {eta:.1}");
            }
        }
        let _ = writeln!(body, "# TYPE repro_heartbeats_total counter");
        let _ = writeln!(body, "repro_heartbeats_total {}", self.beats);
        // Atomic rewrite: scrapers never observe a torn file.
        let tmp = path.with_extension("prom.tmp");
        if fs::write(&tmp, body).is_ok() {
            let _ = fs::rename(&tmp, path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_nests_caller_phases_under_run_and_roots_worker_phases() {
        let mut times = PhaseTimes::default();
        times.add(Phase::Run, PhaseTime::once(10_000));
        times.add(Phase::Plan, PhaseTime::once(1_000));
        times.add(Phase::ExecIdle, PhaseTime::once(6_000));
        times.add_on_workers(Phase::RunPoint, PhaseTime { ns: 11_000, calls: 3 });
        let r = ProfReport::new(12_000, &times);
        let paths: Vec<_> = r.lines.iter().map(|l| l.path.join(";")).collect();
        assert_eq!(paths, ["run", "run;exec_idle", "run;plan", "run_point"]);
        // run's self time excludes its children; worker time is its own
        // root and may take attributed time past wall.
        assert_eq!(r.lines[0].self_ns, 3_000);
        assert_eq!(r.total_ns(0), 10_000);
        assert_eq!(r.lines[3].enters, 3);
        assert_eq!(r.attributed_ns(), 21_000);
        assert!((r.coverage_pct() - 100.0).abs() < 1e-9);
        let mut twice = times;
        twice.merge(&times);
        assert_eq!(twice.on_workers(Phase::RunPoint), PhaseTime { ns: 22_000, calls: 6 });
        assert_eq!(twice.get(Phase::Run).calls, 2);
    }

    #[test]
    fn folded_and_table_render() {
        let r = ProfReport {
            wall_ns: 4_000_000,
            lines: vec![
                PhaseLine {
                    path: vec!["run"],
                    self_ns: 1_000_000,
                    enters: 1,
                    exits: 1,
                },
                PhaseLine {
                    path: vec!["run", "run_point"],
                    self_ns: 2_500_000,
                    enters: 4,
                    exits: 4,
                },
            ],
        };
        assert_eq!(r.folded(), "run 1000\nrun;run_point 2500\n");
        let table = r.table();
        assert!(table.contains("unattributed"));
        assert!(table.contains("run_point"));
        assert_eq!(r.attributed_ns(), 3_500_000);
        assert_eq!(r.unattributed_ns(), 500_000);
        assert!((r.coverage_pct() - 87.5).abs() < 1e-9);
    }

    #[test]
    fn heartbeat_fires_on_interval_and_writes_textfile() {
        let dir = std::env::temp_dir().join(format!("prof-hb-{}", std::process::id()));
        let _ = fs::create_dir_all(&dir);
        let file = dir.join("hb.prom");
        let mut hb = Heartbeat::new(0.01, Some(100), Some(&file));
        assert!(!hb.maybe_beat(1, || 0.5), "fires only after the interval");
        let sw = Stopwatch::start();
        while sw.elapsed_secs() < 0.02 {
            std::hint::black_box(0u64);
        }
        assert!(hb.maybe_beat(50, || 0.5));
        assert_eq!(hb.beats(), 1);
        assert_eq!(hb.time().calls, 1);
        let body = fs::read_to_string(&file).unwrap();
        assert!(body.contains("repro_requests_completed 50"));
        assert!(body.contains("repro_heartbeats_total 1"));
        let _ = fs::remove_dir_all(&dir);
    }
}
