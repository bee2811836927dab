//! The measurement loop shared by every workload.
//!
//! A run runs one untimed reference unit, times [`SETUP_SAMPLES`]
//! samples of back-to-back set-ups, then repeats timed units, each on a
//! fresh set-up, until the run's seconds are spent. The host-speed
//! probe runs after every set-up sample and every unit, so that each
//! can be scaled to the reference host speed. Every unit replays the same
//! inputs, so every unit must reproduce the reference unit's
//! deterministic counters and simulated-output digest exactly: that is
//! the in-run determinism check. In a traced run, units alternate
//! between tracing off and on, so the untraced and traced throughputs
//! see the same host conditions and their ratio is the tracing
//! overhead.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::probe::Probe;
use crate::spans::{Off, Spans, Tracer};

/// Set-up samples timed back to back after the reference unit;
/// `setup_s` is their median. The set-ups made between units are not
/// timed: the unit before each one has evicted a varying share of the
/// caches, and mixing the two kinds made the median depend on how many
/// units a run happened to fit.
const SETUP_SAMPLES: usize = 25;

/// Host seconds one set-up sample spans at least. A sample repeats the
/// set-up until this has passed and reads their mean, so a set-up of a
/// few microseconds (planning the studies) is not read off single
/// clock readings.
const SETUP_SAMPLE_S: f64 = 0.002;

/// Timed units a run makes even when its seconds run out first.
const MIN_UNITS: usize = 4;

/// Executor workers the sweep workloads' timed units run on. One: with
/// a second busy thread on a two-vCPU host, a unit's time also measured
/// which points the two workers happened to run side by side and how
/// the host scheduled them, and runs of the same code spread past the
/// bounds.
pub const TIMED_WORKERS: usize = 1;

/// Executor workers of the untimed check that a sweep's simulated
/// output does not depend on how its points were spread over workers.
pub const CHECK_WORKERS: usize = 2;

/// One unit of a workload's work, measured from outside.
#[derive(Debug, Default)]
pub struct Unit {
    /// Host seconds of the timed work.
    pub wall_s: f64,
    /// Simulated requests completed in the timed work.
    pub requests: u64,
    /// Host seconds of the timed work spent in file-system calls (the
    /// point cache's writes), which the probe does not track.
    pub io_s: f64,
    /// Host seconds of each point (one drive or array replay, one plan
    /// point, one explorer point).
    pub point_s: Vec<f64>,
    /// The explorer's warm pass: points served and its host seconds.
    pub warm: Option<(usize, f64)>,
    /// Point-cache lookups and hits over the warm pass.
    pub cache_lookups: u64,
    /// Point-cache hits over the warm pass.
    pub cache_hits: u64,
    /// How the unit's points used the executor, when it has one.
    pub exec: Option<ExecTimes>,
    /// The canonical simulated output: hashed and compared, never
    /// reported as a speed.
    pub digest: String,
    /// Correctness checks made inside the unit.
    pub checks: u64,
    /// Checks that failed (conservation, response-time identity,
    /// cache round trip).
    pub violations: u64,
    /// Host seconds of one probe run, the mean of those right after the
    /// unit.
    pub probe_s: f64,
}

/// Executor use of one unit, summed over its parallel sweeps.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExecTimes {
    /// Workers each sweep ran on.
    pub workers: usize,
    /// Host seconds spent inside `run_point`, over all workers.
    pub busy_s: f64,
    /// Host seconds from the start to the end of each sweep.
    pub map_wall_s: f64,
    /// The slowest point.
    pub longest_s: f64,
    /// Host seconds of `reduce` plus rendering.
    pub reduce_render_s: f64,
}

/// A workload the harness can set up and run unit by unit.
pub trait Workload {
    /// What set-up builds and a unit consumes.
    type State;

    /// Builds drives, sources, plans or cache directories.
    fn setup(&self) -> Result<Self::State, String>;

    /// Runs one unit, wrapping the calls into the simulator in `spans`.
    fn run<S: Spans>(&self, state: Self::State, spans: &mut S) -> Result<Unit, String>;

    /// The digest of one unit run on [`CHECK_WORKERS`] executor workers,
    /// for workloads whose timed units run on one.
    fn parallel_digest(&self) -> Option<Result<String, String>> {
        None
    }
}

/// Everything a run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Host seconds of one set-up, per sample.
    pub setup_s: Vec<f64>,
    /// Host seconds of the probe run right after each set-up sample.
    pub setup_probe_s: Vec<f64>,
    /// Timed units with tracing off.
    pub plain: Vec<Unit>,
    /// Timed units with tracing on (traced runs only).
    pub traced: Vec<Unit>,
    /// The deterministic counters of one unit.
    pub counters: BTreeMap<String, u64>,
    /// SHA-256 of the reference unit's digest.
    pub digest_sha: String,
    /// The reference unit's digest.
    pub digest: String,
    /// Peak resident memory after one set-up and the reference unit,
    /// MB: before the probe, the batched set-ups and the multi-worker
    /// check add memory of their own.
    pub peak_rss_mb: f64,
    /// Operations attempted: simulated requests plus checks.
    pub attempted: u64,
    /// Failed operations: errors and failed checks.
    pub failed: u64,
    /// What each failure was.
    pub failures: Vec<String>,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    fn absorb(&mut self, unit: &Unit) {
        self.attempted += unit.requests + unit.checks;
        if unit.violations > 0 {
            self.failed += unit.violations;
            self.failures.push(format!(
                "{} of {} in-unit checks failed",
                unit.violations, unit.checks
            ));
        }
    }
}

/// The deterministic section of `experiments::profile::counters_json`.
pub fn counters() -> BTreeMap<String, u64> {
    let json = experiments::profile::counters_json(1);
    let mut out = BTreeMap::new();
    let mut inside = false;
    for line in json.lines() {
        let line = line.trim();
        if line.starts_with("\"deterministic\"") {
            inside = true;
        } else if inside && line.starts_with('}') {
            break;
        } else if inside {
            let mut kv = line.trim_end_matches(',').splitn(2, ':');
            let key = kv.next().unwrap_or_default().trim().trim_matches('"');
            if let Some(v) = kv.next().and_then(|v| v.trim().parse::<u64>().ok()) {
                out.insert(key.to_string(), v);
            }
        }
    }
    out
}

/// Peak resident memory of this process, MB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hex SHA-256 of a digest text.
pub fn sha(text: &str) -> String {
    explorer::sha256::hex(text.as_bytes())
}

/// Runs `w` for `seconds`, alternating traced units in when `tracer`
/// is given. `pinned` is the expected digest SHA-256, when one is
/// pinned for these inputs.
pub fn measure<W: Workload>(
    w: &W,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
    pinned: Option<&str>,
) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_all(w, seconds, &mut tracer, pinned, &mut out) {
        out.attempted += 1;
        out.failed += 1;
        out.failures.push(e);
    }
    out
}

/// Takes one set-up sample; the states built are dropped after the
/// clock is read, and the probe runs after them.
fn timed_setup<W: Workload>(w: &W, probe: &mut Probe, out: &mut Outcome) -> Result<(), String> {
    let mut states = Vec::new();
    let t = Instant::now();
    loop {
        states.push(w.setup()?);
        let secs = t.elapsed().as_secs_f64();
        if secs >= SETUP_SAMPLE_S {
            out.setup_s.push(secs / states.len() as f64);
            break;
        }
    }
    drop(states);
    out.setup_probe_s.push(probe.run());
    Ok(())
}

fn run_all<W: Workload>(
    w: &W,
    seconds: f64,
    tracer: &mut Option<&mut Tracer>,
    pinned: Option<&str>,
    out: &mut Outcome,
) -> Result<(), String> {
    // The reference unit: untimed, it also warms caches and the
    // allocator before timing starts. The peak memory is read after it,
    // before the probe or a batch of set-ups has allocated anything.
    experiments::profile::reset_counters();
    let reference = w.run(w.setup()?, &mut Off)?;
    out.counters = counters();
    out.absorb(&reference);
    out.digest_sha = sha(&reference.digest);
    out.digest = reference.digest;
    if let Some(expected) = pinned {
        let got = out.digest_sha.clone();
        out.check(got == expected, || {
            format!("simulated-output digest {got} differs from the pinned {expected}")
        });
    }
    out.peak_rss_mb = peak_rss_mb();

    let mut probe = Probe::default();
    for _ in 0..SETUP_SAMPLES {
        timed_setup(w, &mut probe, out)?;
    }

    let tracing = tracer.is_some();
    let start = Instant::now();
    let mut n = 0usize;
    while start.elapsed().as_secs_f64() < seconds
        || out.plain.len() < MIN_UNITS
        || (tracing && out.traced.len() < MIN_UNITS)
    {
        let state = w.setup()?;
        experiments::profile::reset_counters();
        let traced = tracing && n % 2 == 1;
        let mut unit = match tracer.as_deref_mut() {
            Some(t) if traced => {
                t.set_unit(n as u32);
                w.run(state, t)?
            }
            _ => w.run(state, &mut Off)?,
        };
        unit.probe_s = probe.after(unit.wall_s);
        n += 1;
        out.absorb(&unit);
        let counters = counters();
        out.check(counters == out.counters, || {
            format!("unit {n}: deterministic counters differ from the reference unit")
        });
        let sha = sha(&unit.digest);
        out.check(sha == out.digest_sha, || {
            format!("unit {n}: simulated-output digest {sha} differs from the reference unit")
        });
        if traced {
            out.traced.push(unit);
        } else {
            out.plain.push(unit);
        }
    }

    if let Some(parallel) = w.parallel_digest() {
        let sha = sha(&parallel?);
        let reference = out.digest_sha.clone();
        out.check(sha == reference, || {
            format!(
                "{CHECK_WORKERS}-worker digest {sha} differs from the {TIMED_WORKERS}-worker digest {reference}"
            )
        });
    }
    Ok(())
}
