//! Self-profiler oracles: counter-export determinism, the pinned
//! collapsed-stack format, and the executor's phase-time properties.
//!
//! The counters are process-global, so every test that runs a study
//! serializes on one lock and resets the counters it reads.

use std::sync::Mutex;

use diskmodel::DriveError;
use experiments::configs::Scale;
use experiments::{Executor, ExperimentPlan, LimitStudy, Study};
use simkit::Rng64;
use telemetry::prof::{Phase, PhaseTimes, ProfReport, Stopwatch};

static GLOBAL_STATE: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// The `"deterministic"` section of the counter export, as rendered
/// bytes — exactly what `scripts/verify.sh` gates on.
fn det_section(jobs: usize) -> String {
    let json = experiments::profile::counters_json(jobs);
    json.split("\"host\"")
        .next()
        .expect("export always has a host section")
        .to_string()
}

fn run_limit_study(jobs: usize) -> String {
    experiments::profile::reset_counters();
    let scale = Scale::quick().with_requests(400);
    LimitStudy::all()
        .run(scale, &Executor::new(jobs))
        .expect("limit study runs");
    det_section(jobs)
}

/// Runs `study` on `exec` as `repro --profile` does: the whole call is
/// the `run` phase, the executor's phase times nest under it.
fn profiled_run<S: Study>(study: &S, scale: Scale, exec: &Executor) -> ProfReport {
    let clock = Stopwatch::start();
    study.run(scale, exec).expect("study runs");
    let run = clock.lap();
    let mut times = PhaseTimes::default();
    times.add(Phase::Run, run);
    times.merge(&exec.times());
    ProfReport::new(run.ns, &times)
}

#[test]
fn counter_export_is_identical_across_runs_and_jobs() {
    let _g = lock();
    let first = run_limit_study(1);
    let second = run_limit_study(1);
    assert_eq!(first, second, "two serial runs must export identical counters");
    let parallel = run_limit_study(2);
    assert_eq!(
        first, parallel,
        "worker count must not leak into the deterministic section"
    );
    assert!(first.contains("\"experiments.points_run\""));
    assert!(first.contains("\"intradisk.dispatch.scans\""));
    assert!(first.contains("\"workload.requests_pulled\""));
}

#[test]
fn folded_stack_format_is_pinned() {
    let _g = lock();
    let scale = Scale::quick().with_requests(200);
    let report = profiled_run(&LimitStudy::all(), scale, &Executor::serial());
    let folded = report.folded();
    let lines: Vec<&str> = folded.lines().collect();
    // One line per distinct path: `a;b;c <self-µs>`, parents sorted
    // before children, every line matching the flamegraph grammar.
    let paths: Vec<&str> = lines
        .iter()
        .map(|l| l.rsplit_once(' ').expect("space-separated count").0)
        .collect();
    assert_eq!(
        paths,
        ["run", "run;plan", "run;reduce", "run;run_point"],
        "collapsed-stack paths changed: {folded:?}"
    );
    for l in &lines {
        let (path, count) = l.rsplit_once(' ').expect("space-separated count");
        assert!(path.chars().all(|c| c.is_ascii_lowercase() || c == '_' || c == ';'));
        count.parse::<u64>().expect("integer microsecond count");
    }
}

/// A study of `.0` points, each a short spin.
struct Spin(u64);

impl Study for Spin {
    type Point = u64;
    type Output = u64;
    type Report = u64;

    fn name(&self) -> &'static str {
        "spin"
    }

    fn plan(&self, _scale: Scale) -> ExperimentPlan<u64> {
        ExperimentPlan::new((0..self.0).collect())
    }

    fn label(&self, point: &u64) -> String {
        format!("spin {point}")
    }

    fn run_point(&self, point: &u64, _scale: Scale) -> Result<u64, DriveError> {
        let mut acc = *point;
        for k in 0..(1 + point % 7) * 5_000 {
            acc = std::hint::black_box(acc.wrapping_mul(31).wrapping_add(k));
        }
        Ok(acc)
    }

    fn reduce(&self, outputs: Vec<u64>) -> u64 {
        outputs.into_iter().fold(0, u64::wrapping_add)
    }
}

/// Over random plan sizes at `--jobs` 1–3, the executor times one
/// `run_point` per point, every line's enters equal its exits, and at
/// `--jobs 1` the attributed time never exceeds the wall time.
#[test]
fn random_scope_nesting_balances() {
    let _g = lock();
    let mut rng = Rng64::new(0xC0FFEE);
    for case in 0..12u64 {
        let points = rng.below(20);
        let jobs = 1 + rng.below(3) as usize;
        let report = profiled_run(&Spin(points), Scale::quick(), &Executor::new(jobs));
        let mut point_calls = 0;
        let mut attributed = 0u64;
        for line in &report.lines {
            assert_eq!(
                line.enters, line.exits,
                "unbalanced phase at {:?} (case {case})",
                line.path
            );
            if line.path.last() == Some(&"run_point") {
                point_calls += line.enters;
            }
            attributed += line.self_ns;
        }
        assert_eq!(
            point_calls, points,
            "run_point calls differ from the plan's {points} points (case {case}, jobs {jobs})"
        );
        assert_eq!(attributed, report.attributed_ns());
        if jobs == 1 {
            assert!(
                attributed <= report.wall_ns,
                "attributed {attributed} exceeds wall {} (case {case})",
                report.wall_ns
            );
        }
    }
}
