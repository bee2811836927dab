//! The two sweep workloads: the paper's study set (`paper_studies`) and
//! the explorer's full grid (`explore_grid`).
//!
//! Both hand their points to an `experiments::Executor` and time each
//! point from inside the closure the executor runs, so per-point host
//! times and worker busy time come from outside the simulator.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use diskmodel::DriveError;
use experiments::{
    cost_analysis, extensions, tech_table, BottleneckStudy, Executor, LimitStudy, RaidStudy,
    RpmStudy, SaStudy, Scale, Study, ValidationStudy,
};
use explorer::pareto::frontier_indices;
use explorer::space::{grid, GridResolution};
use explorer::{
    axes_of, explore, Coverage, ExploreOptions, LatencyAxis, PointCache, PointDescriptor,
    SweepScale,
};
use simkit::StatsMode;
use telemetry::metrics::jsonv;
use telemetry::metrics::report::render_html_with_explore;

use crate::harness::{ExecTimes, Unit, Workload, CHECK_WORKERS, TIMED_WORKERS};
use crate::spans::{Call, Spans};

/// Runs `points` on `exec`, timing each `run_point` call; adds the
/// executor's use to `times` and each point's seconds to `point_s`.
fn timed_map<P: Sync, T: Send>(
    exec: &Executor,
    points: &[P],
    run: impl Fn(&P) -> Result<T, DriveError> + Sync,
    times: &mut ExecTimes,
    point_s: &mut Vec<f64>,
) -> Result<Vec<T>, String> {
    let t = Instant::now();
    let timed = exec
        .map(points, |_, p| {
            let t = Instant::now();
            let out = run(p);
            (out, t.elapsed().as_secs_f64())
        })
        .map_err(|p| format!("point {} panicked: {}", p.index, p.message))?;
    times.map_wall_s += t.elapsed().as_secs_f64();
    times.workers = exec.jobs().min(points.len().max(1));
    let mut outs = Vec::with_capacity(timed.len());
    for (out, secs) in timed {
        times.busy_s += secs;
        times.longest_s = times.longest_s.max(secs);
        point_s.push(secs);
        outs.push(out.map_err(|e| e.to_string())?);
    }
    Ok(outs)
}

/// The study set `repro all` runs through `Study`: Figures 2–8 and the
/// validation checks, with reports rendered.
#[derive(Debug)]
pub struct PaperStudies {
    /// Requests per study run.
    pub requests: usize,
    /// Workload seed.
    pub seed: u64,
}

/// The planned points of every study.
#[derive(Debug)]
pub struct Plans {
    limit: Vec<<LimitStudy as Study>::Point>,
    bottleneck: Vec<<BottleneckStudy as Study>::Point>,
    sa: Vec<<SaStudy as Study>::Point>,
    rpm: Vec<<RpmStudy as Study>::Point>,
    raid: Vec<<RaidStudy as Study>::Point>,
    validation: Vec<<ValidationStudy as Study>::Point>,
}

impl PaperStudies {
    fn scale(&self) -> Scale {
        Scale {
            requests: self.requests,
            seed: self.seed,
            stats: StatsMode::Exact,
        }
    }

    fn run_on(&self, plans: Plans, exec: &Executor) -> Result<Unit, String> {
        let scale = self.scale();
        let mut unit = Unit::default();
        let mut times = ExecTimes::default();
        let (tm, ps) = (&mut times, &mut unit.point_s);
        let t = Instant::now();
        let mut report = String::new();
        report += &study(&LimitStudy::all(), &plans.limit, scale, exec, tm, ps, |r| {
            format!("{}\n{}\n", r.render_figure2(), r.render_figure3())
        })?;
        report += &study(
            &BottleneckStudy::all(),
            &plans.bottleneck,
            scale,
            exec,
            tm,
            ps,
            |r| format!("{}\n", r.render()),
        )?;
        report += &study(&SaStudy::all(), &plans.sa, scale, exec, tm, ps, |r| {
            format!(
                "{}\n{}\n{}\n",
                r.render_cdfs(),
                r.render_pdfs(),
                r.render_power()
            )
        })?;
        report += &study(&RpmStudy::all(), &plans.rpm, scale, exec, tm, ps, |r| {
            format!("{}\n{}\n", r.render_figure6(), r.render_figure7())
        })?;
        report += &study(&RaidStudy::all(), &plans.raid, scale, exec, tm, ps, |r| {
            format!("{}\n{}\n", r.render_performance(), r.render_power())
        })?;
        report += &study(
            &ValidationStudy::all(),
            &plans.validation,
            scale,
            exec,
            tm,
            ps,
            |r| format!("{}\n", r.render()),
        )?;
        // The closed-form tables `repro all` prints beside the studies.
        let r = Instant::now();
        report += &format!(
            "{}\n{}\n{}\n{}\n",
            tech_table::render(),
            cost_analysis::render_table9a(),
            cost_analysis::render_figure9b(),
            extensions::render_thermal()
        );
        tm.reduce_render_s += r.elapsed().as_secs_f64();
        unit.wall_s = t.elapsed().as_secs_f64();
        // Every simulated request the studies pulled from a source.
        unit.requests = crate::harness::counters()
            .get("workload.requests_pulled")
            .copied()
            .unwrap_or(0);
        unit.exec = Some(times);
        unit.digest = report;
        Ok(unit)
    }
}

/// Runs one study's planned points on `exec`, then reduces and renders
/// its report, timing the reduce-and-render step.
fn study<St: Study>(
    study: &St,
    points: &[St::Point],
    scale: Scale,
    exec: &Executor,
    times: &mut ExecTimes,
    point_s: &mut Vec<f64>,
    render: impl FnOnce(St::Report) -> String,
) -> Result<String, String> {
    let outs = timed_map(exec, points, |p| study.run_point(p, scale), times, point_s)?;
    let t = Instant::now();
    let text = render(study.reduce(outs));
    times.reduce_render_s += t.elapsed().as_secs_f64();
    Ok(text)
}

impl Workload for PaperStudies {
    type State = Plans;

    fn setup(&self) -> Result<Plans, String> {
        let scale = self.scale();
        Ok(Plans {
            limit: LimitStudy::all().plan(scale).into_points(),
            bottleneck: BottleneckStudy::all().plan(scale).into_points(),
            sa: SaStudy::all().plan(scale).into_points(),
            rpm: RpmStudy::all().plan(scale).into_points(),
            raid: RaidStudy::all().plan(scale).into_points(),
            validation: ValidationStudy::all().plan(scale).into_points(),
        })
    }

    fn run<S: Spans>(&self, plans: Plans, _spans: &mut S) -> Result<Unit, String> {
        self.run_on(plans, &Executor::new(TIMED_WORKERS))
    }

    fn parallel_digest(&self) -> Option<Result<String, String>> {
        Some(
            self.setup()
                .and_then(|p| self.run_on(p, &Executor::new(CHECK_WORKERS)))
                .map(|u| u.digest),
        )
    }
}

/// The explorer's full 1152-point grid, cold into an empty cache and
/// then warm from it.
#[derive(Debug)]
pub struct ExploreGrid {
    /// Requests per point.
    pub requests: usize,
    /// Workload seed.
    pub seed: u64,
    /// Where each unit's temporary cache directory goes.
    pub scratch: PathBuf,
}

/// A temporary cache directory, made by the first store and removed on
/// drop.
#[derive(Debug)]
pub struct TempCache {
    cache: PointCache,
    grid: Vec<PointDescriptor>,
}

impl Drop for TempCache {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(self.cache.root());
    }
}

impl ExploreGrid {
    fn opts(&self, cache: &PointCache) -> ExploreOptions {
        ExploreOptions {
            scale: self.sweep_scale(),
            coverage: Coverage::Full,
            latency: LatencyAxis::P90,
            cache: Some(cache.clone()),
        }
    }

    fn sweep_scale(&self) -> SweepScale {
        SweepScale {
            requests: self.requests,
            seed: self.seed,
            stats: StatsMode::Streaming,
        }
    }
}

/// `explore.json` without its code-version line: the simulated output
/// must not change when only the code's fingerprint does.
fn explore_digest(json: &str) -> String {
    json.lines()
        .filter(|l| !l.trim_start().starts_with("\"code_version\""))
        .fold(String::new(), |mut out, l| {
            let _ = writeln!(out, "{l}");
            out
        })
}

impl Workload for ExploreGrid {
    type State = TempCache;

    fn setup(&self) -> Result<TempCache, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        // The directory itself is made by the first store. Made here, on
        // a journaling file system, its time depended on how much of the
        // previous unit's deleted cache the journal was still writing:
        // whole runs read 0.05 ms and others 0.8 ms.
        let root = self
            .scratch
            .join(format!("explore-cache-{}-{n}", std::process::id()));
        Ok(TempCache {
            cache: PointCache::new(root),
            grid: grid(GridResolution::Full, self.sweep_scale()),
        })
    }

    fn run<S: Spans>(&self, state: TempCache, spans: &mut S) -> Result<Unit, String> {
        let exec = Executor::new(TIMED_WORKERS);
        let mut unit = Unit::default();
        let mut times = ExecTimes::default();

        // Cold: every point runs, then is stored.
        let t = Instant::now();
        let cold = timed_map(
            &exec,
            &state.grid,
            explorer::point::run_point,
            &mut times,
            &mut unit.point_s,
        )?;
        let stores = Instant::now();
        for out in &cold {
            spans
                .span(Call::CacheStore, || state.cache.store(out))
                .map_err(|e| format!("cache store failed: {e}"))?;
        }
        unit.io_s = stores.elapsed().as_secs_f64();
        unit.wall_s = t.elapsed().as_secs_f64();
        unit.exec = Some(times);
        for (d, out) in state.grid.iter().zip(&cold) {
            unit.requests += out.completed;
            unit.checks += 1;
            unit.violations += u64::from(out.completed != d.requests as u64);
        }

        // Warm: the explorer serves every point from the cache, reduces
        // the frontier and renders the report.
        let t = Instant::now();
        let warm = explore(&self.opts(&state.cache), &exec).map_err(|e| e.to_string())?;
        let frontier = spans.span(Call::ParetoRender, || {
            let axes: Vec<_> = warm
                .points
                .iter()
                .map(|p| axes_of(p, LatencyAxis::P90))
                .collect();
            let frontier = frontier_indices(&axes);
            let doc = jsonv::parse(&warm.json).map_err(|e| format!("explore.json: {e:?}"))?;
            std::hint::black_box(render_html_with_explore(&[], Some(&doc)));
            Ok::<_, String>(frontier)
        })?;
        unit.warm = Some((warm.points.len(), t.elapsed().as_secs_f64()));
        unit.cache_lookups = warm.points.len() as u64;
        unit.cache_hits = warm.cached as u64;

        // The cache must hand back exactly what the cold pass computed.
        unit.checks += 3;
        unit.violations += u64::from(warm.executed != 0);
        unit.violations += u64::from(warm.points != cold);
        unit.violations += u64::from(frontier != warm.frontier);
        if S::ENABLED {
            for (d, out) in state.grid.iter().zip(&cold) {
                let hit = spans.span(Call::CacheLoad, || state.cache.load(d));
                unit.checks += 1;
                unit.violations += u64::from(hit.as_ref() != Some(out));
            }
        }
        unit.digest = explore_digest(&warm.json);
        Ok(unit)
    }

    fn parallel_digest(&self) -> Option<Result<String, String>> {
        Some(self.setup().and_then(|state| {
            let out = explore(&self.opts(&state.cache), &Executor::new(CHECK_WORKERS))
                .map_err(|e| e.to_string())?;
            Ok(explore_digest(&out.json))
        }))
    }
}
