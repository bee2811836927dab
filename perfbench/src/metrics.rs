//! From measured units to the named metrics the benchmark prints.
//!
//! Host time is the only quantity reported as performance. Every unit
//! of a run repeats the same deterministic work, so the spread between
//! units is host interference. Each unit's host time is scaled to the
//! reference host speed by the probe run right after it (see
//! `probe.rs`), and a run reports the median over its units of the
//! scaled values. The unscaled medians and the host's slowdown are
//! printed beside every time metric.
//! See README.md for the measurements behind this choice.

use crate::harness::{Outcome, Unit};
use crate::probe::REFERENCE_S;
use crate::spans::{Call, Tracer};

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// How it was measured, for the human-readable lines.
    pub note: String,
}

fn metric(name: &'static str, unit: &'static str, value: f64, note: impl Into<String>) -> Metric {
    Metric {
        name,
        unit,
        value,
        note: note.into(),
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The p90 of `values`, or, with fewer than 100 values, the highest
/// percentile that still has at least ten values above it (the largest
/// value when there are ten or fewer). Returns the value, the
/// percentile used and the count above it.
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    let p90_rank = (n * 9).div_ceil(10);
    let rank = if n > 10 { p90_rank.min(n - 10) } else { n };
    (v[rank - 1], 100.0 * rank as f64 / n as f64, n - rank)
}

fn per_unit(units: &[Unit], f: impl Fn(&Unit) -> f64) -> Vec<f64> {
    units.iter().map(f).collect()
}

/// How many times slower than the reference the host ran: a probe's
/// host seconds over the probe's reference seconds.
fn slowdown(probe_s: f64) -> f64 {
    probe_s / REFERENCE_S
}

/// Work per host second of each unit, scaled to the reference host
/// speed, median over `units`, and the unscaled median. `work` gives a
/// unit's work, host seconds and the part of those spent in file-system
/// calls. Only the rest is divided by the unit's slowdown: in
/// `explore_grid` the point cache's writes did not slow down with the
/// probe, and scaling them too made the scaled rate over-correct, by up
/// to 0.19 between runs where the unscaled rate moved 0.07.
fn rate(units: &[Unit], work: impl Fn(&Unit) -> (f64, f64, f64)) -> (f64, f64) {
    let raw = per_unit(units, |u| {
        let (n, secs, _) = work(u);
        n / secs
    });
    let scaled = per_unit(units, |u| {
        let (n, secs, io) = work(u);
        n / ((secs - io) / slowdown(u.probe_s) + io)
    });
    (median(&scaled), median(&raw))
}

/// Simulated requests per host second, scaled, median over `units`.
fn sim_rps(units: &[Unit]) -> (f64, f64) {
    rate(units, |u| (u.requests as f64, u.wall_s, u.io_s))
}

/// Each point's median scaled time over the units that repeated it.
fn point_times(units: &[Unit]) -> Vec<f64> {
    let points = units.iter().map(|u| u.point_s.len()).min().unwrap_or(0);
    (0..points)
        .map(|i| median(&per_unit(units, |u| u.point_s[i] / slowdown(u.probe_s))))
        .collect()
}

/// The tail of the point times of [`point_times`]. Reported with the
/// per-layer metrics, from the untraced units of a traced run: on the
/// sweep workloads the p90 point sits at a gap in the point-time
/// distribution, and it moved between runs by more than any bound an
/// end-to-end metric may have.
fn point_s_p90(units: &[Unit]) -> Metric {
    let points = point_times(units);
    let (p90, pct, above) = tail(&points);
    let note = format!("p{pct:.1} of {} points, {above} above it", points.len());
    metric("point_s_p90", "s", p90, note)
}

/// The note of a scaled rate: its unscaled median and the host's
/// median slowdown.
fn rate_note(raw: f64, units: &[Unit]) -> String {
    format!(
        "median of {} units; unscaled {raw:.1}, host slowdown {:.3}",
        units.len(),
        median(&per_unit(units, |u| slowdown(u.probe_s)))
    )
}

/// The end-to-end metrics of a run with tracing off.
pub fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let units = &out.plain;
    let (rps, rps_raw) = sim_rps(units);
    let (pps, pps_raw) = rate(units, |u| (u.point_s.len() as f64, u.wall_s, u.io_s));
    let warm = units.iter().all(|u| u.warm.is_some());
    let (warm_pps, warm_note) = if warm {
        let (scaled, raw) = rate(units, |u| {
            u.warm
                .map_or((0.0, 1.0, 0.0), |(p, secs)| (p as f64, secs, 0.0))
        });
        (scaled, format!("cache-served, {}", rate_note(raw, units)))
    } else {
        (
            pps,
            "no point cache: every point is computed, equals points_per_s".to_string(),
        )
    };
    let points = point_times(units);
    let setup: Vec<f64> = out
        .setup_s
        .iter()
        .zip(&out.setup_probe_s)
        .map(|(&secs, &probe)| secs / slowdown(probe))
        .collect();
    vec![
        metric("sim_rps", "req/s", rps, rate_note(rps_raw, units)),
        metric("points_per_s", "points/s", pps, rate_note(pps_raw, units)),
        metric("warm_points_per_s", "points/s", warm_pps, warm_note),
        metric(
            "point_s_p50",
            "s",
            median(&points),
            format!(
                "median of {} points, each its median over {} units",
                points.len(),
                units.len()
            ),
        ),
        metric(
            "setup_s",
            "s",
            median(&setup),
            format!(
                "median of {} samples of back-to-back set-ups; unscaled {:.6}",
                setup.len(),
                median(&out.setup_s)
            ),
        ),
        metric(
            "peak_rss_mb",
            "MB",
            out.peak_rss_mb,
            "VmHWM after one set-up and one unit",
        ),
    ]
}

/// `num / den`, 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics of a traced run.
pub fn per_layer(out: &Outcome, tracer: &Tracer) -> Vec<Metric> {
    let c = |name: &str| out.counters.get(name).copied().unwrap_or(0) as f64;
    let traced_ns: f64 = out.traced.iter().map(|u| u.wall_s).sum::<f64>() * 1e9;
    let share = |calls: &[Call]| {
        ratio(
            calls.iter().map(|&k| tracer.total_ns(k) as f64).sum(),
            traced_ns,
        )
    };
    let pulled = c("workload.requests_pulled");
    let exec: Vec<_> = out
        .plain
        .iter()
        .chain(&out.traced)
        .filter_map(|u| u.exec)
        .collect();
    let exec_median = |f: &dyn Fn(&crate::harness::ExecTimes) -> f64| {
        median(&exec.iter().map(f).collect::<Vec<_>>())
    };
    let lookups: u64 = out.traced.iter().map(|u| u.cache_lookups).sum();
    let hits: u64 = out.traced.iter().map(|u| u.cache_hits).sum();
    let (untraced, _) = sim_rps(&out.plain);
    let (traced, _) = sim_rps(&out.traced);
    let all_units: Vec<&Unit> = out.plain.iter().chain(&out.traced).collect();
    let units = format!("{} traced units", out.traced.len());
    let per_req = format!("counter over {pulled} pulled requests");
    vec![
        point_s_p90(&out.plain),
        metric(
            "workload.pull_ns",
            "ns",
            tracer.mean_ns(Call::Pull),
            "mean span",
        ),
        metric(
            "workload.share",
            "ratio",
            share(&[Call::Pull]),
            units.clone(),
        ),
        metric(
            "intradisk.submit_ns",
            "ns",
            tracer.mean_ns(Call::DriveSubmit),
            "mean span",
        ),
        metric(
            "intradisk.complete_ns",
            "ns",
            tracer.mean_ns(Call::DriveComplete),
            "mean span",
        ),
        metric(
            "intradisk.share",
            "ratio",
            share(&[Call::DriveSubmit, Call::DriveComplete]),
            units.clone(),
        ),
        metric(
            "intradisk.positioning_evals_per_req",
            "evals/req",
            ratio(c("intradisk.cost.positioning_evals"), pulled),
            per_req.clone(),
        ),
        metric(
            "intradisk.candidates_per_dispatch",
            "cands/scan",
            ratio(
                c("intradisk.dispatch.candidates"),
                c("intradisk.dispatch.scans"),
            ),
            "candidates / scans",
        ),
        metric(
            "intradisk.cache_hit_ratio",
            "ratio",
            ratio(
                c("intradisk.cache.hits"),
                c("intradisk.cache.hits") + c("intradisk.cache.misses"),
            ),
            "hits / lookups",
        ),
        metric(
            "intradisk.queue_peak",
            "count",
            c("intradisk.queue.peak_depth"),
            "deepest queue",
        ),
        metric(
            "array.submit_ns",
            "ns",
            tracer.mean_ns(Call::ArraySubmit),
            "mean span, members included",
        ),
        metric(
            "array.complete_ns",
            "ns",
            tracer.mean_ns(Call::ArrayComplete),
            "mean span, members included",
        ),
        metric(
            "array.share",
            "ratio",
            share(&[Call::ArraySubmit, Call::ArrayComplete]),
            units.clone(),
        ),
        metric(
            "array.sub_issues_per_req",
            "issues/req",
            ratio(c("array.sub_issues"), c("array.logical_submits")),
            "sub-issues / logical submits",
        ),
        metric(
            "simkit.push_ns",
            "ns",
            tracer.mean_ns(Call::Push),
            "mean span",
        ),
        metric(
            "simkit.pop_ns",
            "ns",
            tracer.mean_ns(Call::Pop),
            "mean span",
        ),
        metric(
            "simkit.share",
            "ratio",
            share(&[Call::Push, Call::Pop]),
            units,
        ),
        metric(
            "simkit.pushes_per_req",
            "pushes/req",
            ratio(c("simkit.wheel.pushes"), pulled),
            per_req,
        ),
        metric(
            "simkit.peak_pending",
            "count",
            c("simkit.wheel.peak_pending"),
            "calendar high-water mark",
        ),
        metric(
            "experiments.run_point_busy_s",
            "s",
            exec_median(&|e| e.busy_s),
            format!("median of {} units", exec.len()),
        ),
        metric(
            "experiments.worker_idle_share",
            "ratio",
            exec_median(&|e| 1.0 - ratio(e.busy_s, e.workers as f64 * e.map_wall_s)),
            "1 - busy / (workers x sweep wall)",
        ),
        metric(
            "experiments.longest_point_s",
            "s",
            exec_median(&|e| e.longest_s),
            "median over units",
        ),
        metric(
            "experiments.reduce_render_s",
            "s",
            exec_median(&|e| e.reduce_render_s),
            "median over units",
        ),
        metric(
            "explorer.cache_hit_ratio",
            "ratio",
            ratio(hits as f64, lookups as f64),
            "warm-pass hits / lookups",
        ),
        metric(
            "explorer.load_ns",
            "ns",
            tracer.mean_ns(Call::CacheLoad),
            "mean span",
        ),
        metric(
            "explorer.store_ns",
            "ns",
            tracer.mean_ns(Call::CacheStore),
            "mean span",
        ),
        metric(
            "explorer.pareto_render_s",
            "s",
            tracer.mean_ns(Call::ParetoRender) / 1e9,
            "mean span",
        ),
        metric(
            "host.slowdown",
            "ratio",
            median(
                &all_units
                    .iter()
                    .map(|u| slowdown(u.probe_s))
                    .collect::<Vec<_>>(),
            ),
            "probe seconds over the reference, median over units",
        ),
        metric(
            "trace.overhead_pct",
            "%",
            100.0 * ratio(untraced - traced, untraced),
            format!("sim_rps untraced {untraced:.1} vs traced {traced:.1}"),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_tails_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.5);
        assert_eq!(tail(&v), (90.0, 90.0, 10));
        // Fewer than 100 values: the highest percentile with ten above.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), (30.0, 75.0, 10));
        // Ten or fewer: the largest value.
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (3.0, 100.0, 0));
        assert_eq!(tail(&[]), (0.0, 0.0, 0));
    }

    #[test]
    fn rates_are_scaled_by_each_units_probe() {
        let unit = |wall_s: f64, probe_s: f64| Unit {
            wall_s,
            requests: 100,
            probe_s,
            ..Unit::default()
        };
        // The same unit on a host twice as slow, and one at the
        // reference speed, both scale to 100 requests per second.
        let units = [unit(2.0, 2.0 * REFERENCE_S), unit(1.0, REFERENCE_S)];
        let (scaled, raw) = sim_rps(&units);
        assert!((scaled - 100.0).abs() < 1e-9, "{scaled}");
        assert!((raw - 75.0).abs() < 1e-9, "{raw}");
        // File-system time is not scaled: 1 s of it plus 2 s of work at
        // half speed scale to 2 s.
        let units = [Unit {
            io_s: 1.0,
            ..unit(3.0, 2.0 * REFERENCE_S)
        }];
        let (scaled, _) = sim_rps(&units);
        assert!((scaled - 50.0).abs() < 1e-9, "{scaled}");
    }
}
