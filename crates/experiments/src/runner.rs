//! Shared trace-driven event loops.
//!
//! Two runners cover every experiment: [`run_drive`] replays a workload
//! against a single (conventional or intra-disk parallel) drive;
//! [`run_array`] replays it against an [`ArrayController`]. Both close
//! power accounting at the later of the last arrival and the last
//! completion, so idle tails are charged correctly.
//!
//! The runners are **pull-based**: they accept any
//! [`IntoRequestSource`] — a materialized [`workload::Trace`] by
//! reference (backward compatible) or a lazy source
//! (`SyntheticSpec::source`, `TraceProfile::source`, `SpcSource`) — and
//! hold at most one request of lookahead, so a 10⁸-request run never
//! materializes its workload.
//!
//! The runners surface the drive/array state machines' typed
//! [`DriveError`]s instead of panicking: a protocol violation aborts
//! the *experiment point*, not the whole sweep, and the executor
//! ([`crate::exec`]) reports which point failed.

use array::{ArrayController, Layout};
use diskmodel::{DiskParams, DriveError};
use intradisk::failure::FailureSchedule;
use intradisk::{CompletedIo, DiskDrive, DriveConfig, DriveMetrics, PowerBreakdown};
use simkit::{EventQueue, QueueStats, ResponseStats, SimDuration, SimTime};
use telemetry::prof::{self, Phase};
use telemetry::{NullRecorder, Recorder};
use workload::{CountingSource, IntoRequestSource, RequestSource};

/// Observer hooked into the drive run loop, called after every
/// completed request with its record and the drive's live metrics. This is how
/// heartbeats observe a run without the sim core touching threads or
/// host time: the loop stays single-threaded and virtual-time-driven,
/// the observer decides (on its own clock) whether to emit anything.
pub trait RunObserver {
    /// Called once per completed request.
    fn on_complete(&mut self, done: &CompletedIo, metrics: &DriveMetrics);
}

/// The no-op observer behind the plain entry points.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl RunObserver for NullObserver {
    fn on_complete(&mut self, _done: &CompletedIo, _metrics: &DriveMetrics) {}
}

/// Result of replaying a workload on a single drive.
#[derive(Debug, Clone)]
pub struct DriveRunResult {
    /// Everything the drive recorded.
    pub metrics: DriveMetrics,
    /// Average-power breakdown over the run.
    pub power: PowerBreakdown,
    /// Wall-clock span of the run.
    pub duration: SimDuration,
    /// Deepest the drive's pending queue got during the run.
    pub queue_peak: usize,
}

impl DriveRunResult {
    /// The 90th-percentile response time in milliseconds (exact when
    /// the drive ran in `StatsMode::Exact`; bounded-error streaming
    /// read otherwise).
    ///
    /// The run loop finalizes the stats when the replay ends, so this
    /// is an indexed read on a shared reference.
    pub fn p90_ms(&self) -> f64 {
        self.metrics.response_time_ms.percentile(90.0)
    }

    /// The 90th percentile from the bounded-memory streaming view —
    /// available in either mode, and agrees with
    /// [`DriveRunResult::p90_ms`] within the streaming histogram's
    /// documented relative-error bound.
    pub fn p90_stream_ms(&self) -> f64 {
        self.metrics.response_time_ms.percentile_stream(90.0)
    }
}

/// Result of replaying a workload on an array.
#[derive(Debug, Clone)]
pub struct ArrayRunResult {
    /// Logical response times (ms), in the member drives' stats mode.
    pub response_time_ms: ResponseStats,
    /// Logical response-time histogram over the paper's edges.
    pub response_hist: simkit::Histogram,
    /// Sum of the member drives' power breakdowns.
    pub power: PowerBreakdown,
    /// Wall-clock span of the run.
    pub duration: SimDuration,
    /// Completed logical requests.
    pub completed: u64,
    /// Event-kernel traffic of the run's calendar (pushes, pops, peak
    /// pending).
    pub kernel: QueueStats,
    /// Deepest any member disk's pending queue got during the run.
    pub member_queue_peak: usize,
}

impl ArrayRunResult {
    /// The 90th-percentile response time in milliseconds (exact when
    /// the members ran in `StatsMode::Exact`).
    ///
    /// The run loop finalizes the stats when the replay ends, so this
    /// is an indexed read on a shared reference.
    pub fn p90_ms(&self) -> f64 {
        self.response_time_ms.percentile(90.0)
    }

    /// The 90th percentile from the bounded-memory streaming view —
    /// agrees with [`ArrayRunResult::p90_ms`] within the streaming
    /// histogram's documented relative-error bound.
    pub fn p90_stream_ms(&self) -> f64 {
        self.response_time_ms.percentile_stream(90.0)
    }
}

/// Replays a workload against one drive.
pub fn run_drive(
    params: &DiskParams,
    config: DriveConfig,
    workload: impl IntoRequestSource,
) -> Result<DriveRunResult, DriveError> {
    run_drive_with_failures(params, config, workload, FailureSchedule::new())
}

/// [`run_drive`], recording the drive's telemetry events into `rec`.
pub fn run_drive_traced<R: Recorder>(
    params: &DiskParams,
    config: DriveConfig,
    workload: impl IntoRequestSource,
    rec: &mut R,
) -> Result<DriveRunResult, DriveError> {
    run_drive_with_failures_traced(params, config, workload, FailureSchedule::new(), rec)
}

/// Replays a workload against one drive, applying a SMART failure
/// schedule as simulated time passes (§8's graceful-degradation study).
pub fn run_drive_with_failures(
    params: &DiskParams,
    config: DriveConfig,
    workload: impl IntoRequestSource,
    failures: FailureSchedule,
) -> Result<DriveRunResult, DriveError> {
    run_drive_with_failures_traced(params, config, workload, failures, &mut NullRecorder)
}

/// [`run_drive_with_failures`], recording telemetry events into `rec`.
pub fn run_drive_with_failures_traced<R: Recorder>(
    params: &DiskParams,
    config: DriveConfig,
    workload: impl IntoRequestSource,
    failures: FailureSchedule,
    rec: &mut R,
) -> Result<DriveRunResult, DriveError> {
    run_drive_observed(params, config, workload, failures, rec, &mut NullObserver)
}

/// The single-drive event loop behind every `run_drive*` entry point,
/// with both a telemetry recorder and a [`RunObserver`] hook.
pub fn run_drive_observed<R: Recorder, O: RunObserver>(
    params: &DiskParams,
    config: DriveConfig,
    workload: impl IntoRequestSource,
    mut failures: FailureSchedule,
    rec: &mut R,
    obs: &mut O,
) -> Result<DriveRunResult, DriveError> {
    let mut source = CountingSource::new(workload.into_source());
    let mut drive = DiskDrive::new(params, config);
    let mut end = SimTime::ZERO;
    // One-request lookahead: the only workload state the loop holds.
    let mut pending = {
        let _sp = prof::scope(Phase::SourcePull);
        source.next_request()
    };
    loop {
        let completion = drive.next_completion();
        let take_arrival = match (pending.map(|r| r.arrival), completion) {
            (None, None) => break,
            (Some(a), Some(c)) => a <= c,
            (Some(_), None) => true,
            (None, Some(_)) => false,
        };
        if take_arrival {
            let r = pending.take().expect("arrival pending");
            pending = {
                let _sp = prof::scope(Phase::SourcePull);
                source.next_request()
            };
            failures.apply_due(&mut drive, r.arrival);
            end = end.max(r.arrival);
            drive.submit_traced(r, r.arrival, rec)?;
        } else {
            let c = completion.expect("completion pending");
            failures.apply_due(&mut drive, c);
            let (done, _) = drive.complete_traced(c, rec)?;
            end = end.max(done.completed);
            obs.on_complete(&done, drive.metrics());
        }
    }
    drive.finalize(end);
    Ok(DriveRunResult {
        power: drive.power_breakdown(),
        metrics: drive.metrics().clone(),
        duration: end.saturating_since(SimTime::ZERO),
        queue_peak: drive.queue_peak(),
    })
}

/// Replays a workload against an array of `disks` drives of model
/// `params`, each configured as `member`, laid out per `layout`.
pub fn run_array(
    params: &DiskParams,
    member: DriveConfig,
    disks: usize,
    layout: Layout,
    workload: impl IntoRequestSource,
) -> Result<ArrayRunResult, DriveError> {
    run_array_traced(params, member, disks, layout, workload, &mut NullRecorder)
}

/// [`run_array`], recording telemetry events into `rec`.
///
/// Member-drive events land in scope `1 + disk`; the controller's
/// logical submit/complete events land in scope 0.
pub fn run_array_traced<R: Recorder>(
    params: &DiskParams,
    member: DriveConfig,
    disks: usize,
    layout: Layout,
    workload: impl IntoRequestSource,
    rec: &mut R,
) -> Result<ArrayRunResult, DriveError> {
    let mut source = CountingSource::new(workload.into_source());
    let mut array = ArrayController::new(params, member, disks, layout);
    let mut events: EventQueue<usize> = EventQueue::with_capacity(64);
    let mut end = SimTime::ZERO;
    // One-request lookahead: the only workload state the loop holds.
    let mut pending = {
        let _sp = prof::scope(Phase::SourcePull);
        source.next_request()
    };
    loop {
        let take_arrival = match (pending.map(|r| r.arrival), events.peek_time()) {
            (None, None) => break,
            (Some(a), Some(e)) => a <= e,
            (Some(_), None) => true,
            (None, Some(_)) => false,
        };
        if take_arrival {
            let r = pending.take().expect("arrival pending");
            pending = {
                let _sp = prof::scope(Phase::SourcePull);
                source.next_request()
            };
            end = end.max(r.arrival);
            for (disk, t) in array.submit_traced(r, r.arrival, rec)? {
                let _kp = prof::scope(Phase::KernelPush);
                events.push(t, disk);
            }
        } else {
            let ev = {
                let _kp = prof::scope(Phase::KernelPop);
                events.pop().expect("event pending")
            };
            end = end.max(ev.time);
            let out = array.on_disk_complete_traced(ev.payload, ev.time, rec)?;
            if let Some(t) = out.next_on_disk {
                let _kp = prof::scope(Phase::KernelPush);
                events.push(t, ev.payload);
            }
            for (disk, t) in out.started {
                let _kp = prof::scope(Phase::KernelPush);
                events.push(t, disk);
            }
        }
    }
    array.finalize(end);
    let kernel = events.stats();
    let member_queue_peak = (0..array.disk_count())
        .map(|i| array.disk(i).queue_peak())
        .max()
        .unwrap_or(0);
    let m = array.metrics();
    Ok(ArrayRunResult {
        response_time_ms: m.response_time_ms.clone(),
        response_hist: m.response_hist.clone(),
        power: array.power_breakdown(),
        duration: end.saturating_since(SimTime::ZERO),
        completed: m.completed,
        kernel,
        member_queue_peak,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use diskmodel::presets;
    use workload::{SyntheticSpec, Trace};

    fn small_trace(mean_ms: f64, n: usize) -> Trace {
        SyntheticSpec::paper(mean_ms, 200_000_000, n).generate(11)
    }

    #[test]
    fn drive_run_completes_everything() {
        let t = small_trace(8.0, 2_000);
        let r = run_drive(
            &presets::barracuda_es_750gb(),
            DriveConfig::conventional(),
            &t,
        )
        .expect("replay succeeds");
        assert_eq!(r.metrics.completed, 2_000);
        assert!(r.duration > SimDuration::ZERO);
        assert!(r.power.total_w() > 0.0);
    }

    #[test]
    fn array_run_completes_everything() {
        let t = small_trace(4.0, 2_000);
        let r = run_array(
            &presets::array_drive_10k_19gb(),
            DriveConfig::conventional(),
            4,
            Layout::striped_default(),
            &t,
        )
        .expect("replay succeeds");
        assert_eq!(r.completed, 2_000);
        assert!(r.power.total_w() > 0.0);
    }

    #[test]
    fn lazy_source_matches_materialized_trace() {
        // The core API-redesign oracle: streaming ingestion must be
        // observationally identical to the materialized path.
        let spec = SyntheticSpec::paper(6.0, 200_000_000, 3_000);
        let trace = spec.generate(11);
        let params = presets::barracuda_es_750gb();
        let from_trace =
            run_drive(&params, DriveConfig::sa(2), &trace).expect("replay succeeds");
        let from_source =
            run_drive(&params, DriveConfig::sa(2), spec.source(11)).expect("replay succeeds");
        assert_eq!(from_trace.metrics.completed, from_source.metrics.completed);
        assert_eq!(
            from_trace.metrics.response_time_ms.mean(),
            from_source.metrics.response_time_ms.mean()
        );
        assert_eq!(from_trace.p90_ms(), from_source.p90_ms());
        assert_eq!(from_trace.duration, from_source.duration);
    }

    #[test]
    fn single_disk_array_close_to_bare_drive() {
        // A 1-disk striped array should behave like the bare drive
        // (modulo controller bookkeeping, which costs nothing here).
        let t = small_trace(8.0, 2_000);
        let d = run_drive(
            &presets::barracuda_es_750gb(),
            DriveConfig::conventional(),
            &t,
        )
        .expect("replay succeeds");
        let a = run_array(
            &presets::barracuda_es_750gb(),
            DriveConfig::conventional(),
            1,
            Layout::Concatenated,
            &t,
        )
        .expect("replay succeeds");
        let dm = d.metrics.response_time_ms.mean();
        let am = a.response_time_ms.mean();
        assert!((dm - am).abs() / dm < 0.05, "drive {dm} vs array {am}");
    }

    #[test]
    fn failure_mid_run_degrades_but_completes() {
        let t = small_trace(6.0, 2_000);
        let params = presets::barracuda_es_750gb();
        let healthy = run_drive(&params, DriveConfig::sa(2), &t).expect("replay succeeds");
        let mut sched = FailureSchedule::new();
        sched.push(SimTime::ZERO, 1); // lose the second arm immediately
        let degraded = run_drive_with_failures(&params, DriveConfig::sa(2), &t, sched)
            .expect("replay succeeds");
        assert_eq!(degraded.metrics.completed, 2_000);
        assert!(
            degraded.metrics.response_time_ms.mean() >= healthy.metrics.response_time_ms.mean(),
            "degraded should not beat healthy"
        );
    }
}
