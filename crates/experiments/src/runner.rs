//! The one trace-driven event loop.
//!
//! [`run`] replays a workload against any [`Device`]: a drive
//! ([`DriveDevice`]), an array ([`ArrayDevice`]), or the DRPM and MAID
//! baselines (`intradisk::drpm::DrpmDrive`, `array::maid::MaidArray`).
//! [`run_drive`] and [`run_array`] are the shorthands most studies use.
//! A run closes power accounting at the later of the last arrival and
//! the last device event, so idle tails are charged correctly.
//!
//! The loop is **pull-based**: it accepts any [`IntoRequestSource`] —
//! a materialized [`workload::Trace`] by reference or a lazy source
//! (`SyntheticSpec::source`, `TraceProfile::source`, `SpcSource`) —
//! and holds at most one request of lookahead, so a 10⁸-request run
//! never materializes its workload.
//!
//! Devices surface typed [`DriveError`]s instead of panicking: a
//! protocol violation aborts the *experiment point*, not the whole
//! sweep, and the executor ([`crate::exec`]) reports which point
//! failed.

use array::{ArrayController, Layout, LogicalCompletion};
use diskmodel::{DiskParams, DriveError};
use intradisk::failure::FailureSchedule;
use intradisk::{CompletedIo, DiskDrive, DriveConfig, DriveMetrics, IoRequest, PowerBreakdown};
use simkit::{EventQueue, QueueStats, ResponseStats, SimDuration, SimTime};
use telemetry::{NullRecorder, Recorder};
use workload::{CountingSource, IntoRequestSource, RequestSource};

pub use intradisk::Device;

/// Observer hooked into the run loop, called after every completed
/// request with its record and the device's live state. This is how
/// heartbeats observe a run without the sim core touching threads or
/// host time: the loop stays single-threaded and virtual-time-driven,
/// the observer decides (on its own clock) whether to emit anything.
pub trait RunObserver<D: Device> {
    /// Called once per completed request.
    fn on_complete(&mut self, done: &D::Done, device: &D);
}

/// The no-op observer behind [`Hooks::none`].
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl<D: Device> RunObserver<D> for NullObserver {
    fn on_complete(&mut self, _done: &D::Done, _device: &D) {}
}

impl<D: Device, O: RunObserver<D>> RunObserver<D> for &mut O {
    fn on_complete(&mut self, done: &D::Done, device: &D) {
        (**self).on_complete(done, device);
    }
}

/// What a [`run`] reports to besides its result: a telemetry recorder
/// and a [`RunObserver`], both none by default. Pass `&mut` references
/// to keep ownership of them.
#[derive(Debug, Default, Clone, Copy)]
pub struct Hooks<R = NullRecorder, O = NullObserver> {
    recorder: R,
    observer: O,
}

impl Hooks {
    /// No recorder, no observer.
    pub fn none() -> Self {
        Hooks::default()
    }
}

impl<R, O> Hooks<R, O> {
    /// Records the device's telemetry events into `recorder`.
    pub fn recorder<R2: Recorder>(self, recorder: R2) -> Hooks<R2, O> {
        Hooks {
            recorder,
            observer: self.observer,
        }
    }

    /// Calls `observer` after every completed request.
    pub fn observer<O2>(self, observer: O2) -> Hooks<R, O2> {
        Hooks {
            recorder: self.recorder,
            observer,
        }
    }
}

/// Replays a workload against `device`: the one event loop behind
/// every run.
///
/// # Errors
/// The first [`DriveError`] the device reports; the run stops there.
pub fn run<D: Device, R: Recorder, O: RunObserver<D>>(
    mut device: D,
    workload: impl IntoRequestSource,
    mut hooks: Hooks<R, O>,
) -> Result<D::Output, DriveError> {
    let mut source = CountingSource::new(workload.into_source());
    // One-request lookahead: the only workload state the loop holds.
    let mut pending = source.next_request();
    let mut end = SimTime::ZERO;
    loop {
        match (pending, device.next_event()) {
            // An arrival goes first, also when it ties with the event.
            (Some(r), event) if event.is_none_or(|e| r.arrival <= e) => {
                pending = source.next_request();
                end = end.max(r.arrival);
                device.submit(r, &mut hooks.recorder)?;
            }
            (_, Some(now)) => {
                end = end.max(now);
                if let Some(done) = device.advance(now, &mut hooks.recorder)? {
                    hooks.observer.on_complete(&done, &device);
                }
            }
            // No event and, by the first arm, no arrival either.
            (_, None) => break,
        }
    }
    Ok(device.finish(end))
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
    run(DriveDevice::new(params, config), workload, Hooks::none())
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
    let array = ArrayDevice::new(params, member, disks, layout);
    run(array, workload, Hooks::none())
}

/// One drive, with an optional SMART failure schedule applied as
/// simulated time passes (§8's graceful-degradation study).
#[derive(Debug, Clone)]
pub struct DriveDevice {
    drive: DiskDrive,
    failures: FailureSchedule,
}

impl DriveDevice {
    /// A healthy drive of model `params`, configured as `config`.
    pub fn new(params: &DiskParams, config: DriveConfig) -> Self {
        DriveDevice {
            drive: DiskDrive::new(params, config),
            failures: FailureSchedule::new(),
        }
    }

    /// Deconfigures actuators per `failures`, each at the first
    /// arrival or event at or after its time.
    pub fn with_failures(mut self, failures: FailureSchedule) -> Self {
        self.failures = failures;
        self
    }

    /// The drive, for observers reading its live metrics.
    pub fn drive(&self) -> &DiskDrive {
        &self.drive
    }
}

impl Device for DriveDevice {
    type Done = CompletedIo;
    type Output = DriveRunResult;

    fn next_event(&self) -> Option<SimTime> {
        self.drive.next_completion()
    }

    fn submit<R: Recorder>(&mut self, req: IoRequest, rec: &mut R) -> Result<(), DriveError> {
        self.failures.apply_due(&mut self.drive, req.arrival);
        self.drive.submit_traced(req, req.arrival, rec).map(drop)
    }

    fn advance<R: Recorder>(
        &mut self,
        now: SimTime,
        rec: &mut R,
    ) -> Result<Option<CompletedIo>, DriveError> {
        self.failures.apply_due(&mut self.drive, now);
        let (done, _) = self.drive.complete_traced(now, rec)?;
        Ok(Some(done))
    }

    fn finish(mut self, end: SimTime) -> DriveRunResult {
        self.drive.finalize(end);
        DriveRunResult {
            power: self.drive.power_breakdown(),
            queue_peak: self.drive.queue_peak(),
            metrics: self.drive.metrics().clone(),
            duration: end.saturating_since(SimTime::ZERO),
        }
    }
}

/// An [`ArrayController`] plus its calendar of per-disk completion
/// events.
///
/// Member-drive telemetry lands in scope `1 + disk`; the controller's
/// logical submit/complete events land in scope 0.
#[derive(Debug)]
pub struct ArrayDevice {
    array: ArrayController,
    events: EventQueue<usize>,
}

impl ArrayDevice {
    /// An array of `disks` drives of model `params`, each configured as
    /// `member`, laid out per `layout`.
    pub fn new(params: &DiskParams, member: DriveConfig, disks: usize, layout: Layout) -> Self {
        ArrayDevice {
            array: ArrayController::new(params, member, disks, layout),
            events: EventQueue::with_capacity(64),
        }
    }

    fn schedule(&mut self, disk: usize, t: SimTime) {
        self.events.push(t, disk);
    }
}

impl Device for ArrayDevice {
    type Done = LogicalCompletion;
    type Output = ArrayRunResult;

    fn next_event(&self) -> Option<SimTime> {
        self.events.peek_time()
    }

    fn submit<R: Recorder>(&mut self, req: IoRequest, rec: &mut R) -> Result<(), DriveError> {
        for (disk, t) in self.array.submit_traced(req, req.arrival, rec)? {
            self.schedule(disk, t);
        }
        Ok(())
    }

    fn advance<R: Recorder>(
        &mut self,
        _now: SimTime,
        rec: &mut R,
    ) -> Result<Option<LogicalCompletion>, DriveError> {
        let ev = self.events.pop().ok_or(DriveError::NotInService)?;
        let mut out = self
            .array
            .on_disk_complete_traced(ev.payload, ev.time, rec)?;
        if let Some(t) = out.next_on_disk {
            self.schedule(ev.payload, t);
        }
        for (disk, t) in out.started {
            self.schedule(disk, t);
        }
        // One disk completion finishes at most one logical request.
        Ok(out.finished.pop())
    }

    fn finish(mut self, end: SimTime) -> ArrayRunResult {
        self.array.finalize(end);
        let member_queue_peak = (0..self.array.disk_count())
            .map(|i| self.array.disk(i).queue_peak())
            .max()
            .unwrap_or(0);
        let m = self.array.metrics();
        ArrayRunResult {
            response_time_ms: m.response_time_ms.clone(),
            response_hist: m.response_hist.clone(),
            power: self.array.power_breakdown(),
            duration: end.saturating_since(SimTime::ZERO),
            completed: m.completed,
            kernel: self.events.stats(),
            member_queue_peak,
        }
    }
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
        let drive = DriveDevice::new(&params, DriveConfig::sa(2)).with_failures(sched);
        let degraded = run(drive, &t, Hooks::none()).expect("replay succeeds");
        assert_eq!(degraded.metrics.completed, 2_000);
        assert!(
            degraded.metrics.response_time_ms.mean() >= healthy.metrics.response_time_ms.mean(),
            "degraded should not beat healthy"
        );
    }
}
