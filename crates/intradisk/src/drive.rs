//! The disk-drive state machine.
//!
//! [`DiskDrive`] is a passive discrete-event component: its owner (a
//! single-disk runner or an array controller) holds the event calendar
//! and calls [`DiskDrive::submit`] when a request arrives and
//! [`DiskDrive::complete`] when a previously returned completion time is
//! reached. How many media requests the drive services at once is its
//! [`OverlapMode`]:
//!
//! * [`OverlapMode::SingleArmMotion`] (the default) — the HC-SD-SA(n)
//!   design's twin restrictions (one arm in motion, one head
//!   transferring) make sequential service exact: one request at a
//!   time, with the parallelism benefit coming entirely from *which*
//!   arm is dispatched and how little it has to move and wait.
//! * [`OverlapMode::MultiMotion`] and [`OverlapMode::MultiChannel`] —
//!   the two relaxations of the technical-report version of the paper
//!   (§7.2: "Our first extension allowed multiple arms to be in motion
//!   simultaneously and the second extension allowed multiple channels
//!   to transfer data simultaneously. We found that these two
//!   extensions provide little benefit over the HC-SD-SA(n) design").
//!   Several requests are in flight, one per busy arm.

use diskmodel::{DiskParams, DriveError, PowerModel, Target};
use simkit::{SimDuration, SimTime, StatsMode};
use telemetry::{NullRecorder, PowerMode, Recorder, TraceEvent};

use crate::cache::SegmentedCache;
use crate::metrics::{close_idle_span, DriveMetrics, DriveMode, PowerBreakdown};
use crate::request::{CompletedIo, IoKind, IoRequest, ServiceBreakdown};
use crate::sched::{PendingQueue, QueuePolicy, DEFAULT_WINDOW};
use crate::service::{ArmSet, Mechanics, PlanTimes};

pub use crate::service::{ArmPlacement, LatencyScaling};

/// Bus rate used for cache-hit transfers, bytes per millisecond
/// (150 MB/s SATA-era sustained).
const CACHE_HIT_BUS_BYTES_PER_MS: f64 = 150_000.0;

/// How far a multi-actuator drive may overlap the service of requests
/// across its assemblies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OverlapMode {
    /// One arm in motion at a time, one transfer at a time (the
    /// HC-SD-SA(n) baseline): one request in flight.
    #[default]
    SingleArmMotion,
    /// Concurrent seeks, single shared data channel: up to two requests
    /// in flight, so one positions while the other transfers. A
    /// transfer that finds the channel busy waits for it and then
    /// re-aligns with its sector, possibly losing a revolution; binding
    /// more requests would serialize them through the channel while
    /// freezing scheduling choices made too early.
    MultiMotion,
    /// Concurrent seeks and per-arm channels: every live assembly
    /// positions and transfers independently (an upper bound requiring
    /// per-arm read/write channels).
    MultiChannel,
}

/// Configuration of one drive instance.
#[derive(Debug, Clone, PartialEq)]
pub struct DriveConfig {
    /// Number of independent arm assemblies (`n` of HC-SD-SA(n)).
    pub actuators: u32,
    /// Queue scheduling policy.
    pub policy: QueuePolicy,
    /// Limit-study latency scaling (Figure 4); identity for real runs.
    pub scaling: LatencyScaling,
    /// Scheduling window for positioning-aware policies.
    pub window: usize,
    /// Mounting azimuths of the arm assemblies.
    pub placement: ArmPlacement,
    /// Heads per arm per surface (the taxonomy's H dimension; 1 for
    /// conventional drives and the paper's HC-SD-SA(n) designs).
    pub heads_per_arm: u32,
    /// How latency statistics are collected: `Exact` keeps every sample
    /// (the oracle, default); `Streaming` keeps bounded-memory sketches
    /// so 10⁸-request runs don't grow with run length.
    pub stats: StatsMode,
    /// How many requests may be in service at once (the technical
    /// report's relaxations of HC-SD-SA(n)).
    pub overlap: OverlapMode,
}

impl DriveConfig {
    /// A conventional drive: one actuator, SPTF scheduling.
    pub fn conventional() -> Self {
        Self::sa(1)
    }

    /// The paper's HC-SD-SA(n) configuration.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn sa(n: u32) -> Self {
        assert!(n > 0, "need at least one actuator");
        DriveConfig {
            actuators: n,
            policy: QueuePolicy::Sptf,
            scaling: LatencyScaling::none(),
            window: DEFAULT_WINDOW,
            placement: ArmPlacement::EquallySpaced,
            heads_per_arm: 1,
            stats: StatsMode::Exact,
            overlap: OverlapMode::SingleArmMotion,
        }
    }

    /// The `D1 A(l) S1 H(m)` taxonomy point: `l` assemblies with `m`
    /// heads per arm per surface (§4, Figure 1(b)).
    ///
    /// # Panics
    /// Panics if either degree is zero.
    pub fn dash(assemblies: u32, heads_per_arm: u32) -> Self {
        assert!(heads_per_arm > 0, "need at least one head per arm");
        let mut cfg = Self::sa(assemblies);
        cfg.heads_per_arm = heads_per_arm;
        cfg
    }

    /// Replaces the scheduling policy.
    pub fn with_policy(mut self, policy: QueuePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the latency scaling (limit-study knobs).
    pub fn with_scaling(mut self, scaling: LatencyScaling) -> Self {
        self.scaling = scaling;
        self
    }

    /// Replaces the scheduling window.
    ///
    /// # Panics
    /// Panics if `window == 0`.
    pub fn with_window(mut self, window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        self.window = window;
        self
    }

    /// Replaces the arm-assembly placement (ablation knob).
    pub fn with_placement(mut self, placement: ArmPlacement) -> Self {
        self.placement = placement;
        self
    }

    /// Replaces the statistics collection mode (use
    /// [`StatsMode::Streaming`] for runs too large to keep every
    /// sample).
    pub fn with_stats_mode(mut self, stats: StatsMode) -> Self {
        self.stats = stats;
        self
    }

    /// Replaces the overlap mode (the technical report's relaxations).
    pub fn with_overlap(mut self, overlap: OverlapMode) -> Self {
        self.overlap = overlap;
        self
    }
}

impl Default for DriveConfig {
    fn default() -> Self {
        Self::conventional()
    }
}

/// A request in service: its record is complete except for the
/// moment it is handed back.
#[derive(Debug, Clone)]
struct InFlight {
    done: CompletedIo,
    /// Read-miss extents get installed in the cache at completion.
    install: Option<(u64, u32)>,
}

/// One simulated disk drive (conventional or intra-disk parallel).
#[derive(Debug, Clone)]
pub struct DiskDrive {
    name: String,
    mech: Mechanics,
    power: PowerModel,
    cache: SegmentedCache,
    arms: ArmSet,
    /// Next instant the shared data channel is free (never set under
    /// [`OverlapMode::MultiChannel`], whose arms have a channel each).
    channel_free_at: SimTime,
    queue: PendingQueue,
    config: DriveConfig,
    // simlint: allow(unbounded-sim-state) — capped at the live arm
    // count by `max_in_flight`.
    in_flight: Vec<InFlight>,
    idle_since: SimTime,
    metrics: DriveMetrics,
    capacity: u64,
    overhead: SimDuration,
    /// Deterministic dispatch/cost/cache counters, flushed to the
    /// global registry when the drive drops (clones start at zero).
    prof: crate::counters::DriveProfCounts,
}

impl DiskDrive {
    /// Creates a drive from a parameter set and configuration.
    pub fn new(params: &DiskParams, config: DriveConfig) -> Self {
        let mech = Mechanics::new(params);
        let arms = ArmSet::from_arms(&mech.arms_with_placement(config.actuators, &config.placement));
        let capacity = mech.geometry().total_sectors();
        DiskDrive {
            name: params.name().to_string(),
            power: PowerModel::new(params),
            cache: SegmentedCache::new(params.cache_mib()),
            in_flight: Vec::with_capacity(arms.len()),
            arms,
            channel_free_at: SimTime::ZERO,
            queue: PendingQueue::with_window(config.window),
            metrics: DriveMetrics::with_mode(config.actuators, config.stats),
            config,
            idle_since: SimTime::ZERO,
            mech,
            capacity,
            overhead: params.controller_overhead(),
            prof: crate::counters::DriveProfCounts::new(),
        }
    }

    /// Model name of the underlying drive.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Addressable capacity in sectors.
    pub fn capacity_sectors(&self) -> u64 {
        self.capacity
    }

    /// The drive's power model.
    pub fn power_model(&self) -> &PowerModel {
        &self.power
    }

    /// Statistics collected so far.
    pub fn metrics(&self) -> &DriveMetrics {
        &self.metrics
    }

    /// Number of requests waiting in the queue (excluding those in
    /// service).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Deepest the pending queue has been over the drive's lifetime.
    pub fn queue_peak(&self) -> usize {
        self.queue.peak_len()
    }

    /// True if no request is in service or queued.
    pub fn is_idle(&self) -> bool {
        self.in_flight.is_empty() && self.queue.is_empty()
    }

    /// The earliest completion time among the requests in service, if
    /// any: the next instant the owner must call
    /// [`DiskDrive::complete`] at.
    pub fn next_completion(&self) -> Option<SimTime> {
        self.in_flight.iter().map(|f| f.done.completed).min()
    }

    /// Marks actuator `index` as failed (SMART-predicted failure, §8).
    /// The drive keeps operating on the remaining assemblies; a request
    /// the assembly is serving still completes.
    ///
    /// Returns `false` (and changes nothing) if the index is invalid or
    /// this is the last live assembly.
    pub fn deconfigure_actuator(&mut self, index: u32) -> bool {
        let idx = index as usize;
        if idx < self.arms.len() && !self.arms.is_failed(idx) && self.arms.live_count() > 1 {
            self.arms.set_failed(idx);
            true
        } else {
            false
        }
    }

    /// Number of live (not deconfigured) assemblies.
    pub fn live_actuators(&self) -> u32 {
        self.arms.live_count() as u32
    }

    /// Submits a request at time `now` (which must not precede the
    /// request's arrival time). Returns the completion time if service
    /// started immediately; otherwise the request waits in the queue.
    ///
    /// Requests addressing beyond the device are wrapped modulo the
    /// capacity, as trace-replay tools conventionally do.
    ///
    /// # Errors
    /// Returns [`DriveError::SubmitBeforeArrival`] if `now <
    /// req.arrival`, or [`DriveError::NoLiveArm`] if every assembly has
    /// failed.
    pub fn submit(
        &mut self,
        req: IoRequest,
        now: SimTime,
    ) -> Result<Option<SimTime>, DriveError> {
        self.submit_traced(req, now, &mut NullRecorder)
    }

    /// [`DiskDrive::submit`] with event tracing: every lifecycle step
    /// (submission, queueing, dispatch, seek/rotation/transfer phases,
    /// cache interaction) is emitted to `rec`. With
    /// [`telemetry::NullRecorder`] this is exactly `submit`.
    ///
    /// The relaxed overlap modes emit no `PowerModeChange` events — with
    /// several arms concurrently busy the drive has no single
    /// well-defined mode; per-phase intervals (seek / rotational wait /
    /// transfer) are still emitted per actuator — and report every
    /// submission as queued before it is dispatched.
    pub fn submit_traced<R: Recorder>(
        &mut self,
        mut req: IoRequest,
        now: SimTime,
        rec: &mut R,
    ) -> Result<Option<SimTime>, DriveError> {
        if now < req.arrival {
            return Err(DriveError::SubmitBeforeArrival {
                arrival: req.arrival,
                now,
            });
        }
        if req.lba >= self.capacity {
            req.lba %= self.capacity;
        }
        // The one locate of this request: the queue and the plan reuse it.
        self.prof.locates.bump();
        let target = self.mech.geometry().target(req.lba);
        if R::ENABLED {
            rec.record(
                now,
                TraceEvent::RequestSubmitted {
                    req: req.id,
                    lba: req.lba,
                    sectors: req.sectors,
                    op: req.kind.into(),
                },
            );
        }
        // The queue only holds work while the in-flight set is full, so
        // a request that finds room starts at once.
        if self.in_flight.len() >= self.max_in_flight() {
            self.queue.push(req, target);
            if R::ENABLED {
                rec.record(
                    now,
                    TraceEvent::RequestQueued {
                        req: req.id,
                        depth: self.queue.len() as u32,
                    },
                );
            }
            return Ok(None);
        }
        if R::ENABLED && self.relaxed() {
            // The relaxed modes' traces pass every submission through
            // the (here empty) queue.
            rec.record(
                now,
                TraceEvent::RequestQueued {
                    req: req.id,
                    depth: self.queue.len() as u32 + 1,
                },
            );
        }
        if self.in_flight.is_empty() {
            // Close the idle span that ends now.
            close_idle_span(&mut self.metrics.modes, self.idle_since, now);
        }
        Ok(Some(self.start_service(req, target, now, 0, rec)?))
    }

    /// Completes one in-service request due exactly at `now` (a
    /// completion time previously returned). Returns the completion
    /// record and, if another request was started, its completion time.
    ///
    /// # Errors
    /// Returns [`DriveError::NotInService`] if no request is in
    /// service, or [`DriveError::WrongCompletionTime`] if none is due at
    /// `now` (the in-service requests are left untouched in that case).
    pub fn complete(
        &mut self,
        now: SimTime,
    ) -> Result<(CompletedIo, Option<SimTime>), DriveError> {
        self.complete_traced(now, &mut NullRecorder)
    }

    /// [`DiskDrive::complete`] with event tracing (see
    /// [`DiskDrive::submit_traced`]).
    pub fn complete_traced<R: Recorder>(
        &mut self,
        now: SimTime,
        rec: &mut R,
    ) -> Result<(CompletedIo, Option<SimTime>), DriveError> {
        let Some(idx) = self.in_flight.iter().position(|f| f.done.completed == now) else {
            return Err(match self.next_completion() {
                None => DriveError::NotInService,
                Some(promised) => DriveError::WrongCompletionTime { promised, at: now },
            });
        };
        let srv = self.in_flight.swap_remove(idx);
        if let Some((lba, sectors)) = srv.install {
            self.cache.install(lba, sectors);
        }
        self.metrics.record(&srv.done);
        if R::ENABLED {
            rec.record(now, TraceEvent::Complete { req: srv.done.request.id });
        }

        let next = self.dispatch_next(now, rec)?;
        if self.in_flight.is_empty() {
            self.idle_since = now;
            if R::ENABLED {
                self.trace_mode(rec, now, PowerMode::Idle);
                for i in 0..self.arms.len() {
                    if !self.arms.is_failed(i) {
                        rec.record(now, TraceEvent::ActuatorIdle { actuator: i as u32 });
                    }
                }
            }
        }
        Ok((srv.done, next))
    }

    /// True in the technical report's relaxed overlap modes.
    fn relaxed(&self) -> bool {
        self.config.overlap != OverlapMode::SingleArmMotion
    }

    /// Traces a drive-wide power-mode change. The relaxed modes emit
    /// none: with several arms busy at once the drive has no single
    /// well-defined mode.
    fn trace_mode<R: Recorder>(&self, rec: &mut R, at: SimTime, mode: PowerMode) {
        if !self.relaxed() {
            rec.record(at, TraceEvent::PowerModeChange { mode });
        }
    }

    /// Maximum requests in service at once: the baseline services one
    /// request end-to-end (dispatching a second whose transfer must
    /// queue behind the shared channel and then re-align rotationally
    /// is a net loss, so firmware would not do it); see [`OverlapMode`]
    /// for the relaxed modes. Each media request holds its arm until it
    /// completes, so with fewer requests in service than this cap some
    /// live arm is free.
    fn max_in_flight(&self) -> usize {
        match self.config.overlap {
            OverlapMode::SingleArmMotion => 1,
            OverlapMode::MultiMotion => self.arms.live_count().min(2),
            OverlapMode::MultiChannel => self.arms.live_count(),
        }
    }

    /// Chooses and starts the next queued request, if there is one and
    /// room for it.
    // simlint: hot — the per-event SPTF dispatch loop; runs once per
    // completion for the whole simulated run.
    fn dispatch_next<R: Recorder>(
        &mut self,
        now: SimTime,
        rec: &mut R,
    ) -> Result<Option<SimTime>, DriveError> {
        if self.in_flight.len() >= self.max_in_flight() {
            return Ok(None);
        }
        self.prof.scans.bump();
        let policy = self.config.policy;
        let scaling = self.config.scaling;
        // Borrow pieces separately for the cost closure.
        let mech = &self.mech;
        let arms = &self.arms;
        let heads = self.config.heads_per_arm;
        let prof = &self.prof;
        // Positioning starts after the controller overhead; estimating
        // from `now` would systematically pick sectors that have just
        // passed the head by the time the seek is issued.
        let start = now + self.overhead;
        let cost = |t: &Target| -> SimDuration {
            prof.candidates.bump();
            match policy {
                QueuePolicy::Fcfs => SimDuration::ZERO,
                QueuePolicy::Sstf => {
                    let mut dist: Option<u32> = None;
                    for i in 0..arms.len() {
                        if !arms.is_free(i, now) {
                            continue;
                        }
                        prof.arm_visits.bump();
                        let d = arms.cylinder(i).abs_diff(t.loc().cylinder);
                        if dist.is_none_or(|best| d < best) {
                            dist = Some(d);
                        }
                    }
                    mech.seek_profile().seek_time(dist.unwrap_or(0))
                }
                QueuePolicy::Sptf => {
                    let mut best: Option<SimDuration> = None;
                    for i in 0..arms.len() {
                        if !arms.is_free(i, now) {
                            continue;
                        }
                        prof.arm_visits.bump();
                        prof.positioning_evals.bump();
                        let (s, r2) = mech.positioning_at(
                            arms.cylinder(i),
                            arms.azimuth(i),
                            heads,
                            t,
                            start,
                            scaling,
                        );
                        prof.sptf_compares.bump();
                        if best.is_none_or(|b| s + r2 < b) {
                            best = Some(s + r2);
                        }
                    }
                    best.unwrap_or(SimDuration::ZERO)
                }
            }
        };
        let Some((next, target)) = self.queue.pop_next(policy, cost) else {
            return Ok(None);
        };
        let depth = self.queue.len() as u32;
        Ok(Some(self.start_service(next, target, now, depth, rec)?))
    }

    /// Starts servicing `req`, located at `target`, at `now`; returns the
    /// completion time.
    ///
    /// `depth` is the queue depth left behind by this dispatch (0 when
    /// service starts straight from `submit`). The whole access is
    /// planned here, so the traced phase boundaries (seek, rotational
    /// wait, transfer) are emitted now with their future timestamps;
    /// the `(time, seq)` sample order restores the timeline.
    fn start_service<R: Recorder>(
        &mut self,
        req: IoRequest,
        target: Target,
        now: SimTime,
        depth: u32,
        rec: &mut R,
    ) -> Result<SimTime, DriveError> {
        let queue_wait = now.saturating_since(req.arrival);
        let overhead = self.overhead;

        // Cache check (reads only; writes are written through). A hit
        // needs no arm and no media channel.
        if req.kind.is_read() && self.cache.lookup(req.lba, req.sectors) {
            self.prof.cache_hits.bump();
            let bus = SimDuration::from_millis(
                req.sectors as f64 * diskmodel::params::SECTOR_BYTES as f64
                    / CACHE_HIT_BUS_BYTES_PER_MS,
            );
            let finish = now + overhead + bus;
            self.metrics
                .modes
                .add(DriveMode::Idle.key(), overhead);
            self.metrics.modes.add(DriveMode::Transfer.key(), bus);
            if R::ENABLED {
                rec.record(now, TraceEvent::CacheHit { req: req.id });
                self.trace_mode(rec, now + overhead, PowerMode::Transfer);
                rec.record(
                    now + overhead,
                    TraceEvent::Transfer {
                        req: req.id,
                        actuator: 0,
                        dur: bus,
                    },
                );
            }
            let done = CompletedIo {
                request: req,
                completed: finish,
                breakdown: ServiceBreakdown {
                    queue: queue_wait,
                    overhead,
                    seek: SimDuration::ZERO,
                    rotational: SimDuration::ZERO,
                    transfer: bus,
                },
                cache_hit: true,
                actuator: 0,
            };
            return Ok(self.admit(done, None));
        }

        if req.kind == IoKind::Write {
            self.cache.invalidate(req.lba, req.sectors);
        } else {
            self.prof.cache_misses.bump();
        }

        self.prof.plan_evals.bump();
        let plan = self.mech.plan_set_with_heads(
            &self.arms,
            self.config.heads_per_arm,
            target,
            req.sectors,
            PlanTimes {
                now,
                start: now + overhead,
                channel_free_at: self.channel_free_at,
            },
            self.config.scaling,
        )?;
        let finish = now + overhead + plan.total();
        // The transfer walk locates each track after the target's.
        self.prof
            .locates
            .add(u64::from(plan.segments.saturating_sub(1)));

        if R::ENABLED {
            // Capture the departure cylinder before the arm state is
            // advanced to the access's end cylinder below.
            let from_cylinder = self.arms.cylinder(plan.actuator as usize);
            let seek_start = now + overhead;
            let seek_end = seek_start + plan.seek;
            let xfer_start = seek_end + plan.rotational;
            rec.record(
                now,
                TraceEvent::Dispatched {
                    req: req.id,
                    actuator: plan.actuator,
                    depth,
                },
            );
            if req.kind.is_read() {
                rec.record(now, TraceEvent::CacheMiss { req: req.id });
            }
            self.trace_mode(rec, seek_start, PowerMode::Seek);
            rec.record(
                seek_start,
                TraceEvent::SeekStart {
                    req: req.id,
                    actuator: plan.actuator,
                    from_cylinder,
                    to_cylinder: plan.end_cylinder,
                },
            );
            rec.record(
                seek_end,
                TraceEvent::SeekEnd {
                    req: req.id,
                    actuator: plan.actuator,
                },
            );
            self.trace_mode(rec, seek_end, PowerMode::RotationalWait);
            rec.record(
                seek_end,
                TraceEvent::RotWait {
                    req: req.id,
                    actuator: plan.actuator,
                    dur: plan.rotational,
                },
            );
            self.trace_mode(rec, xfer_start, PowerMode::Transfer);
            rec.record(
                xfer_start,
                TraceEvent::Transfer {
                    req: req.id,
                    actuator: plan.actuator,
                    dur: plan.transfer,
                },
            );
        }

        self.arms.set_cylinder(plan.actuator as usize, plan.end_cylinder);
        self.arms.occupy(plan.actuator as usize, finish);
        if self.config.overlap != OverlapMode::MultiChannel {
            self.channel_free_at = finish;
        }

        // Concurrent spans may overlap in the relaxed modes; the seek
        // span adds one VCM's power per moving arm, which is what the
        // accumulator's per-mode times represent. Rotational wait
        // includes any wait for the shared channel (the head is over
        // the track, not transferring).
        self.metrics.modes.add(DriveMode::Idle.key(), overhead);
        self.metrics.modes.add(DriveMode::Seek.key(), plan.seek);
        self.metrics
            .modes
            .add(DriveMode::RotationalWait.key(), plan.rotational);
        self.metrics
            .modes
            .add(DriveMode::Transfer.key(), plan.transfer);

        let done = plan.completion(req, finish, queue_wait, overhead);
        Ok(self.admit(done, req.kind.is_read().then_some((req.lba, req.sectors))))
    }

    /// Adds a started request to the in-flight set; returns its
    /// completion time.
    fn admit(&mut self, done: CompletedIo, install: Option<(u64, u32)>) -> SimTime {
        let finish = done.completed;
        // simlint: allow(no-alloc-in-hot-path) — never reallocates: `new`
        // reserves one slot per arm and `max_in_flight` caps the set below that.
        self.in_flight.push(InFlight { done, install });
        finish
    }

    /// Closes accounting at the end of a run: the span from the last
    /// completion to `end` is idle time (the drive still burns spindle
    /// power). Call once, after the event loop drains.
    ///
    /// # Panics
    /// Panics if a request is still in service.
    pub fn finalize(&mut self, end: SimTime) {
        assert!(
            self.in_flight.is_empty(),
            "finalize with a request in service"
        );
        close_idle_span(&mut self.metrics.modes, self.idle_since, end);
        self.idle_since = end;
        self.metrics.finalize();
    }

    /// Average-power breakdown over the accounted time.
    pub fn power_breakdown(&self) -> PowerBreakdown {
        PowerBreakdown::from_modes(&self.metrics.modes, &self.power)
    }
}

/// On drop, the drive publishes its queue high-water mark to the
/// deterministic counter registry (a max, so clones re-flushing is
/// idempotent); its `DriveProfCounts` batchers flush themselves.
impl Drop for DiskDrive {
    fn drop(&mut self) {
        crate::counters::QUEUE_PEAK_DEPTH.record_max(self.queue.peak_len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diskmodel::presets;

    fn drive(n: u32) -> DiskDrive {
        DiskDrive::new(&presets::barracuda_es_750gb(), DriveConfig::sa(n))
    }

    fn run_to_completion(drive: &mut DiskDrive, reqs: Vec<IoRequest>) -> Vec<CompletedIo> {
        let mut done = Vec::new();
        let mut arrivals = reqs;
        arrivals.sort_by_key(|r| r.arrival);
        let mut ai = 0;
        // Simple two-source loop: arrivals vs completions.
        loop {
            let arrival = arrivals.get(ai).map(|r| r.arrival);
            let take_arrival = match (arrival, drive.next_completion()) {
                (None, None) => break,
                (Some(a), Some(c)) => a <= c,
                (Some(_), None) => true,
                (None, Some(_)) => false,
            };
            if take_arrival {
                let r = arrivals[ai];
                ai += 1;
                drive.submit(r, r.arrival).expect("valid submit");
            } else {
                let due = drive.next_completion().expect("completion pending");
                let (d, _) = drive.complete(due).expect("valid complete");
                done.push(d);
            }
        }
        done
    }

    const MODES: [OverlapMode; 3] = [
        OverlapMode::SingleArmMotion,
        OverlapMode::MultiMotion,
        OverlapMode::MultiChannel,
    ];

    /// Random reads with mean inter-arrival gap `mean_gap_ms`.
    fn random_reads(n: u64, mean_gap_ms: f64, seed: u64) -> Vec<IoRequest> {
        let cap = drive(1).capacity_sectors();
        let mut rng = simkit::Rng64::new(seed);
        let mut t = SimTime::ZERO;
        (0..n)
            .map(|i| {
                t += SimDuration::from_millis(rng.f64() * 2.0 * mean_gap_ms);
                IoRequest::new(i, t, rng.below(cap), 8, IoKind::Read)
            })
            .collect()
    }

    fn run_mode(mode: OverlapMode, n: u32, reqs: &[IoRequest]) -> (DiskDrive, Vec<CompletedIo>) {
        let params = presets::barracuda_es_750gb();
        let mut d = DiskDrive::new(&params, DriveConfig::sa(n).with_overlap(mode));
        let done = run_to_completion(&mut d, reqs.to_vec());
        assert_eq!(done.len(), reqs.len());
        (d, done)
    }

    fn mean_of(mode: OverlapMode, n: u32, reqs: &[IoRequest]) -> f64 {
        run_mode(mode, n, reqs).0.metrics().response_time_ms.mean()
    }

    fn scattered(n: u64, cap: u64) -> Vec<IoRequest> {
        (0..n)
            .map(|i| {
                IoRequest::new(
                    i,
                    SimTime::from_millis(i as f64 * 0.5),
                    (i * 48_271_usize as u64 * 65_537) % cap,
                    8,
                    IoKind::Read,
                )
            })
            .collect()
    }

    #[test]
    fn each_request_is_located_once_plus_once_per_extra_track() {
        // Queued and straight-started requests alike are located once,
        // and the transfer walk locates each further track it reaches.
        let params = presets::barracuda_es_750gb();
        let g = diskmodel::Geometry::new(&params);
        let mut reqs = scattered(300, g.total_sectors());
        for (i, r) in reqs.iter_mut().enumerate() {
            r.sectors = [8, 600, 3_000][i % 3];
        }
        let mut d = DiskDrive::new(&params, DriveConfig::sa(2));
        let done = run_to_completion(&mut d, reqs.clone());
        assert!(d.queue_peak() > 1, "some requests were queued");
        let extra: u64 = done
            .iter()
            .filter(|c| !c.cache_hit)
            .map(|c| {
                let walk = g.segments(g.target(c.request.lba), c.request.sectors);
                walk.count() as u64 - 1
            })
            .sum();
        assert!(extra > 0, "some transfers cross tracks");
        assert_eq!(d.prof.locates.pending(), reqs.len() as u64 + extra);
    }

    #[test]
    fn single_request_lifecycle() {
        let mut d = drive(1);
        let req = IoRequest::new(0, SimTime::ZERO, 123_456, 8, IoKind::Read);
        let finish = d
            .submit(req, SimTime::ZERO)
            .expect("valid submit")
            .expect("idle drive starts");
        assert!(finish > SimTime::ZERO);
        let (done, next) = d.complete(finish).expect("valid complete");
        assert!(next.is_none());
        assert_eq!(done.request.id, 0);
        assert!(!done.cache_hit);
        assert!(done.breakdown.rotational < SimDuration::from_millis(8.4));
        assert!(d.is_idle());
        assert_eq!(d.metrics().completed, 1);
    }

    #[test]
    fn second_read_same_block_hits_cache() {
        let mut d = drive(1);
        let r0 = IoRequest::new(0, SimTime::ZERO, 1000, 8, IoKind::Read);
        let f0 = d.submit(r0, SimTime::ZERO).unwrap().unwrap();
        let _ = d.complete(f0).unwrap();
        let r1 = IoRequest::new(1, f0, 1000, 8, IoKind::Read);
        let f1 = d.submit(r1, f0).unwrap().unwrap();
        let (done, _) = d.complete(f1).unwrap();
        assert!(done.cache_hit);
        assert!(done.breakdown.service_time() < SimDuration::from_millis(1.0));
    }

    #[test]
    fn write_then_read_misses_after_invalidate() {
        let mut d = drive(1);
        let r0 = IoRequest::new(0, SimTime::ZERO, 1000, 8, IoKind::Read);
        let f0 = d.submit(r0, SimTime::ZERO).unwrap().unwrap();
        let _ = d.complete(f0).unwrap();
        let w = IoRequest::new(1, f0, 1000, 8, IoKind::Write);
        let f1 = d.submit(w, f0).unwrap().unwrap();
        let (wd, _) = d.complete(f1).unwrap();
        assert!(!wd.cache_hit, "writes always reach media");
        let r2 = IoRequest::new(2, f1, 1000, 8, IoKind::Read);
        let f2 = d.submit(r2, f1).unwrap().unwrap();
        let (rd, _) = d.complete(f2).unwrap();
        assert!(!rd.cache_hit, "write invalidated the segment");
    }

    #[test]
    fn queued_requests_all_complete() {
        let mut d = drive(1);
        let reqs = scattered(100, d.capacity_sectors());
        let done = run_to_completion(&mut d, reqs);
        assert_eq!(done.len(), 100);
        assert_eq!(d.metrics().completed, 100);
        let mut ids: Vec<u64> = done.iter().map(|c| c.request.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn more_actuators_cut_mean_response_time() {
        let mut means = Vec::new();
        for n in [1u32, 2, 4] {
            let mut d = drive(n);
            let reqs = scattered(400, d.capacity_sectors());
            let _ = run_to_completion(&mut d, reqs);
            means.push(d.metrics().response_time_ms.mean());
        }
        assert!(means[1] < means[0], "SA(2) {} !< SA(1) {}", means[1], means[0]);
        assert!(means[2] < means[1], "SA(4) {} !< SA(2) {}", means[2], means[1]);
    }

    #[test]
    fn rotational_latency_shrinks_with_actuators() {
        // Light load (no queueing) isolates the pure multi-azimuth
        // effect: with k equally spaced assemblies and free choice the
        // expected rotational wait drops toward T/2k.
        let mut rot = Vec::new();
        for n in [1u32, 4] {
            let mut d = drive(n);
            let reqs: Vec<IoRequest> = (0..400u64)
                .map(|i| {
                    IoRequest::new(
                        i,
                        SimTime::from_millis(i as f64 * 40.0),
                        (i * 48_271 * 65_537) % d.capacity_sectors(),
                        8,
                        IoKind::Read,
                    )
                })
                .collect();
            let _ = run_to_completion(&mut d, reqs);
            rot.push(d.metrics().rotational_ms.mean());
        }
        // SA(1) sees ~T/2 ≈ 4.2 ms on average. The dispatcher minimizes
        // seek + rotation jointly, so the chosen arm's rotational wait
        // shrinks by less than the ideal 4× (the §7.2 observation that
        // SA(2) diverges from the pure (1/2)R scaling) — but it must
        // still shrink substantially.
        assert!(rot[0] > 3.0, "SA(1) rotational {} unexpectedly small", rot[0]);
        assert!(
            rot[1] < rot[0] * 0.75,
            "SA(4) rotational {} not well below SA(1) {}",
            rot[1],
            rot[0]
        );
    }

    #[test]
    fn zero_rotational_scaling_eliminates_rotational_latency() {
        let params = presets::barracuda_es_750gb();
        let cfg = DriveConfig::sa(1).with_scaling(LatencyScaling::rotational_only(0.0));
        let mut d = DiskDrive::new(&params, cfg);
        let reqs = scattered(50, d.capacity_sectors());
        let _ = run_to_completion(&mut d, reqs);
        assert_eq!(d.metrics().rotational_ms.max(), 0.0);
    }

    #[test]
    fn mode_times_cover_entire_run() {
        let mut d = drive(2);
        let reqs = scattered(50, d.capacity_sectors());
        let done = run_to_completion(&mut d, reqs);
        let end = done.iter().map(|c| c.completed).max().unwrap();
        d.finalize(end);
        let total = d.metrics().modes.total_time();
        // All wall-clock time from 0 to end is attributed to some mode.
        assert_eq!(total, end - SimTime::ZERO);
    }

    #[test]
    fn power_breakdown_within_physical_bounds() {
        let mut d = drive(2);
        let reqs = scattered(200, d.capacity_sectors());
        let done = run_to_completion(&mut d, reqs);
        let end = done.iter().map(|c| c.completed).max().unwrap();
        d.finalize(end);
        let br = d.power_breakdown();
        let pm = d.power_model();
        assert!(br.total_w() >= pm.idle_w() - 1e-9, "below idle floor");
        assert!(br.total_w() <= pm.seek_w(1) + 1e-9, "above 1-arm ceiling");
    }

    #[test]
    fn deconfigured_actuator_not_dispatched() {
        let mut d = drive(2);
        assert!(d.deconfigure_actuator(1));
        assert_eq!(d.live_actuators(), 1);
        let reqs = scattered(100, d.capacity_sectors());
        let done = run_to_completion(&mut d, reqs);
        assert!(done.iter().all(|c| c.actuator == 0));
    }

    #[test]
    fn last_actuator_cannot_be_deconfigured() {
        let mut d = drive(1);
        assert!(!d.deconfigure_actuator(0));
        assert_eq!(d.live_actuators(), 1);
        let mut d2 = drive(2);
        assert!(d2.deconfigure_actuator(0));
        assert!(!d2.deconfigure_actuator(1), "last live arm must remain");
    }

    #[test]
    fn second_head_helps_less_than_second_assembly() {
        // D1A1S1H2 cuts only a slice of the rotational latency (heads
        // on one arm sit ~45 degrees apart); D1A2S1H1 shortens seeks
        // and rotation. Expected ordering at light load:
        //   conventional >= H2 >= A2.
        let params = presets::barracuda_es_750gb();
        let reqs: Vec<IoRequest> = (0..300u64)
            .map(|i| {
                IoRequest::new(
                    i,
                    SimTime::from_millis(i as f64 * 40.0),
                    (i * 48_271 * 65_537) % 1_400_000_000,
                    8,
                    IoKind::Read,
                )
            })
            .collect();
        let mean = |cfg: DriveConfig| {
            let mut d = DiskDrive::new(&params, cfg);
            let _ = run_to_completion(&mut d, reqs.clone());
            d.metrics().response_time_ms.mean()
        };
        let conventional = mean(DriveConfig::conventional());
        let h2 = mean(DriveConfig::dash(1, 2));
        let a2 = mean(DriveConfig::sa(2));
        assert!(h2 < conventional, "H2 {h2} vs conventional {conventional}");
        assert!(a2 <= h2 * 1.02, "A2 {a2} vs H2 {h2}");
    }

    #[test]
    fn fcfs_orders_by_arrival() {
        let params = presets::barracuda_es_750gb();
        let mut d = DiskDrive::new(&params, DriveConfig::sa(1).with_policy(QueuePolicy::Fcfs));
        let reqs = scattered(20, d.capacity_sectors());
        let done = run_to_completion(&mut d, reqs);
        let ids: Vec<u64> = done.iter().map(|c| c.request.id).collect();
        assert_eq!(ids, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn sptf_beats_fcfs_under_load() {
        let params = presets::barracuda_es_750gb();
        let mut means = Vec::new();
        for policy in [QueuePolicy::Fcfs, QueuePolicy::Sptf] {
            let mut d = DiskDrive::new(&params, DriveConfig::sa(1).with_policy(policy));
            // Heavy burst: all arrive at time zero.
            let reqs: Vec<IoRequest> = (0..300)
                .map(|i| {
                    IoRequest::new(
                        i,
                        SimTime::ZERO,
                        (i * 321_456_789) % d.capacity_sectors(),
                        8,
                        IoKind::Read,
                    )
                })
                .collect();
            let _ = run_to_completion(&mut d, reqs);
            means.push(d.metrics().response_time_ms.mean());
        }
        assert!(means[1] < means[0], "SPTF {} !< FCFS {}", means[1], means[0]);
    }

    #[test]
    fn out_of_range_lba_wraps() {
        let mut d = drive(1);
        let cap = d.capacity_sectors();
        let req = IoRequest::new(0, SimTime::ZERO, cap + 5, 8, IoKind::Read);
        let f = d.submit(req, SimTime::ZERO).unwrap().unwrap();
        let (done, _) = d.complete(f).unwrap();
        assert_eq!(done.request.lba, 5);
    }

    #[test]
    fn complete_when_idle_is_typed_error() {
        let err = drive(1).complete(SimTime::ZERO).unwrap_err();
        assert_eq!(err, DriveError::NotInService);
    }

    #[test]
    fn complete_at_wrong_time_is_typed_error_and_recoverable() {
        for mode in MODES {
            let params = presets::barracuda_es_750gb();
            let mut d = DiskDrive::new(&params, DriveConfig::sa(2).with_overlap(mode));
            let req = IoRequest::new(0, SimTime::ZERO, 123_456, 8, IoKind::Read);
            let finish = d.submit(req, SimTime::ZERO).unwrap().unwrap();
            let early = SimTime::from_millis(finish.as_millis() / 2.0);
            let err = d.complete(early).unwrap_err();
            assert_eq!(
                err,
                DriveError::WrongCompletionTime {
                    promised: finish,
                    at: early
                },
                "{mode:?}"
            );
            // The request stays in service; completing at the right time works.
            let (done, _) = d.complete(finish).unwrap();
            assert_eq!(done.request.id, 0);
            assert_eq!(d.complete(finish).unwrap_err(), DriveError::NotInService);
        }
    }

    #[test]
    fn submit_before_arrival_is_typed_error() {
        for mode in MODES {
            let params = presets::barracuda_es_750gb();
            let mut d = DiskDrive::new(&params, DriveConfig::sa(2).with_overlap(mode));
            let req = IoRequest::new(0, SimTime::from_millis(5.0), 64, 8, IoKind::Read);
            let err = d.submit(req, SimTime::ZERO).unwrap_err();
            assert!(matches!(err, DriveError::SubmitBeforeArrival { .. }), "{mode:?}");
            assert!(d.is_idle(), "rejected request must not enter the queue");
        }
    }

    #[test]
    fn all_modes_complete_everything() {
        let reqs = random_reads(500, 3.0, 1);
        for mode in MODES {
            let (d, done) = run_mode(mode, 4, &reqs);
            let mut ids: Vec<u64> = done.iter().map(|c| c.request.id).collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..500).collect::<Vec<_>>(), "{mode:?}");
            assert!(d.is_idle());
        }
    }

    #[test]
    fn relaxations_ordering_under_load() {
        let reqs = random_reads(800, 2.0, 2);
        let base = mean_of(OverlapMode::SingleArmMotion, 4, &reqs);
        let motion = mean_of(OverlapMode::MultiMotion, 4, &reqs);
        let channel = mean_of(OverlapMode::MultiChannel, 4, &reqs);
        // Per-arm channels are a strict superset of capability.
        assert!(channel <= motion, "multi-channel {channel} vs multi-motion {motion}");
        assert!(channel <= base, "multi-channel {channel} vs base {base}");
        // Position-ahead pipelining must stay within a whisker of the
        // baseline even when the shared channel limits it.
        assert!(motion <= base * 1.15, "multi-motion {motion} vs base {base}");
    }

    #[test]
    fn relaxations_provide_little_benefit_when_sa_meets_demand() {
        // The TR's finding: at intensities HC-SD-SA(n) can already
        // sustain, the extensions buy little (response is dominated by
        // one request's own positioning either way). Under saturation
        // the extra concurrency does help — which is why the assertion
        // is made at a sustainable load.
        let reqs = random_reads(1_500, 12.0, 3);
        let base = mean_of(OverlapMode::SingleArmMotion, 4, &reqs);
        let channel = mean_of(OverlapMode::MultiChannel, 4, &reqs);
        assert!(
            channel > base * 0.6,
            "extensions should buy little at sustainable load: {channel} vs {base}"
        );
        assert!(channel <= base * 1.02, "but they must not hurt");
    }

    #[test]
    fn single_actuator_modes_equivalent() {
        // With one arm there is nothing to overlap; all modes coincide,
        // record for record.
        let reqs = random_reads(400, 4.0, 4);
        let (_, base) = run_mode(OverlapMode::SingleArmMotion, 1, &reqs);
        for mode in [OverlapMode::MultiMotion, OverlapMode::MultiChannel] {
            let (_, other) = run_mode(mode, 1, &reqs);
            assert_eq!(base, other, "{mode:?}");
        }
    }

    #[test]
    fn is_idle_reflects_state() {
        let params = presets::barracuda_es_750gb();
        let mut d = DiskDrive::new(&params, DriveConfig::sa(2).with_overlap(OverlapMode::MultiMotion));
        let r0 = IoRequest::new(0, SimTime::ZERO, 1000, 8, IoKind::Read);
        let r1 = IoRequest::new(1, SimTime::ZERO, 900_000_000, 8, IoKind::Read);
        let r2 = IoRequest::new(2, SimTime::ZERO, 5_000_000, 8, IoKind::Read);
        assert!(d.submit(r0, SimTime::ZERO).unwrap().is_some());
        assert!(d.submit(r1, SimTime::ZERO).unwrap().is_some(), "second arm starts at once");
        assert!(d.submit(r2, SimTime::ZERO).unwrap().is_none(), "third request waits");
        assert_eq!(d.queue_len(), 1);
        assert!(!d.is_idle());
        let mut done = Vec::new();
        while let Some(t) = d.next_completion() {
            done.push(d.complete(t).unwrap().0);
        }
        assert_eq!(done.len(), 3);
        assert!(d.is_idle());
        assert_ne!(done[0].actuator, done[1].actuator);
    }

    #[test]
    fn submit_and_complete_start_at_most_one_request_each() {
        // Saturating MultiChannel load with repeated LBAs, so cache hits
        // (which hold no arm) share the in-flight set with media accesses.
        let params = presets::barracuda_es_750gb();
        let mut d = DiskDrive::new(&params, DriveConfig::sa(4).with_overlap(OverlapMode::MultiChannel));
        let cap = d.max_in_flight();
        let mut rng = simkit::Rng64::new(9);
        let mut t = SimTime::ZERO;
        let reqs: Vec<IoRequest> = (0..2_000u64)
            .map(|i| {
                t += SimDuration::from_millis(rng.f64() * 2.0);
                let lba = if rng.chance(0.4) { 4096 * rng.below(16) } else { rng.below(1_400_000_000) };
                IoRequest::new(i, t, lba, 8, IoKind::Read)
            })
            .collect();
        let (mut ai, mut completed) = (0, 0);
        loop {
            let arrival = reqs.get(ai).map(|r| r.arrival);
            let take_arrival = match (arrival, d.next_completion()) {
                (None, None) => break,
                (Some(a), Some(c)) => a <= c,
                (Some(_), None) => true,
                (None, Some(_)) => false,
            };
            let (flying, queued) = (d.in_flight.len(), d.queue_len());
            if take_arrival {
                let r = reqs[ai];
                ai += 1;
                match d.submit(r, r.arrival).unwrap() {
                    Some(_) => assert_eq!((d.in_flight.len(), d.queue_len()), (flying + 1, queued)),
                    None => assert_eq!((d.in_flight.len(), d.queue_len()), (flying, queued + 1)),
                }
            } else {
                let now = d.next_completion().unwrap();
                let (done, next) = d.complete(now).unwrap();
                completed += 1;
                assert_eq!(done.completed, now);
                assert_eq!(d.metrics().completed, completed);
                let started = usize::from(next.is_some());
                assert_eq!(d.in_flight.len(), flying - 1 + started);
                assert_eq!(d.queue_len(), queued - started);
            }
            assert!(d.queue_len() == 0 || d.in_flight.len() == cap, "queue holds work below the cap");
        }
        assert_eq!(completed, 2_000);
        assert!(d.metrics().cache_hits > 100, "cache hits {}", d.metrics().cache_hits);
        assert!(d.queue_peak() > 10, "load did not saturate");
    }
}
