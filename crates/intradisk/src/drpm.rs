//! A DRPM baseline: dynamic-RPM power management on a conventional
//! drive (Gurumurthi et al. \[11\], the related work of §5).
//!
//! DRPM attacks the same problem as intra-disk parallelism — server
//! storage power — from the opposite side: instead of adding mechanical
//! parallelism so fewer/slower drives meet the performance goal, it
//! *modulates* a conventional drive's spindle speed with load, saving
//! spindle power (∝ RPM^2.8) during lulls at the cost of slower service
//! and speed-transition delays.
//!
//! [`DrpmDrive`] models a two-speed drive: it services requests at
//! full or low RPM, lazily downshifting after a configurable idle
//! period and upshifting (paying a transition delay) when the queue
//! depth crosses a threshold. Energy is integrated directly
//! (speed-dependent idle power levels don't fit the four-mode breakdown
//! of the stacked bars). Like [`crate::DiskDrive`] it is a passive
//! state machine; `experiments::runner::run` drives it from the same
//! event loop as every other device.
//!
//! The `experiments::extensions` module compares this baseline against
//! a fixed low-RPM intra-disk parallel drive on the paper's workloads.

use diskmodel::{DiskParams, DriveError, PowerModel, Target};
use simkit::{ResponseStats, SimDuration, SimTime};
use telemetry::Recorder;

use crate::device::Device;
use crate::request::{CompletedIo, IoRequest};
use crate::sched::{PendingQueue, QueuePolicy, DEFAULT_WINDOW};
use crate::service::{ArmSet, LatencyScaling, Mechanics, PlanTimes};

/// Configuration of the DRPM policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrpmConfig {
    /// Reduced spindle speed.
    pub low_rpm: u32,
    /// Idle time after which the spindle downshifts.
    pub spin_down_after: SimDuration,
    /// Queue depth that triggers an upshift back to full speed.
    pub upshift_queue: usize,
    /// Time to move between the two speeds.
    pub transition: SimDuration,
}

impl DrpmConfig {
    /// The configuration used by the extension study: 7200 → 4200 RPM,
    /// 2 s spin-down, upshift at queue depth 4, 1.5 s transitions.
    pub fn typical() -> Self {
        DrpmConfig {
            low_rpm: 4_200,
            spin_down_after: SimDuration::from_secs(2.0),
            upshift_queue: 4,
            transition: SimDuration::from_secs(1.5),
        }
    }
}

/// Results of a DRPM run.
#[derive(Debug, Clone)]
pub struct DrpmResult {
    /// Response times, ms.
    pub response_time_ms: ResponseStats,
    /// Completed requests.
    pub completed: u64,
    /// Total energy, joules.
    pub energy_j: f64,
    /// Run duration.
    pub duration: SimDuration,
    /// Fraction of wall-clock time spent at the low speed.
    pub low_speed_fraction: f64,
    /// Number of upshift transitions paid.
    pub upshifts: u64,
}

impl DrpmResult {
    /// Average power over the run, W.
    pub fn average_power_w(&self) -> f64 {
        if self.duration.is_zero() {
            0.0
        } else {
            self.energy_j / self.duration.as_secs()
        }
    }
}

#[derive(Debug, Clone)]
struct Speed {
    mech: Mechanics,
    power: PowerModel,
}

/// A two-speed DRPM drive as a passive event-driven state machine.
///
/// The drive services one request at a time with SPTF over a bounded
/// window (like [`crate::DiskDrive`]) but may be in the low-speed state
/// when a request arrives; it upshifts — paying the transition — only
/// when the queue reaches the configured depth. An idle drive decides
/// at the instant a request arrives; since the [`Device`] owner submits
/// an arrival before an event at the same instant, every simultaneous
/// arrival is queued before SPTF and the upshift check run.
#[derive(Debug, Clone)]
pub struct DrpmDrive {
    config: DrpmConfig,
    full: Speed,
    low: Speed,
    arm: ArmSet,
    queue: PendingQueue,
    overhead: SimDuration,
    response: ResponseStats,
    energy_j: f64,
    low_time: SimDuration,
    upshifts: u64,
    at_low: bool,
    /// When the drive last went idle (nothing queued or in service).
    idle_since: SimTime,
    /// The next decision instant; `None` while idle.
    next: Option<SimTime>,
    /// The request in service, completing at `next`.
    in_service: Option<CompletedIo>,
}

impl DrpmDrive {
    /// Builds an idle drive at full speed.
    ///
    /// # Errors
    /// [`DriveError::InvalidConfig`] unless `0 < config.low_rpm <
    /// params.rpm()`.
    pub fn new(params: &DiskParams, config: DrpmConfig) -> Result<Self, DriveError> {
        if config.low_rpm == 0 || config.low_rpm >= params.rpm() {
            return Err(DriveError::InvalidConfig {
                reason: "DRPM low_rpm must lie strictly between 0 and the full speed",
            });
        }
        let full = Speed {
            mech: Mechanics::new(params),
            power: PowerModel::new(params),
        };
        let low_params = params.with_rpm(config.low_rpm);
        let low = Speed {
            mech: Mechanics::new(&low_params),
            power: PowerModel::new(&low_params),
        };
        Ok(DrpmDrive {
            config,
            arm: ArmSet::from_arms(&full.mech.default_arms(1)),
            full,
            low,
            queue: PendingQueue::with_window(DEFAULT_WINDOW),
            overhead: params.controller_overhead(),
            response: ResponseStats::exact(),
            energy_j: 0.0,
            low_time: SimDuration::ZERO,
            upshifts: 0,
            at_low: false,
            idle_since: SimTime::ZERO,
            next: None,
            in_service: None,
        })
    }

    fn charge(&mut self, power_w: f64, dt: SimDuration) {
        self.energy_j += power_w * dt.as_secs();
    }

    fn decide(&mut self, now: SimTime) -> Result<(), DriveError> {
        if self.at_low && !self.queue.is_empty() && self.queue.len() >= self.config.upshift_queue {
            self.charge(self.full.power.seek_w(0), self.config.transition);
            self.at_low = false;
            self.upshifts += 1;
            // Arrivals during the transition queue up before the
            // next decision.
            self.next = Some(now + self.config.transition);
            return Ok(());
        }
        let at_low = self.at_low;
        let speed = if at_low { &self.low } else { &self.full };
        let start = now + self.overhead;
        let mech = &speed.mech;
        // Queued targets were located at full speed. Track skew, and so
        // every sector angle, depends on the spindle speed, so at low
        // speed each is located again with the low-speed geometry.
        let aim = |t: &Target| {
            if at_low {
                mech.geometry().target(t.lba())
            } else {
                *t
            }
        };
        let (cylinder, azimuth) = (self.arm.cylinder(0), self.arm.azimuth(0));
        let cost = |t: &Target| {
            let (s, rot) =
                mech.positioning_at(cylinder, azimuth, 1, &aim(t), start, LatencyScaling::none());
            s + rot
        };
        let Some((req, target)) = self.queue.pop_next(QueuePolicy::Sptf, cost) else {
            self.idle_since = now;
            self.next = None;
            return Ok(());
        };
        let plan = mech.plan_set_with_heads(
            &self.arm,
            1,
            aim(&target),
            req.sectors,
            PlanTimes::at(start),
            LatencyScaling::none(),
        )?;
        let finish = start + plan.total();
        // Energy: overhead+rotation at idle level, seek with VCM,
        // transfer with channel. Reads and writes cost alike.
        let p = &speed.power;
        let (idle_w, seek_w, transfer_w) = (p.idle_w(), p.seek_w(1), p.transfer_w());
        self.charge(idle_w, self.overhead + plan.rotational);
        self.charge(seek_w, plan.seek);
        self.charge(transfer_w, plan.transfer);
        if self.at_low {
            self.low_time += finish - now;
        }
        self.arm.set_cylinder(0, plan.end_cylinder);
        self.response.record((finish - req.arrival).as_millis());
        let queue = now.saturating_since(req.arrival);
        self.in_service = Some(plan.completion(req, finish, queue, self.overhead));
        self.next = Some(finish);
        Ok(())
    }
}

impl Device for DrpmDrive {
    type Done = CompletedIo;
    type Output = DrpmResult;

    /// The next decision: a service completion, the end of a speed
    /// transition, or the first decision after going idle.
    fn next_event(&self) -> Option<SimTime> {
        self.next
    }

    /// Queues a request. An idle drive first charges the idle gap,
    /// downshifting lazily once it exceeds the spin-down period, and
    /// decides at the arrival instant.
    fn submit<R: Recorder>(&mut self, req: IoRequest, _rec: &mut R) -> Result<(), DriveError> {
        if self.next.is_none() {
            let gap = req.arrival.saturating_since(self.idle_since);
            let (full_w, low_w) = (self.full.power.idle_w(), self.low.power.idle_w());
            let spin_down = self.config.spin_down_after;
            if !self.at_low && gap >= spin_down {
                self.charge(full_w, spin_down);
                self.charge(low_w, gap - spin_down);
                self.low_time += gap - spin_down;
                self.at_low = true;
            } else if self.at_low {
                self.charge(low_w, gap);
                self.low_time += gap;
            } else {
                self.charge(full_w, gap);
            }
            self.next = Some(req.arrival);
        }
        let full = self.full.mech.geometry();
        self.queue
            .push(req, full.target(req.lba % full.total_sectors()));
        Ok(())
    }

    /// Completes the request in service (returned), then upshifts,
    /// starts the next request, or goes idle.
    fn advance<R: Recorder>(
        &mut self,
        now: SimTime,
        _rec: &mut R,
    ) -> Result<Option<CompletedIo>, DriveError> {
        let promised = self.next.ok_or(DriveError::NotInService)?;
        if promised != now {
            return Err(DriveError::WrongCompletionTime { promised, at: now });
        }
        let done = self.in_service.take();
        self.decide(now)?;
        Ok(done)
    }

    fn finish(self, end: SimTime) -> DrpmResult {
        let duration = end.saturating_since(SimTime::ZERO);
        DrpmResult {
            completed: self.response.count() as u64,
            response_time_ms: self.response,
            energy_j: self.energy_j,
            duration,
            low_speed_fraction: if duration.is_zero() {
                0.0
            } else {
                self.low_time.as_millis() / duration.as_millis()
            },
            upshifts: self.upshifts,
        }
    }
}
