//! A MAID baseline: Massive Array of Idle Disks (Colarelli & Grunwald
//! \[6\], the related work of §5).
//!
//! MAID saves array power by spinning member disks all the way down
//! after an idle timeout; a request to a sleeping disk pays a multi-
//! second spin-up. It shines for archival access patterns (most disks
//! cold most of the time) and hurts latency-sensitive ones — the
//! opposite trade to intra-disk parallelism, which keeps one spindle
//! hot and removes drives instead.
//!
//! [`MaidArray`] simulates a concatenated array (MAID systems do not
//! stripe — striping would wake every disk) with a per-disk spin state
//! machine and explicit energy integration. It is a passive state
//! machine; `experiments::runner::run` drives it from the same event
//! loop as every other device.

use diskmodel::{DiskParams, DriveError, PowerModel};
use intradisk::service::{ArmSet, LatencyScaling, Mechanics, PlanTimes};
use intradisk::{CompletedIo, Device, IoRequest};
use simkit::{EventQueue, ResponseStats, SimDuration, SimTime};
use telemetry::Recorder;

/// MAID spin-down policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaidConfig {
    /// Idle time after which a member spins down.
    pub spin_down_after: SimDuration,
    /// Time to spin a member back up.
    pub spin_up: SimDuration,
    /// Power drawn by a sleeping member (electronics only), W.
    pub standby_w: f64,
    /// Multiplier on idle power while spinning up (the motor works
    /// hardest then).
    pub spin_up_power_factor: f64,
}

impl MaidConfig {
    /// Typical archival-store settings: 30 s timeout, 6 s spin-up,
    /// 1 W standby, 2× idle power during spin-up.
    pub fn typical() -> Self {
        MaidConfig {
            spin_down_after: SimDuration::from_secs(30.0),
            spin_up: SimDuration::from_secs(6.0),
            standby_w: 1.0,
            spin_up_power_factor: 2.0,
        }
    }
}

/// Results of a MAID run.
#[derive(Debug, Clone)]
pub struct MaidResult {
    /// Logical response times, ms.
    pub response_time_ms: ResponseStats,
    /// Completed requests.
    pub completed: u64,
    /// Total energy, joules.
    pub energy_j: f64,
    /// Run duration.
    pub duration: SimDuration,
    /// Fraction of aggregate disk-time spent spun down.
    pub standby_fraction: f64,
    /// Spin-up events paid.
    pub spin_ups: u64,
}

impl MaidResult {
    /// Average array power over the run, W.
    pub fn average_power_w(&self) -> f64 {
        if self.duration.is_zero() {
            0.0
        } else {
            self.energy_j / self.duration.as_secs()
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Spin {
    /// Spinning, idle or serving; field is when it last went idle.
    Active { idle_since: SimTime },
    /// Spun down at the given time.
    Standby { since: SimTime },
}

#[derive(Debug, Clone)]
struct Member {
    mech: Mechanics,
    arm: ArmSet,
    spin: Spin,
    /// Drive is busy (serving or spinning up) until this instant.
    busy_until: SimTime,
    energy_j: f64,
    standby_time: SimDuration,
}

/// A MAID array as a passive event-driven state machine.
///
/// The logical space is the concatenation of the members; each request
/// touches exactly one member (requests are clamped to one disk: MAID
/// stores whole objects per disk). Members are independent under
/// concatenation, so [`Device::submit`] plans each request on its
/// member at arrival and [`Device::advance`] delivers the planned
/// completions in time order.
#[derive(Debug)]
pub struct MaidArray {
    config: MaidConfig,
    power: PowerModel,
    overhead: SimDuration,
    members: Vec<Member>,
    per_disk: u64,
    /// Planned completions not yet delivered.
    done: EventQueue<CompletedIo>,
    response: ResponseStats,
    spin_ups: u64,
}

impl MaidArray {
    /// Builds an array of `disks` spinning, idle members of model
    /// `params`.
    ///
    /// # Errors
    /// [`DriveError::InvalidConfig`] if `disks` is zero.
    pub fn new(params: &DiskParams, config: MaidConfig, disks: usize) -> Result<Self, DriveError> {
        if disks == 0 {
            return Err(DriveError::InvalidConfig {
                reason: "a MAID array needs at least one disk",
            });
        }
        let members: Vec<Member> = (0..disks)
            .map(|_| {
                let mech = Mechanics::new(params);
                let arm = ArmSet::from_arms(&mech.default_arms(1));
                Member {
                    mech,
                    arm,
                    spin: Spin::Active {
                        idle_since: SimTime::ZERO,
                    },
                    busy_until: SimTime::ZERO,
                    energy_j: 0.0,
                    standby_time: SimDuration::ZERO,
                }
            })
            .collect();
        Ok(MaidArray {
            config,
            power: PowerModel::new(params),
            overhead: params.controller_overhead(),
            per_disk: members[0].mech.geometry().total_sectors(),
            members,
            done: EventQueue::new(),
            response: ResponseStats::exact(),
            spin_ups: 0,
        })
    }
}

impl Device for MaidArray {
    type Done = CompletedIo;
    type Output = MaidResult;

    /// The earliest planned completion not yet delivered.
    fn next_event(&self) -> Option<SimTime> {
        self.done.peek_time()
    }

    /// Plans `req` on its member at arrival, paying the spin-up if the
    /// member sleeps.
    fn submit<R: Recorder>(&mut self, req: IoRequest, _rec: &mut R) -> Result<(), DriveError> {
        let config = &self.config;
        let idle_w = self.power.idle_w();
        let lba = req.lba % (self.per_disk * self.members.len() as u64);
        let m = &mut self.members[(lba / self.per_disk) as usize];
        let local_lba = lba % self.per_disk;
        let now = req.arrival;

        // Lazily account the member's state up to `now`.
        let free_at = m.busy_until.max(now);
        if let Spin::Active { idle_since } = m.spin {
            // Did it spin down while idle before this arrival?
            if m.busy_until <= now {
                let idle_from = idle_since.max(m.busy_until);
                if now.saturating_since(idle_from) >= config.spin_down_after {
                    let down_at = idle_from + config.spin_down_after;
                    m.energy_j += idle_w * (down_at.saturating_since(idle_from)).as_secs();
                    m.spin = Spin::Standby { since: down_at };
                }
            }
        }

        let start = match m.spin {
            Spin::Standby { since } => {
                // Pay standby until now, then spin up.
                m.energy_j += config.standby_w * now.saturating_since(since).as_secs();
                m.standby_time += now.saturating_since(since);
                m.energy_j += idle_w * config.spin_up_power_factor * config.spin_up.as_secs();
                self.spin_ups += 1;
                m.spin = Spin::Active {
                    idle_since: now + config.spin_up,
                };
                now + config.spin_up
            }
            Spin::Active { idle_since } => {
                // Idle energy from last activity to service start.
                let idle_from = idle_since.max(m.busy_until.min(now));
                m.energy_j += idle_w * free_at.saturating_since(idle_from).as_secs();
                free_at
            }
        };

        // Serve one request at a time per member: arrivals are in
        // order, so `busy_until` alone serializes back-to-back
        // requests.
        let plan = m.mech.plan_set_with_heads(
            &m.arm,
            1,
            local_lba,
            req.sectors,
            PlanTimes::at(start + self.overhead),
            LatencyScaling::none(),
        )?;
        let finish = start + self.overhead + plan.total();
        m.energy_j += idle_w * (self.overhead + plan.rotational).as_secs();
        m.energy_j += self.power.seek_w(1) * plan.seek.as_secs();
        m.energy_j += self.power.transfer_w() * plan.transfer.as_secs();
        m.arm.set_cylinder(0, plan.end_cylinder);
        m.busy_until = finish;
        m.spin = Spin::Active { idle_since: finish };
        self.response
            .record(finish.saturating_since(req.arrival).as_millis());
        let queue = start.saturating_since(req.arrival);
        self.done
            .push(finish, plan.completion(req, finish, queue, self.overhead));
        Ok(())
    }

    /// Delivers the earliest planned completion.
    fn advance<R: Recorder>(
        &mut self,
        _now: SimTime,
        _rec: &mut R,
    ) -> Result<Option<CompletedIo>, DriveError> {
        let e = self.done.pop().ok_or(DriveError::NotInService)?;
        Ok(Some(e.payload))
    }

    /// Closes every member out to `end` (the last completion).
    fn finish(mut self, end: SimTime) -> MaidResult {
        let config = self.config;
        let idle_w = self.power.idle_w();
        let mut energy = 0.0;
        let mut standby = SimDuration::ZERO;
        for m in &mut self.members {
            match m.spin {
                Spin::Standby { since } => {
                    m.energy_j += config.standby_w * end.saturating_since(since).as_secs();
                    m.standby_time += end.saturating_since(since);
                }
                Spin::Active { idle_since } => {
                    let idle_from = idle_since.min(end);
                    let gap = end.saturating_since(idle_from);
                    if gap >= config.spin_down_after {
                        let down_at = idle_from + config.spin_down_after;
                        m.energy_j += idle_w * config.spin_down_after.as_secs();
                        m.energy_j += config.standby_w * end.saturating_since(down_at).as_secs();
                        m.standby_time += end.saturating_since(down_at);
                    } else {
                        m.energy_j += idle_w * gap.as_secs();
                    }
                }
            }
            energy += m.energy_j;
            standby += m.standby_time;
        }

        let duration = end.saturating_since(SimTime::ZERO);
        let aggregate = duration.as_millis() * self.members.len() as f64;
        MaidResult {
            completed: self.response.count() as u64,
            response_time_ms: self.response,
            energy_j: energy,
            duration,
            standby_fraction: if aggregate <= 0.0 {
                0.0
            } else {
                standby.as_millis() / aggregate
            },
            spin_ups: self.spin_ups,
        }
    }
}
