//! The two replay workloads: one HC-SD-SA(4) drive (`hcsd_sa4`) and the
//! four Table 2 arrays (`md_arrays`).
//!
//! Both loops mirror `experiments::run_drive` / `run_array` call for
//! call, so the simulated output is the runners', but every call into
//! `workload`, `intradisk`, `array` and `simkit` goes through
//! [`Spans`]. Each completion is checked as it happens: every request
//! completes exactly once, and on the drive every completion's response
//! time equals its breakdown's sum to the nanosecond.

use std::fmt::Write as _;
use std::time::Instant;

use array::ArrayController;
use experiments::configs::{hcsd_params, md_config};
use intradisk::{DiskDrive, DriveConfig};
use simkit::{EventQueue, SimTime, StatsMode};
use workload::{
    profile_for, CountingSource, ProfileSource, RequestSource, SynthSource, SyntheticSpec,
    WorkloadKind,
};

use crate::harness::{Unit, Workload};
use crate::spans::{Call, Spans};

/// Marks request ids as they complete: each id in `0..n` exactly once.
#[derive(Debug)]
struct Ledger {
    seen: Vec<bool>,
    completed: u64,
    violations: u64,
}

impl Ledger {
    fn new(n: usize) -> Self {
        Ledger {
            seen: vec![false; n],
            completed: 0,
            violations: 0,
        }
    }

    fn complete(&mut self, id: u64) {
        self.completed += 1;
        match self.seen.get_mut(id as usize) {
            Some(s) if !*s => *s = true,
            _ => self.violations += 1,
        }
    }

    /// Completed equals attempted, and nothing was left out.
    fn close(&mut self, attempted: u64) {
        if self.completed != attempted || self.completed != self.seen.len() as u64 {
            self.violations += 1;
        }
    }
}

/// `completed`, simulated mean and p90 (ms) and energy (J), printed
/// with every digit.
fn digest_line(
    out: &mut String,
    name: &str,
    completed: u64,
    mean_ms: f64,
    p90_ms: f64,
    energy_j: f64,
) {
    let _ = writeln!(
        out,
        "{name} completed={completed} mean_ms={mean_ms:?} p90_ms={p90_ms:?} energy_j={energy_j:?}"
    );
}

/// One HC-SD-SA(4) Barracuda ES under the §7.3 synthetic workload.
#[derive(Debug)]
pub struct HcsdSa4 {
    /// Requests per replay.
    pub requests: usize,
    /// Workload seed.
    pub seed: u64,
}

/// A fresh drive, its source and its ledger.
#[derive(Debug)]
pub struct DriveState {
    drive: DiskDrive,
    source: CountingSource<SynthSource>,
    ledger: Ledger,
}

impl Workload for HcsdSa4 {
    type State = DriveState;

    fn setup(&self) -> Result<DriveState, String> {
        let params = hcsd_params();
        let spec = SyntheticSpec::paper(6.0, params.capacity_sectors(), self.requests);
        Ok(DriveState {
            drive: DiskDrive::new(
                &params,
                DriveConfig::sa(4).with_stats_mode(StatsMode::Streaming),
            ),
            source: CountingSource::new(spec.source(self.seed)),
            ledger: Ledger::new(self.requests),
        })
    }

    fn run<S: Spans>(&self, state: DriveState, spans: &mut S) -> Result<Unit, String> {
        let DriveState {
            mut drive,
            mut source,
            mut ledger,
        } = state;
        let t = Instant::now();
        let mut attempted = 0u64;
        let mut completion: Option<SimTime> = None;
        let mut end = SimTime::ZERO;
        let mut pending = spans.span(Call::Pull, || source.next_request());
        loop {
            let take_arrival = match (pending.map(|r| r.arrival), completion) {
                (None, None) => break,
                (Some(a), Some(c)) => a <= c,
                (Some(_), None) => true,
                (None, Some(_)) => false,
            };
            if let (true, Some(r)) = (take_arrival, pending) {
                pending = spans.span(Call::Pull, || source.next_request());
                attempted += 1;
                end = end.max(r.arrival);
                let started = spans
                    .span(Call::DriveSubmit, || drive.submit(r, r.arrival))
                    .map_err(|e| e.to_string())?;
                if started.is_some() {
                    completion = started;
                }
            } else if let Some(c) = completion {
                let (done, next) = spans
                    .span(Call::DriveComplete, || drive.complete(c))
                    .map_err(|e| e.to_string())?;
                if done.response_time() != done.breakdown.response_time() {
                    ledger.violations += 1;
                }
                ledger.complete(done.request.id);
                end = end.max(done.completed);
                completion = next;
            }
        }
        drive.finalize(end);
        let wall_s = t.elapsed().as_secs_f64();
        ledger.close(attempted);

        let m = drive.metrics();
        let power_w = drive.power_breakdown().total_w();
        let mut digest = String::new();
        digest_line(
            &mut digest,
            "HC-SD-SA(4)",
            m.completed,
            m.response_time_ms.mean(),
            m.response_time_ms.percentile(90.0),
            power_w * end.saturating_since(SimTime::ZERO).as_secs(),
        );
        Ok(Unit {
            wall_s,
            requests: ledger.completed,
            point_s: vec![wall_s],
            digest,
            // Per completion: exactly-once and the response-time identity.
            checks: 2 * ledger.completed + 1,
            violations: ledger.violations,
            ..Unit::default()
        })
    }
}

/// The four Table 2 MD arrays, each under its calibrated profile.
#[derive(Debug)]
pub struct MdArrays {
    /// Requests per array replay.
    pub requests: usize,
    /// Workload seed.
    pub seed: u64,
}

/// One array ready to replay.
#[derive(Debug)]
pub struct ArrayState {
    kind: WorkloadKind,
    array: ArrayController,
    events: EventQueue<usize>,
    source: CountingSource<ProfileSource>,
    ledger: Ledger,
}

impl Workload for MdArrays {
    type State = Vec<ArrayState>;

    fn setup(&self) -> Result<Vec<ArrayState>, String> {
        Ok(WorkloadKind::ALL
            .iter()
            .map(|&kind| {
                let md = md_config(kind);
                let member = DriveConfig::conventional().with_stats_mode(StatsMode::Streaming);
                ArrayState {
                    kind,
                    array: ArrayController::new(&md.drive, member, md.disks, md.layout),
                    events: EventQueue::with_capacity(64),
                    source: CountingSource::new(profile_for(kind).source(self.requests, self.seed)),
                    ledger: Ledger::new(self.requests),
                }
            })
            .collect())
    }

    fn run<S: Spans>(&self, arrays: Vec<ArrayState>, spans: &mut S) -> Result<Unit, String> {
        let mut unit = Unit::default();
        for state in arrays {
            let (secs, completed, violations) = replay_array(state, spans, &mut unit.digest)?;
            unit.wall_s += secs;
            unit.point_s.push(secs);
            unit.requests += completed;
            unit.checks += completed + 1;
            unit.violations += violations;
        }
        Ok(unit)
    }
}

/// Replays one array; returns its host seconds, completed requests and
/// failed checks, and appends its digest line.
fn replay_array<S: Spans>(
    state: ArrayState,
    spans: &mut S,
    digest: &mut String,
) -> Result<(f64, u64, u64), String> {
    let ArrayState {
        kind,
        mut array,
        mut events,
        mut source,
        mut ledger,
    } = state;
    let t = Instant::now();
    let mut attempted = 0u64;
    let mut end = SimTime::ZERO;
    let mut pending = spans.span(Call::Pull, || source.next_request());
    loop {
        let take_arrival = match (pending.map(|r| r.arrival), events.peek_time()) {
            (None, None) => break,
            (Some(a), Some(e)) => a <= e,
            (Some(_), None) => true,
            (None, Some(_)) => false,
        };
        if let (true, Some(r)) = (take_arrival, pending) {
            pending = spans.span(Call::Pull, || source.next_request());
            attempted += 1;
            end = end.max(r.arrival);
            let started = spans
                .span(Call::ArraySubmit, || array.submit(r, r.arrival))
                .map_err(|e| e.to_string())?;
            for (disk, at) in started {
                spans.span(Call::Push, || events.push(at, disk));
            }
        } else if let Some(ev) = spans.span(Call::Pop, || events.pop()) {
            end = end.max(ev.time);
            let out = spans
                .span(Call::ArrayComplete, || {
                    array.on_disk_complete(ev.payload, ev.time)
                })
                .map_err(|e| e.to_string())?;
            if let Some(at) = out.next_on_disk {
                spans.span(Call::Push, || events.push(at, ev.payload));
            }
            for (disk, at) in out.started {
                spans.span(Call::Push, || events.push(at, disk));
            }
            for c in &out.finished {
                ledger.complete(c.id);
            }
        }
    }
    array.finalize(end);
    let secs = t.elapsed().as_secs_f64();
    ledger.close(attempted);
    if array.metrics().completed != ledger.completed {
        ledger.violations += 1;
    }

    let m = array.metrics();
    let power_w = array.power_breakdown().total_w();
    digest_line(
        digest,
        kind.name(),
        m.completed,
        m.response_time_ms.mean(),
        m.response_time_ms.percentile(90.0),
        power_w * end.saturating_since(SimTime::ZERO).as_secs(),
    );
    Ok((secs, ledger.completed, ledger.violations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::{Off, Tracer};
    use experiments::{run_array, run_drive};

    #[test]
    fn drive_loop_reproduces_the_library_runner() {
        let w = HcsdSa4 {
            requests: 3_000,
            seed: 9,
        };
        let unit = w.run(w.setup().expect("setup"), &mut Off).expect("replay");
        let params = hcsd_params();
        let spec = SyntheticSpec::paper(6.0, params.capacity_sectors(), 3_000);
        let cfg = DriveConfig::sa(4).with_stats_mode(StatsMode::Streaming);
        let r = run_drive(&params, cfg, spec.source(9)).expect("replay");
        let mut want = String::new();
        let energy_j = r.power.total_w() * r.duration.as_secs();
        let m = &r.metrics;
        digest_line(
            &mut want,
            "HC-SD-SA(4)",
            m.completed,
            m.response_time_ms.mean(),
            r.p90_ms(),
            energy_j,
        );
        assert_eq!(unit.digest, want);
        assert_eq!((unit.requests, unit.violations), (3_000, 0));
    }

    #[test]
    fn array_loop_reproduces_the_library_runner() {
        let w = MdArrays {
            requests: 1_500,
            seed: 9,
        };
        let unit = w
            .run(w.setup().expect("setup"), &mut Tracer::new())
            .expect("replay");
        let mut want = String::new();
        for kind in WorkloadKind::ALL {
            let md = md_config(kind);
            let member = DriveConfig::conventional().with_stats_mode(StatsMode::Streaming);
            let source = profile_for(kind).source(1_500, 9);
            let r = run_array(&md.drive, member, md.disks, md.layout, source).expect("replay");
            let energy_j = r.power.total_w() * r.duration.as_secs();
            let mean_ms = r.response_time_ms.mean();
            digest_line(
                &mut want,
                kind.name(),
                r.completed,
                mean_ms,
                r.p90_ms(),
                energy_j,
            );
        }
        assert_eq!(unit.digest, want);
        assert_eq!((unit.requests, unit.violations), (6_000, 0));
    }

    #[test]
    fn ledger_catches_duplicates_and_losses() {
        let mut l = Ledger::new(3);
        l.complete(0);
        l.complete(0);
        l.complete(7);
        l.close(3);
        assert_eq!(l.violations, 2, "duplicate and out-of-range ids");
        let mut l = Ledger::new(3);
        l.complete(0);
        l.complete(1);
        l.close(3);
        assert_eq!(l.violations, 1, "a lost request");
    }
}
