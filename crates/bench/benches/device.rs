//! Device-model cost (the L1 layer): nanoseconds per positioning
//! evaluation and per SPTF dispatch decision, at queue depths 8, 32
//! and 64 for HC-SD-SA(1), SA(2) and SA(4).
//!
//! * `eval_ns` — one `Mechanics::positioning_at` call (seek curve plus
//!   rotational wait), timed over every (candidate, arm) pair of the
//!   scenario's candidate set, exactly the calls one dispatch scan
//!   makes.
//! * `median_ns`/`min_ns` — one steady-state SPTF dispatch through
//!   `DiskDrive`: a completion that scans the `depth` queued candidates
//!   against every arm and starts the winner, plus the submit that
//!   refills the queue to `depth`.
//! * `evals_per_dispatch` — the `intradisk.cost.positioning_evals`
//!   counter over `intradisk.dispatch.scans` for the timed drive, so a
//!   time can be told apart from a change in the work done.
//!
//! Run with `cargo bench -p bench --bench device`; each result is one
//! JSON line, recorded in `BENCH_device.json`.

use bench::bench_micro;
use diskmodel::presets;
use intradisk::counters::{POSITIONING_EVALS, SCANS};
use intradisk::service::{LatencyScaling, Mechanics};
use intradisk::{DiskDrive, DriveConfig, IoKind, IoRequest};
use simkit::{Rng64, SimDuration, SimTime};
use std::hint::black_box;

const WARMUP: usize = 2;
const SAMPLES: usize = 15;
const DISPATCHES: usize = 200;

/// One scenario's positioning evaluations: every candidate against
/// every arm of an SA(`arms`) drive parked at spread-out cylinders.
fn bench_evals(label: &str, arms: u32, depth: usize) -> f64 {
    let params = presets::barracuda_es_750gb();
    let mech = Mechanics::new(&params);
    let total = mech.geometry().total_sectors();
    let cylinders = mech.geometry().cylinders();
    let mut rng = Rng64::new(7);
    // Candidates are located when queued, as `DiskDrive` does.
    let candidates: Vec<_> = (0..depth)
        .map(|_| mech.geometry().target(rng.below(total)))
        .collect();
    let parked: Vec<(u32, f64)> = mech
        .default_arms(arms)
        .iter()
        .enumerate()
        .map(|(i, a)| (cylinders / (arms + 1) * (i as u32 + 1), a.azimuth))
        .collect();
    let mut now = SimTime::ZERO;
    let r = bench_micro(&format!("{label}_evals"), WARMUP, SAMPLES, 50, || {
        now += SimDuration::from_nanos(1_234_567);
        let mut sum = 0u64;
        for target in &candidates {
            for &(cylinder, azimuth) in &parked {
                let (s, r) =
                    mech.positioning_at(cylinder, azimuth, 1, target, now, LatencyScaling::none());
                sum = sum.wrapping_add((s + r).as_nanos());
            }
        }
        black_box(sum)
    });
    r.median_ns / (depth * arms as usize) as f64
}

/// Steady-state SPTF dispatches with `depth` requests queued.
fn bench_dispatch(label: &str, arms: u32, depth: usize) -> (f64, f64, f64) {
    let params = presets::barracuda_es_750gb();
    let mut drive = DiskDrive::new(&params, DriveConfig::sa(arms));
    let total = drive.capacity_sectors();
    let mut rng = Rng64::new(11);
    let mut id = 0u64;
    let mut submit = |drive: &mut DiskDrive, now: SimTime| {
        let req = IoRequest::new(id, now, rng.below(total), 8, IoKind::Read);
        id += 1;
        drive.submit(req, now).expect("valid submit");
    };
    // One request in service and `depth` waiting.
    for _ in 0..=depth {
        submit(&mut drive, SimTime::ZERO);
    }
    let (evals0, scans0) = (POSITIONING_EVALS.get(), SCANS.get());
    let r = bench_micro(label, WARMUP, SAMPLES, DISPATCHES, || {
        let due = drive.next_completion().expect("a request in service");
        let (done, _) = drive.complete(due).expect("valid complete");
        submit(&mut drive, due);
        black_box(done.completed)
    });
    drop(drive);
    let evals = (POSITIONING_EVALS.get() - evals0) as f64;
    let scans = (SCANS.get() - scans0) as f64;
    (r.median_ns, r.min_ns, evals / scans)
}

fn main() {
    for arms in [1u32, 2, 4] {
        for depth in [8usize, 32, 64] {
            let label = format!("sptf_sa{arms}_q{depth}");
            let eval_ns = bench_evals(&label, arms, depth);
            let (median_ns, min_ns, evals_per_dispatch) = bench_dispatch(&label, arms, depth);
            println!(
                "{{\"label\":\"{label}\",\"median_ns\":{median_ns:.0},\"min_ns\":{min_ns:.0},\"eval_ns\":{eval_ns:.1},\"evals_per_dispatch\":{evals_per_dispatch:.2}}}"
            );
        }
    }
}
