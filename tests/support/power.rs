//! Workloads and one-call runs for the DRPM and MAID baselines, shared
//! by the tests that include this file with `#[path]`.

#![allow(dead_code)]

use array::maid::{MaidArray, MaidConfig, MaidResult};
use diskmodel::{presets, DiskParams};
use experiments::Hooks;
use intradisk::drpm::{DrpmConfig, DrpmDrive, DrpmResult};
use intradisk::{IoKind, IoRequest};
use simkit::{Rng64, SimDuration, SimTime};
use workload::Trace;

/// The MAID baseline's member drive.
pub fn maid_member() -> DiskParams {
    presets::array_drive_10k_19gb()
}

fn sectors(params: &DiskParams) -> u64 {
    diskmodel::Geometry::new(params).total_sectors()
}

/// `n` single-sector-run reads over the whole 750 GB drive, with
/// uniform gaps of mean `gap_ms`.
pub fn drpm_requests(n: u64, gap_ms: f64, seed: u64) -> Vec<IoRequest> {
    let cap = sectors(&presets::barracuda_es_750gb());
    let mut rng = Rng64::new(seed);
    let mut t = SimTime::ZERO;
    (0..n)
        .map(|i| {
            t += SimDuration::from_millis(rng.f64() * 2.0 * gap_ms);
            IoRequest::new(i, t, rng.below(cap), 8, IoKind::Read)
        })
        .collect()
}

/// Ten idle seconds (a downshift), then a 50-request burst 1 ms apart
/// (an upshift).
pub fn burst_after_idle() -> Vec<IoRequest> {
    (0..50u64)
        .map(|i| {
            let at = SimTime::from_millis(10_000.0 + i as f64);
            IoRequest::new(i, at, i * 1_000_000, 8, IoKind::Read)
        })
        .collect()
}

/// Bursts of 8 simultaneous reads, one burst every 5 s: each burst
/// reaches a downshifted, idle drive, so its arrivals tie with the
/// drive's decision instant.
pub fn simultaneous_bursts() -> Vec<IoRequest> {
    let cap = sectors(&presets::barracuda_es_750gb());
    let mut rng = Rng64::new(9);
    (0..80u64)
        .map(|i| {
            let at = SimTime::from_millis(5_000.0 * (1 + i / 8) as f64);
            IoRequest::new(i, at, rng.below(cap), 8, IoKind::Read)
        })
        .collect()
}

/// Archival pattern over `disks` MAID members: bursts of 20 requests,
/// each burst after one to two silent minutes.
pub fn archival(disks: u64, n: u64, seed: u64) -> Vec<IoRequest> {
    let per_disk = sectors(&maid_member());
    let mut rng = Rng64::new(seed);
    let mut t = SimTime::ZERO;
    let mut reqs = Vec::new();
    for i in 0..n {
        if i % 20 == 0 {
            t += SimDuration::from_secs(60.0 + rng.f64() * 60.0);
        } else {
            t += SimDuration::from_millis(rng.f64() * 20.0);
        }
        let disk = rng.below(disks);
        reqs.push(IoRequest::new(
            i,
            t,
            disk * per_disk + rng.below(per_disk),
            8,
            IoKind::Read,
        ));
    }
    reqs
}

/// Runs `reqs` on a typical DRPM drive of model `params`.
pub fn run_drpm(params: &DiskParams, reqs: Vec<IoRequest>) -> DrpmResult {
    let drive = DrpmDrive::new(params, DrpmConfig::typical()).expect("typical config is valid");
    let trace = Trace::new("drpm", reqs, params.capacity_sectors());
    experiments::run(drive, &trace, Hooks::none()).expect("replay succeeds")
}

/// Runs `reqs` on a MAID array of `disks` members.
pub fn run_maid(config: MaidConfig, disks: usize, reqs: Vec<IoRequest>) -> MaidResult {
    let member = maid_member();
    let array = MaidArray::new(&member, config, disks).expect("at least one disk");
    let trace = Trace::new("maid", reqs, member.capacity_sectors() * disks as u64);
    experiments::run(array, &trace, Hooks::none()).expect("replay succeeds")
}
