//! Deterministic drive-level kernel counters.
//!
//! Counts the work the scheduler and cost model do per simulated run —
//! dispatch scans, per-arm visits, SPTF candidate comparisons,
//! locates, positioning/plan evaluations, cache probe outcomes, and the
//! pending queue's high-water mark. All counts are pure functions of the
//! workload and configuration (never of host timing), so the exported
//! totals are byte-identical across runs, hosts, and `--jobs`.
//!
//! Hot paths batch increments in per-drive [`DropCounter`]s (see
//! [`simkit::counters`]) and flush once when the drive drops.

use simkit::counters::{Counter, DropCounter};

/// Read probes answered by the segmented cache.
pub static CACHE_HITS: Counter = Counter::new("intradisk.cache.hits");
/// Read probes that missed and went to the media.
pub static CACHE_MISSES: Counter = Counter::new("intradisk.cache.misses");
/// Block locations computed: one per submitted request, plus one per
/// extra track its transfer walk reaches.
pub static LOCATES: Counter = Counter::new("intradisk.cost.locates");
/// Full media-access plans evaluated (`plan_set_with_heads`).
pub static PLAN_EVALS: Counter = Counter::new("intradisk.cost.plan_evals");
/// Seek+rotation positioning estimates computed for SPTF candidates.
pub static POSITIONING_EVALS: Counter = Counter::new("intradisk.cost.positioning_evals");
/// Live arms visited across all dispatch cost evaluations.
pub static ARM_VISITS: Counter = Counter::new("intradisk.dispatch.arm_visits");
/// Queued candidates whose dispatch cost was evaluated.
pub static CANDIDATES: Counter = Counter::new("intradisk.dispatch.candidates");
/// Dispatch scans over the pending queue.
pub static SCANS: Counter = Counter::new("intradisk.dispatch.scans");
/// Best-so-far comparisons in the SPTF arm loop.
pub static SPTF_COMPARES: Counter = Counter::new("intradisk.dispatch.sptf_compares");
/// Deepest the pending queue got on any one drive.
pub static QUEUE_PEAK_DEPTH: Counter = Counter::new_max("intradisk.queue.peak_depth");

/// Every counter this crate owns, in export (name) order.
pub fn all() -> [&'static Counter; 10] {
    [
        &CACHE_HITS,
        &CACHE_MISSES,
        &LOCATES,
        &PLAN_EVALS,
        &POSITIONING_EVALS,
        &ARM_VISITS,
        &CANDIDATES,
        &SCANS,
        &SPTF_COMPARES,
        &QUEUE_PEAK_DEPTH,
    ]
}

/// Reset every counter this crate owns.
pub fn reset_all() {
    for c in all() {
        c.reset();
    }
}

/// Per-drive batchers for the dispatch/cost/cache counters. Embedded
/// in [`DiskDrive`](crate::DiskDrive); the derived `Clone` yields
/// fresh zero-pending batchers so cloned drives never double-flush.
#[derive(Debug, Clone)]
pub struct DriveProfCounts {
    /// One per dispatch scan.
    pub scans: DropCounter,
    /// One per candidate whose cost the scan evaluated.
    pub candidates: DropCounter,
    /// One per live arm visited in a cost evaluation.
    pub arm_visits: DropCounter,
    /// One per SPTF best-so-far comparison.
    pub sptf_compares: DropCounter,
    /// One per block location computed.
    pub locates: DropCounter,
    /// One per `positioning_at` estimate.
    pub positioning_evals: DropCounter,
    /// One per full access plan.
    pub plan_evals: DropCounter,
    /// One per read probe served from cache.
    pub cache_hits: DropCounter,
    /// One per read probe that went to media.
    pub cache_misses: DropCounter,
}

impl DriveProfCounts {
    /// Batchers targeting this crate's global registry.
    pub fn new() -> Self {
        DriveProfCounts {
            scans: DropCounter::new(&SCANS),
            candidates: DropCounter::new(&CANDIDATES),
            arm_visits: DropCounter::new(&ARM_VISITS),
            sptf_compares: DropCounter::new(&SPTF_COMPARES),
            locates: DropCounter::new(&LOCATES),
            positioning_evals: DropCounter::new(&POSITIONING_EVALS),
            plan_evals: DropCounter::new(&PLAN_EVALS),
            cache_hits: DropCounter::new(&CACHE_HITS),
            cache_misses: DropCounter::new(&CACHE_MISSES),
        }
    }
}

impl Default for DriveProfCounts {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_sorted_and_unique() {
        let names: Vec<&str> = all().iter().map(|c| c.name()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(names, sorted);
    }
}
