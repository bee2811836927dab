//! Freeblock scheduling (§5, Lumb et al. \[24\]) and its comparison with
//! intra-disk parallelism.
//!
//! Freeblock scheduling squeezes background I/O into the *rotational
//! latency windows* of foreground requests on a conventional drive: the
//! arm darts away, services a background block, and returns before the
//! foreground sector rotates under the head. The paper's argument is
//! that intra-disk parallelism provides the same functionality with
//! independent hardware and **without the deadline restriction** — a
//! spare arm assembly can service background work of any shape.
//!
//! [`FreeblockScheduler`] models the classic scheme conservatively: a
//! background request is serviceable inside a window of length `W` if
//!
//! ```text
//! seek(d) + bg_rotation + bg_transfer + seek(d) <= W
//! ```
//!
//! where `d` is the cylinder distance from the foreground track. The
//! fraction of background work that fits gives the freeblock
//! throughput; [`dedicated_arm_throughput`] gives the corresponding
//! rate when a spare assembly of an intra-disk parallel drive does the
//! same work with no deadline at all.

use diskmodel::DiskParams;
use simkit::SimDuration;

use crate::request::IoRequest;
use crate::service::Mechanics;

/// Outcome of replaying a background queue against a stream of
/// foreground rotational-latency windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FreeblockStats {
    /// Background requests serviced inside windows.
    pub serviced: u64,
    /// Foreground windows examined.
    pub windows: u64,
    /// Windows too short for any pending background request.
    pub missed_windows: u64,
}

impl FreeblockStats {
    /// Background requests serviced per window.
    pub fn per_window(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.serviced as f64 / self.windows as f64
        }
    }
}

/// A freeblock scheduler over one drive's mechanics.
#[derive(Debug, Clone)]
pub struct FreeblockScheduler {
    mech: Mechanics,
    /// Pending background requests (FIFO).
    background: std::collections::VecDeque<IoRequest>,
    stats: FreeblockStats,
}

impl FreeblockScheduler {
    /// Creates a scheduler for a drive model with a background queue.
    pub fn new(params: &DiskParams, background: Vec<IoRequest>) -> Self {
        FreeblockScheduler {
            mech: Mechanics::new(params),
            background: background.into(),
            stats: FreeblockStats::default(),
        }
    }

    /// Remaining background requests.
    pub fn pending(&self) -> usize {
        self.background.len()
    }

    /// Statistics so far.
    pub fn stats(&self) -> FreeblockStats {
        self.stats
    }

    /// Offers one foreground rotational-latency window: the arm sits at
    /// `cylinder` with `window` of dead time before the foreground
    /// sector arrives. Services as many queued background requests as
    /// fit (each must leave enough time to seek back). Returns how many
    /// were serviced.
    pub fn offer_window(&mut self, cylinder: u32, window: SimDuration) -> u64 {
        self.stats.windows += 1;
        let mut remaining = window;
        let mut arm_at = cylinder;
        let mut serviced = 0;
        while let Some(bg) = self.background.front().copied() {
            let geometry = self.mech.geometry();
            let target = geometry.target(bg.lba % geometry.total_sectors());
            let loc = target.loc();
            let out = self
                .mech
                .seek_profile()
                .seek_time(arm_at.abs_diff(loc.cylinder));
            let back = self
                .mech
                .seek_profile()
                .seek_time(cylinder.abs_diff(loc.cylinder));
            // Conservative rotational charge: half a revolution to line
            // up with the background sector.
            let rot = self.mech.rotation().period() / 2;
            let transfer = self.mech.transfer(target, bg.sectors).time;
            let need = out + rot + transfer + back;
            if need > remaining {
                break;
            }
            remaining = remaining.saturating_sub(out + rot + transfer);
            arm_at = loc.cylinder;
            self.background.pop_front();
            self.stats.serviced += 1;
            serviced += 1;
        }
        if serviced == 0 {
            self.stats.missed_windows += 1;
        }
        serviced
    }
}

/// Background requests per second a *dedicated spare assembly* of an
/// intra-disk parallel drive sustains on the same background stream:
/// the assembly services requests back-to-back with no window deadline
/// (the paper's point — independent hardware removes the restriction).
pub fn dedicated_arm_throughput(params: &DiskParams, background: &[IoRequest]) -> f64 {
    if background.is_empty() {
        return 0.0;
    }
    let mech = Mechanics::new(params);
    let mut cylinder = 0u32;
    let mut busy = SimDuration::ZERO;
    for bg in background {
        let geometry = mech.geometry();
        let target = geometry.target(bg.lba % geometry.total_sectors());
        let loc = target.loc();
        let seek = mech.seek_profile().seek_time(cylinder.abs_diff(loc.cylinder));
        let rot = mech.rotation().period() / 2;
        let transfer = mech.transfer(target, bg.sectors).time;
        busy += seek + rot + transfer;
        cylinder = loc.cylinder;
    }
    background.len() as f64 / busy.as_secs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::IoKind;
    use diskmodel::presets;
    use simkit::{Rng64, SimTime};

    fn background(n: u64, seed: u64, near_cylinder_span: u64) -> Vec<IoRequest> {
        let params = presets::barracuda_es_750gb();
        let mech = Mechanics::new(&params);
        let total = mech.geometry().total_sectors();
        let span = (total / 120_000 * near_cylinder_span).max(1);
        let mut rng = Rng64::new(seed);
        (0..n)
            .map(|i| IoRequest::new(i, SimTime::ZERO, rng.below(span), 8, IoKind::Read))
            .collect()
    }

    #[test]
    fn tiny_window_services_nothing() {
        let params = presets::barracuda_es_750gb();
        let mut fb = FreeblockScheduler::new(&params, background(10, 1, 100));
        let got = fb.offer_window(0, SimDuration::from_millis(0.5));
        assert_eq!(got, 0);
        assert_eq!(fb.stats().missed_windows, 1);
        assert_eq!(fb.pending(), 10);
    }

    #[test]
    fn near_track_background_fits_in_large_window() {
        let params = presets::barracuda_es_750gb();
        // Background clustered within ~100 cylinders of the foreground.
        let mut fb = FreeblockScheduler::new(&params, background(10, 2, 100));
        let got = fb.offer_window(0, SimDuration::from_millis(8.0));
        assert!(got >= 1, "an 8 ms window should fit a near-track request");
        assert_eq!(fb.stats().serviced, got);
    }

    #[test]
    fn distant_background_needs_bigger_window() {
        let params = presets::barracuda_es_750gb();
        // Background at the far end of the disk: the out-and-back seeks
        // do not fit in a rotational window.
        let far: Vec<IoRequest> = background(5, 3, 100)
            .into_iter()
            .map(|r| {
                IoRequest::new(
                    r.id,
                    r.arrival,
                    Mechanics::new(&params).geometry().total_sectors() - 100,
                    r.sectors,
                    r.kind,
                )
            })
            .collect();
        let mut fb = FreeblockScheduler::new(&params, far);
        assert_eq!(fb.offer_window(0, SimDuration::from_millis(8.0)), 0);
    }

    #[test]
    fn windows_accumulate_service() {
        let params = presets::barracuda_es_750gb();
        let mut fb = FreeblockScheduler::new(&params, background(50, 4, 50));
        for _ in 0..200 {
            fb.offer_window(0, SimDuration::from_millis(8.0));
            if fb.pending() == 0 {
                break;
            }
        }
        assert!(fb.stats().serviced > 10, "stats {:?}", fb.stats());
        assert!(fb.stats().per_window() > 0.05);
    }

    #[test]
    fn dedicated_arm_beats_freeblock_per_wall_clock() {
        // A spare assembly has no deadline, so for the same background
        // stream it sustains more requests per second than freeblock
        // windows arriving (say) every 10 ms can.
        let params = presets::barracuda_es_750gb();
        let bg = background(200, 5, 2_000);
        let dedicated_rps = dedicated_arm_throughput(&params, &bg);

        let mut fb = FreeblockScheduler::new(&params, bg);
        let windows = 500u64;
        for _ in 0..windows {
            fb.offer_window(0, SimDuration::from_millis(4.0));
        }
        // Foreground windows every 10 ms → wall clock = windows * 10 ms.
        let freeblock_rps = fb.stats().serviced as f64 / (windows as f64 * 0.010);
        assert!(
            dedicated_rps > freeblock_rps,
            "dedicated {dedicated_rps:.1}/s vs freeblock {freeblock_rps:.1}/s"
        );
    }

    #[test]
    fn empty_background_noop() {
        let params = presets::barracuda_es_750gb();
        assert_eq!(dedicated_arm_throughput(&params, &[]), 0.0);
        let mut fb = FreeblockScheduler::new(&params, Vec::new());
        assert_eq!(fb.offer_window(0, SimDuration::from_millis(8.0)), 0);
    }
}
