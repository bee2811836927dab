//! Request queue and scheduling policies.
//!
//! The paper uses Shortest-Positioning-Time-First (SPTF, Worthington et
//! al. \[42\]) because the goal is to minimize rotational latency: with
//! multiple actuators the scheduler gains the extra freedom of choosing
//! *which arm* services a request, and SPTF naturally exploits it. FCFS
//! and SSTF are provided as baselines.
//!
//! SPTF/SSTF examine a bounded window of the queue head (configurable,
//! default [`DEFAULT_WINDOW`]); real controllers bound their scheduling
//! scan the same way, and it keeps the simulator's worst case linear
//! under overload.
//!
//! Each queued request carries its [`Target`], located once when it was
//! queued, so a scan scores candidates without locating them again.

use std::collections::VecDeque;

use diskmodel::Target;
use simkit::SimDuration;

use crate::request::IoRequest;

/// Scheduling window for positioning-aware policies.
pub const DEFAULT_WINDOW: usize = 64;

/// Queue scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueuePolicy {
    /// First-come first-served.
    Fcfs,
    /// Shortest seek time first (cylinder distance only).
    Sstf,
    /// Shortest positioning time first (seek + rotational latency),
    /// the policy of the paper's evaluation.
    #[default]
    Sptf,
}

/// The pending-request queue of a drive: each request beside its
/// located target.
#[derive(Debug, Clone, Default)]
pub struct PendingQueue {
    queue: VecDeque<(IoRequest, Target)>,
    window: usize,
    peak_len: usize,
}

impl PendingQueue {
    /// Creates an empty queue with the default scheduling window.
    pub fn new() -> Self {
        Self::with_window(DEFAULT_WINDOW)
    }

    /// Creates an empty queue with an explicit scheduling window.
    ///
    /// # Panics
    /// Panics if `window == 0`.
    pub fn with_window(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        PendingQueue {
            queue: VecDeque::new(),
            window,
            peak_len: 0,
        }
    }

    /// Appends an arriving request and where it lies.
    pub fn push(&mut self, req: IoRequest, target: Target) {
        self.queue.push_back((req, target));
        self.peak_len = self.peak_len.max(self.queue.len());
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Largest depth the queue ever reached (telemetry cross-checks the
    /// queue-depth percentiles it reconstructs from the event stream
    /// against this).
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// True if no requests are queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Removes and returns the next request to service under `policy`,
    /// with its target, using `cost` to estimate the positioning cost of
    /// a candidate's target (not called for FCFS, nor when the scan
    /// holds one candidate). Returns `None` if the queue is empty.
    ///
    /// The positioning-aware policies scan at most the scheduling
    /// window, preserving arrival order beyond it (which also bounds
    /// starvation).
    pub fn pop_next(
        &mut self,
        policy: QueuePolicy,
        mut cost: impl FnMut(&Target) -> SimDuration,
    ) -> Option<(IoRequest, Target)> {
        if self.queue.is_empty() {
            return None;
        }
        let scan = match policy {
            QueuePolicy::Fcfs => 1,
            QueuePolicy::Sstf | QueuePolicy::Sptf => self.window.min(self.queue.len()),
        };
        // A lone candidate is taken unscored: the choice cannot change.
        // The queue (and so the window) is non-empty here; fall back to
        // head-of-line rather than panic.
        let idx = if scan == 1 {
            0
        } else {
            (0..scan)
                .min_by_key(|&i| cost(&self.queue[i].1))
                .unwrap_or(0)
        };
        self.queue.remove(idx)
    }

    /// Iterates over queued requests in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &IoRequest> {
        self.queue.iter().map(|(req, _)| req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::IoKind;
    use diskmodel::{presets, Geometry};
    use simkit::SimTime;

    /// A queue of requests (`id`, `lba`) with their targets.
    struct Q {
        geometry: Geometry,
        q: PendingQueue,
    }

    impl Q {
        fn new(window: usize) -> Self {
            let geometry = Geometry::new(&presets::barracuda_es_750gb());
            Q {
                geometry,
                q: PendingQueue::with_window(window),
            }
        }

        fn push(&mut self, id: u64, lba: u64) {
            let req = IoRequest::new(id, SimTime::ZERO, lba, 8, IoKind::Read);
            self.q.push(req, self.geometry.target(lba));
        }

        fn pop(
            &mut self,
            policy: QueuePolicy,
            cost: impl FnMut(&Target) -> SimDuration,
        ) -> Option<IoRequest> {
            self.q.pop_next(policy, cost).map(|(req, target)| {
                assert_eq!(target.lba(), req.lba, "request and target stay paired");
                req
            })
        }
    }

    /// Scores a candidate by its LBA.
    fn by_lba(t: &Target) -> SimDuration {
        SimDuration::from_millis(t.lba() as f64)
    }

    #[test]
    fn fcfs_ignores_cost() {
        let mut q = Q::new(DEFAULT_WINDOW);
        q.push(0, 500);
        q.push(1, 0);
        let got = q.pop(QueuePolicy::Fcfs, |_| SimDuration::ZERO).unwrap();
        assert_eq!(got.id, 0);
    }

    #[test]
    fn sptf_picks_cheapest() {
        let mut q = Q::new(DEFAULT_WINDOW);
        q.push(0, 500);
        q.push(1, 10);
        q.push(2, 100);
        let got = q.pop(QueuePolicy::Sptf, by_lba).unwrap();
        assert_eq!(got.id, 1);
        assert_eq!(q.q.len(), 2);
    }

    #[test]
    fn sptf_tie_breaks_by_arrival_order() {
        let mut q = Q::new(DEFAULT_WINDOW);
        q.push(7, 1);
        q.push(8, 1);
        let got = q
            .pop(QueuePolicy::Sptf, |_| SimDuration::from_millis(1.0))
            .unwrap();
        assert_eq!(got.id, 7);
    }

    #[test]
    fn window_bounds_scan() {
        let mut q = Q::new(2);
        q.push(0, 100);
        q.push(1, 50);
        q.push(2, 1); // cheapest, but outside the window
        let got = q.pop(QueuePolicy::Sptf, by_lba).unwrap();
        assert_eq!(got.id, 1);
    }

    #[test]
    fn lone_candidate_is_not_scored() {
        let scored = std::cell::Cell::new(0);
        let counting = |t: &Target| {
            scored.set(scored.get() + 1);
            by_lba(t)
        };
        // A queue of one.
        let mut q = Q::new(DEFAULT_WINDOW);
        q.push(0, 500);
        assert_eq!(q.pop(QueuePolicy::Sptf, counting).unwrap().id, 0);
        // A window of one over a longer queue takes the head.
        let mut q = Q::new(1);
        q.push(1, 500);
        q.push(2, 10);
        assert_eq!(q.pop(QueuePolicy::Sstf, counting).unwrap().id, 1);
        assert_eq!(q.pop(QueuePolicy::Sptf, counting).unwrap().id, 2);
        assert_eq!(scored.get(), 0);
        // Two candidates are both scored.
        let mut q = Q::new(DEFAULT_WINDOW);
        q.push(3, 500);
        q.push(4, 10);
        assert_eq!(q.pop(QueuePolicy::Sptf, counting).unwrap().id, 4);
        assert_eq!(scored.get(), 2);
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let mut q = Q::new(DEFAULT_WINDOW);
        q.push(0, 1);
        q.push(1, 2);
        let _ = q.pop(QueuePolicy::Fcfs, |_| SimDuration::ZERO);
        let _ = q.pop(QueuePolicy::Fcfs, |_| SimDuration::ZERO);
        q.push(2, 3);
        assert_eq!(q.q.peak_len(), 2);
    }

    #[test]
    fn empty_pop_is_none() {
        let mut q = PendingQueue::new();
        assert!(q
            .pop_next(QueuePolicy::Sptf, |_| SimDuration::ZERO)
            .is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn drains_everything_exactly_once() {
        let mut q = Q::new(DEFAULT_WINDOW);
        for i in 0..100 {
            q.push(i, (i * 37) % 64);
        }
        let mut seen = std::collections::BTreeSet::new();
        while let Some(r) = q.pop(QueuePolicy::Sptf, by_lba) {
            assert!(seen.insert(r.id), "duplicate {}", r.id);
        }
        assert_eq!(seen.len(), 100);
    }
}
