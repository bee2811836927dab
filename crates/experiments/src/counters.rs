//! Executor counters, split across the two observability planes.
//!
//! * [`POINTS_RUN`] is **deterministic**: a sweep runs exactly the
//!   points its plan enumerates, regardless of worker count or which
//!   worker ran which point, so the exported total is byte-identical
//!   across runs, hosts, and `--jobs`.
//! * [`WORKERS_SPAWNED`] is **host-plane**: it depends on `--jobs`, so
//!   the counter export quarantines it in the non-gated `"host"`
//!   section (see `crate::profile`).

use simkit::counters::Counter;

/// Experiment points executed (deterministic: plan-sized).
pub static POINTS_RUN: Counter = Counter::new("experiments.points_run");

/// Worker threads spawned by parallel sweeps (host-plane).
pub static WORKERS_SPAWNED: Counter = Counter::new("exec.workers_spawned");

/// The deterministic counters this crate owns, in export (name) order.
pub fn deterministic() -> [&'static Counter; 1] {
    [&POINTS_RUN]
}

/// The host-plane counters this crate owns, in export (name) order.
pub fn host() -> [&'static Counter; 1] {
    [&WORKERS_SPAWNED]
}

/// Reset every counter this crate owns (both planes).
pub fn reset_all() {
    for c in deterministic() {
        c.reset();
    }
    for c in host() {
        c.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registries_are_name_sorted_and_disjoint() {
        let det: Vec<_> = deterministic().iter().map(|c| c.name()).collect();
        let host: Vec<_> = host().iter().map(|c| c.name()).collect();
        let mut sorted = det.clone();
        sorted.sort_unstable();
        assert_eq!(det, sorted);
        let mut sorted = host.clone();
        sorted.sort_unstable();
        assert_eq!(host, sorted);
        assert!(det.iter().all(|n| !host.contains(n)));
    }
}
