//! The host-speed probe: a fixed piece of work that does not touch the
//! simulator, timed after every unit and every set-up sample.
//!
//! On the shared host the benchmark was built on, other tenants slow
//! every program on it by up to a half, in spells that last from seconds
//! to many minutes. No steal time is reported, so CPU time slows down
//! with wall time. Over a 420 s `hcsd_sa4` run the median unit took
//! 235 ms in the first two minutes and 151 ms in the last one, with
//! identical work in every unit, and the fastest unit of any ten-second
//! window in the slow part was still 30% slower than the quiet floor.
//! No statistic over one run's units sees past a spell that covers the
//! run. The probe does: it slows down with the host, so each unit's
//! time is scaled by [`REFERENCE_S`] over the time of the probe run
//! right after it, which gives the time the unit would have taken at
//! the probe's quiet-host speed. A change to the simulator moves the
//! unit and not the probe; a slow spell moves both.
//!
//! The probe is a random walk with floating-point updates and branches
//! over a 4 MiB array, then insertions and removals on a `BTreeMap`
//! held to 4096 keys. In a 200 s `hcsd_sa4` run with a probe after
//! every unit, over 10 s windows, the log of the median unit time
//! followed the log of the median probe time with a slope of 1.00, and
//! the median of each unit's time over its probe's spread 0.02 across
//! windows where the raw median spread 0.24.

use std::collections::BTreeMap;
use std::time::Instant;

/// Host seconds of one probe run on a quiet 2-vCPU Intel Xeon virtual
/// machine: the fast decile of the 711 probe runs of that 200 s run.
/// Only a scale: scaled times read as host time on that machine when
/// it is quiet.
pub const REFERENCE_S: f64 = 0.0235;

/// Share of a unit's host time the probe runs for after the unit.
const SHARE: f64 = 0.05;

/// Most probe runs after one unit.
const MAX_RUNS: usize = 8;

/// Elements of the random walk's array (4 MiB of `f64`).
const WALK_LEN: usize = 1 << 19;

/// Steps of the random walk.
const WALK_STEPS: u32 = 1_500_000;

/// Insertions into the map.
const MAP_INSERTS: u64 = 120_000;

/// Keys the map is held to.
const MAP_KEYS: usize = 4096;

/// The probe's working memory, allocated once.
#[derive(Debug)]
pub struct Probe {
    walk: Vec<f64>,
}

impl Default for Probe {
    fn default() -> Self {
        Probe {
            walk: vec![0.0; WALK_LEN],
        }
    }
}

impl Probe {
    /// Runs the probe once; returns its host seconds.
    pub fn run(&mut self) -> f64 {
        // Every run starts from the same array, so every run does the
        // same work.
        for (i, v) in self.walk.iter_mut().enumerate() {
            *v = i as f64 * 0.5;
        }
        let t = Instant::now();
        std::hint::black_box(walk(&mut self.walk));
        std::hint::black_box(churn());
        t.elapsed().as_secs_f64()
    }

    /// Runs the probe after a unit of `unit_s` host seconds, enough
    /// times to take about [`SHARE`] of that (at least once, at most
    /// [`MAX_RUNS`] times); returns the mean seconds of one run. One
    /// 24 ms run after a 2 s explorer unit sampled the host too briefly:
    /// single runs of `explore_grid` scaled to 0.51 M req/s where the
    /// others read 0.37 to 0.41 M.
    pub fn after(&mut self, unit_s: f64) -> f64 {
        let runs = ((SHARE * unit_s / REFERENCE_S).ceil() as usize).clamp(1, MAX_RUNS);
        (0..runs).map(|_| self.run()).sum::<f64>() / runs as f64
    }
}

/// A linear-congruential step.
fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}

fn walk(v: &mut [f64]) -> f64 {
    let mask = v.len() - 1;
    let mut x = 12_345u64;
    let mut acc = 0.0f64;
    for _ in 0..WALK_STEPS {
        x = lcg(x);
        let i = (x >> 33) as usize & mask;
        let y = v[i];
        if y > acc {
            acc += (y - acc).sqrt();
        } else {
            acc -= y * 1e-3;
        }
        v[i] = acc;
    }
    acc
}

fn churn() -> usize {
    let mut map = BTreeMap::new();
    let mut x = 777u64;
    for i in 0..MAP_INSERTS {
        x = lcg(x);
        map.insert(x >> 40, i);
        if map.len() > MAP_KEYS {
            if let Some(&oldest) = map.keys().next() {
                map.remove(&oldest);
            }
        }
    }
    map.len()
}
