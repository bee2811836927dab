//! Mechanical service planning: given a request and the current state of
//! every arm assembly, compute how long the seek, rotational wait, and
//! transfer will take, and which assembly should be dispatched.
//!
//! This module is the heart of the intra-disk parallelism evaluation:
//! with `n` assemblies parked at different cylinders *and* mounted at
//! different azimuths around the spindle, the per-arm positioning time
//! differs both in its seek and its rotational component, and the
//! dispatcher picks the arm minimizing the sum (§7.2).

use diskmodel::{DriveError, Geometry, RotationModel, SeekProfile};
use simkit::{SimDuration, SimTime};

use crate::request::{CompletedIo, IoRequest, ServiceBreakdown};

/// Scaling knobs of the limit study's bottleneck analysis (Figure 4):
/// multiply every seek and/or every rotational latency by a constant
/// (1, ½, ¼, or 0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyScaling {
    /// Multiplier on seek times.
    pub seek: f64,
    /// Multiplier on rotational latencies.
    pub rotational: f64,
}

impl LatencyScaling {
    /// No scaling (the real drive).
    pub fn none() -> Self {
        LatencyScaling {
            seek: 1.0,
            rotational: 1.0,
        }
    }

    /// Scales only seeks (the `(1/2)S`, `(1/4)S`, `S=0` curves).
    pub fn seek_only(factor: f64) -> Self {
        LatencyScaling {
            seek: factor,
            rotational: 1.0,
        }
    }

    /// Scales only rotational latencies (the `(1/2)R`, `(1/4)R`, `R=0`
    /// curves).
    pub fn rotational_only(factor: f64) -> Self {
        LatencyScaling {
            seek: 1.0,
            rotational: factor,
        }
    }
}

impl Default for LatencyScaling {
    fn default() -> Self {
        Self::none()
    }
}

/// Angular separation (fraction of a revolution) between adjacent
/// heads mounted on the same arm, as seen from the spindle. Heads on
/// one arm are physically adjacent, so the separation is small —
/// roughly 45° — unlike independent assemblies, which mount anywhere
/// around the enclosure.
pub const HEAD_ANGULAR_SEPARATION: f64 = 0.125;

/// Where a drive's arm assemblies are mounted around the spindle.
///
/// Placement determines each assembly's fixed azimuth and therefore how
/// much of the rotational latency the extra assemblies can remove — the
/// central mechanism of the paper. `Colocated` is the ablation: all the
/// assemblies at one azimuth retain the seek benefit (closest arm wins)
/// but none of the rotational benefit.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ArmPlacement {
    /// Assemblies at azimuths `i/n` — Figure 1's diagonal mounting,
    /// maximizing the rotational-latency reduction.
    #[default]
    EquallySpaced,
    /// All assemblies at azimuth 0 (ablation: seek benefit only).
    Colocated,
    /// Explicit azimuths, one per assembly, each in `[0, 1)`.
    Custom(Vec<f64>),
}

impl ArmPlacement {
    /// The azimuth of assembly `index` out of `count`.
    ///
    /// # Panics
    /// Panics if `index >= count`, or (for `Custom`) if the azimuth
    /// list has the wrong length or an out-of-range entry.
    pub fn azimuth(&self, index: u32, count: u32) -> f64 {
        assert!(index < count, "assembly {index} out of {count}");
        match self {
            ArmPlacement::EquallySpaced => RotationModel::assembly_azimuth(index, count),
            ArmPlacement::Colocated => 0.0,
            ArmPlacement::Custom(azimuths) => {
                assert_eq!(
                    azimuths.len(),
                    count as usize,
                    "need one azimuth per assembly"
                );
                let a = azimuths[index as usize];
                assert!((0.0..1.0).contains(&a), "azimuth {a} out of [0,1)");
                a
            }
        }
    }
}

/// The mechanical state of one arm assembly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArmState {
    /// Fixed mounting azimuth around the spindle (fraction of a
    /// revolution).
    pub azimuth: f64,
    /// Cylinder the assembly is currently parked over.
    pub cylinder: u32,
    /// True once the assembly has been deconfigured (§8's graceful
    /// degradation).
    pub failed: bool,
}

/// Struct-of-arrays layout of every assembly's hot mechanical state.
///
/// The dispatch inner loop (SPTF cost scan, service planning) touches
/// each live assembly's cylinder and azimuth once per pending request
/// per decision; splitting the fields into parallel arrays keeps those
/// scans on densely packed cache lines instead of striding over
/// `ArmState` records. The scalar [`ArmState`] remains the exchange
/// type for construction, calibration studies, and single-arm callers.
///
/// Each assembly also carries the instant it is next free: the finish
/// of the access it is serving, or [`SimTime::MAX`] once deconfigured,
/// so one comparison answers both "is it live" and "is it idle".
#[derive(Debug, Clone, PartialEq)]
pub struct ArmSet {
    azimuth: Vec<f64>,
    cylinder: Vec<u32>,
    free_at: Vec<SimTime>,
}

impl ArmSet {
    /// Builds the set from per-assembly states (all idle).
    pub fn from_arms(arms: &[ArmState]) -> Self {
        ArmSet {
            azimuth: arms.iter().map(|a| a.azimuth).collect(),
            cylinder: arms.iter().map(|a| a.cylinder).collect(),
            free_at: arms
                .iter()
                .map(|a| if a.failed { SimTime::MAX } else { SimTime::ZERO })
                .collect(),
        }
    }

    /// Number of assemblies (live or failed).
    pub fn len(&self) -> usize {
        self.cylinder.len()
    }

    /// True if the set has no assemblies.
    pub fn is_empty(&self) -> bool {
        self.cylinder.is_empty()
    }

    /// Number of assemblies still configured.
    pub fn live_count(&self) -> usize {
        self.free_at.iter().filter(|&&t| t != SimTime::MAX).count()
    }

    /// The assembly's fixed mounting azimuth.
    pub fn azimuth(&self, idx: usize) -> f64 {
        self.azimuth[idx]
    }

    /// Cylinder the assembly is parked over.
    pub fn cylinder(&self, idx: usize) -> u32 {
        self.cylinder[idx]
    }

    /// Re-parks the assembly (after a dispatch).
    pub fn set_cylinder(&mut self, idx: usize, cylinder: u32) {
        self.cylinder[idx] = cylinder;
    }

    /// True if the assembly is live and idle at `now`.
    pub fn is_free(&self, idx: usize, now: SimTime) -> bool {
        self.free_at[idx] <= now
    }

    /// Marks a free assembly busy until `until` (the access it was
    /// dispatched for finishes then).
    pub fn occupy(&mut self, idx: usize, until: SimTime) {
        self.free_at[idx] = until;
    }

    /// True once the assembly has been deconfigured.
    pub fn is_failed(&self, idx: usize) -> bool {
        self.free_at[idx] == SimTime::MAX
    }

    /// Deconfigures the assembly (§8's graceful degradation).
    pub fn set_failed(&mut self, idx: usize) {
        self.free_at[idx] = SimTime::MAX;
    }

    /// The assembly's state as a scalar record (telemetry, tests).
    pub fn arm(&self, idx: usize) -> ArmState {
        ArmState {
            azimuth: self.azimuth[idx],
            cylinder: self.cylinder[idx],
            failed: self.is_failed(idx),
        }
    }
}

/// The instants that bound one planned media access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanTimes {
    /// The dispatch instant: only assemblies free by now are candidates.
    pub now: SimTime,
    /// When the seek begins (after the controller overhead).
    pub start: SimTime,
    /// The earliest the shared data channel can carry the transfer; a
    /// head that arrives sooner waits for it and then for its sector to
    /// come round again.
    pub channel_free_at: SimTime,
}

impl PlanTimes {
    /// An access dispatched and started at `start` with the channel free.
    pub fn at(start: SimTime) -> Self {
        PlanTimes {
            now: start,
            start,
            channel_free_at: SimTime::ZERO,
        }
    }
}

/// The bundle of mechanical models for one drive.
#[derive(Debug, Clone)]
pub struct Mechanics {
    geometry: Geometry,
    seek: SeekProfile,
    rotation: RotationModel,
    head_switch: SimDuration,
}

/// A fully planned media access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServicePlan {
    /// Index of the dispatched assembly.
    pub actuator: u32,
    /// Seek time of that assembly (already scaled).
    pub seek: SimDuration,
    /// Rotational wait after the seek (already scaled).
    pub rotational: SimDuration,
    /// Transfer time including head/track switches.
    pub transfer: SimDuration,
    /// Cylinder the assembly ends up parked over.
    pub end_cylinder: u32,
}

impl ServicePlan {
    /// Positioning time (seek + rotational latency).
    pub fn positioning(&self) -> SimDuration {
        self.seek + self.rotational
    }

    /// Total mechanical time.
    pub fn total(&self) -> SimDuration {
        self.seek + self.rotational + self.transfer
    }

    /// The record of `request` served by this plan: it waited `queue`,
    /// paid `overhead`, and completed at `completed`.
    pub fn completion(
        &self,
        request: IoRequest,
        completed: SimTime,
        queue: SimDuration,
        overhead: SimDuration,
    ) -> CompletedIo {
        let (seek, rotational, transfer) = (self.seek, self.rotational, self.transfer);
        CompletedIo {
            request,
            completed,
            breakdown: ServiceBreakdown {
                queue,
                overhead,
                seek,
                rotational,
                transfer,
            },
            cache_hit: false,
            actuator: self.actuator,
        }
    }
}

impl Mechanics {
    /// Builds the mechanics for a drive parameter set.
    pub fn new(params: &diskmodel::DiskParams) -> Self {
        Mechanics {
            geometry: Geometry::new(params),
            seek: SeekProfile::new(params),
            rotation: RotationModel::new(params),
            head_switch: params.head_switch(),
        }
    }

    /// The drive's layout.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The drive's rotation model.
    pub fn rotation(&self) -> &RotationModel {
        &self.rotation
    }

    /// The drive's seek curve.
    pub fn seek_profile(&self) -> &SeekProfile {
        &self.seek
    }

    /// Positioning cost (seek + rotational wait) of serving the block
    /// at `lba` with an assembly parked over `cylinder` at `azimuth`,
    /// starting at `start`.
    ///
    /// An arm may carry `heads` heads per surface — the taxonomy's H
    /// dimension (§4 Level 4, Figure 1(b): heads "equidistant from the
    /// axis of actuation"). The heads share the arm's radial position,
    /// so the seek is unchanged; the rotational wait is the minimum
    /// over the heads' azimuths. Heads mounted on *one* arm sit close
    /// together: their angular separation as seen from the spindle is
    /// only [`HEAD_ANGULAR_SEPARATION`] of a revolution, not `1/heads` —
    /// the geometric reason the paper calls H-parallelism fine-grained
    /// and prefers the A dimension, whose assemblies mount anywhere
    /// around the enclosure.
    ///
    /// # Panics
    /// Panics if `heads == 0`.
    pub fn positioning_at(
        &self,
        cylinder: u32,
        azimuth: f64,
        heads: u32,
        lba: u64,
        start: SimTime,
        scaling: LatencyScaling,
    ) -> (SimDuration, SimDuration) {
        assert!(heads > 0, "need at least one head per arm");
        let loc = self.geometry.locate(lba);
        let dist = cylinder.abs_diff(loc.cylinder);
        let seek = self.seek.seek_time(dist).scale(scaling.seek);
        let angle = self.geometry.sector_angle(loc);
        let rot = self.rotational_wait(angle, azimuth, heads, start + seek, scaling);
        (seek, rot)
    }

    /// Scaled wait, from `at`, until the first of an arm's `heads`
    /// heads is over `angle`.
    fn rotational_wait(
        &self,
        angle: f64,
        azimuth: f64,
        heads: u32,
        at: SimTime,
        scaling: LatencyScaling,
    ) -> SimDuration {
        (0..heads)
            .map(|h| {
                let head_azimuth =
                    (azimuth + h as f64 * HEAD_ANGULAR_SEPARATION).rem_euclid(1.0);
                self.rotation.wait_until_under(angle, head_azimuth, at)
            })
            .min()
            .unwrap_or(SimDuration::ZERO)
            .scale(scaling.rotational)
    }

    /// Transfer time for `sectors` starting at `lba`: per-track rotation
    /// time, a head switch between tracks on the same cylinder, and a
    /// single-cylinder seek (which subsumes settle) when crossing
    /// cylinders. Track skew is assumed to match the switch times, so no
    /// extra rotational realignment is charged.
    pub fn transfer_time(&self, lba: u64, sectors: u32) -> SimDuration {
        let segs = self.geometry.segments(lba, sectors);
        let mut total = SimDuration::ZERO;
        let mut prev_cyl: Option<u32> = None;
        for s in &segs {
            if let Some(pc) = prev_cyl {
                if s.start.cylinder != pc {
                    total += self.seek.seek_time(s.start.cylinder.abs_diff(pc).min(
                        self.seek.max_distance(),
                    ));
                } else {
                    total += self.head_switch;
                }
            }
            total += self
                .rotation
                .transfer_time(s.sectors, s.start.sectors_per_track);
            prev_cyl = Some(s.start.cylinder);
        }
        total
    }

    /// Plans service of `(lba, sectors)`: picks the assembly, among
    /// those free at `times.now`, with minimum positioning time from
    /// `times.start`, scanning in index order with a strict `<` so ties
    /// go to the first minimum. A head that reaches its track before
    /// `times.channel_free_at` waits for the channel and then for its
    /// sector; that wait is part of the plan's `rotational`.
    ///
    /// # Errors
    /// Returns [`DriveError::NoLiveArm`] if no assembly is free.
    ///
    /// # Panics
    /// Panics if `heads == 0`.
    pub fn plan_set_with_heads(
        &self,
        arms: &ArmSet,
        heads: u32,
        lba: u64,
        sectors: u32,
        times: PlanTimes,
        scaling: LatencyScaling,
    ) -> Result<ServicePlan, DriveError> {
        let mut best: Option<(usize, SimDuration, SimDuration)> = None;
        for i in 0..arms.len() {
            if !arms.is_free(i, times.now) {
                continue;
            }
            let (s, mut r) = self.positioning_at(
                arms.cylinder(i),
                arms.azimuth(i),
                heads,
                lba,
                times.start,
                scaling,
            );
            let ready = times.start + s;
            if times.channel_free_at > ready {
                let angle = self.geometry.sector_angle(self.geometry.locate(lba));
                r = (times.channel_free_at - ready)
                    + self.rotational_wait(
                        angle,
                        arms.azimuth(i),
                        heads,
                        times.channel_free_at,
                        scaling,
                    );
            }
            if best.is_none_or(|(_, bs, br)| s + r < bs + br) {
                best = Some((i, s, r));
            }
        }
        let (best_idx, seek, rot) = best.ok_or(DriveError::NoLiveArm)?;
        let transfer = self.transfer_time(lba, sectors);
        let segs = self.geometry.segments(lba, sectors);
        let end_cylinder = segs
            .last()
            .map(|s| s.start.cylinder)
            .unwrap_or_else(|| self.geometry.locate(lba.min(self.geometry.total_sectors() - 1)).cylinder);
        Ok(ServicePlan {
            actuator: best_idx as u32,
            seek,
            rotational: rot,
            transfer,
            end_cylinder,
        })
    }

    /// Equally spaced azimuths for `n` assemblies (Figure 1 places two
    /// assemblies diagonally, i.e. half a revolution apart).
    pub fn default_arms(&self, n: u32) -> Vec<ArmState> {
        self.arms_with_placement(n, &ArmPlacement::EquallySpaced)
    }

    /// Arm assemblies mounted per an explicit placement.
    pub fn arms_with_placement(&self, n: u32, placement: &ArmPlacement) -> Vec<ArmState> {
        (0..n)
            .map(|i| ArmState {
                azimuth: placement.azimuth(i, n),
                cylinder: 0,
                failed: false,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diskmodel::presets;

    fn mech() -> Mechanics {
        Mechanics::new(&presets::barracuda_es_750gb())
    }

    fn plan(m: &Mechanics, arms: &[ArmState], lba: u64, sectors: u32, at: SimTime) -> Result<ServicePlan, DriveError> {
        m.plan_set_with_heads(&ArmSet::from_arms(arms), 1, lba, sectors, PlanTimes::at(at), LatencyScaling::none())
    }

    #[test]
    fn zero_distance_seek_is_free() {
        let m = mech();
        let arm = ArmState {
            azimuth: 0.0,
            cylinder: m.geometry().locate(0).cylinder,
            failed: false,
        };
        let (seek, _rot) =
            m.positioning_at(arm.cylinder, arm.azimuth, 1, 0, SimTime::ZERO, LatencyScaling::none());
        assert_eq!(seek, SimDuration::ZERO);
    }

    #[test]
    fn scaling_knobs_apply() {
        let m = mech();
        let arm = ArmState {
            azimuth: 0.0,
            cylinder: 0,
            failed: false,
        };
        let lba = m.geometry().total_sectors() / 2;
        let t = SimTime::from_millis(1.0);
        let at = |scaling| m.positioning_at(arm.cylinder, arm.azimuth, 1, lba, t, scaling);
        let (s1, _) = at(LatencyScaling::none());
        let (s2, _) = at(LatencyScaling::seek_only(0.5));
        assert_eq!(s2, s1.scale(0.5));
        let (_, r0) = at(LatencyScaling::rotational_only(0.0));
        assert_eq!(r0, SimDuration::ZERO);
    }

    #[test]
    fn plan_picks_closer_arm() {
        let m = mech();
        let target = m.geometry().total_sectors() - 1;
        let target_cyl = m.geometry().locate(target).cylinder;
        let arms = vec![
            ArmState {
                azimuth: 0.0,
                cylinder: 0,
                failed: false,
            },
            ArmState {
                azimuth: 0.5,
                cylinder: target_cyl,
                failed: false,
            },
        ];
        let plan = plan(&m, &arms, target, 8, SimTime::ZERO).unwrap();
        assert_eq!(plan.actuator, 1);
        assert_eq!(plan.seek, SimDuration::ZERO);
    }

    #[test]
    fn plan_skips_failed_arm() {
        let m = mech();
        let target = m.geometry().total_sectors() - 1;
        let target_cyl = m.geometry().locate(target).cylinder;
        let arms = vec![
            ArmState {
                azimuth: 0.0,
                cylinder: 0,
                failed: false,
            },
            ArmState {
                azimuth: 0.5,
                cylinder: target_cyl,
                failed: true,
            },
        ];
        let plan = plan(&m, &arms, target, 8, SimTime::ZERO).unwrap();
        assert_eq!(plan.actuator, 0);
        assert!(plan.seek > SimDuration::ZERO);
    }

    #[test]
    fn all_failed_is_typed_error() {
        let m = mech();
        let arms = vec![ArmState {
            azimuth: 0.0,
            cylinder: 0,
            failed: true,
        }];
        let err = plan(&m, &arms, 0, 8, SimTime::ZERO).unwrap_err();
        assert_eq!(err, DriveError::NoLiveArm);
    }

    #[test]
    fn more_arms_never_worse_positioning() {
        let m = mech();
        for n in 1..=4u32 {
            let arms_n = m.default_arms(n);
            let arms_1 = m.default_arms(1);
            for i in 0..50u64 {
                let lba = (i * 16_777_213) % m.geometry().total_sectors();
                let t = SimTime::from_millis(i as f64 * 0.93);
                let p_n = plan(&m, &arms_n, lba, 8, t).unwrap();
                let p_1 = plan(&m, &arms_1, lba, 8, t).unwrap();
                assert!(
                    p_n.positioning() <= p_1.positioning(),
                    "n={n} lba={lba}: {} > {}",
                    p_n.positioning(),
                    p_1.positioning()
                );
            }
        }
    }

    #[test]
    fn four_arms_bound_rotational_wait() {
        let m = mech();
        let arms = m.default_arms(4);
        let quarter = m.rotation().period().as_millis() / 4.0;
        for i in 0..200u64 {
            let lba = (i * 7_368_787) % m.geometry().total_sectors();
            // Park all arms on the target cylinder so seek is zero and
            // the rotational bound is exact.
            let cyl = m.geometry().locate(lba).cylinder;
            let parked: Vec<ArmState> = arms
                .iter()
                .map(|a| ArmState {
                    cylinder: cyl,
                    ..*a
                })
                .collect();
            let p = plan(&m, &parked, lba, 1, SimTime::from_millis(i as f64 * 1.31)).unwrap();
            assert!(
                p.rotational.as_millis() <= quarter + 1e-3,
                "rot {} > quarter {quarter}",
                p.rotational
            );
        }
    }

    #[test]
    fn transfer_time_monotone_in_size() {
        let m = mech();
        let t8 = m.transfer_time(0, 8);
        let t64 = m.transfer_time(0, 64);
        let t4096 = m.transfer_time(0, 4096);
        assert!(t8 < t64 && t64 < t4096);
    }

    #[test]
    fn cross_track_transfer_charges_switch() {
        let m = mech();
        let spt = m.geometry().zones()[0].sectors_per_track;
        let within = m.transfer_time(0, 8);
        let crossing = m.transfer_time(spt as u64 - 4, 8);
        assert!(crossing > within);
    }

    #[test]
    fn plan_skips_busy_arm_until_it_frees() {
        let m = mech();
        let target = m.geometry().total_sectors() - 1;
        let target_cyl = m.geometry().locate(target).cylinder;
        let mut set = ArmSet::from_arms(&[
            ArmState { azimuth: 0.0, cylinder: 0, failed: false },
            ArmState { azimuth: 0.5, cylinder: target_cyl, failed: false },
        ]);
        let busy_until = SimTime::from_millis(3.0);
        set.occupy(1, busy_until);
        let at = |now| PlanTimes::at(now);
        let p = m.plan_set_with_heads(&set, 1, target, 8, at(SimTime::ZERO), LatencyScaling::none());
        assert_eq!(p.unwrap().actuator, 0, "busy arm is not a candidate");
        let p = m.plan_set_with_heads(&set, 1, target, 8, at(busy_until), LatencyScaling::none());
        assert_eq!(p.unwrap().actuator, 1, "free again at its busy-until time");
    }

    #[test]
    fn busy_channel_delays_transfer_and_counts_as_rotational() {
        let m = mech();
        let arms = ArmSet::from_arms(&m.default_arms(1));
        let lba = m.geometry().total_sectors() / 3;
        let start = SimTime::from_millis(1.0);
        let free = m
            .plan_set_with_heads(&arms, 1, lba, 8, PlanTimes::at(start), LatencyScaling::none())
            .unwrap();
        let gate = start + free.positioning() + SimDuration::from_millis(2.0);
        let times = PlanTimes { now: start, start, channel_free_at: gate };
        let gated = m.plan_set_with_heads(&arms, 1, lba, 8, times, LatencyScaling::none()).unwrap();
        assert_eq!(gated.seek, free.seek);
        assert!(start + gated.positioning() >= gate, "transfer starts before the channel frees");
        assert!(gated.rotational < gate - start + m.rotation().period());
        // A gate already passed when the head arrives changes nothing.
        let early = PlanTimes { now: start, start, channel_free_at: start };
        let p = m.plan_set_with_heads(&arms, 1, lba, 8, early, LatencyScaling::none()).unwrap();
        assert_eq!(p, free);
    }

    #[test]
    fn placement_azimuths() {
        let eq = ArmPlacement::EquallySpaced;
        assert_eq!(eq.azimuth(0, 4), 0.0);
        assert!((eq.azimuth(1, 4) - 0.25).abs() < 1e-12);
        let co = ArmPlacement::Colocated;
        assert_eq!(co.azimuth(3, 4), 0.0);
        let custom = ArmPlacement::Custom(vec![0.1, 0.6]);
        assert!((custom.azimuth(1, 2) - 0.6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one azimuth per assembly")]
    fn custom_placement_length_checked() {
        ArmPlacement::Custom(vec![0.1]).azimuth(0, 2);
    }

    #[test]
    fn colocated_arms_have_no_rotational_advantage() {
        let m = mech();
        let spaced = m.arms_with_placement(4, &ArmPlacement::EquallySpaced);
        let stacked = m.arms_with_placement(4, &ArmPlacement::Colocated);
        // With all arms parked on the target cylinder, the best
        // rotational wait of the spaced set is never worse, and is
        // strictly better on average.
        let mut spaced_total = 0.0;
        let mut stacked_total = 0.0;
        for i in 0..200u64 {
            let lba = (i * 7_368_787) % m.geometry().total_sectors();
            let cyl = m.geometry().locate(lba).cylinder;
            let park = |arms: &[ArmState]| -> Vec<ArmState> {
                arms.iter().map(|a| ArmState { cylinder: cyl, ..*a }).collect()
            };
            let now = SimTime::from_millis(i as f64 * 1.17);
            let ps = plan(&m, &park(&spaced), lba, 1, now).unwrap();
            let pc = plan(&m, &park(&stacked), lba, 1, now).unwrap();
            assert!(ps.rotational <= pc.rotational, "spaced worse at {i}");
            spaced_total += ps.rotational.as_millis();
            stacked_total += pc.rotational.as_millis();
        }
        assert!(spaced_total < stacked_total * 0.5, "{spaced_total} vs {stacked_total}");
    }

    #[test]
    fn default_arms_spacing() {
        let m = mech();
        let arms = m.default_arms(4);
        assert_eq!(arms.len(), 4);
        assert_eq!(arms[0].azimuth, 0.0);
        assert!((arms[2].azimuth - 0.5).abs() < 1e-12);
    }
}
