//! The DRPM and MAID power-management baselines (§5's related work),
//! run end to end through the one event loop, `experiments::run`.

#[path = "support/power.rs"]
mod support;

mod drpm {
    use super::support::{burst_after_idle, drpm_requests, run_drpm};
    use diskmodel::{presets, DriveError, PowerModel};
    use intradisk::drpm::{DrpmConfig, DrpmDrive};

    #[test]
    fn completes_everything() {
        let params = presets::barracuda_es_750gb();
        let r = run_drpm(&params, drpm_requests(500, 10.0, 1));
        assert_eq!(r.completed, 500);
        assert!(r.average_power_w() > 0.0);
    }

    #[test]
    fn bursty_idle_load_spends_time_at_low_speed() {
        let params = presets::barracuda_es_750gb();
        // Widely spaced requests: mostly idle, big spin-down opportunity.
        let r = run_drpm(&params, drpm_requests(100, 3_000.0, 2));
        assert!(
            r.low_speed_fraction > 0.5,
            "low-speed fraction {}",
            r.low_speed_fraction
        );
        // And saves real power vs. a full-speed drive idling.
        let full_idle = PowerModel::new(&params).idle_w();
        assert!(
            r.average_power_w() < full_idle * 0.85,
            "{}",
            r.average_power_w()
        );
    }

    #[test]
    fn sustained_load_stays_at_full_speed() {
        let params = presets::barracuda_es_750gb();
        let r = run_drpm(&params, drpm_requests(1_000, 6.0, 3));
        assert!(
            r.low_speed_fraction < 0.05,
            "low fraction {}",
            r.low_speed_fraction
        );
    }

    #[test]
    fn upshift_pays_latency() {
        let params = presets::barracuda_es_750gb();
        // Long idle (downshift), then a burst (upshift + transition).
        let r = run_drpm(&params, burst_after_idle());
        assert!(r.upshifts >= 1);
        // The burst behind the transition sees >1.5 s responses.
        assert!(
            r.response_time_ms.max() > 1_000.0,
            "max {}",
            r.response_time_ms.max()
        );
    }

    #[test]
    fn low_speed_service_is_slower_but_works() {
        let params = presets::barracuda_es_750gb();
        // Sparse singles: each serviced at low speed without upshift.
        let r = run_drpm(&params, drpm_requests(50, 5_000.0, 4));
        assert_eq!(r.upshifts, 0);
        assert_eq!(r.completed, 50);
        // Mean service reflects the 4200-RPM rotation (~7.1 ms half-rev).
        assert!(r.response_time_ms.mean() > 5.0);
    }

    #[test]
    fn rejects_low_rpm_outside_zero_to_full_speed() {
        let params = presets::barracuda_es_750gb();
        for low_rpm in [0, params.rpm(), params.rpm() + 1] {
            let config = DrpmConfig {
                low_rpm,
                ..DrpmConfig::typical()
            };
            let err = DrpmDrive::new(&params, config).expect_err("low speed out of range");
            assert!(
                matches!(err, DriveError::InvalidConfig { .. }),
                "{low_rpm}: {err}"
            );
        }
    }
}

mod maid {
    use super::support::{archival, maid_member, run_maid};
    use array::maid::{MaidArray, MaidConfig};
    use diskmodel::{DriveError, PowerModel};
    use intradisk::{IoKind, IoRequest};
    use simkit::{Rng64, SimTime};

    #[test]
    fn completes_everything() {
        let r = run_maid(MaidConfig::typical(), 4, archival(4, 400, 1));
        assert_eq!(r.completed, 400);
        assert!(r.average_power_w() > 0.0);
    }

    #[test]
    fn archival_load_sleeps_most_of_the_time() {
        let r = run_maid(MaidConfig::typical(), 8, archival(8, 300, 2));
        assert!(
            r.standby_fraction > 0.5,
            "standby fraction {}",
            r.standby_fraction
        );
        assert!(r.spin_ups > 0);
        // Far below the always-on array's idle floor.
        let always_on = PowerModel::new(&maid_member()).idle_w() * 8.0;
        assert!(
            r.average_power_w() < always_on * 0.5,
            "{} vs {}",
            r.average_power_w(),
            always_on
        );
    }

    #[test]
    fn cold_hits_pay_the_spin_up() {
        let r = run_maid(MaidConfig::typical(), 4, archival(4, 200, 3));
        // The response-time tail carries whole spin-ups (6 s).
        assert!(
            r.response_time_ms.percentile(99.0) > 5_000.0,
            "p99 {}",
            r.response_time_ms.percentile(99.0)
        );
    }

    #[test]
    fn hot_load_never_spins_down() {
        let per_disk = diskmodel::Geometry::new(&maid_member()).total_sectors();
        let mut rng = Rng64::new(4);
        let reqs: Vec<IoRequest> = (0..500u64)
            .map(|i| {
                IoRequest::new(
                    i,
                    SimTime::from_millis(i as f64 * 10.0),
                    (i % 4) * per_disk + rng.below(per_disk),
                    8,
                    IoKind::Read,
                )
            })
            .collect();
        let r = run_maid(MaidConfig::typical(), 4, reqs);
        assert_eq!(r.spin_ups, 0);
        assert!(r.standby_fraction < 1e-9);
        // Mean stays in disk-latency territory.
        assert!(
            r.response_time_ms.mean() < 50.0,
            "{}",
            r.response_time_ms.mean()
        );
    }

    #[test]
    fn deterministic() {
        let a = run_maid(MaidConfig::typical(), 4, archival(4, 200, 5));
        let b = run_maid(MaidConfig::typical(), 4, archival(4, 200, 5));
        assert_eq!(a.energy_j, b.energy_j);
        assert_eq!(a.response_time_ms.mean(), b.response_time_ms.mean());
    }

    #[test]
    fn rejects_an_array_of_no_disks() {
        let err = MaidArray::new(&maid_member(), MaidConfig::typical(), 0).expect_err("zero disks");
        assert!(matches!(err, DriveError::InvalidConfig { .. }), "{err}");
    }
}
