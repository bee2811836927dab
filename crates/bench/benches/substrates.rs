//! Microbenchmarks of the simulator's building blocks.

use bench::{bench, bench_micro};
use diskmodel::{presets, Geometry, RotationModel, SeekProfile};
use intradisk::{DiskDrive, DriveConfig, IoKind, IoRequest, SegmentedCache};
use simkit::{Rng64, Sample, SimTime, Zipf};
use std::hint::black_box;

const WARMUP: usize = 2;
const SAMPLES: usize = 15;
const MICRO_ITERS: usize = 10_000;

fn bench_seek_curve() {
    let params = presets::barracuda_es_750gb();
    let profile = SeekProfile::new(&params);
    let mut d = 1u32;
    bench_micro("seek_time_eval", WARMUP, SAMPLES, MICRO_ITERS, || {
        d = (d * 7 + 13) % 119_999;
        black_box(profile.seek_time(d))
    });
}

fn bench_geometry() {
    let params = presets::barracuda_es_750gb();
    let geom = Geometry::new(&params);
    let total = geom.total_sectors();
    let mut lba = 0u64;
    bench_micro("geometry_locate", WARMUP, SAMPLES, MICRO_ITERS, || {
        lba = (lba.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1)) % total;
        black_box(geom.locate(lba))
    });
    let mut lba = 0u64;
    bench_micro(
        "geometry_segments_64k",
        WARMUP,
        SAMPLES,
        MICRO_ITERS,
        || {
            lba = (lba + 999_983) % (total - 128);
            let walk = geom.segments(geom.target(lba), 128);
            black_box(walk.map(|s| s.sectors).sum::<u32>())
        },
    );
}

fn bench_rotation() {
    let params = presets::barracuda_es_750gb();
    let rot = RotationModel::new(&params);
    let mut i = 0u64;
    bench_micro("rotation_wait", WARMUP, SAMPLES, MICRO_ITERS, || {
        i += 1;
        let t = SimTime::from_nanos(i * 1_234_567);
        black_box(rot.wait_until_under(0.37, 0.91, t))
    });
}

fn bench_cache() {
    let mut cache = SegmentedCache::new(8);
    let mut rng = Rng64::new(1);
    for _ in 0..16 {
        cache.install(rng.below(1_000_000), 8);
    }
    bench_micro("cache_lookup", WARMUP, SAMPLES, MICRO_ITERS, || {
        black_box(cache.lookup(rng.below(1_000_000), 8))
    });
}

fn bench_zipf() {
    let zipf = Zipf::new(1_000_000, 1.1);
    let mut rng = Rng64::new(2);
    bench_micro("zipf_sample_1m_items", WARMUP, SAMPLES, MICRO_ITERS, || {
        black_box(zipf.sample(&mut rng))
    });
}

fn bench_drive_throughput() {
    // End-to-end simulator throughput: requests serviced per wall-clock
    // second on a saturated 4-actuator drive.
    let params = presets::barracuda_es_750gb();
    bench("drive_sim_1000_requests", WARMUP, SAMPLES, || {
        let mut drive = DiskDrive::new(&params, DriveConfig::sa(4));
        let cap = drive.capacity_sectors();
        let mut completion = None;
        let mut i = 0u64;
        loop {
            let arrival = (i < 1000).then(|| SimTime::from_millis(i as f64 * 0.5));
            let take = match (arrival, completion) {
                (None, None) => break,
                (Some(a), Some(c)) => a <= c,
                (Some(_), None) => true,
                (None, Some(_)) => false,
            };
            if take {
                let r = IoRequest::new(
                    i,
                    arrival.expect("arrival"),
                    (i * 48_271 * 65_537) % cap,
                    8,
                    IoKind::Read,
                );
                i += 1;
                if let Some(f) = drive.submit(r, r.arrival).expect("submit at arrival") {
                    completion = Some(f);
                }
            } else {
                let (_, next) = drive
                    .complete(completion.expect("pending"))
                    .expect("complete at promised time");
                completion = next;
            }
        }
        black_box(drive.metrics().completed)
    });
}

fn main() {
    bench_seek_curve();
    bench_geometry();
    bench_rotation();
    bench_cache();
    bench_zipf();
    bench_drive_throughput();
}
