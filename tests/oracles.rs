//! Differential and metamorphic oracles.
//!
//! Rather than asserting absolute numbers, each test here pits two
//! configurations of the simulator against each other where the model
//! *guarantees* a relationship:
//!
//! * FCFS / SSTF / SPTF reorder service but must agree on the
//!   completion **set** and conserve every request (no drops, no
//!   duplicates, no time travel),
//! * `DriveConfig::sa(1)` must reduce exactly to the conventional
//!   single-actuator drive,
//! * arm-assembly placement is irrelevant when there is only one arm,
//! * scaling RPM moves latency (and spindle power) monotonically.
//!
//! Golden oracles pin what must not move: the `repro` report and export
//! hashes, SHA-256 digests of every overlap mode's completion records,
//! and SHA-256 digests of every DRPM and MAID result field.

use diskmodel::{presets, DiskParams, PowerModel, RotationModel};
use experiments::{ArrayRunResult, DriveRunResult};
use intradisk::{
    ArmPlacement, CompletedIo, DiskDrive, DriveConfig, DriveMode, IoKind, IoRequest, OverlapMode,
    QueuePolicy,
};
use simkit::{SimDuration, SimTime};
use workload::{SyntheticSpec, Trace};

fn trace(mean_ms: f64, n: usize, seed: u64) -> Trace {
    let cap = presets::barracuda_es_750gb().capacity_sectors();
    SyntheticSpec::paper(mean_ms, cap, n).generate(seed)
}

// Oracle traces replay cleanly by construction; unwrap the runner's
// `Result` in one place so the assertions below stay focused.
fn run_drive(params: &DiskParams, config: DriveConfig, trace: &Trace) -> DriveRunResult {
    experiments::run_drive(params, config, trace).expect("replay succeeds")
}

fn run_array(
    params: &DiskParams,
    member: DriveConfig,
    disks: usize,
    layout: array::Layout,
    trace: &Trace,
) -> ArrayRunResult {
    experiments::run_array(params, member, disks, layout, trace).expect("replay succeeds")
}

/// Replays `trace` and returns the sorted completed-request ids,
/// asserting causality (no completion before its arrival) along the way.
fn completion_ids(config: DriveConfig, trace: &Trace) -> Vec<u64> {
    let params = presets::barracuda_es_750gb();
    let mut drive = DiskDrive::new(&params, config);
    let mut completion = None;
    let mut ids = Vec::new();
    let reqs = trace.requests();
    let mut i = 0;
    loop {
        let arrival = reqs.get(i).map(|r| r.arrival);
        let take = match (arrival, completion) {
            (None, None) => break,
            (Some(a), Some(c)) => a <= c,
            (Some(_), None) => true,
            (None, Some(_)) => false,
        };
        if take {
            let r = reqs[i];
            i += 1;
            if let Some(f) = drive.submit(r, r.arrival).expect("submit at arrival") {
                completion = Some(f);
            }
        } else {
            let (done, next) = drive
                .complete(completion.expect("pending completion"))
                .expect("complete at promised time");
            assert!(
                done.completed >= done.request.arrival,
                "request {} completed at {:?} before its arrival {:?}",
                done.request.id,
                done.completed,
                done.request.arrival
            );
            ids.push(done.request.id);
            completion = next;
        }
    }
    ids.sort_unstable();
    ids
}

// ----------------------------------------------------- scheduling oracles

#[test]
fn oracle_policies_agree_on_completion_set_and_conserve_requests() {
    // The queue policy reorders service but must neither drop nor
    // duplicate: all three policies complete exactly the submitted set.
    let t = trace(5.0, 3_000, 7);
    let expect: Vec<u64> = t.requests().iter().map(|r| r.id).collect();
    for actuators in [1u32, 4] {
        for policy in [QueuePolicy::Fcfs, QueuePolicy::Sstf, QueuePolicy::Sptf] {
            let ids = completion_ids(DriveConfig::sa(actuators).with_policy(policy), &t);
            assert_eq!(
                ids, expect,
                "{policy:?} on SA({actuators}) lost or duplicated requests"
            );
        }
    }
}

#[test]
fn oracle_position_aware_policies_do_not_lose_to_fcfs_under_load() {
    // Metamorphic: at queue-building load, shortest-positioning-time
    // scheduling exists to beat blind FCFS — it must at least not lose.
    let t = trace(3.0, 4_000, 11);
    let params = presets::barracuda_es_750gb();
    let mean = |policy| {
        run_drive(&params, DriveConfig::sa(1).with_policy(policy), &t)
            .metrics
            .response_time_ms
            .mean()
    };
    let fcfs = mean(QueuePolicy::Fcfs);
    let sptf = mean(QueuePolicy::Sptf);
    assert!(
        sptf <= fcfs * 1.02,
        "SPTF mean {sptf:.2} ms worse than FCFS {fcfs:.2} ms"
    );
}

// ---------------------------------------------------- reduction to baseline

#[test]
fn oracle_sa1_reduces_exactly_to_conventional_drive() {
    // `conventional()` and `sa(1)` must be the *same* machine: identical
    // completion counts, response-time statistics, and power draw.
    let t = trace(6.0, 3_000, 3);
    let params = presets::barracuda_es_750gb();
    let conv = run_drive(&params, DriveConfig::conventional(), &t);
    let sa1 = run_drive(&params, DriveConfig::sa(1), &t);
    assert_eq!(conv.metrics.completed, sa1.metrics.completed);
    assert_eq!(
        conv.metrics.response_time_ms.mean(),
        sa1.metrics.response_time_ms.mean(),
        "SA(1) mean response diverges from conventional"
    );
    assert_eq!(
        conv.metrics.response_time_ms.max(),
        sa1.metrics.response_time_ms.max()
    );
    assert_eq!(conv.power.total_w(), sa1.power.total_w());
    assert_eq!(conv.duration, sa1.duration);
}

#[test]
fn oracle_single_arm_placement_is_irrelevant() {
    // Azimuth placement only matters with multiple assemblies; with one
    // arm both strategies put it in the same place.
    let t = trace(6.0, 3_000, 5);
    let params = presets::barracuda_es_750gb();
    let spaced = run_drive(
        &params,
        DriveConfig::sa(1).with_placement(ArmPlacement::EquallySpaced),
        &t,
    );
    let colocated = run_drive(
        &params,
        DriveConfig::sa(1).with_placement(ArmPlacement::Colocated),
        &t,
    );
    assert_eq!(
        spaced.metrics.response_time_ms.mean(),
        colocated.metrics.response_time_ms.mean(),
        "single-arm placement changed the simulation"
    );
    assert_eq!(spaced.metrics.completed, colocated.metrics.completed);
}

// ------------------------------------------------------------ RPM scaling

#[test]
fn oracle_rpm_scaling_moves_latency_and_power_monotonically() {
    // Figures 6/7 ride on this: spinning faster can only shorten
    // rotational waits and transfers (lower response time) while
    // drawing more spindle power.
    let t = trace(20.0, 2_000, 9);
    let rpms = [4_200u32, 5_200, 6_200, 7_200];
    let mut means = Vec::new();
    let mut spindle = Vec::new();
    for rpm in rpms {
        let params = presets::barracuda_es_at_rpm(rpm);
        let r = run_drive(&params, DriveConfig::conventional(), &t);
        assert_eq!(r.metrics.completed, 2_000);
        means.push(r.metrics.response_time_ms.mean());
        spindle.push(PowerModel::new(&params).spindle_w());
    }
    testkit::golden::assert_strictly_increasing("spindle power vs RPM", &spindle);
    for (pair, rpm) in means.windows(2).zip(rpms.windows(2)) {
        assert!(
            pair[1] <= pair[0],
            "raising RPM {} -> {} raised mean response {:.3} -> {:.3}",
            rpm[0],
            rpm[1],
            pair[0],
            pair[1]
        );
    }
}

// --------------------------------------------------- determinism oracle

/// Runs one full experiment (a drive replay and a 4-disk array replay
/// of the same seeded trace) and renders every metric to text. `Debug`
/// on `f64` prints the shortest round-trip representation, so two
/// byte-identical renderings imply bit-identical results.
fn full_experiment_fingerprint(seed: u64) -> String {
    use std::fmt::Write;
    let params = presets::barracuda_es_750gb();
    let t = trace(5.0, 2_000, seed);
    let d = run_drive(&params, DriveConfig::sa(2), &t);
    let a = run_array(
        &params,
        DriveConfig::conventional(),
        4,
        array::Layout::striped_default(),
        &t,
    );
    let mut out = String::new();
    writeln!(out, "drive metrics {:?}", d.metrics).expect("write to string");
    writeln!(out, "drive power {:?}", d.power).expect("write to string");
    writeln!(out, "drive duration {:?}", d.duration).expect("write to string");
    writeln!(out, "array response {:?}", a.response_time_ms).expect("write to string");
    writeln!(out, "array hist {:?}", a.response_hist).expect("write to string");
    writeln!(out, "array power {:?}", a.power).expect("write to string");
    writeln!(
        out,
        "array duration {:?} completed {}",
        a.duration, a.completed
    )
    .expect("write to string");
    out
}

#[test]
fn oracle_identical_seeds_produce_byte_identical_metrics() {
    // The determinism contract (DESIGN.md): re-running the same seeded
    // experiment in the same binary must reproduce every metric
    // bit-for-bit — no HashMap iteration order, wall-clock reads, or
    // ambient RNG anywhere in the pipeline.
    let first = full_experiment_fingerprint(21);
    let second = full_experiment_fingerprint(21);
    assert_eq!(
        first.as_bytes(),
        second.as_bytes(),
        "identically-seeded runs diverged:\n--- first ---\n{first}\n--- second ---\n{second}"
    );
    // Sanity: the fingerprint actually depends on the seed.
    let other = full_experiment_fingerprint(22);
    assert_ne!(first, other, "fingerprint is insensitive to the seed");
}

// --------------------------------------------- telemetry cross-check

#[test]
fn oracle_telemetry_agrees_with_power_accounting() {
    // Satellite oracle: the event stream is a *second* record of the
    // same run. Time-in-mode reconstructed from telemetry must match
    // the drive's own mode accumulator mode-for-mode, and the energy
    // implied by (time-in-mode x mode power) must match the power
    // model's (average power x span).
    use intradisk::DriveMode;
    use telemetry::{PowerMode, RingRecorder, TraceAnalysis};

    let params = presets::barracuda_es_750gb();
    let t = trace(6.0, 2_000, 13);
    let powers = experiments::tracing::mode_powers(&params);
    for actuators in [1u32, 4] {
        let mut rec = RingRecorder::new();
        let r = experiments::run(
            experiments::DriveDevice::new(&params, DriveConfig::sa(actuators)),
            &t,
            experiments::Hooks::none().recorder(&mut rec),
        )
        .expect("replay succeeds");
        assert_eq!(rec.dropped(), 0, "ring overflowed");
        let analysis = TraceAnalysis::from_samples(&rec.sorted_samples());
        let scope = analysis.scope(0).expect("scope 0 present");
        for (mode, drive_mode) in [
            (PowerMode::Idle, DriveMode::Idle),
            (PowerMode::Seek, DriveMode::Seek),
            (PowerMode::RotationalWait, DriveMode::RotationalWait),
            (PowerMode::Transfer, DriveMode::Transfer),
        ] {
            testkit::golden::assert_abs(
                &format!("SA({actuators}) time in {}", mode.name()),
                scope.time_in(mode).as_millis(),
                r.metrics.modes.time_in(drive_mode.key()).as_millis(),
                1e-6,
            );
        }
        let telemetry_energy = scope.energy_joules(&powers);
        let model_energy = r.power.total_w() * r.duration.as_secs();
        testkit::golden::assert_rel(
            &format!("SA({actuators}) energy"),
            telemetry_energy,
            model_energy,
            1e-9,
        );
        testkit::golden::assert_rel(
            &format!("SA({actuators}) average power"),
            scope.average_power_w(&powers),
            r.power.total_w(),
            1e-9,
        );
    }
}

// ------------------------------- parallel-execution determinism oracle

/// Renders every study's full report at a reduced scale on `exec`.
/// The rendered text is the experiment's observable output, so two
/// byte-identical renderings mean the executor's worker count is
/// invisible to the science.
fn full_sweep_rendering(exec: &experiments::Executor) -> String {
    use experiments::{
        BottleneckStudy, LimitStudy, RaidStudy, RpmStudy, SaStudy, Scale, Study, ValidationStudy,
    };
    let scale = Scale::quick().with_requests(2_000);
    let mut out = String::new();
    let limit = LimitStudy::all().run(scale, exec).expect("limit study replays");
    out.push_str(&limit.render_figure2());
    out.push_str(&limit.render_figure3());
    let bott = BottleneckStudy::all().run(scale, exec).expect("bottleneck study replays");
    out.push_str(&bott.render());
    let sa = SaStudy::all().run(scale, exec).expect("SA study replays");
    out.push_str(&sa.render_cdfs());
    out.push_str(&sa.render_pdfs());
    out.push_str(&sa.render_power());
    let rpm = RpmStudy::all().run(scale, exec).expect("RPM study replays");
    out.push_str(&rpm.render_figure6());
    out.push_str(&rpm.render_figure7());
    let raid = RaidStudy::all().run(scale, exec).expect("RAID study replays");
    out.push_str(&raid.render_performance());
    out.push_str(&raid.render_power());
    let validation = ValidationStudy::all().run(scale, exec).expect("validation replays");
    out.push_str(&validation.render());
    out
}

#[test]
fn oracle_parallel_sweep_is_byte_identical_to_serial() {
    // The Study/Executor contract: points are pure functions of
    // (point, scale), outputs are reduced in plan order, so a 4-worker
    // sweep must render the exact bytes a serial sweep renders.
    let serial = full_sweep_rendering(&experiments::Executor::serial());
    let parallel = full_sweep_rendering(&experiments::Executor::new(4));
    assert_eq!(
        serial.as_bytes(),
        parallel.as_bytes(),
        "jobs=4 diverged from jobs=1"
    );
}

#[test]
fn oracle_rotation_model_scales_with_rpm_and_track_density() {
    // Model-level metamorphic checks: the revolution period shrinks
    // inversely with RPM, and transferring a fixed number of sectors
    // gets faster as tracks hold more of them (zone scaling).
    let mut periods = Vec::new();
    for rpm in [7_200u32, 6_200, 5_200, 4_200] {
        periods.push(
            RotationModel::new(&presets::barracuda_es_at_rpm(rpm))
                .period()
                .as_millis(),
        );
    }
    testkit::golden::assert_strictly_increasing("rotation period vs falling RPM", &periods);
    let rot = RotationModel::new(&presets::barracuda_es_750gb());
    let mut transfer = Vec::new();
    for sectors_per_track in [500u32, 1_000, 2_000] {
        transfer.push(rot.transfer_time(64, sectors_per_track).as_millis());
    }
    testkit::golden::assert_monotone_nonincreasing("transfer time vs track density", &transfer, 0.0);
    assert!(transfer[2] < transfer[0], "denser tracks must transfer faster");
}

// ------------------------------------------- event-kernel equivalence

/// Replays `trace` against a 4-disk RAID-5 array, driving the event
/// loop through an explicit [`Calendar`] implementation, and returns
/// the complete pop sequence plus the rendered metrics.
///
/// This mirrors `experiments::run_array`'s loop exactly, but keeps the
/// calendar generic so the timing wheel and the retired binary heap can
/// replay the *same* science workload and be compared pop-for-pop —
/// the library-level face of the kernel-swap contract (the CLI-level
/// face is the `golden_kernel_swap_*` tests below).
fn array_replay_pops<Q: simkit::Calendar<usize>>(mut events: Q, trace: &Trace) -> String {
    use std::fmt::Write;
    let params = presets::barracuda_es_750gb();
    let mut controller = array::ArrayController::new(
        &params,
        DriveConfig::sa(2),
        4,
        array::Layout::raid5_default(),
    );
    let mut out = String::new();
    let reqs = trace.requests();
    let mut i = 0;
    loop {
        let arrival = reqs.get(i).map(|r| r.arrival);
        let take_arrival = match (arrival, events.peek_time()) {
            (None, None) => break,
            (Some(a), Some(e)) => a <= e,
            (Some(_), None) => true,
            (None, Some(_)) => false,
        };
        if take_arrival {
            let r = reqs[i];
            i += 1;
            for (disk, t) in controller.submit(r, r.arrival).expect("submit at arrival") {
                events.push(t, disk);
            }
        } else {
            let ev = events.pop().expect("event pending");
            writeln!(out, "pop {:?} disk {}", ev.time, ev.payload).expect("write to string");
            let done = controller
                .on_disk_complete(ev.payload, ev.time)
                .expect("complete at promised time");
            if let Some(t) = done.next_on_disk {
                events.push(t, ev.payload);
            }
            for (disk, t) in done.started {
                events.push(t, disk);
            }
        }
    }
    let m = controller.metrics();
    writeln!(
        out,
        "metrics {:?} completed {} stats {:?}",
        m.response_time_ms,
        m.completed,
        events.stats()
    )
    .expect("write to string");
    out
}

#[test]
fn oracle_wheel_replays_array_pop_for_pop_identically_to_heap() {
    // The kernel-swap contract: swapping the calendar implementation is
    // invisible to the science. Every pop (time *and* payload, i.e. the
    // FIFO tie-break among same-time disk completions) and every final
    // metric must match the retired heap exactly on a real RAID-5
    // replay that exercises same-tick bursts (parity updates complete
    // together) and long idle gaps.
    let t = trace(4.0, 3_000, 17);
    let heap = array_replay_pops(simkit::HeapEventQueue::new(), &t);
    let wheel = array_replay_pops(simkit::WheelEventQueue::new(), &t);
    assert_eq!(
        heap.as_bytes(),
        wheel.as_bytes(),
        "wheel replay diverged from heap replay"
    );
    assert!(heap.lines().count() > 3_000, "replay actually popped events");
}

// ------------------------------------------ streaming-ingestion oracles

/// Debug-renders one drive replay and one RAID-5 array replay —
/// shortest-round-trip `f64` formatting, so byte-equal renderings mean
/// bit-identical results.
fn ingestion_fingerprint(d: DriveRunResult, a: ArrayRunResult) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "drive {:?} {:?} {:?}", d.metrics, d.power, d.duration).expect("write to string");
    writeln!(
        out,
        "array {:?} {:?} {:?} {:?} {}",
        a.response_time_ms, a.response_hist, a.power, a.duration, a.completed
    )
    .expect("write to string");
    out
}

#[test]
fn oracle_lazy_source_replays_byte_identical_to_materialized_trace() {
    // The ingestion contract: `run_drive`/`run_array` accept any
    // `IntoRequestSource`, and a lazy generator-backed source must be
    // observationally indistinguishable from the materialized `Trace`
    // it would collect into — every metric bit-for-bit.
    let params = presets::barracuda_es_750gb();
    let spec = SyntheticSpec::paper(5.0, params.capacity_sectors(), 3_000);
    let t = spec.generate(23);
    let layout = array::Layout::raid5_default;
    let from_trace = ingestion_fingerprint(
        run_drive(&params, DriveConfig::sa(4), &t),
        run_array(&params, DriveConfig::sa(2), 4, layout(), &t),
    );
    let from_source = ingestion_fingerprint(
        experiments::run_drive(&params, DriveConfig::sa(4), spec.source(23))
            .expect("replay succeeds"),
        experiments::run_array(&params, DriveConfig::sa(2), 4, layout(), spec.source(23))
            .expect("replay succeeds"),
    );
    assert_eq!(
        from_trace.as_bytes(),
        from_source.as_bytes(),
        "lazy source diverged from materialized trace:\n--- trace ---\n{from_trace}\n--- source ---\n{from_source}"
    );
}

#[test]
fn oracle_spc_streaming_replay_matches_materialized_replay() {
    // The SPC reader's two ingestion paths — `read_trace` (materialize,
    // then replay) and `SpcSource::from_path` (stream line-by-line) —
    // must drive the simulator to bit-identical metrics on a
    // time-ordered trace with comments, blank lines, and multiple ASUs.
    use std::fmt::Write as _;
    use std::io::Write as _;
    use workload::RequestSource as _;

    let mut spc = String::from("# synthetic SPC fixture\n\n");
    for i in 0..600u64 {
        writeln!(
            spc,
            "{},{},{},{},{:.4}",
            i % 3,
            (i * 37) % 5_000,
            512 * (1 + i % 8),
            if i % 5 == 0 { "w" } else { "r" },
            i as f64 * 0.002
        )
        .expect("write to string");
    }
    let path = std::env::temp_dir().join(format!("spc-oracle-{}.trace", std::process::id()));
    std::fs::File::create(&path)
        .and_then(|mut f| f.write_all(spc.as_bytes()))
        .expect("write fixture");

    let params = presets::barracuda_es_750gb();
    let file = std::fs::File::open(&path).expect("open fixture");
    let trace = workload::spc::read_trace(std::io::BufReader::new(file), "spc", 1, None)
        .expect("fixture parses");
    let materialized = run_drive(&params, DriveConfig::sa(2), &trace);

    let source = workload::SpcSource::from_path(&path, "spc", 1, None).expect("fixture parses");
    assert_eq!(source.len_hint(), None, "SPC streams without a length hint");
    let streamed = experiments::run_drive(&params, DriveConfig::sa(2), source)
        .expect("replay succeeds");
    std::fs::remove_file(&path).expect("fixture cleanup");

    assert_eq!(streamed.metrics.completed, 600);
    let a = format!("{:?} {:?} {:?}", materialized.metrics, materialized.power, materialized.duration);
    let b = format!("{:?} {:?} {:?}", streamed.metrics, streamed.power, streamed.duration);
    assert_eq!(a, b, "streamed SPC replay diverged from materialized replay");
}

#[test]
fn oracle_streaming_stats_mode_preserves_the_simulation() {
    // `StatsMode` only changes how latencies are *recorded*: the
    // simulation itself — completion count, duration, power, histograms
    // and streamed percentiles — must be identical, and the streamed
    // p90 must sit within the histogram's guaranteed relative error of
    // the exact p90.
    let params = presets::barracuda_es_750gb();
    let t = trace(5.0, 4_000, 29);
    let exact = run_drive(&params, DriveConfig::sa(2), &t);
    let stream = run_drive(
        &params,
        DriveConfig::sa(2).with_stats_mode(simkit::StatsMode::Streaming),
        &t,
    );
    assert!(exact.metrics.response_time_ms.is_exact());
    assert!(!stream.metrics.response_time_ms.is_exact());
    assert_eq!(exact.metrics.completed, stream.metrics.completed);
    assert_eq!(exact.duration, stream.duration);
    assert_eq!(exact.power.total_w(), stream.power.total_w());
    assert_eq!(
        format!("{:?}", exact.metrics.response_hist),
        format!("{:?}", stream.metrics.response_hist)
    );
    assert_eq!(exact.p90_stream_ms(), stream.p90_stream_ms());
    let p90_exact = exact.metrics.response_time_ms.percentile(90.0);
    let p90_stream = stream.metrics.response_time_ms.percentile_stream(90.0);
    let tol = stream.metrics.response_time_ms.relative_error();
    assert!(
        (p90_stream - p90_exact).abs() <= p90_exact * tol,
        "streamed p90 {p90_stream:.4} vs exact {p90_exact:.4} exceeds bound {tol}"
    );
}

/// The export-hash golden hashes with `explorer::sha256`; pin that
/// digest to FIPS 180-4 vectors here, where the golden relies on it.
mod sha256 {
    #[test]
    fn matches_known_vectors() {
        use explorer::sha256::hex;
        assert_eq!(
            hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }
}

fn goldens_dir() -> std::path::PathBuf {
    // Root tests are owned by the experiments crate, so the manifest
    // dir is crates/experiments; the pinned goldens live at the root.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens")
}

fn repro(args: &[&str]) -> std::process::Output {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs");
    assert!(
        out.status.success(),
        "repro {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// Runs `repro` with arguments it must reject: exit 1 with `message`
/// on stderr, nothing on stdout, and no panic.
fn repro_rejects(args: &[&str], message: &str) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "repro {args:?}: {stderr}");
    assert!(stderr.contains(message), "repro {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "repro {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "repro {args:?} wrote a report");
}

#[test]
fn repro_rejects_zero_actuators() {
    repro_rejects(&["scale", "--actuators", "0"], "--actuators must be at least 1");
}

#[test]
fn repro_rejects_zero_requests() {
    repro_rejects(&["fig5", "--requests", "0"], "--requests must be at least 1");
}

#[test]
#[ignore = "runs the full repro CLI; exercised by scripts/verify.sh"]
fn golden_kernel_swap_report_is_byte_identical() {
    // `tests/goldens/repro_all_r2000.txt` was pinned on the retired
    // binary-heap kernel; the timing-wheel kernel must reproduce the
    // whole report byte-for-byte.
    let golden = std::fs::read(goldens_dir().join("repro_all_r2000.txt")).expect("golden pinned");
    let out = repro(&["all", "--requests", "2000", "--jobs", "1"]);
    assert!(
        out.stdout == golden,
        "repro all diverged from the pre-kernel-swap golden report \
         (tests/goldens/repro_all_r2000.txt); the event kernel changed \
         observable science"
    );
}

#[test]
#[ignore = "runs the full repro CLI; exercised by scripts/verify.sh"]
fn golden_kernel_swap_exports_are_byte_identical() {
    // The 22 trace/metrics export files pinned (as SHA-256) on the old
    // kernel must hash identically when regenerated on the new one.
    let manifest =
        std::fs::read_to_string(goldens_dir().join("kernel_swap_exports.sha256"))
            .expect("golden pinned");
    let dir = std::env::temp_dir().join(format!("kernel-swap-exports-{}", std::process::id()));
    let trace_dir = dir.join("trace");
    let metrics_dir = dir.join("metrics");
    std::fs::create_dir_all(&trace_dir).expect("temp trace dir");
    std::fs::create_dir_all(&metrics_dir).expect("temp metrics dir");
    repro(&[
        "validate", "--requests", "2000", "--jobs", "1",
        "--trace", trace_dir.to_str().expect("utf-8 path"),
    ]);
    repro(&[
        "sa_eval", "--requests", "2000", "--jobs", "1",
        "--metrics", metrics_dir.to_str().expect("utf-8 path"),
    ]);
    let mut checked = 0;
    for line in manifest.lines().filter(|l| !l.trim().is_empty()) {
        let (want, path) = line.split_once("  ").expect("sha256sum manifest line");
        let bytes = std::fs::read(dir.join(path)).expect("export regenerated");
        let got = explorer::sha256::hex(&bytes);
        assert_eq!(got, want, "export {path} diverged from the pre-kernel-swap hash");
        checked += 1;
    }
    assert_eq!(checked, 22, "manifest covers all pinned exports");
    std::fs::remove_dir_all(&dir).expect("temp dir cleanup");
}

/// SHA-256 over every completion record (in completion order) and the
/// final per-mode times of each overlap mode at SA(1), SA(2) and SA(4),
/// on three seeds of [`mixed_requests`] (mean gaps 2, 4 and 8 ms).
/// Taken from the drive engine that served the relaxed modes before
/// they became a `DriveConfig` setting; the one engine must reproduce
/// them bit for bit.
const OVERLAP_DIGESTS: [(OverlapMode, u32, u64, &str); 27] = [
    (OverlapMode::SingleArmMotion, 1, 1, "655e5303a63fa220d4daf6a66cb547bc85c61818f634acb953852ce291766778"),
    (OverlapMode::SingleArmMotion, 2, 1, "63b19b1589081e18828ea29b90c986bb38b2f47f332b3be9e321ef99d679c736"),
    (OverlapMode::SingleArmMotion, 4, 1, "42f00238bf3a7245805f8e55dcd87e30d56d732382ea2fcf19d9423f23fde6e1"),
    (OverlapMode::MultiMotion, 1, 1, "655e5303a63fa220d4daf6a66cb547bc85c61818f634acb953852ce291766778"),
    (OverlapMode::MultiMotion, 2, 1, "46398ad89025be6212843ebeff14b31004b595981d584b6cc137bf3089bc334e"),
    (OverlapMode::MultiMotion, 4, 1, "f82b59962292b29d1e8c381e37e4170e36f36cf214d08e48e4f647dceec6181c"),
    (OverlapMode::MultiChannel, 1, 1, "655e5303a63fa220d4daf6a66cb547bc85c61818f634acb953852ce291766778"),
    (OverlapMode::MultiChannel, 2, 1, "cedd00d2269d489d31a74e0dcf28265bcee119b757282e8d107c69084b74e6a7"),
    (OverlapMode::MultiChannel, 4, 1, "66268226e36d2690db1d77e7c060535accb59ff1df40b6b90b918fad6ac3f692"),
    (OverlapMode::SingleArmMotion, 1, 2, "6e88b80fa93289a32b32bf7b1b44444c7ddc9081d49296d5c20a62e67ebb08e5"),
    (OverlapMode::SingleArmMotion, 2, 2, "a25b33be98c13f8f67efa0b7784081a1d7707baef8209dbb9e21fb82d98d84ec"),
    (OverlapMode::SingleArmMotion, 4, 2, "9317c7a61d85714536615d1633afbbf14d052344d63a60783cc1e8247e3c09f6"),
    (OverlapMode::MultiMotion, 1, 2, "6e88b80fa93289a32b32bf7b1b44444c7ddc9081d49296d5c20a62e67ebb08e5"),
    (OverlapMode::MultiMotion, 2, 2, "a0a437d08e9d571a4e105bccddb600869a5758379ed041894142cbf43e7a8282"),
    (OverlapMode::MultiMotion, 4, 2, "6142e85022d1cbac7f720f0a903fdf79374e639fa44fc52e74e112c90c1cfc9e"),
    (OverlapMode::MultiChannel, 1, 2, "6e88b80fa93289a32b32bf7b1b44444c7ddc9081d49296d5c20a62e67ebb08e5"),
    (OverlapMode::MultiChannel, 2, 2, "65e1b090b5747e39fdd3abcfe24f7d267f84abb01354276775483e961b5b7c92"),
    (OverlapMode::MultiChannel, 4, 2, "b69812d128bf44b941930ee4378440209dc63581301f24d90527194f3d2c94af"),
    (OverlapMode::SingleArmMotion, 1, 3, "bb75d5b4e22b77ec297cf062873308a236cb4369f37030fa893f0c9f7aef007d"),
    (OverlapMode::SingleArmMotion, 2, 3, "c3131f9dfb6c4e090e09ab3d0caf6c6a852302cfdd70436898cd7c0c6e495215"),
    (OverlapMode::SingleArmMotion, 4, 3, "396e3ec5bf6255c3d9ed04b0e74c9989ef9c1f984eb7efe7ce913836a1ac7586"),
    (OverlapMode::MultiMotion, 1, 3, "bb75d5b4e22b77ec297cf062873308a236cb4369f37030fa893f0c9f7aef007d"),
    (OverlapMode::MultiMotion, 2, 3, "f80ceb13046442e0f89931218ca4c3b34a3b0a95afd949f23ae0a4c2ce7515a4"),
    (OverlapMode::MultiMotion, 4, 3, "e4f5a6e4155971a5a1ffde9b85a47a9c5fe4f52868d7efdc216cbab54afaa400"),
    (OverlapMode::MultiChannel, 1, 3, "bb75d5b4e22b77ec297cf062873308a236cb4369f37030fa893f0c9f7aef007d"),
    (OverlapMode::MultiChannel, 2, 3, "55a0a957006b3fd3b5a9c8d1c01d64e36a96453e1bc10282b614a7728ff832b7"),
    (OverlapMode::MultiChannel, 4, 3, "034aa4873ab576a70605dbee697fad6785638fd50f0f4e002744b693c5214aa4"),
];

/// Reads and writes that revisit recently used LBAs, so reads hit the
/// cache and writes invalidate it.
fn mixed_requests(n: u64, mean_gap_ms: f64, seed: u64) -> Vec<IoRequest> {
    let mut rng = simkit::Rng64::new(seed);
    let mut at = SimTime::ZERO;
    let mut recent: Vec<u64> = Vec::new();
    (0..n)
        .map(|i| {
            at += SimDuration::from_millis(rng.f64() * 2.0 * mean_gap_ms);
            let lba = if !recent.is_empty() && rng.chance(0.3) {
                recent[rng.below(recent.len() as u64) as usize]
            } else {
                rng.below(1_400_000_000)
            };
            if recent.len() < 32 {
                recent.push(lba);
            } else {
                recent[(i % 32) as usize] = lba;
            }
            let sectors = 8 * (1 + rng.below(8)) as u32;
            let kind = if rng.chance(0.25) { IoKind::Write } else { IoKind::Read };
            IoRequest::new(i, at, lba, sectors, kind)
        })
        .collect()
}

/// One line per completion record, every time in integer nanoseconds.
#[derive(Default)]
struct RecordLog(String);

impl<D: experiments::Device<Done = CompletedIo>> experiments::RunObserver<D> for RecordLog {
    fn on_complete(&mut self, d: &CompletedIo, _device: &D) {
        use std::fmt::Write as _;
        let b = &d.breakdown;
        let _ = writeln!(
            self.0,
            "{} {} {} {} {:?} {} {} {} {} {} {} {} {}",
            d.request.id,
            d.request.arrival.as_nanos(),
            d.request.lba,
            d.request.sectors,
            d.request.kind,
            d.completed.as_nanos(),
            b.queue.as_nanos(),
            b.overhead.as_nanos(),
            b.seek.as_nanos(),
            b.rotational.as_nanos(),
            b.transfer.as_nanos(),
            d.cache_hit,
            d.actuator
        );
    }
}

#[test]
fn oracle_overlap_modes_reproduce_pinned_digests() {
    let params = presets::barracuda_es_750gb();
    for (seed, gap) in [(1u64, 2.0), (2, 4.0), (3, 8.0)] {
        let reqs = mixed_requests(1_500, gap, seed);
        let trace = Trace::new("overlap-pin", reqs, params.capacity_sectors());
        for &(mode, n, _, want) in OVERLAP_DIGESTS.iter().filter(|p| p.2 == seed) {
            let mut log = RecordLog::default();
            let r = experiments::run(
                experiments::DriveDevice::new(&params, DriveConfig::sa(n).with_overlap(mode)),
                &trace,
                experiments::Hooks::none().observer(&mut log),
            )
            .expect("replay succeeds");
            assert!(r.metrics.cache_hits > 0, "{mode:?} SA({n}) seed {seed}: no cache hits");
            for m in DriveMode::ALL {
                log.0.push_str(&format!("{m:?} {}\n", r.metrics.modes.time_in(m.key()).as_nanos()));
            }
            assert_eq!(
                explorer::sha256::hex(log.0.as_bytes()),
                want,
                "{mode:?} SA({n}) seed {seed}"
            );
        }
    }
}

#[path = "support/power.rs"]
mod power;

/// SHA-256 over every [`DrpmResult`](intradisk::drpm::DrpmResult)
/// field — each f64 as its bits, the response statistics as their
/// moments, percentiles and streaming state — per input of
/// [`drpm_pin_inputs`], in order. Taken from the DRPM baseline's own
/// replay loop before it became a device of the one run loop.
const DRPM_DIGESTS: [(&str, &str); 14] = [
    ("Financial-2000", "45e53b502f2cde613e3b138577dba68a4dc45070efa92039f33322e383c54343"),
    ("Websearch-2000", "dd5c001dcd50e60e5efb5fdeca095f9f7dd9e2c0829b588a3247981dbb366bde"),
    ("TPC-C-2000", "c2f0de7ae4c6eade8fcf43dba1e3157f3b433ac0994ce4e1d3fabcc4c416f180"),
    ("TPC-H-2000", "ea10e1807d6c8a52c2ee68da51ef941b4725a6d40852e4698b9adf1447d16de4"),
    ("Financial-20000", "aa22b1e9a3bb5f80605e8299e8d1540a0f2b334ed32e83b692e56eb9d3bf7bde"),
    ("Websearch-20000", "b9495ffd8b7baa33cc05b5d954601b49214dd84519b15842f0894c4a78e3de70"),
    ("TPC-C-20000", "7011cff3567e616b573c83d93e0a931cfa01fcaf547cc12ae657daace2186d83"),
    ("TPC-H-20000", "ee87e22545df70ef9f6726c5bc4fe475781ff959d2c4bff0eab691e082390ce3"),
    ("steady-10ms", "a0ec6a8a845b47fe9d7dce278b3b5599dc611bf969862b96f8e2c5a1c26b96a0"),
    ("bursty-idle", "e5ddc4e9ffdee7e557c152e5a896853452c9d7de60fc91d9eca2479003e753d5"),
    ("sustained-6ms", "ec48afde879b5a44f4ad5de20d860fccc6db894a0b62fe40242b006a0cfb61ba"),
    ("sparse-5s", "96c6fe53d43a3c79b285a02f647759fc06951956bc947b9138a68d3727732463"),
    ("burst-after-idle", "196fdce3bf21c56fb6c4254aada65131324d26c3407674e3c3e050ca796d72f3"),
    ("simultaneous-bursts", "b5ac82f2aab3c928740561ea7b5f2805012989c91d1bc0fe8889e1937e8ef2c0"),
];

/// The same digest over every [`MaidResult`](array::maid::MaidResult)
/// field, for 300 requests of [`power::archival`] at
/// `(seed, disks)`, taken from MAID's own replay loop.
const MAID_DIGESTS: [(u64, usize, &str); 9] = [
    (1, 1, "d2949a0b18fae83b7b3a3f179acef3e6319c7d124b416e020f35185df804ebf2"),
    (1, 4, "4f47d7d39b7ee06926488568e5cd29e15d9a73b6ec6b7e5744fb564ebd99d9d8"),
    (1, 8, "7eac44edf82c406038ab0aeb6080dba298b26a36bdb04bdd374fb40b685c009e"),
    (2, 1, "b3a64899e3b11f4e9aeed704308203b2901d018eb5fcca7fa97020d295afd18b"),
    (2, 4, "ca06bfb9479315c0321deb456e85c891cad0dcb4f4d955e6d86cd6eccce1ee8a"),
    (2, 8, "138bbb6df0f8f35f37aa5fddb5e4a1a89c877303d72471ba69ded1e254ace038"),
    (3, 1, "4d316776bfca4a3b5773e4f888c941081c03d48c81deb0a92fa7219ddedbb752"),
    (3, 4, "38ae5843a11c6e04c88e4c0c1e6008aa6584b43e16e7439341ac3c41c4be8fba"),
    (3, 8, "0e5d679dedf4e7070aee8e688b867c1c16ede5c7a3e1fdc608d4c88853688362"),
];

/// The DRPM pin inputs: the four paper workloads at 2,000 and 20,000
/// requests, the DRPM tests' generators (`burst-after-idle` upshifts),
/// and simultaneous arrivals at an idle drive's decision instant.
fn drpm_pin_inputs() -> Vec<(String, Vec<IoRequest>)> {
    let mut out = Vec::new();
    for n in [2_000usize, 20_000] {
        for kind in workload::WorkloadKind::ALL {
            let scale = experiments::Scale::quick().with_requests(n);
            let t = experiments::configs::trace_for(kind, scale);
            out.push((format!("{}-{n}", kind.name()), t.requests().to_vec()));
        }
    }
    out.push(("steady-10ms".into(), power::drpm_requests(500, 10.0, 1)));
    out.push(("bursty-idle".into(), power::drpm_requests(100, 3_000.0, 2)));
    out.push(("sustained-6ms".into(), power::drpm_requests(1_000, 6.0, 3)));
    out.push(("sparse-5s".into(), power::drpm_requests(50, 5_000.0, 4)));
    out.push(("burst-after-idle".into(), power::burst_after_idle()));
    out.push(("simultaneous-bursts".into(), power::simultaneous_bursts()));
    out
}

/// Response statistics as text: count, moments and percentiles as f64
/// bits, and the digest of the streaming state.
fn stats_text(s: &simkit::ResponseStats) -> String {
    let mut out = format!("count {}\n", s.count());
    for v in [s.mean(), s.min(), s.max(), s.stddev()] {
        out.push_str(&format!("{:016x}\n", v.to_bits()));
    }
    for p in [50.0, 90.0, 99.0, 100.0] {
        out.push_str(&format!("p{p} {:016x}\n", s.percentile(p).to_bits()));
    }
    out.push_str(&explorer::sha256::hex(&s.to_bytes()));
    out.push('\n');
    out
}

#[test]
fn oracle_drpm_maid_reproduce_pinned_digests() {
    let params = presets::barracuda_es_750gb();
    for ((label, reqs), (want_label, want)) in drpm_pin_inputs().into_iter().zip(DRPM_DIGESTS) {
        assert_eq!(label, want_label);
        let r = power::run_drpm(&params, reqs);
        let text = format!(
            "completed {}\nenergy {:016x}\nduration {}\nlow {:016x}\nupshifts {}\n{}",
            r.completed,
            r.energy_j.to_bits(),
            r.duration.as_nanos(),
            r.low_speed_fraction.to_bits(),
            r.upshifts,
            stats_text(&r.response_time_ms)
        );
        assert_eq!(explorer::sha256::hex(text.as_bytes()), want, "DRPM {label}");
    }
    for (seed, disks, want) in MAID_DIGESTS {
        let reqs = power::archival(disks as u64, 300, seed);
        let r = power::run_maid(array::maid::MaidConfig::typical(), disks, reqs);
        let text = format!(
            "completed {}\nenergy {:016x}\nduration {}\nstandby {:016x}\nspin_ups {}\n{}",
            r.completed,
            r.energy_j.to_bits(),
            r.duration.as_nanos(),
            r.standby_fraction.to_bits(),
            r.spin_ups,
            stats_text(&r.response_time_ms)
        );
        assert_eq!(
            explorer::sha256::hex(text.as_bytes()),
            want,
            "MAID seed {seed}, {disks} disks"
        );
    }
}
