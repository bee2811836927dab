//! `perfbench`: the simulator's benchmark.
//!
//! ```text
//! perfbench --workload <hcsd_sa4|md_arrays|paper_studies|explore_grid>
//!           [--seed N] [--seconds S] [--trace 0|1] [--scale default|tiny]
//! ```
//!
//! Drives the simulator crates in-process, times the calls into each
//! layer from outside, checks the simulated outputs, and prints the
//! metrics by name with their units. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` they are the per-layer ones and the tracing overhead.
//! The exit code is 0 only when every check passed. README.md beside
//! this package describes the workloads, metrics and method.

mod harness;
mod metrics;
mod pinned;
mod probe;
mod replay;
mod spans;
mod sweeps;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use harness::{measure, Outcome, Workload};
use metrics::Metric;
use spans::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["hcsd_sa4", "md_arrays", "paper_studies", "explore_grid"];

/// The seed digests are pinned for.
const DEFAULT_SEED: u64 = 42;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds < 0.0 {
                    return Err("--seconds must not be negative".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--scale" => {
                args.tiny = match value()?.as_str() {
                    "default" => false,
                    "tiny" => true,
                    other => return Err(format!("--scale takes default or tiny, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Requests per drive replay, array replay, study run and explorer
/// point, at the default and the tiny scale.
fn requests(workload: &str, tiny: bool) -> usize {
    match (workload, tiny) {
        ("hcsd_sa4", false) => 50_000,
        ("md_arrays", false) => 10_000,
        ("paper_studies", false) => 1_000,
        ("explore_grid", false) => 500,
        ("hcsd_sa4" | "md_arrays", true) => 1_000,
        _ => 100,
    }
}

fn run<W: Workload>(w: &W, args: &Args, tracer: Option<&mut Tracer>) -> Outcome {
    let scale = if args.tiny { "tiny" } else { "default" };
    let pinned = (args.seed == DEFAULT_SEED)
        .then(|| pinned::digest(&args.workload, scale))
        .flatten();
    measure(w, args.seconds, tracer, pinned)
}

/// Gives every thread the same glibc malloc arena. With one arena per
/// executor worker, peak RSS depended on which arena each allocation
/// landed in and varied by a fifth between identical runs; with one, it
/// follows what the simulator keeps.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn single_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only sets an allocator tunable; it is called
    // before the process starts any other thread.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn single_malloc_arena() {}

/// UTC date (`YYYY-MM-DD`) from the system clock, by the days-to-civil
/// conversion.
fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

/// The commit being measured: `git rev-parse HEAD` when run inside a
/// git checkout, else "unknown" (the code version still identifies the
/// simulator sources).
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn provenance(args: &Args, nproc: usize) -> String {
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"scale\": \"{}\", \
         \"nproc\": {nproc}, \"workers\": {}, \"check_workers\": {}, \"git_commit\": \"{}\", \"code_version\": \"{}\", \
         \"rustc\": \"{}\", \"date\": \"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        if args.tiny { "tiny" } else { "default" },
        harness::TIMED_WORKERS,
        harness::CHECK_WORKERS,
        git_commit(),
        explorer::CODE_VERSION,
        env!("PERFBENCH_RUSTC"),
        today_utc()
    )
}

/// Where scratch files go: under the build directory, inside the
/// checkout.
fn scratch_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("perfbench-scratch")
}

fn result_json(out: &Outcome, metrics: &[Metric]) -> String {
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.failed == 0,
        out.attempted.max(1),
        out.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            json,
            "{}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    json.push_str("}}");
    json
}

fn main() -> ExitCode {
    single_malloc_arena();
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scratch = scratch_dir();
    println!("# provenance {}", provenance(&args, nproc));

    let requests = requests(&args.workload, args.tiny);
    let seed = args.seed;
    let mut tracer = args.trace.then(Tracer::new);
    let t = tracer.as_mut();
    let out = match args.workload.as_str() {
        "hcsd_sa4" => run(&replay::HcsdSa4 { requests, seed }, &args, t),
        "md_arrays" => run(&replay::MdArrays { requests, seed }, &args, t),
        "paper_studies" => run(&sweeps::PaperStudies { requests, seed }, &args, t),
        _ => run(
            &sweeps::ExploreGrid {
                requests,
                seed,
                scratch: scratch.clone(),
            },
            &args,
            t,
        ),
    };

    let metrics = match &tracer {
        Some(tr) => metrics::per_layer(&out, tr),
        None => metrics::end_to_end(&out),
    };
    println!(
        "# digest sha256 {} ({} units timed, {} traced)",
        out.digest_sha,
        out.plain.len(),
        out.traced.len()
    );
    for line in out.digest.lines().take(4) {
        println!("#   {line}");
    }
    for m in &metrics {
        println!(
            "# {:<38} {:>16.6} {:<10} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    if let Some(tr) = &tracer {
        let path = scratch.join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        let written =
            std::fs::create_dir_all(&scratch).and_then(|_| std::fs::write(&path, tr.export_tsv()));
        match written {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    for f in &out.failures {
        eprintln!("perfbench: FAILED: {f}");
    }
    println!("{}", result_json(&out, &metrics));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
