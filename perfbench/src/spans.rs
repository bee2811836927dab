//! Host-time spans around the benchmark's calls into each layer.
//!
//! The replay loops are generic over [`Spans`]: the timed run uses
//! [`Off`], which compiles to the bare call, and the traced run uses
//! [`Tracer`], which reads the clock on both sides of every call. Each
//! span is attributed to a [`Call`] (a public function of one crate)
//! and to the unit it ran in, so a layer's time is the sum of its calls'
//! spans. Per-call totals cover every span; the raw spans kept for the
//! export are capped so memory stays flat.

use std::fmt::Write as _;
use std::time::Instant;

/// The public calls the benchmark wraps, named `<crate>.<call>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `workload::RequestSource::next_request`.
    Pull,
    /// `intradisk::DiskDrive::submit`.
    DriveSubmit,
    /// `intradisk::DiskDrive::complete`.
    DriveComplete,
    /// `array::ArrayController::submit`.
    ArraySubmit,
    /// `array::ArrayController::on_disk_complete`.
    ArrayComplete,
    /// `simkit::EventQueue::push`.
    Push,
    /// `simkit::EventQueue::pop`.
    Pop,
    /// `explorer::PointCache::load`.
    CacheLoad,
    /// `explorer::PointCache::store`.
    CacheStore,
    /// `explorer::pareto::frontier_indices` plus the report render.
    ParetoRender,
}

impl Call {
    /// Every call, in index order.
    pub const ALL: [Call; 10] = [
        Call::Pull,
        Call::DriveSubmit,
        Call::DriveComplete,
        Call::ArraySubmit,
        Call::ArrayComplete,
        Call::Push,
        Call::Pop,
        Call::CacheLoad,
        Call::CacheStore,
        Call::ParetoRender,
    ];

    /// Span name: the owning crate, a dot, and the call.
    pub fn name(self) -> &'static str {
        match self {
            Call::Pull => "workload.next_request",
            Call::DriveSubmit => "intradisk.submit",
            Call::DriveComplete => "intradisk.complete",
            Call::ArraySubmit => "array.submit",
            Call::ArrayComplete => "array.on_disk_complete",
            Call::Push => "simkit.push",
            Call::Pop => "simkit.pop",
            Call::CacheLoad => "explorer.load",
            Call::CacheStore => "explorer.store",
            Call::ParetoRender => "explorer.pareto_render",
        }
    }
}

/// Wraps calls into the simulator.
pub trait Spans {
    /// Whether spans are recorded at all.
    const ENABLED: bool;

    /// Runs `f`, attributing its host time to `call` when tracing.
    fn span<R>(&mut self, call: Call, f: impl FnOnce() -> R) -> R;
}

/// Tracing off: the call and nothing else.
#[derive(Debug, Default)]
pub struct Off;

impl Spans for Off {
    const ENABLED: bool = false;

    #[inline(always)]
    fn span<R>(&mut self, _call: Call, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// Raw spans kept for the export; totals keep counting past the cap.
const MAX_SPANS: usize = 50_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    call: Call,
    /// The unit the span ran in: its parent.
    unit: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Tracing on: per-call counts and total nanoseconds, plus the first
/// [`MAX_SPANS`] raw spans.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    unit: u32,
    calls: [u64; Call::ALL.len()],
    total_ns: [u64; Call::ALL.len()],
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose span times count from now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            unit: 0,
            calls: [0; Call::ALL.len()],
            total_ns: [0; Call::ALL.len()],
            spans: Vec::new(),
        }
    }

    /// Sets the unit that later spans belong to.
    pub fn set_unit(&mut self, unit: u32) {
        self.unit = unit;
    }

    /// How many spans `call` recorded.
    pub fn calls(&self, call: Call) -> u64 {
        self.calls[call as usize]
    }

    /// Total host nanoseconds inside `call`.
    pub fn total_ns(&self, call: Call) -> u64 {
        self.total_ns[call as usize]
    }

    /// Mean host nanoseconds per `call`, 0 when it was never made.
    pub fn mean_ns(&self, call: Call) -> f64 {
        match self.calls(call) {
            0 => 0.0,
            n => self.total_ns(call) as f64 / n as f64,
        }
    }

    /// The kept spans as tab-separated lines: unit (the parent), call,
    /// start and end in nanoseconds since the tracer was made.
    pub fn export_tsv(&self) -> String {
        let mut out = String::from("unit\tcall\tstart_ns\tend_ns\n");
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}",
                s.unit,
                s.call.name(),
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

impl Spans for Tracer {
    const ENABLED: bool = true;

    fn span<R>(&mut self, call: Call, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let ns = end.duration_since(start).as_nanos() as u64;
        self.calls[call as usize] += 1;
        self.total_ns[call as usize] += ns;
        if self.spans.len() < MAX_SPANS {
            self.spans.push(Span {
                call,
                unit: self.unit,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                end_ns: end.duration_since(self.epoch).as_nanos() as u64,
            });
        }
        out
    }
}
