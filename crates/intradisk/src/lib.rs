//! `intradisk` — the paper's primary contribution: disk drives that
//! exploit parallelism in the I/O request stream.
//!
//! A conventional drive serializes every request through seek →
//! rotational latency → transfer using a single arm assembly. An
//! *intra-disk parallel* drive decouples the electro-mechanical
//! resources; this crate implements the paper's DASH taxonomy
//! ([`dash`]) and, in full detail, the design the paper evaluates:
//! **HC-SD-SA(n)** — `D1 An S1 H1` — a drive with `n` independently
//! positioned arm assemblies where at any instant only one arm may be in
//! motion and only one head may transfer, but the shortest-positioning-
//! time-first scheduler may dispatch whichever idle arm minimizes the
//! positioning time of a request ([`drive`]).
//!
//! # Crate layout
//!
//! * [`dash`] — the `Dk Al Sm Hn` taxonomy of §4.
//! * [`request`] — I/O requests and completed-request records.
//! * [`cache`] — the segmented on-board disk cache.
//! * [`sched`] — queueing policies: FCFS, SSTF, and SPTF \[42\].
//! * [`service`] — positioning/transfer planning for one request on a
//!   chosen arm assembly (the mechanical inner loop).
//! * [`drive`] — the drive state machine gluing the above together: one
//!   engine for HC-SD-SA(n) and, through [`DriveConfig::overlap`], the
//!   technical report's multi-motion and multi-channel relaxations.
//! * [`metrics`] — per-drive statistics and the four-mode power
//!   attribution of Figures 3 and 6.
//! * [`failure`] — SMART-style actuator deconfiguration (§8).
//!
//! # Example: a 2-actuator drive beats a conventional one
//!
//! ```
//! use diskmodel::presets;
//! use intradisk::{DiskDrive, DriveConfig, IoRequest, IoKind};
//! use simkit::{EventQueue, SimTime};
//!
//! fn run(actuators: u32) -> f64 {
//!     let params = presets::barracuda_es_750gb();
//!     let mut drive = DiskDrive::new(&params, DriveConfig::sa(actuators));
//!     let mut events = EventQueue::new();
//!     // 200 back-to-back scattered reads.
//!     for i in 0..200u64 {
//!         let req = IoRequest::new(i, SimTime::ZERO, (i * 7_919_993) % 1_000_000_000, 8, IoKind::Read);
//!         if let Some(done) = drive.submit(req, SimTime::ZERO).expect("valid submit") {
//!             events.push(done, ());
//!         }
//!     }
//!     while let Some(ev) = events.pop() {
//!         let (_, next) = drive.complete(ev.time).expect("valid complete");
//!         if let Some(t) = next {
//!             events.push(t, ());
//!         }
//!     }
//!     drive.metrics().response_time_ms.mean()
//! }
//!
//! assert!(run(2) < run(1));
//! ```

pub mod cache;
pub mod counters;
pub mod dash;
pub mod device;
pub mod drive;
pub mod drpm;
pub mod failure;
pub mod freeblock;
pub mod metrics;
pub mod request;
pub mod sched;
pub mod service;

pub use cache::SegmentedCache;
pub use dash::DashConfig;
pub use device::Device;
pub use drive::{ArmPlacement, DiskDrive, DriveConfig, LatencyScaling, OverlapMode};
pub use metrics::{DriveMetrics, DriveMode, PowerBreakdown};
pub use request::{CompletedIo, IoKind, IoRequest, ServiceBreakdown};
pub use sched::QueuePolicy;
