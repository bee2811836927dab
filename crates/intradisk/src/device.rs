//! The protocol between a simulated device and the run loop,
//! `experiments::runner::run`, which re-exports [`Device`].

use diskmodel::DriveError;
use simkit::SimTime;
use telemetry::Recorder;

use crate::request::IoRequest;

/// A simulated device as a passive discrete-event state machine.
///
/// The owner feeds it arrivals in order and calls [`Device::advance`]
/// at every instant [`Device::next_event`] names; an arrival at the
/// same instant as an event is submitted first. Both calls return the
/// device's typed [`DriveError`] on a protocol or planning failure.
pub trait Device {
    /// What one event finishes (a completed request).
    type Done;
    /// The result of a whole run.
    type Output;

    /// The instant of the next internal event, if any is pending.
    fn next_event(&self) -> Option<SimTime>;

    /// Accepts a request at its arrival instant.
    fn submit<R: Recorder>(&mut self, req: IoRequest, rec: &mut R) -> Result<(), DriveError>;

    /// Handles the event at `now` (the current [`Device::next_event`]);
    /// returns the request it finished, if any.
    fn advance<R: Recorder>(
        &mut self,
        now: SimTime,
        rec: &mut R,
    ) -> Result<Option<Self::Done>, DriveError>;

    /// Closes the run at `end` — the later of the last arrival and the
    /// last event — and reports it.
    fn finish(self, end: SimTime) -> Self::Output;
}
