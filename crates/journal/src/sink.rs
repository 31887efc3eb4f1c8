//! The [`JournalSink`] trait the engine emits through, and the zero-cost
//! [`NullSink`].

use crate::event::{EventClass, EventKind};

/// Receiver of engine events.
///
/// The journal half of the engine's `Observer`: every emission site is
/// guarded by `ENABLED`, a monomorphized constant — with [`NullSink`] (the
/// default) the guard folds to `if false` and the whole instrumentation
/// compiles out of the hot path. The E21 bench smoke pins this with a
/// no-regression assertion.
///
/// Protocol: the engine calls [`wants`](JournalSink::wants) before building
/// an event's payload (so filtered classes cost nothing but the branch),
/// [`record`](JournalSink::record) with the global step and the event, and
/// the waypoint pair — [`checkpoint_due`](JournalSink::checkpoint_due) at
/// every completed-step boundary, then
/// [`record_waypoint`](JournalSink::record_waypoint) with the engine's RNG
/// fingerprint when due.
pub trait JournalSink {
    /// Whether this sink observes anything at all. `false` compiles every
    /// emission site out (the engine guards them with this constant).
    const ENABLED: bool;

    /// Whether events of `class` should be recorded.
    fn wants(&self, class: EventClass) -> bool;

    /// Records one event at the given global step.
    fn record(&mut self, step: u64, kind: EventKind);

    /// Whether a waypoint is due at the completed-step boundary `step`
    /// (the engine asks after every simulated step, in both kernels).
    fn checkpoint_due(&self, step: u64) -> bool {
        let _ = step;
        false
    }

    /// Records a waypoint at boundary `step` with the engine's RNG-state
    /// digest (see `Sim::rng_fingerprint` in `radionet-sim`).
    fn record_waypoint(&mut self, step: u64, rng_fingerprint: u64) {
        let _ = (step, rng_fingerprint);
    }

    /// The earliest future boundary at which
    /// [`checkpoint_due`](JournalSink::checkpoint_due) would first answer
    /// true, or `None` when no waypoint is ever due. The event-driven
    /// kernel uses this to land on every waypoint step instead of jumping
    /// over it, so a recording made under clock jumps keeps the exact
    /// cadence of a stepped one. Sinks without waypoints keep the default.
    fn next_checkpoint(&self) -> Option<u64> {
        None
    }
}

/// The do-nothing sink: `ENABLED = false`, so the engine's instrumentation
/// monomorphizes away entirely.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullSink;

impl JournalSink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn wants(&self, _class: EventClass) -> bool {
        false
    }

    #[inline(always)]
    fn record(&mut self, _step: u64, _kind: EventKind) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_observes_nothing() {
        const { assert!(!NullSink::ENABLED) };
        let mut s = NullSink;
        assert!(!s.wants(EventClass::Radio));
        assert!(!s.checkpoint_due(7));
        s.record(0, EventKind::Transmit(crate::TransmitInfo { node: 0 }));
        s.record_waypoint(1, 2);
    }
}
