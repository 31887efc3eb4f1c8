//! The engine's single observability hook: an [`Observer`] pairs an event
//! journal half with a metrics half, so a run can record a journal, time
//! its phases, or both.

use radionet_journal::{JournalSink, NullSink, Recorder};
use radionet_telemetry::{NoTelemetry, Registry, Telemetry};

/// What a [`Sim`](crate::Sim) reports to while it runs.
///
/// Every emission site is guarded by [`Observer::JOURNAL`] or
/// [`Observer::METRICS`], monomorphized constants, so the default
/// [`NullObserver`] compiles all instrumentation out of the hot path.
/// Observing never steers: reports, RNG streams and journals are
/// byte-identical under every observer.
pub trait Observer {
    /// The event-journal half.
    type Journal: JournalSink;
    /// The metrics half.
    type Tel: Telemetry;
    /// Whether journal emission sites are compiled in.
    const JOURNAL: bool = <Self::Journal as JournalSink>::ENABLED;
    /// Whether metrics sites (clock reads included) are compiled in.
    const METRICS: bool = <Self::Tel as Telemetry>::ENABLED;

    /// The journal half, for recording.
    fn journal(&mut self) -> &mut Self::Journal;

    /// The metrics half.
    fn tel(&self) -> &Self::Tel;
}

/// Any journal sink composes with any telemetry handle.
impl<J: JournalSink, M: Telemetry> Observer for (J, M) {
    type Journal = J;
    type Tel = M;

    #[inline(always)]
    fn journal(&mut self) -> &mut J {
        &mut self.0
    }

    #[inline(always)]
    fn tel(&self) -> &M {
        &self.1
    }
}

/// The default observer: both halves compile away.
pub type NullObserver = (NullSink, NoTelemetry);

/// The one live observer: a journal [`Recorder`] and a metrics
/// [`Registry`]. A half that should observe nothing is switched off at run
/// time (an empty-mask recorder, a registry nobody reads). Built by
/// [`Sim::try_instrumented`](crate::Sim::try_instrumented).
pub type Instrumented = (Recorder, Registry);
