//! The [`Telemetry`] trait instrumented code records through, the
//! zero-cost [`NoTelemetry`] handle, and the timing-scope helpers.

use std::time::Instant;

/// Receiver of metric observations.
///
/// The metrics half of the engine's `Observer`: generic components guard
/// every site with `if M::ENABLED` — a monomorphized constant, so the default
/// [`NoTelemetry`] compiles the instrumentation out entirely (the same
/// technique as the journal layer's `NullSink`). Methods take `&self`:
/// the enabled implementation ([`Registry`](crate::Registry)) is
/// internally synchronized and shared across threads by cloning.
///
/// Metric names are `&'static str` and unit-suffixed by convention
/// (`*_micros` for wall time in microseconds); the README's metrics
/// glossary is the authoritative catalogue.
pub trait Telemetry {
    /// Whether this handle records anything at all. `false` compiles
    /// every instrumentation site out (callers guard with this constant).
    const ENABLED: bool;

    /// Adds `delta` to the named monotone counter.
    fn count(&self, name: &'static str, delta: u64);

    /// Sets the named gauge to `value` (last write wins).
    fn gauge(&self, name: &'static str, value: u64);

    /// Records one sample into the named [`crate::Log2Histogram`].
    fn observe(&self, name: &'static str, value: u64);
}

/// The do-nothing handle: `ENABLED = false`, so instrumentation
/// monomorphizes away entirely. The default everywhere.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoTelemetry;

impl Telemetry for NoTelemetry {
    const ENABLED: bool = false;

    #[inline(always)]
    fn count(&self, _name: &'static str, _delta: u64) {}

    #[inline(always)]
    fn gauge(&self, _name: &'static str, _value: u64) {}

    #[inline(always)]
    fn observe(&self, _name: &'static str, _value: u64) {}
}

/// A timing scope: started against a handle type, stopped into a named
/// histogram (microseconds). Under a disabled handle neither endpoint
/// reads the clock:
///
/// ```
/// use radionet_telemetry::{NoTelemetry, Registry, Stopwatch, Telemetry};
///
/// fn work<M: Telemetry>(tel: &M) {
///     let sw = Stopwatch::start::<M>();
///     // ... the measured section ...
///     sw.stop(tel, "work_micros");
/// }
///
/// work(&NoTelemetry); // no clock reads, no recording
/// let registry = Registry::default();
/// work(&registry);
/// assert_eq!(registry.snapshot().histograms[0].count, 1);
/// ```
#[derive(Debug)]
#[must_use = "a stopwatch only records when stopped"]
pub struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// Starts a scope; reads the clock only when `M::ENABLED`.
    #[inline(always)]
    pub fn start<M: Telemetry>() -> Stopwatch {
        Stopwatch(if M::ENABLED { Some(Instant::now()) } else { None })
    }

    /// Ends the scope, recording elapsed microseconds into `name`.
    #[inline(always)]
    pub fn stop<M: Telemetry>(self, tel: &M, name: &'static str) {
        if let Some(t0) = self.0 {
            tel.observe(name, t0.elapsed().as_micros() as u64);
        }
    }
}

/// Runs `f`, adding its elapsed **nanoseconds** to `acc` when `M::ENABLED`
/// — the accumulator pattern for per-step sections that are observed once
/// per phase (a histogram sample per engine step would be noise; the
/// per-phase total is the meaningful magnitude). Disabled handles call `f`
/// directly with no clock reads.
#[inline(always)]
pub fn timed<M: Telemetry, R>(acc: &mut u64, f: impl FnOnce() -> R) -> R {
    if M::ENABLED {
        let t0 = Instant::now();
        let r = f();
        *acc += t0.elapsed().as_nanos() as u64;
        r
    } else {
        f()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_telemetry_is_disabled_and_silent() {
        const { assert!(!NoTelemetry::ENABLED) };
        let t = NoTelemetry;
        t.count("c", 1);
        t.gauge("g", 2);
        t.observe("h", 3);
        let sw = Stopwatch::start::<NoTelemetry>();
        sw.stop(&t, "h");
    }

    #[test]
    fn timed_skips_the_clock_when_disabled() {
        let mut acc = 0u64;
        let out = timed::<NoTelemetry, _>(&mut acc, || 7);
        assert_eq!((out, acc), (7, 0));
    }

    #[test]
    fn timed_accumulates_when_enabled() {
        let registry = crate::Registry::default();
        let mut acc = 0u64;
        let _ = &registry; // enabled type drives the accumulation
        let out = timed::<crate::Registry, _>(&mut acc, || std::hint::black_box(1 + 1));
        assert_eq!(out, 2);
        // Not asserting a lower bound: a fast clock may round to 0ns,
        // but the call path must at least have executed.
    }
}
