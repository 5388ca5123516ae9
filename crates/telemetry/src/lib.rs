//! Observability for the ASAP simulator: a unified metrics registry, a
//! ring-buffer event tracer with a Chrome-trace (Perfetto) exporter, and a
//! simulator self-profile.
//!
//! The layer is *zero-cost when off*: engines hold an
//! `Option<Box<TraceSink>>` that is `None` unless a run explicitly asks
//! for tracing, so the recording hooks compile to a never-taken branch in
//! the default configuration. The committed `BENCH_results.json` numbers
//! are produced with telemetry disabled and must stay byte-identical —
//! CI asserts exactly that.
//!
//! The modules:
//!
//! - [`metrics`]: `Counter`/`Gauge`/`Histogram` values collected into a
//!   [`MetricSet`] via the [`Collect`] trait that every `*Stats` struct
//!   in the workspace implements (`asap run --metrics out.json`).
//! - [`trace`]: [`TraceSink`], a fixed-capacity ring buffer of
//!   [`TraceEvent`]s (TLB hits, walks, prefetches, MSHR merges, NUMA
//!   hops, scheduler arbitration) stamped in simulated cycles.
//! - [`chrome`]: the Chrome trace-event JSON emitter and its strict
//!   reader (`asap run --trace out.json`, byte-identical round trip
//!   gated in CI).
//! - [`json`]: the workspace's one JSON module — the string escape every
//!   writer uses, and the reader that both `chrome::parse` and
//!   `asap_sim::BenchDoc::parse` map their schemas over.
//! - [`profile`]: [`PhaseProfile`], the per-run wall-clock split of the
//!   driver loop (setup / warmup / measure / stats-flush) behind
//!   `asap run --profile`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use chrome::{ArgValue, ChromeEvent, Ph};
pub use metrics::{Collect, HistogramSnapshot, Metric, MetricSet, MetricValue};
pub use profile::PhaseProfile;
pub use trace::{CoreTrace, TraceEvent, TraceEventKind, TraceSink};

/// Which telemetry features a run has enabled. The default is everything
/// off — the zero-cost path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Record per-access trace events into ring buffers.
    pub trace: bool,
    /// Collect a metrics snapshot from every stats struct after the run.
    pub metrics: bool,
    /// Measure the wall-clock phase split of the driver loop.
    pub profile: bool,
}

impl TelemetryConfig {
    /// Everything disabled (the default; zero observer effect).
    #[must_use]
    pub fn off() -> Self {
        Self::default()
    }

    /// Whether any feature is enabled.
    #[must_use]
    pub fn any(self) -> bool {
        self.trace || self.metrics || self.profile
    }
}

/// Everything one run harvested: per-core event traces, the scheduler
/// arbitration track, a metrics snapshot, and the wall-clock profile.
/// Carried out of the driver alongside the `RunResult`s.
#[derive(Debug, Clone, Default)]
pub struct RunTelemetry {
    /// One trace per simulated core, in core order.
    pub cores: Vec<CoreTrace>,
    /// Scheduler arbitration events (event-queue pops/pushes); the
    /// `core` field of each event names the core that won arbitration.
    pub sched: Vec<TraceEvent>,
    /// The metrics snapshot (empty when metrics were not requested).
    pub metrics: MetricSet,
    /// The wall-clock phase split (when profiling was requested).
    pub profile: Option<PhaseProfile>,
}

impl RunTelemetry {
    /// Whether this carrier holds anything worth reporting.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
            && self.sched.is_empty()
            && self.metrics.is_empty()
            && self.profile.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_default_is_off() {
        let c = TelemetryConfig::off();
        assert!(!c.any());
        assert!(TelemetryConfig { profile: true, ..c }.any());
    }

    #[test]
    fn empty_run_telemetry() {
        assert!(RunTelemetry::default().is_empty());
        let t = RunTelemetry {
            sched: vec![TraceEvent {
                ts: 0,
                core: 0,
                kind: TraceEventKind::ArbPop,
            }],
            ..RunTelemetry::default()
        };
        assert!(!t.is_empty());
    }
}
