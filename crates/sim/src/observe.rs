//! Sim-side telemetry glue: one [`RunObserver`] per executed spec,
//! spanning the machine-assembly (setup), drive (warmup + measure) and
//! harvest (flush) phases.
//!
//! The observer is deliberately phase-shaped so both machine assemblies —
//! native (any core count, any backend) and virtualized — follow the same
//! four calls:
//! [`RunObserver::begin`] before building anything, [`RunObserver::arm`]
//! once the engines exist (installs per-core trace sinks and starts the
//! driver observer), the driver itself via [`RunObserver::driver_mut`],
//! and [`RunObserver::finish`] to fold traces, metrics and phase timings
//! into one [`RunTelemetry`]. With every telemetry switch off, `begin`
//! returns an inert observer and each phase costs one branch.

use crate::driver::DriverObserver;
use asap_core::TranslationEngine;
use asap_telemetry::{MetricSet, PhaseProfile, RunTelemetry, TelemetryConfig, TraceSink};
use std::time::{Duration, Instant};

/// Accumulates one run's telemetry across the assembly / drive / harvest
/// phases.
pub(crate) struct RunObserver {
    cfg: TelemetryConfig,
    setup_started: Option<Instant>,
    setup: Duration,
    driver: Option<DriverObserver>,
}

impl RunObserver {
    /// Starts observing; the setup clock starts now. An all-off config
    /// observes nothing.
    pub(crate) fn begin(cfg: TelemetryConfig) -> Self {
        Self {
            cfg,
            #[expect(clippy::disallowed_methods, reason = "self-profile wall clock")]
            setup_started: cfg.profile.then(Instant::now),
            setup: Duration::ZERO,
            driver: None,
        }
    }

    /// Machine assembly is done: stops the setup clock, installs a trace
    /// sink per engine (core i ← slot i), and arms the driver observer.
    pub(crate) fn arm<E: TranslationEngine>(&mut self, engines: &mut [E]) {
        if let Some(t0) = self.setup_started.take() {
            self.setup = t0.elapsed();
        }
        if self.cfg.trace {
            for (i, engine) in engines.iter_mut().enumerate() {
                engine.set_tracer(TraceSink::default().for_core(i as u32));
            }
        }
        if self.cfg.trace || self.cfg.profile {
            self.driver = Some(DriverObserver::new(self.cfg.trace));
        }
    }

    /// The driver-loop hooks, to pass into `run_cores_observed`.
    pub(crate) fn driver_mut(&mut self) -> Option<&mut DriverObserver> {
        self.driver.as_mut()
    }

    /// The run is done: harvests per-core traces (labelled by `names`),
    /// collects every engine's metrics (prefixed `core{i}_` on multi-core
    /// machines), and folds the scheduler track and phase timings in.
    pub(crate) fn finish<E: TranslationEngine>(
        mut self,
        engines: &mut [E],
        names: &[String],
        measure_accesses: u64,
    ) -> Option<RunTelemetry> {
        if !self.cfg.any() {
            return None;
        }
        #[expect(clippy::disallowed_methods, reason = "self-profile wall clock")]
        let flush_started = Instant::now();
        let mut out = RunTelemetry::default();
        if self.cfg.trace {
            for (engine, name) in engines.iter_mut().zip(names) {
                if let Some(sink) = engine.take_tracer() {
                    out.cores.push(sink.into_core_trace(name.clone()));
                }
            }
        }
        if self.cfg.metrics {
            let mut set = MetricSet::new();
            let single = engines.len() == 1;
            for (i, engine) in engines.iter().enumerate() {
                let prefix = if single {
                    String::new()
                } else {
                    format!("core{i}_")
                };
                engine.collect_metrics(&prefix, &mut set);
            }
            out.metrics = set;
        }
        if let Some(driver) = self.driver.take() {
            let (sched, warmup, measure) = driver.finish();
            out.sched = sched;
            if self.cfg.profile {
                out.profile = Some(PhaseProfile {
                    setup: self.setup,
                    warmup,
                    measure,
                    flush: flush_started.elapsed(),
                    measure_accesses,
                });
            }
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_core::{Mmu, MmuConfig};

    #[test]
    fn off_config_harvests_nothing() {
        let obs = RunObserver::begin(TelemetryConfig::off());
        let mut engines = [Mmu::new(MmuConfig::default())];
        assert!(obs.finish(&mut engines, &["x".into()], 100).is_none());
    }

    #[test]
    fn armed_observer_installs_and_harvests_tracers() {
        let cfg = TelemetryConfig {
            trace: true,
            metrics: true,
            profile: true,
        };
        let mut obs = RunObserver::begin(cfg);
        let mut engines = [
            Mmu::new(MmuConfig::default()),
            Mmu::new(MmuConfig::default()),
        ];
        obs.arm(&mut engines);
        assert!(obs.driver_mut().is_some());
        let t = obs
            .finish(&mut engines, &["a".into(), "b".into()], 500)
            .unwrap();
        assert_eq!(t.cores.len(), 2);
        assert_eq!(t.cores[0].core, 0);
        assert_eq!(t.cores[1].label, "b");
        // Two cores → prefixed metric names, both cores present.
        assert!(t.metrics.get("core0_walks_total").is_some());
        assert!(t.metrics.get("core1_walks_total").is_some());
        let profile = t.profile.unwrap();
        assert_eq!(profile.measure_accesses, 500);
    }
}
