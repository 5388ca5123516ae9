//! The simulation driver for the ASAP reproduction.
//!
//! Assembles a full machine — workload process (or VM), translation engine
//! (baseline, ASAP, or a contender backend), optional SMT co-runner — runs
//! a warmup window followed by a measurement window, and collects the
//! statistics every paper table and figure is built from:
//!
//! * [`RunSpec`] — the ONE unified run specification: `workload ×`
//!   [`EngineSelect`] `×` [`MachineSelect`] `× cores × knobs`, executed
//!   with [`RunSpec::run`] / [`RunSpec::run_split`] (machine assembly is
//!   internal dispatch on the machine axis: one native assembly builds
//!   1..=64 engines of any native backend over one shared memory fabric
//!   and returns per-core plus aggregate rows at `cores > 1`; the
//!   virtualized assembly builds one nested engine; both install the
//!   single-core SMT co-runner shim, [`CoreSlot::corunner`], on a
//!   colocated one-core machine);
//! * [`run_cores`] / [`run_scenario`] — the one generic cycle-interleaved
//!   driver loop, over any [`asap_core::TranslationEngine`];
//! * [`scenarios`] — the declarative registry naming every paper
//!   experiment as a workload × engine × machine cross product;
//! * [`parallel_map`] — deterministic fan-out of independent runs across
//!   host threads;
//! * [`Table`] / [`results_to_json`] / [`BenchDoc`] — the markdown
//!   renderer and the machine-readable `BENCH_results.json` emitter used
//!   by the `asap` CLI; [`BenchDoc::parse`] reads the file back as a
//!   schema mapping over `asap_telemetry::json`, the workspace's one JSON
//!   reader.
//!
//! # Examples
//!
//! ```
//! use asap_sim::{EngineSelect, RunSpec, SimConfig};
//! use asap_workloads::WorkloadSpec;
//!
//! let result = RunSpec::new(WorkloadSpec::mcf())
//!     .with_engine(EngineSelect::asap_p1_p2())
//!     .with_sim(SimConfig::smoke_test())
//!     .run()
//!     .expect("well-formed spec");
//! assert!(result.walks.count() > 0);
//! assert!(result.walks.mean() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod config;
mod cycles;
mod driver;
mod json;
mod native;
mod observe;
mod parallel;
mod report;
mod result;
pub mod scenarios;
pub mod sched;
mod virt;

pub use asap_telemetry::{RunTelemetry, TelemetryConfig};
pub use codec::result_to_json;
pub use config::{
    EngineSelect, MachineSelect, RunSpec, SimConfig, MAX_CORES, MAX_NUMA_NODES, SIM_SEMVER,
};
pub use cycles::{CPU_WORK_CYCLES_PER_ACCESS, INSTRUCTIONS_PER_ACCESS};
pub use driver::{
    run_cores, run_cores_observed, run_scenario, CoreSlot, DriverError, DriverErrorKind,
    DriverObserver, RunMeta, OS_RUN_AHEAD_DEPTH,
};
pub use json::{results_to_json, BenchDoc, BenchError, BenchRun, BenchScenario};
pub use parallel::parallel_map;
pub use report::{fmt_cycles, fmt_pct, fmt_ratio, Table};
pub use result::{RunOutput, RunResult};
