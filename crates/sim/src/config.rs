//! The unified run specification: one builder-style spec for every
//! simulation the harness can drive.
//!
//! A [`RunSpec`] is `workload × engine × machine × knobs`. The engine
//! ([`EngineSelect`]: Baseline / ASAP / Victima / Revelator) and the
//! machine ([`MachineSelect`]: native / virtualized) are *data*, not
//! types — the same spec type describes a native baseline run, a
//! virtualized per-dimension ASAP sweep, and a contender head-to-head bar,
//! and [`RunSpec::run`] dispatches to the right machine assembly
//! internally. New backends plug in as `EngineSelect` variants without a
//! new spec type or driver entry point.
//!
//! # Examples
//!
//! ```
//! use asap_sim::{EngineSelect, RunSpec, SimConfig};
//! use asap_workloads::WorkloadSpec;
//!
//! // A native ASAP run…
//! let native = RunSpec::new(WorkloadSpec::mcf())
//!     .with_engine(EngineSelect::asap_p1_p2())
//!     .with_sim(SimConfig::smoke_test());
//! assert_eq!(native.label(), "P1+P2");
//!
//! // …and a virtualized baseline, same spec type.
//! let virt = RunSpec::new(WorkloadSpec::mcf()).virt();
//! assert_eq!(virt.label(), "Baseline");
//! ```

use crate::driver::DriverError;
#[cfg(test)]
use crate::driver::DriverErrorKind;
use crate::{RunOutput, RunResult};
use asap_contenders::ContenderKind;
use asap_core::{AsapHwConfig, NestedAsapConfig};
use asap_telemetry::TelemetryConfig;
use asap_tlb::PwcConfig;
use asap_types::{PageSize, PagingMode, PtLevel};
use asap_workloads::WorkloadSpec;

/// Window sizes and seeding for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Accesses before statistics reset (cache/TLB warmup).
    pub warmup_accesses: u64,
    /// Accesses measured after warmup.
    pub measure_accesses: u64,
    /// Deterministic seed for the whole run.
    pub seed: u64,
    /// Force per-access arbitration in the multi-core driver instead of
    /// the batched schedule. The two produce identical statistics (pinned
    /// by the `prop_smp_determinism` batching oracle); lockstep exists as
    /// the oracle's reference schedule and differs only in wall-clock.
    pub lockstep: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            warmup_accesses: 40_000,
            measure_accesses: 160_000,
            seed: 42,
            lockstep: false,
        }
    }
}

impl SimConfig {
    /// A tiny configuration for unit tests and doc examples.
    #[must_use]
    pub fn smoke_test() -> Self {
        Self {
            warmup_accesses: 1_000,
            measure_accesses: 4_000,
            seed: 42,
            lockstep: false,
        }
    }

    /// Overrides the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Which translation mechanism runs — an axis value, not a type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineSelect {
    /// The stock radix MMU (no prefetching).
    Baseline,
    /// ASAP prefetching at the given hardware levels (native machines).
    Asap(AsapHwConfig),
    /// ASAP prefetching per walk dimension (virtualized machines).
    NestedAsap(NestedAsapConfig),
    /// Victima-style cache-resident TLB blocks (native machines).
    Victima,
    /// Revelator-style hash speculation (native machines).
    Revelator,
}

impl EngineSelect {
    /// Native ASAP at `P1+P2` — the paper's headline configuration.
    #[must_use]
    pub fn asap_p1_p2() -> Self {
        EngineSelect::Asap(AsapHwConfig::p1_p2())
    }

    /// The contender backend of `kind`.
    #[must_use]
    pub fn contender(kind: ContenderKind) -> Self {
        match kind {
            ContenderKind::Victima => EngineSelect::Victima,
            ContenderKind::Revelator => EngineSelect::Revelator,
        }
    }

    /// The engine part of the run label ("Baseline", "P1+P2",
    /// "P1g+P1h+P2g+P2h", "Victima", …).
    #[must_use]
    pub fn label_fragment(&self) -> String {
        match self {
            EngineSelect::Baseline => "Baseline".into(),
            EngineSelect::Asap(cfg) => {
                if cfg.is_enabled() {
                    let mut levels: Vec<&str> = Vec::new();
                    if cfg.levels.contains(&PtLevel::Pl1) {
                        levels.push("P1");
                    }
                    if cfg.levels.contains(&PtLevel::Pl2) {
                        levels.push("P2");
                    }
                    levels.join("+")
                } else {
                    "Baseline".into()
                }
            }
            EngineSelect::NestedAsap(cfg) => {
                if cfg.is_enabled() {
                    let mut bits: Vec<&str> = Vec::new();
                    if cfg.guest.contains(&PtLevel::Pl1) {
                        bits.push("P1g");
                    }
                    if cfg.host.contains(&PtLevel::Pl1) {
                        bits.push("P1h");
                    }
                    if cfg.guest.contains(&PtLevel::Pl2) {
                        bits.push("P2g");
                    }
                    if cfg.host.contains(&PtLevel::Pl2) {
                        bits.push("P2h");
                    }
                    bits.join("+")
                } else {
                    "Baseline".into()
                }
            }
            EngineSelect::Victima => ContenderKind::Victima.label().into(),
            EngineSelect::Revelator => ContenderKind::Revelator.label().into(),
        }
    }
}

/// Which machine the workload executes on — an axis value, not a type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineSelect {
    /// Bare-metal native execution.
    Native,
    /// A guest under a hypervisor; every TLB miss takes the 2D walk.
    Virt {
        /// Host page size backing guest memory (2 MiB for Fig. 12).
        host_page_size: PageSize,
    },
}

impl MachineSelect {
    /// Virtualized execution over 4 KiB host pages (the common case).
    #[must_use]
    pub fn virt() -> Self {
        MachineSelect::Virt {
            host_page_size: PageSize::Size4K,
        }
    }

    /// Virtualized execution over 2 MiB host pages (Fig. 12).
    #[must_use]
    pub fn virt_2m() -> Self {
        MachineSelect::Virt {
            host_page_size: PageSize::Size2M,
        }
    }

    /// Whether this is the native machine.
    #[must_use]
    pub fn is_native(self) -> bool {
        matches!(self, MachineSelect::Native)
    }
}

/// The most simulated cores one machine supports. The event-queue
/// scheduler arbitrates in O(log n), so the bound is no longer the
/// scheduler — it is the physical map's 128-ASID window budget (each core
/// gets its own ASID starting at 1, plus headroom for the kernel and
/// co-runner windows).
pub const MAX_CORES: usize = 64;

/// The most NUMA nodes the interconnect model supports — a datacenter
/// socket count, not a scheduling limit.
pub const MAX_NUMA_NODES: usize = 8;

/// The simulation-semantics version, printed by perfbench next to its
/// rows digests. Bump it only in a commit that changes rows on purpose,
/// regenerating the committed rows and digests in that same commit; it
/// keys nothing.
pub const SIM_SEMVER: &str = "1.0.0";

/// One run: `workload × engine × machine × cores × knobs` — the unit the
/// scenario registry enumerates and [`RunSpec::run`] executes.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// The workload preset.
    pub workload: WorkloadSpec,
    /// Which translation mechanism runs.
    pub engine: EngineSelect,
    /// Which machine the workload executes on.
    pub machine: MachineSelect,
    /// How many cores share the memory fabric (1 = the classic paper
    /// machine). At N > 1, core 0 runs the workload and cores 1..N run
    /// either workload copies (isolation) or the co-runner workload
    /// (colocation); native machines only.
    pub cores: usize,
    /// How many NUMA nodes the memory fabric spans (1 = uniform memory,
    /// the classic paper machine). At N > 1, cores and their physical
    /// windows are assigned to nodes round-robin and DRAM accesses whose
    /// home node differs from the requesting core's pay an interconnect
    /// hop; native multi-core machines only.
    pub numa_nodes: usize,
    /// Whether the SMT co-runner is active (§4 colocation). At `cores = 1`
    /// this is the legacy out-of-band line-injection shim; at `cores > 1`
    /// the co-runner executes as a real core.
    pub colocated: bool,
    /// Enable the clustered TLB (§5.4.1; native baseline/ASAP only).
    pub clustered_tlb: bool,
    /// Run with translation disabled entirely — the Table 6 methodology
    /// (execution time "in the absence of TLB misses").
    pub perfect_tlb: bool,
    /// Page-walk-cache geometry (ablation knob, §5.1.1; native only).
    pub pwc: PwcConfig,
    /// Paging depth (5-level exercises the §3.5 extension; native only).
    pub paging_mode: PagingMode,
    /// Overrides the workload's PT scatter run length (ablation), if set.
    pub pt_scatter_run_override: Option<f64>,
    /// Window configuration.
    pub sim: SimConfig,
    /// Telemetry switches (event tracing / metrics snapshot / simulator
    /// self-profile). All off by default, in which case every hook in the
    /// engines and the driver compiles to a never-taken branch.
    pub telemetry: TelemetryConfig,
}

impl RunSpec {
    /// The baseline native run of `workload`: stock MMU, no clustering,
    /// default PWCs, isolation. Every other configuration is a builder
    /// call away.
    #[must_use]
    pub fn new(workload: WorkloadSpec) -> Self {
        Self {
            workload,
            engine: EngineSelect::Baseline,
            machine: MachineSelect::Native,
            cores: 1,
            numa_nodes: 1,
            colocated: false,
            clustered_tlb: false,
            perfect_tlb: false,
            pwc: PwcConfig::split_default(),
            paging_mode: PagingMode::FourLevel,
            pt_scatter_run_override: None,
            sim: SimConfig::default(),
            telemetry: TelemetryConfig::off(),
        }
    }

    /// Swaps the workload, keeping every knob (scenario cross products).
    #[must_use]
    pub fn with_workload(mut self, workload: WorkloadSpec) -> Self {
        self.workload = workload;
        self
    }

    /// Selects the engine.
    #[must_use]
    pub fn with_engine(mut self, engine: EngineSelect) -> Self {
        self.engine = engine;
        self
    }

    /// Enables native ASAP at the given levels (hardware + OS together).
    #[must_use]
    pub fn with_asap(self, asap: AsapHwConfig) -> Self {
        self.with_engine(EngineSelect::Asap(asap))
    }

    /// Enables per-dimension ASAP (virtualized machines).
    #[must_use]
    pub fn with_nested_asap(self, asap: NestedAsapConfig) -> Self {
        self.with_engine(EngineSelect::NestedAsap(asap))
    }

    /// Selects the machine.
    #[must_use]
    pub fn with_machine(mut self, machine: MachineSelect) -> Self {
        self.machine = machine;
        self
    }

    /// Runs virtualized over 4 KiB host pages.
    #[must_use]
    pub fn virt(self) -> Self {
        self.with_machine(MachineSelect::virt())
    }

    /// Runs virtualized over 2 MiB host pages (Fig. 12).
    #[must_use]
    pub fn host_2m_pages(self) -> Self {
        self.with_machine(MachineSelect::virt_2m())
    }

    /// Adds the SMT co-runner.
    #[must_use]
    pub fn colocated(mut self) -> Self {
        self.colocated = true;
        self
    }

    /// Simulates `cores` cores sharing one memory fabric.
    #[must_use]
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Spreads the memory fabric over `nodes` NUMA nodes (remote-node DRAM
    /// pays an interconnect hop).
    #[must_use]
    pub fn with_numa_nodes(mut self, nodes: usize) -> Self {
        self.numa_nodes = nodes;
        self
    }

    /// Enables the clustered TLB.
    #[must_use]
    pub fn with_clustered_tlb(mut self) -> Self {
        self.clustered_tlb = true;
        self
    }

    /// Switches to perfect-TLB mode (Table 6).
    #[must_use]
    pub fn perfect_tlb(mut self) -> Self {
        self.perfect_tlb = true;
        self
    }

    /// Swaps the PWC geometry.
    #[must_use]
    pub fn with_pwc(mut self, pwc: PwcConfig) -> Self {
        self.pwc = pwc;
        self
    }

    /// Uses five-level paging (§3.5 extension).
    #[must_use]
    pub fn five_level(mut self) -> Self {
        self.paging_mode = PagingMode::FiveLevel;
        self
    }

    /// Overrides the PT scatter run length.
    #[must_use]
    pub fn with_pt_scatter_run(mut self, run: f64) -> Self {
        self.pt_scatter_run_override = Some(run);
        self
    }

    /// Sets the window configuration.
    #[must_use]
    pub fn with_sim(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Sets the telemetry switches (tracing / metrics / self-profile).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The workload's name.
    #[must_use]
    pub fn workload_name(&self) -> &'static str {
        self.workload.name
    }

    /// The workload with the spec's overrides applied.
    pub(crate) fn effective_workload(&self) -> WorkloadSpec {
        let mut w = self.workload.clone();
        if let Some(run) = self.pt_scatter_run_override {
            w.pt_scatter_run = run;
        }
        w
    }

    /// A short label for reports, derived from the engine, machine and
    /// feature knobs: "Baseline", "P1+P2 ClusteredTLB coloc",
    /// "P1g+P2g+P2h host2M", "Victima coloc", ….
    #[must_use]
    pub fn label(&self) -> String {
        let mut parts = vec![self.engine.label_fragment()];
        if self.clustered_tlb {
            parts.push("ClusteredTLB".into());
        }
        if matches!(
            self.machine,
            MachineSelect::Virt {
                host_page_size: PageSize::Size2M
            }
        ) {
            parts.push("host2M".into());
        }
        if self.colocated {
            parts.push("coloc".into());
        }
        if self.cores > 1 {
            parts.push(format!("{}c", self.cores));
        }
        if self.numa_nodes > 1 {
            parts.push(format!("{}n", self.numa_nodes));
        }
        parts.join(" ")
    }

    /// Checks that the engine, machine, and knobs are a combination the
    /// simulator models. The registry only produces valid specs; this is
    /// the typed error a hand-built spec gets instead of a panic deep in
    /// machine assembly.
    ///
    /// # Errors
    ///
    /// [`IncompatibleSpec`](crate::driver::DriverErrorKind::IncompatibleSpec) naming the first offending
    /// combination.
    pub fn validate(&self) -> Result<(), DriverError> {
        let err = |reason| Err(DriverError::incompatible_spec(reason));
        match (&self.engine, &self.machine) {
            (EngineSelect::NestedAsap(_), MachineSelect::Native) => {
                return err("nested (per-dimension) ASAP needs a virtualized machine; use EngineSelect::Asap for native runs");
            }
            (EngineSelect::Asap(_), MachineSelect::Virt { .. }) => {
                return err(
                    "native ASAP levels on a virtualized machine; use EngineSelect::NestedAsap",
                );
            }
            (EngineSelect::Victima | EngineSelect::Revelator, MachineSelect::Virt { .. }) => {
                return err("contender backends (Victima/Revelator) model native machines only");
            }
            _ => {}
        }
        if self.cores == 0 {
            return err("a machine needs at least one core");
        }
        if self.cores > MAX_CORES {
            return err("the physical map's ASID windows support at most 64 cores");
        }
        if self.cores > 1 && !self.machine.is_native() {
            return err("multi-core simulation models native machines only");
        }
        if self.numa_nodes == 0 {
            return err("a memory fabric needs at least one NUMA node");
        }
        if self.numa_nodes > MAX_NUMA_NODES {
            return err("the interconnect model supports at most 8 NUMA nodes");
        }
        if self.numa_nodes > 1 && !self.machine.is_native() {
            return err("NUMA simulation models native machines only");
        }
        if self.numa_nodes > self.cores {
            return err("every NUMA node needs at least one core (numa_nodes <= cores)");
        }
        let contender = matches!(self.engine, EngineSelect::Victima | EngineSelect::Revelator);
        if self.clustered_tlb && (!self.machine.is_native() || contender) {
            return err("the clustered TLB is modeled only in the native baseline/ASAP MMU");
        }
        if self.pwc != PwcConfig::split_default() && (!self.machine.is_native() || contender) {
            return err("PWC geometry is configurable only on the native baseline/ASAP machine");
        }
        if self.paging_mode != PagingMode::FourLevel && (!self.machine.is_native() || contender) {
            return err("five-level paging is modeled only on the native machine");
        }
        Ok(())
    }

    /// Executes the run and returns the aggregate measurements (for
    /// multi-core runs, the whole-machine row; see [`RunSpec::run_split`]
    /// for the per-core breakdown).
    ///
    /// # Errors
    ///
    /// [`IncompatibleSpec`](crate::driver::DriverErrorKind::IncompatibleSpec) for a combination the simulator
    /// does not model, or the driver's error for a misconfigured
    /// workload/machine pairing.
    pub fn run(&self) -> Result<RunResult, DriverError> {
        self.run_split().map(|o| o.aggregate)
    }

    /// Executes the run: validates the spec, assembles the machine the
    /// engine/machine/cores axes select, and drives it through the one
    /// generic driver loop. Multi-core specs return per-core rows plus
    /// the merged aggregate; single-core specs return only the aggregate.
    ///
    /// # Errors
    ///
    /// [`IncompatibleSpec`](crate::driver::DriverErrorKind::IncompatibleSpec) for a combination the simulator
    /// does not model, or the driver's error for a misconfigured
    /// workload/machine pairing.
    pub fn run_split(&self) -> Result<RunOutput, DriverError> {
        self.validate()?;
        match self.machine {
            MachineSelect::Native => crate::native::run_native(self),
            MachineSelect::Virt { host_page_size } => crate::virt::run_virt(self, host_page_size),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_labels() {
        let w = WorkloadSpec::mcf;
        assert_eq!(RunSpec::new(w()).label(), "Baseline");
        assert_eq!(
            RunSpec::new(w()).with_asap(AsapHwConfig::p1()).label(),
            "P1"
        );
        assert_eq!(
            RunSpec::new(w())
                .with_asap(AsapHwConfig::p1_p2())
                .colocated()
                .label(),
            "P1+P2 coloc"
        );
        assert_eq!(
            RunSpec::new(w()).with_clustered_tlb().label(),
            "Baseline ClusteredTLB"
        );
        assert_eq!(
            RunSpec::new(w()).with_asap(AsapHwConfig::off()).label(),
            "Baseline"
        );
    }

    #[test]
    fn virt_labels() {
        let w = WorkloadSpec::redis;
        assert_eq!(RunSpec::new(w()).virt().label(), "Baseline");
        assert_eq!(
            RunSpec::new(w())
                .virt()
                .with_nested_asap(NestedAsapConfig::all())
                .label(),
            "P1g+P1h+P2g+P2h"
        );
        assert_eq!(
            RunSpec::new(w())
                .with_nested_asap(NestedAsapConfig::host_2m())
                .host_2m_pages()
                .label(),
            "P1g+P2g+P2h host2M"
        );
    }

    #[test]
    fn contender_labels() {
        let spec = RunSpec::new(WorkloadSpec::mcf())
            .with_engine(EngineSelect::contender(ContenderKind::Revelator))
            .colocated();
        assert_eq!(spec.label(), "Revelator coloc");
        assert_eq!(
            RunSpec::new(WorkloadSpec::mcf())
                .with_engine(EngineSelect::Victima)
                .label(),
            "Victima"
        );
    }

    #[test]
    fn cores_axis_labels() {
        let w = WorkloadSpec::mcf;
        assert_eq!(RunSpec::new(w()).with_cores(1).label(), "Baseline");
        assert_eq!(RunSpec::new(w()).with_cores(4).label(), "Baseline 4c");
        assert_eq!(
            RunSpec::new(w())
                .with_asap(AsapHwConfig::p1_p2())
                .colocated()
                .with_cores(2)
                .label(),
            "P1+P2 coloc 2c"
        );
        assert_eq!(
            RunSpec::new(w()).with_cores(16).with_numa_nodes(4).label(),
            "Baseline 16c 4n"
        );
        assert_eq!(
            RunSpec::new(w()).with_numa_nodes(1).with_cores(64).label(),
            "Baseline 64c"
        );
    }

    /// The 64-core boundary: `MAX_CORES` itself validates, one past it is
    /// a typed error naming the new limit, and multi-core (and NUMA) stay
    /// native-only.
    #[test]
    fn core_and_numa_limits() {
        let w = WorkloadSpec::mcf;
        assert_eq!(MAX_CORES, 64);
        RunSpec::new(w()).with_cores(MAX_CORES).validate().unwrap();
        let over = RunSpec::new(w()).with_cores(MAX_CORES + 1).validate();
        assert_eq!(
            over.unwrap_err(),
            DriverError::incompatible_spec(
                "the physical map's ASID windows support at most 64 cores"
            )
        );
        assert!(RunSpec::new(w()).virt().with_cores(2).validate().is_err());
        RunSpec::new(w())
            .with_cores(MAX_NUMA_NODES)
            .with_numa_nodes(MAX_NUMA_NODES)
            .validate()
            .unwrap();
        for bad in [
            RunSpec::new(w()).with_cores(2).with_numa_nodes(0),
            RunSpec::new(w())
                .with_cores(MAX_CORES)
                .with_numa_nodes(MAX_NUMA_NODES + 1),
            RunSpec::new(w()).with_numa_nodes(2), // 2 nodes need >= 2 cores
            RunSpec::new(w()).with_cores(2).with_numa_nodes(4),
            RunSpec::new(w()).virt().with_numa_nodes(2),
        ] {
            assert!(
                matches!(
                    bad.validate().unwrap_err().kind,
                    DriverErrorKind::IncompatibleSpec { .. }
                ),
                "{bad:?} should be incompatible"
            );
        }
    }

    #[test]
    fn validation_rejects_mismatched_axes() {
        let w = WorkloadSpec::mcf;
        let bad = [
            RunSpec::new(w()).with_nested_asap(NestedAsapConfig::all()),
            RunSpec::new(w()).virt().with_asap(AsapHwConfig::p1()),
            RunSpec::new(w()).virt().with_engine(EngineSelect::Victima),
            RunSpec::new(w()).virt().with_clustered_tlb(),
            RunSpec::new(w())
                .with_engine(EngineSelect::Revelator)
                .five_level(),
            RunSpec::new(w())
                .virt()
                .with_pwc(asap_tlb::PwcConfig::split_doubled()),
            RunSpec::new(w()).with_cores(0),
            RunSpec::new(w()).with_cores(MAX_CORES + 1),
            RunSpec::new(w()).virt().with_cores(2),
        ];
        for spec in bad {
            let err = spec.validate().unwrap_err();
            assert!(
                matches!(err.kind, DriverErrorKind::IncompatibleSpec { .. }),
                "{spec:?} should be incompatible"
            );
            assert_eq!(spec.run().unwrap_err(), err, "run() must validate first");
        }
    }

    #[test]
    fn validation_accepts_the_modeled_matrix() {
        let w = WorkloadSpec::mcf;
        for spec in [
            RunSpec::new(w()),
            RunSpec::new(w())
                .with_asap(AsapHwConfig::p1_p2())
                .colocated(),
            RunSpec::new(w()).with_clustered_tlb().five_level(),
            RunSpec::new(w()).perfect_tlb(),
            RunSpec::new(w()).virt(),
            RunSpec::new(w())
                .host_2m_pages()
                .with_nested_asap(NestedAsapConfig::host_2m()),
            RunSpec::new(w()).with_engine(EngineSelect::Victima),
            RunSpec::new(w())
                .with_engine(EngineSelect::Revelator)
                .colocated(),
            RunSpec::new(w()).with_cores(4),
            RunSpec::new(w()).with_cores(2).colocated(),
            RunSpec::new(w())
                .with_engine(EngineSelect::Victima)
                .with_cores(2),
            RunSpec::new(w())
                .with_asap(AsapHwConfig::p1_p2())
                .with_cores(MAX_CORES),
            RunSpec::new(w()).with_cores(4).with_numa_nodes(2),
            RunSpec::new(w())
                .with_engine(EngineSelect::Victima)
                .with_cores(8)
                .with_numa_nodes(4),
        ] {
            spec.validate().unwrap_or_else(|e| panic!("{spec:?}: {e}"));
        }
    }
}
