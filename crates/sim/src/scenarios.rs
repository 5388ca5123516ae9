//! The scenario registry: every paper experiment as a declarative,
//! enumerable cross product.
//!
//! A [`Scenario`] is built with a small DSL instead of a hand-rolled run
//! list: name a workload suite ([`Scenario::workloads`]), add labeled axes
//! ([`Scenario::engines`], [`Scenario::machines`], [`Scenario::colocation`],
//! or a generic [`Scenario::axis`]), and the cross product — with its
//! per-run labels — is derived automatically. Labels are unique by
//! construction: each axis rejects duplicate fragments at build time, and
//! [`Scenario::runs`] verifies the composed (workload, variant) keys as a
//! final gate, so a colliding join or shadowing row panics instead of
//! silently producing ambiguous results. Hand-picked run lists (Table 1's
//! mixed workloads, the CI engine matrix) use explicit [`Scenario::row`]
//! entries instead.
//!
//! The registry ([`registry`]) enumerates one scenario per paper experiment
//! (fig2…fig12, table1…table7, the ablations) plus the CI smoke set.
//! Harnesses resolve runs here; rendering is selected by the scenario's
//! [`RendererKind`] metadata, so adding a scenario is one registry entry —
//! drivers, parallel fan-out, reporting and the CLI come for free.
//!
//! # Examples
//!
//! Running a registered scenario:
//!
//! ```
//! use asap_sim::scenarios::{find, registry};
//! use asap_sim::SimConfig;
//!
//! assert!(registry().iter().any(|s| s.name == "fig3"));
//! let smoke = find("smoke").unwrap();
//! let results = smoke.run(SimConfig::smoke_test());
//! assert!(results.get("mc80", "native/baseline").walks.count() > 0);
//! ```
//!
//! Declaring a new one (~10 lines — this is the whole recipe):
//!
//! ```
//! use asap_sim::scenarios::Scenario;
//! use asap_sim::{EngineSelect, SimConfig};
//! use asap_workloads::WorkloadSpec;
//!
//! let sweep = Scenario::new("my_sweep", "ASAP vs baseline on redis/mcf")
//!     .workloads([WorkloadSpec::redis(), WorkloadSpec::mcf()])
//!     .engines([
//!         ("Baseline", EngineSelect::Baseline),
//!         ("ASAP", EngineSelect::asap_p1_p2()),
//!     ])
//!     .colocation();
//! // 2 workloads × 2 engines × {isolation, coloc} = 8 labeled runs.
//! assert_eq!(sweep.runs(SimConfig::smoke_test()).len(), 8);
//! ```

use crate::driver::DriverError;
use crate::{parallel_map, EngineSelect, MachineSelect, RunOutput, RunResult, RunSpec, SimConfig};
use asap_core::{AsapHwConfig, NestedAsapConfig};
use asap_telemetry::{RunTelemetry, TelemetryConfig};
use asap_tlb::PwcConfig;
use asap_types::ByteSize;
use asap_workloads::WorkloadSpec;

/// Which renderer the experiment harness should use for a scenario's
/// results — metadata, so new scenarios pick an existing presentation (or
/// the default [`RendererKind::RunMatrix`]) without touching the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RendererKind {
    /// One row per run: variant, walks, latency, cycles (the default).
    RunMatrix,
    /// Table 1's normalized walk-latency growth ladder.
    Table1,
    /// Figs. 2-style grid: walk fraction across the four machine scenarios.
    WalkFractionGrid,
    /// Figs. 3-style grid: walk latency across the four machine scenarios.
    WalkLatencyGrid,
    /// Table 2's analytic page-table census (no simulation runs).
    PtCensus,
    /// Fig. 8: native Baseline/P1/P1+P2 sweep, isolation + colocation.
    AsapSweep,
    /// Fig. 9: which hierarchy level served each walk request.
    ServedBy,
    /// Fig. 10: virtualized per-dimension ASAP sweep.
    NestedAsapSweep,
    /// Table 6: conservative speedup projection.
    Projection,
    /// Fig. 11 + Table 7: clustered TLB vs ASAP vs both.
    ClusteredSynergy,
    /// Fig. 12: virtualization over 2 MiB host pages.
    HostHugePages,
    /// PWC capacity ablation.
    PwcAblation,
    /// PT physical-layout (scatter) ablation.
    ScatterAblation,
    /// Five-level paging extension.
    FiveLevelAblation,
    /// Contender head-to-head (latency + cycles tables).
    HeadToHead,
    /// SMP scaling: per-core + aggregate rows across core counts.
    SmpScaling,
}

/// One named run within a scenario.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// The workload's name (first lookup key).
    pub workload: &'static str,
    /// The variant key within the scenario ("native", "P1+P2+coloc", ...).
    pub variant: String,
    /// The full specification.
    pub spec: RunSpec,
}

/// A named, enumerable experiment: a declarative cross product of
/// workloads × labeled axes (plus optional explicit rows), with rendering
/// and window metadata.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Registry key ("fig2", "table1", "ablation_pwc", ...).
    pub name: &'static str,
    /// Human-readable description.
    pub title: &'static str,
    /// Whether the scenario belongs to the CI smoke set (small enough to
    /// run end-to-end on every `ci.sh` pass).
    pub smoke: bool,
    /// Which renderer the harness should use for the results.
    pub renderer: RendererKind,
    windows: Option<SimConfig>,
    /// When set, every enumerated spec runs at this core count regardless
    /// of any `cores` axis — the CLI's `--cores` override.
    forced_cores: Option<usize>,
    /// When set, every enumerated spec runs over this many NUMA nodes
    /// regardless of any `numa` axis — the CLI's `--numa` override.
    forced_numa: Option<usize>,
    /// Telemetry switches applied to every enumerated spec — the CLI's
    /// `--trace`/`--metrics`/`--profile` flags. Off by default.
    telemetry: TelemetryConfig,
    workloads: Vec<WorkloadSpec>,
    /// The derived cross product: (variant key, spec template). The
    /// template's workload and windows are placeholders replaced at
    /// enumeration time.
    variants: Vec<(String, RunSpec)>,
    /// Hand-picked rows (variant key, full spec); enumerated before the
    /// cross product, in insertion order.
    explicit: Vec<(String, RunSpec)>,
}

/// Joins two label fragments with `+`, eliding empty sides.
fn join_label(a: &str, b: &str) -> String {
    match (a.is_empty(), b.is_empty()) {
        (true, _) => b.to_string(),
        (_, true) => a.to_string(),
        _ => format!("{a}+{b}"),
    }
}

impl Scenario {
    /// Starts a scenario: native baseline runs, default renderer, no axes.
    #[must_use]
    pub fn new(name: &'static str, title: &'static str) -> Self {
        Self {
            name,
            title,
            smoke: false,
            renderer: RendererKind::RunMatrix,
            windows: None,
            forced_cores: None,
            forced_numa: None,
            telemetry: TelemetryConfig::off(),
            workloads: Vec::new(),
            variants: Vec::new(),
            explicit: Vec::new(),
        }
    }

    /// Marks the scenario as part of the CI smoke set.
    #[must_use]
    pub fn ci_smoke(mut self) -> Self {
        self.smoke = true;
        self
    }

    /// Selects the renderer the harness should use.
    #[must_use]
    pub fn rendered_by(mut self, renderer: RendererKind) -> Self {
        self.renderer = renderer;
        self
    }

    /// Declares the scenario's own window configuration (the CI smoke
    /// scenarios pin miniature windows here; paper scenarios leave it
    /// unset and inherit the harness default).
    #[must_use]
    pub fn windows(mut self, sim: SimConfig) -> Self {
        self.windows = Some(sim);
        self
    }

    /// The scenario's declared windows, if any.
    #[must_use]
    pub fn default_windows(&self) -> Option<SimConfig> {
        self.windows
    }

    /// The declared windows, or `fallback`.
    #[must_use]
    pub fn windows_or(&self, fallback: SimConfig) -> SimConfig {
        self.windows.unwrap_or(fallback)
    }

    /// Declares the workload suite the axes cross against.
    #[must_use]
    pub fn workloads(mut self, workloads: impl IntoIterator<Item = WorkloadSpec>) -> Self {
        self.workloads = workloads.into_iter().collect();
        self
    }

    /// The declared workload suite (renderers use it for row order).
    #[must_use]
    pub fn workload_specs(&self) -> &[WorkloadSpec] {
        &self.workloads
    }

    /// Adds a labeled axis: the existing variants are crossed with every
    /// option, labels joined with `+` (empty fragments elided).
    ///
    /// # Panics
    ///
    /// Panics when two options share a label — per-axis fragments must be
    /// unique so composed labels stay unique by construction.
    #[must_use]
    pub fn axis<L, F>(mut self, options: impl IntoIterator<Item = (L, F)>) -> Self
    where
        L: Into<String>,
        F: Fn(RunSpec) -> RunSpec,
    {
        let options: Vec<(String, F)> = options.into_iter().map(|(l, f)| (l.into(), f)).collect();
        for (i, (label, _)) in options.iter().enumerate() {
            assert!(
                !options[..i].iter().any(|(other, _)| other == label),
                "scenario {}: duplicate axis label {label:?}",
                self.name
            );
        }
        let seed = self
            .workloads
            .first()
            .cloned()
            .unwrap_or_else(WorkloadSpec::mc80);
        let base = if self.variants.is_empty() {
            vec![(String::new(), RunSpec::new(seed))]
        } else {
            std::mem::take(&mut self.variants)
        };
        for (blabel, bspec) in base {
            for (olabel, f) in &options {
                self.variants
                    .push((join_label(&blabel, olabel), f(bspec.clone())));
            }
        }
        self
    }

    /// Applies an unlabeled transform to every variant (e.g. "this whole
    /// scenario runs virtualized") without adding a label fragment.
    #[must_use]
    pub fn base<F: Fn(RunSpec) -> RunSpec>(self, f: F) -> Self {
        self.axis([("", f)])
    }

    /// Sugar: an engine axis.
    #[must_use]
    pub fn engines(self, engines: impl IntoIterator<Item = (&'static str, EngineSelect)>) -> Self {
        self.axis(
            engines
                .into_iter()
                .map(|(l, e)| (l, move |s: RunSpec| s.with_engine(e.clone()))),
        )
    }

    /// Sugar: a machine axis.
    #[must_use]
    pub fn machines(
        self,
        machines: impl IntoIterator<Item = (&'static str, MachineSelect)>,
    ) -> Self {
        self.axis(
            machines
                .into_iter()
                .map(|(l, m)| (l, move |s: RunSpec| s.with_machine(m))),
        )
    }

    /// Sugar: the isolation/colocation axis (§4).
    #[must_use]
    pub fn colocation(self) -> Self {
        self.axis([
            ("", (|s| s) as fn(RunSpec) -> RunSpec),
            ("coloc", |s: RunSpec| s.colocated()),
        ])
    }

    /// Sugar: a core-count axis ("1c", "2c", "4c", ...) over the shared
    /// memory fabric.
    #[must_use]
    pub fn cores(self, counts: impl IntoIterator<Item = usize>) -> Self {
        self.axis(
            counts
                .into_iter()
                .map(|n| (format!("{n}c"), move |s: RunSpec| s.with_cores(n))),
        )
    }

    /// Sugar: a NUMA-node axis ("1n", "2n", "4n", ...) splitting the
    /// memory fabric across nodes.
    #[must_use]
    pub fn numa(self, counts: impl IntoIterator<Item = usize>) -> Self {
        self.axis(
            counts
                .into_iter()
                .map(|n| (format!("{n}n"), move |s: RunSpec| s.with_numa_nodes(n))),
        )
    }

    /// Forces every enumerated run to `cores` cores, overriding any
    /// `cores` axis (the CLI's `--cores` flag). Variant labels are NOT
    /// rewritten — this is an execution override, not a new axis.
    #[must_use]
    pub fn with_forced_cores(mut self, cores: usize) -> Self {
        self.forced_cores = Some(cores);
        self
    }

    /// Forces every enumerated run onto `nodes` NUMA nodes, overriding
    /// any `numa` axis (the CLI's `--numa` flag). Same contract as
    /// [`Scenario::with_forced_cores`]: an execution override, labels
    /// untouched.
    #[must_use]
    pub fn with_forced_numa(mut self, nodes: usize) -> Self {
        self.forced_numa = Some(nodes);
        self
    }

    /// Enables telemetry on every enumerated run (the CLI's
    /// `--trace`/`--metrics`/`--profile` flags). Same contract as
    /// [`Scenario::with_forced_cores`]: an execution override, labels
    /// untouched.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Adds one hand-picked row: the spec's own workload is the lookup
    /// key. Explicit rows enumerate before the cross product, in
    /// insertion order.
    ///
    /// # Panics
    ///
    /// Panics when the (workload, variant) pair is already present.
    #[must_use]
    pub fn row(mut self, variant: impl Into<String>, spec: RunSpec) -> Self {
        let variant = variant.into();
        assert!(
            !self
                .explicit
                .iter()
                .any(|(v, s)| *v == variant && s.workload.name == spec.workload.name),
            "scenario {}: duplicate row ({}, {variant})",
            self.name,
            spec.workload.name
        );
        self.explicit.push((variant, spec));
        self
    }

    /// Enumerates the scenario's runs for the given window configuration:
    /// explicit rows first, then the workload × axes cross product.
    ///
    /// # Panics
    ///
    /// Panics when two runs share a (workload, variant) key. Per-axis
    /// fragment checks catch most collisions at construction; this final
    /// gate also catches cross-axis joins that happen to collide (e.g.
    /// `"A"+"B"` vs `"A+B"+""`) and explicit rows shadowing the cross
    /// product, so duplicate keys can never reach the driver or the
    /// results JSON.
    #[must_use]
    pub fn runs(&self, sim: SimConfig) -> Vec<ScenarioRun> {
        let force = |spec: RunSpec| {
            let spec = spec.with_telemetry(self.telemetry);
            let spec = match self.forced_cores {
                Some(n) => spec.with_cores(n),
                None => spec,
            };
            match self.forced_numa {
                Some(n) => spec.with_numa_nodes(n),
                None => spec,
            }
        };
        let mut out = Vec::new();
        for (variant, spec) in &self.explicit {
            out.push(ScenarioRun {
                workload: spec.workload.name,
                variant: variant.clone(),
                spec: force(spec.clone().with_sim(sim)),
            });
        }
        for w in &self.workloads {
            for (variant, template) in &self.variants {
                out.push(ScenarioRun {
                    workload: w.name,
                    variant: variant.clone(),
                    spec: force(template.clone().with_workload(w.clone()).with_sim(sim)),
                });
            }
        }
        let mut keys = asap_types::FastSet::default();
        for r in &out {
            assert!(
                keys.insert((r.workload, r.variant.as_str())),
                "scenario {}: duplicate run key ({}, {})",
                self.name,
                r.workload,
                r.variant
            );
        }
        out
    }

    /// Executes every run across host threads and collects the results.
    #[must_use]
    pub fn run(&self, sim: SimConfig) -> ScenarioResults {
        #[expect(clippy::expect_used, reason = "one scenario in, one set out")]
        run_scenarios(std::slice::from_ref(self), sim)
            .pop()
            .expect("one scenario in, one result set out")
    }
}

/// The measurements of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioRunResult {
    /// The workload's name.
    pub workload: &'static str,
    /// The variant key.
    pub variant: String,
    /// The aggregate (whole-machine) measurements.
    pub result: RunResult,
    /// Per-core rows for multi-core runs ("mc80@core0", ...), in core
    /// order; empty for single-core runs.
    pub per_core: Vec<RunResult>,
    /// Telemetry harvested from the run, when the scenario enabled any.
    pub telemetry: Option<RunTelemetry>,
}

/// A run the driver refused to execute (misconfigured spec), reported
/// alongside the successful runs instead of aborting the fan-out.
#[derive(Debug, Clone)]
pub struct ScenarioRunError {
    /// The workload's name.
    pub workload: &'static str,
    /// The variant key.
    pub variant: String,
    /// What the driver reported.
    pub error: DriverError,
}

/// All results of one executed scenario, addressable by (workload, variant).
#[derive(Debug, Clone)]
pub struct ScenarioResults {
    /// The scenario's registry key.
    pub name: &'static str,
    /// Every successful run's measurements, in registry order.
    pub runs: Vec<ScenarioRunResult>,
    /// Runs the driver rejected with a typed error, in registry order.
    pub errors: Vec<ScenarioRunError>,
}

impl ScenarioResults {
    /// The result for (workload, variant).
    ///
    /// # Panics
    ///
    /// Panics when the pair is not part of the scenario — a harness bug
    /// reported loudly (including any driver error for the pair) rather
    /// than rendered as an empty cell.
    #[must_use]
    pub fn get(&self, workload: &str, variant: &str) -> &RunResult {
        #[expect(clippy::panic, reason = "a missing row is a harness bug")]
        self.runs
            .iter()
            .find(|r| r.workload == workload && r.variant == variant)
            .map(|r| &r.result)
            .unwrap_or_else(|| {
                if let Some(e) = self
                    .errors
                    .iter()
                    .find(|e| e.workload == workload && e.variant == variant)
                {
                    panic!(
                        "scenario {}: run ({workload}, {variant}) failed: {}",
                        self.name, e.error
                    );
                }
                panic!("scenario {}: no run ({workload}, {variant})", self.name)
            })
    }

    /// Whether every enumerated run executed successfully.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.errors.is_empty()
    }

    /// The per-core rows for (workload, variant) — empty for single-core
    /// runs.
    ///
    /// # Panics
    ///
    /// Panics when the pair is not part of the scenario (same contract as
    /// [`ScenarioResults::get`]).
    #[must_use]
    pub fn per_core(&self, workload: &str, variant: &str) -> &[RunResult] {
        #[expect(clippy::panic, reason = "a missing row is a harness bug")]
        self.runs
            .iter()
            .find(|r| r.workload == workload && r.variant == variant)
            .map(|r| r.per_core.as_slice())
            .unwrap_or_else(|| panic!("scenario {}: no run ({workload}, {variant})", self.name))
    }
}

/// Runs several scenarios as ONE flattened parallel fan-out (better load
/// balancing than nesting `parallel_map` per scenario), preserving order.
/// A telemetry-free spec named by several runs is simulated once and its
/// output cloned into each of them: a spec's rows depend on the spec
/// alone (every run is seeded), so the copies equal fresh runs. Specs
/// with telemetry always run live, since their artifacts are per run.
#[must_use]
pub fn run_scenarios(scenarios: &[Scenario], sim: SimConfig) -> Vec<ScenarioResults> {
    let mut flat: Vec<(usize, ScenarioRun)> = Vec::new();
    for (i, s) in scenarios.iter().enumerate() {
        flat.extend(s.runs(sim).into_iter().map(|r| (i, r)));
    }
    let specs: Vec<&RunSpec> = flat.iter().map(|(_, run)| &run.spec).collect();
    let first = first_equal_specs(&specs);
    let live: Vec<&RunSpec> = specs
        .iter()
        .zip(&first)
        .enumerate()
        .filter(|&(pos, (_, &f))| f == pos)
        .map(|(_, (&spec, _))| spec)
        .collect();
    let mut fresh = parallel_map(live, RunSpec::run_split).into_iter();
    let mut done: Vec<Result<RunOutput, DriverError>> = Vec::with_capacity(first.len());
    for (pos, &f) in first.iter().enumerate() {
        let output = if f == pos {
            #[expect(clippy::expect_used, reason = "one live run per first occurrence")]
            fresh
                .next()
                .expect("a live output for every first occurrence")
        } else {
            done[f].clone()
        };
        done.push(output);
    }
    let mut out: Vec<ScenarioResults> = scenarios
        .iter()
        .map(|s| ScenarioResults {
            name: s.name,
            runs: Vec::new(),
            errors: Vec::new(),
        })
        .collect();
    for ((i, run), r) in flat.into_iter().zip(done) {
        match r {
            Ok(output) => out[i].runs.push(ScenarioRunResult {
                workload: run.workload,
                variant: run.variant,
                result: output.aggregate,
                per_core: output.per_core,
                telemetry: output.telemetry,
            }),
            Err(error) => out[i].errors.push(ScenarioRunError {
                workload: run.workload,
                variant: run.variant,
                error,
            }),
        }
    }
    out
}

/// For each spec, the position of the first spec equal to it — its own
/// position unless an earlier one repeats it. Specs with telemetry map
/// to themselves.
fn first_equal_specs(specs: &[&RunSpec]) -> Vec<usize> {
    specs
        .iter()
        .enumerate()
        .map(|(pos, spec)| {
            if spec.telemetry.any() {
                return pos;
            }
            specs[..pos]
                .iter()
                .position(|earlier| earlier == spec)
                .unwrap_or(pos)
        })
        .collect()
}

/// Looks a scenario up by name.
#[must_use]
pub fn find(name: &str) -> Option<Scenario> {
    registry().into_iter().find(|s| s.name == name)
}

/// The scenarios of the CI smoke set.
#[must_use]
pub fn smoke_set() -> Vec<Scenario> {
    registry().into_iter().filter(|s| s.smoke).collect()
}

/// The full registry, in paper order.
#[must_use]
pub fn registry() -> Vec<Scenario> {
    vec![
        table1(),
        fig2(),
        fig3(),
        table2(),
        fig8(),
        fig9(),
        fig10(),
        table6(),
        fig11_table7(),
        fig12(),
        ablation_pwc(),
        ablation_scatter(),
        ablation_5level(),
        contenders(),
        smp_scaling(),
        numa_scaling(),
        smoke(),
        contenders_smoke(),
        smp_smoke(),
        numa_smoke(),
    ]
}

fn table1() -> Scenario {
    let mc80 = WorkloadSpec::mc80;
    Scenario::new(
        "table1",
        "Table 1: memcached walk-latency growth under scaling, colocation, virtualization",
    )
    .rendered_by(RendererKind::Table1)
    .row("native", RunSpec::new(mc80()))
    .row("native", RunSpec::new(WorkloadSpec::mc400()))
    .row("native+coloc", RunSpec::new(mc80()).colocated())
    .row("virt", RunSpec::new(mc80()).virt())
    .row("virt+coloc", RunSpec::new(mc80()).virt().colocated())
}

/// The four execution scenarios of Figs. 2/3: {native, virt} × {isolation,
/// colocation}.
fn four_machine_scenarios(s: Scenario) -> Scenario {
    s.machines([
        ("native", MachineSelect::Native),
        ("virt", MachineSelect::virt()),
    ])
    .colocation()
}

fn fig2() -> Scenario {
    four_machine_scenarios(
        Scenario::new(
            "fig2",
            "Figure 2: fraction of execution time spent in page walks",
        )
        .rendered_by(RendererKind::WalkFractionGrid)
        .workloads(WorkloadSpec::paper_suite_no_mc400()),
    )
}

fn fig3() -> Scenario {
    four_machine_scenarios(
        Scenario::new(
            "fig3",
            "Figure 3: average page-walk latency across the four scenarios",
        )
        .rendered_by(RendererKind::WalkLatencyGrid)
        .workloads(WorkloadSpec::paper_suite()),
    )
}

fn table2() -> Scenario {
    Scenario::new(
        "table2",
        "Table 2: VMAs, PT pages and physical contiguity (analytic census, no sim runs)",
    )
    .rendered_by(RendererKind::PtCensus)
    .workloads(WorkloadSpec::paper_suite())
}

fn fig8() -> Scenario {
    Scenario::new(
        "fig8",
        "Figure 8: native walk latency, Baseline vs P1 vs P1+P2",
    )
    .rendered_by(RendererKind::AsapSweep)
    .workloads(WorkloadSpec::paper_suite())
    .engines([
        ("Baseline", EngineSelect::Baseline),
        ("P1", EngineSelect::Asap(AsapHwConfig::p1())),
        ("P1+P2", EngineSelect::Asap(AsapHwConfig::p1_p2())),
    ])
    .colocation()
}

fn fig9() -> Scenario {
    Scenario::new(
        "fig9",
        "Figure 9: walk requests served by each hierarchy level",
    )
    .rendered_by(RendererKind::ServedBy)
    .workloads([WorkloadSpec::mcf(), WorkloadSpec::redis()])
    .axis([
        ("isolation", (|s| s) as fn(RunSpec) -> RunSpec),
        ("coloc", |s: RunSpec| s.colocated()),
    ])
}

fn fig10() -> Scenario {
    Scenario::new(
        "fig10",
        "Figure 10: virtualized walk latency across per-dimension ASAP configs",
    )
    .rendered_by(RendererKind::NestedAsapSweep)
    .workloads(WorkloadSpec::paper_suite())
    .base(|s| s.virt())
    .engines([
        ("Baseline", EngineSelect::Baseline),
        ("P1g", EngineSelect::NestedAsap(NestedAsapConfig::p1g())),
        (
            "P1g+P2g",
            EngineSelect::NestedAsap(NestedAsapConfig::p1g_p2g()),
        ),
        (
            "P1g+P1h",
            EngineSelect::NestedAsap(NestedAsapConfig::p1g_p1h()),
        ),
        ("All", EngineSelect::NestedAsap(NestedAsapConfig::all())),
    ])
    .colocation()
}

fn table6() -> Scenario {
    Scenario::new("table6", "Table 6: conservative performance projection")
        .rendered_by(RendererKind::Projection)
        .workloads(
            WorkloadSpec::paper_suite()
                .into_iter()
                .filter(|w| !w.name.starts_with("mc")),
        )
        .axis([
            ("native", (|s| s) as fn(RunSpec) -> RunSpec),
            ("native-perfect", |s: RunSpec| s.perfect_tlb()),
            ("virt", |s: RunSpec| s.virt()),
            ("virt+asap", |s: RunSpec| {
                s.virt().with_nested_asap(NestedAsapConfig::all())
            }),
        ])
}

fn fig11_table7() -> Scenario {
    Scenario::new(
        "fig11_table7",
        "Fig. 11 + Table 7: clustered TLB vs ASAP vs both",
    )
    .rendered_by(RendererKind::ClusteredSynergy)
    .workloads(WorkloadSpec::paper_suite())
    .axis([
        ("Baseline", (|s| s) as fn(RunSpec) -> RunSpec),
        ("Clustered", |s: RunSpec| s.with_clustered_tlb()),
        ("ASAP", |s: RunSpec| s.with_asap(AsapHwConfig::p1_p2())),
        ("Clustered+ASAP", |s: RunSpec| {
            s.with_asap(AsapHwConfig::p1_p2()).with_clustered_tlb()
        }),
    ])
}

fn fig12() -> Scenario {
    Scenario::new("fig12", "Figure 12: virtualization with 2 MiB host pages")
        .rendered_by(RendererKind::HostHugePages)
        .workloads(WorkloadSpec::paper_suite())
        .base(|s| s.host_2m_pages())
        .engines([
            ("Baseline", EngineSelect::Baseline),
            (
                "ASAP",
                EngineSelect::NestedAsap(NestedAsapConfig::host_2m()),
            ),
        ])
        .colocation()
}

fn ablation_pwc() -> Scenario {
    Scenario::new("ablation_pwc", "Ablation (§5.1.1): PWC capacity doubling")
        .rendered_by(RendererKind::PwcAblation)
        .workloads(WorkloadSpec::paper_suite())
        .axis([
            ("default", (|s| s) as fn(RunSpec) -> RunSpec),
            ("doubled", |s: RunSpec| {
                s.with_pwc(PwcConfig::split_doubled())
            }),
        ])
}

fn ablation_scatter() -> Scenario {
    Scenario::new(
        "ablation_scatter",
        "Ablation: baseline sensitivity to PT physical layout",
    )
    .rendered_by(RendererKind::ScatterAblation)
    .workloads([WorkloadSpec::mc80()])
    .axis([1.0f64, 4.0, 23.2, 256.0].map(|run| {
        (format!("run={run:.1}"), move |s: RunSpec| {
            s.with_pt_scatter_run(run)
        })
    }))
}

fn ablation_5level() -> Scenario {
    Scenario::new("ablation_5level", "Extension (§3.5): five-level page table")
        .rendered_by(RendererKind::FiveLevelAblation)
        .workloads([WorkloadSpec::mc400()])
        .axis([
            ("4-level", (|s| s) as fn(RunSpec) -> RunSpec),
            ("5-level", |s: RunSpec| s.five_level()),
            ("5-level+ASAP", |s: RunSpec| {
                s.five_level().with_asap(AsapHwConfig::p1_p2())
            }),
        ])
}

/// The engine axis of the head-to-head comparison: the two paper machines
/// (baseline, ASAP P1+P2) and the two contender backends, all native, all
/// over identical processes (ASAP's OS policy moves only PT pages, so data
/// placement — and thus Revelator's hash accuracy — is unaffected).
fn head_to_head_engines() -> [(&'static str, EngineSelect); 4] {
    [
        ("Baseline", EngineSelect::Baseline),
        ("ASAP", EngineSelect::asap_p1_p2()),
        ("Victima", EngineSelect::Victima),
        ("Revelator", EngineSelect::Revelator),
    ]
}

fn contenders() -> Scenario {
    // The workloads of the head-to-head comparison: a pointer chaser with
    // high physical contiguity (Revelator's best case), a zipfian server
    // whose hot set exceeds S-TLB reach (Victima's best case), and the
    // fragmented uniform sweep both degrade on.
    Scenario::new(
        "contenders",
        "Head-to-head: baseline vs ASAP vs Victima vs Revelator (native)",
    )
    .rendered_by(RendererKind::HeadToHead)
    .workloads([
        WorkloadSpec::mcf(),
        WorkloadSpec::redis(),
        WorkloadSpec::mc80(),
    ])
    .engines(head_to_head_engines())
}

fn smp_scaling() -> Scenario {
    // How translation scales when cores genuinely contend for one memory
    // fabric: the uniform sweep (maximum cache pressure), the zipfian
    // server (Victima's block regime under shared-L2 pressure), and the
    // graph traversal, each across every backend from 1 to 64 cores. The
    // top of the range is what the event-queue scheduler buys: arbitration
    // stays O(log n), so the 64-core rows cost per-core work, not
    // per-epoch scans.
    Scenario::new(
        "smp_scaling",
        "SMP scaling: walk latency and cycles as 1..=64 cores share the memory fabric",
    )
    .rendered_by(RendererKind::SmpScaling)
    .workloads([
        WorkloadSpec::mc80(),
        WorkloadSpec::redis(),
        WorkloadSpec::bfs(),
    ])
    .engines(head_to_head_engines())
    .cores([1, 2, 4, 8, 16, 32, 64])
}

fn numa_scaling() -> Scenario {
    // Splitting one 16-core fabric across 1/2/4/8 NUMA nodes: every
    // remote-node DRAM fill pays the interconnect hop, so walk latency
    // grows with node count and ASAP's prefetches (which hide the hop by
    // landing early) matter more, not less, on bigger machines.
    Scenario::new(
        "numa_scaling",
        "NUMA scaling: 16-core walk latency as the fabric splits across 1/2/4/8 nodes",
    )
    .rendered_by(RendererKind::SmpScaling)
    .workloads([WorkloadSpec::mc80(), WorkloadSpec::redis()])
    .engines([
        ("Baseline", EngineSelect::Baseline),
        ("ASAP", EngineSelect::asap_p1_p2()),
    ])
    .base(|s| s.with_cores(16))
    .numa([1, 2, 4, 8])
}

fn smp_smoke() -> Scenario {
    // CI-sized multi-core coverage: enough cores that fabric contention
    // and per-core rows are exercised end-to-end on every ci.sh pass, and
    // a coloc row so the co-runner-as-a-core path is drift-gated too.
    Scenario::new(
        "smp_smoke",
        "CI smoke: multi-core fabric sharing (baseline/ASAP/Victima × 1/2 cores) at miniature scale",
    )
    .ci_smoke()
    .windows(SimConfig::smoke_test())
    .rendered_by(RendererKind::SmpScaling)
    .workloads([smoke_workload()])
    .engines([
        ("Baseline", EngineSelect::Baseline),
        ("ASAP", EngineSelect::asap_p1_p2()),
        ("Victima", EngineSelect::Victima),
    ])
    .cores([1, 2])
    .row(
        "Baseline+coloc2c",
        RunSpec::new(smoke_workload()).with_cores(2).colocated(),
    )
}

fn numa_smoke() -> Scenario {
    // CI-sized NUMA coverage: the same miniature workload on a 4-core
    // fabric, UMA vs 2 nodes, so window homing, hop charging, and the
    // per-core node labels are drift-gated on every ci.sh pass. Appended
    // at the END of the registry so pre-existing BENCH_results.json
    // blocks keep their byte positions.
    Scenario::new(
        "numa_smoke",
        "CI smoke: NUMA fabric splitting (baseline/ASAP × 4 cores × 1/2 nodes) at miniature scale",
    )
    .ci_smoke()
    .windows(SimConfig::smoke_test())
    .rendered_by(RendererKind::SmpScaling)
    .workloads([smoke_workload()])
    .engines([
        ("Baseline", EngineSelect::Baseline),
        ("ASAP", EngineSelect::asap_p1_p2()),
    ])
    .base(|s| s.with_cores(4))
    .numa([1, 2])
}

fn contenders_smoke() -> Scenario {
    // The same miniature redis variant the contender unit tests use: small
    // enough for CI, enough page reuse that both contender mechanisms
    // actually fire.
    let w = WorkloadSpec {
        footprint: ByteSize::mib(256),
        ..WorkloadSpec::redis()
    };
    Scenario::new(
        "contenders_smoke",
        "CI smoke: the contender matrix (baseline/ASAP/Victima/Revelator) at miniature scale",
    )
    .ci_smoke()
    .windows(SimConfig::smoke_test())
    .rendered_by(RendererKind::HeadToHead)
    .workloads([w])
    .engines(head_to_head_engines())
}

/// The miniature workload the smoke scenario (and the engine-parity test)
/// is pinned to.
#[must_use]
pub fn smoke_workload() -> WorkloadSpec {
    WorkloadSpec {
        footprint: ByteSize::mib(256),
        ..WorkloadSpec::mc80()
    }
}

fn smoke() -> Scenario {
    let w = smoke_workload;
    Scenario::new(
        "smoke",
        "CI smoke: the full engine matrix (native/virt × baseline/ASAP/features) at miniature scale",
    )
    .ci_smoke()
    .windows(SimConfig::smoke_test())
    .row("native/baseline", RunSpec::new(w()))
    .row(
        "native/asap",
        RunSpec::new(w()).with_asap(AsapHwConfig::p1_p2()),
    )
    .row(
        "native/asap+clustered+coloc",
        RunSpec::new(w())
            .with_asap(AsapHwConfig::p1_p2())
            .with_clustered_tlb()
            .colocated(),
    )
    .row("native/baseline+5level", RunSpec::new(w()).five_level())
    .row("native/perfect-tlb", RunSpec::new(w()).perfect_tlb())
    .row("virt/baseline", RunSpec::new(w()).virt())
    .row(
        "virt/asap",
        RunSpec::new(w())
            .virt()
            .with_nested_asap(NestedAsapConfig::all()),
    )
    .row(
        "virt/asap+host2m+coloc",
        RunSpec::new(w())
            .with_nested_asap(NestedAsapConfig::host_2m())
            .host_2m_pages()
            .colocated(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_complete() {
        let reg = registry();
        let mut names: Vec<&str> = reg.iter().map(|s| s.name).collect();
        names.sort_unstable();
        let mut deduped = names.clone();
        deduped.dedup();
        assert_eq!(names, deduped, "duplicate scenario names");
        for expected in [
            "table1",
            "fig2",
            "fig3",
            "table2",
            "fig8",
            "fig9",
            "fig10",
            "table6",
            "fig11_table7",
            "fig12",
            "ablation_pwc",
            "ablation_scatter",
            "ablation_5level",
            "contenders",
            "smp_scaling",
            "numa_scaling",
            "smoke",
            "contenders_smoke",
            "smp_smoke",
            "numa_smoke",
        ] {
            assert!(find(expected).is_some(), "missing scenario {expected}");
        }
    }

    #[test]
    fn every_scenario_enumerates_unique_valid_run_keys() {
        let sim = SimConfig::smoke_test();
        for s in registry() {
            let runs = s.runs(sim);
            let mut keys: Vec<(String, String)> = runs
                .iter()
                .map(|r| (r.workload.to_string(), r.variant.clone()))
                .collect();
            let n = keys.len();
            keys.sort();
            keys.dedup();
            assert_eq!(keys.len(), n, "scenario {} has duplicate keys", s.name);
            for r in &runs {
                r.spec
                    .validate()
                    .unwrap_or_else(|e| panic!("{}/{}/{}: {e}", s.name, r.workload, r.variant));
            }
        }
    }

    #[test]
    fn cross_product_matches_the_hand_rolled_shape() {
        // fig8 = 7 workloads × 3 engines × {iso, coloc}; labels composed
        // exactly as the pre-DSL registry spelled them by hand.
        let s = find("fig8").unwrap();
        let runs = s.runs(SimConfig::smoke_test());
        assert_eq!(runs.len(), WorkloadSpec::paper_suite().len() * 6);
        assert!(runs
            .iter()
            .any(|r| r.workload == "mcf" && r.variant == "P1+P2+coloc"));
        assert!(runs
            .iter()
            .any(|r| r.workload == "mcf" && r.variant == "Baseline"));
    }

    #[test]
    fn duplicate_axis_labels_panic() {
        let caught = std::panic::catch_unwind(|| {
            let _ = Scenario::new("dup", "duplicate axis labels").axis([
                ("same", (|s| s) as fn(RunSpec) -> RunSpec),
                ("same", |s: RunSpec| s.colocated()),
            ]);
        });
        assert!(caught.is_err(), "duplicate labels must be rejected");
    }

    #[test]
    fn colliding_cross_axis_joins_panic_at_enumeration() {
        // Both axes pass the per-axis check, but "A"+"B" == "A+B"+"".
        let s = Scenario::new("collide", "cross-axis label collision")
            .workloads([WorkloadSpec::mcf()])
            .axis([
                ("A", (|s| s) as fn(RunSpec) -> RunSpec),
                ("A+B", |s: RunSpec| s.colocated()),
            ])
            .axis([
                ("B", (|s| s) as fn(RunSpec) -> RunSpec),
                ("", |s: RunSpec| s.perfect_tlb()),
            ]);
        let caught = std::panic::catch_unwind(|| s.runs(SimConfig::smoke_test()));
        assert!(caught.is_err(), "colliding joined keys must be rejected");
    }

    #[test]
    fn explicit_row_shadowing_the_cross_product_panics() {
        let s = Scenario::new("shadow", "row shadows the cross product")
            .workloads([WorkloadSpec::mcf()])
            .engines([("Baseline", EngineSelect::Baseline)])
            .row("Baseline", RunSpec::new(WorkloadSpec::mcf()));
        let caught = std::panic::catch_unwind(|| s.runs(SimConfig::smoke_test()));
        assert!(caught.is_err(), "shadowing rows must be rejected");
    }

    #[test]
    fn smp_smoke_scenario_produces_per_core_rows() {
        let results = find("smp_smoke").unwrap().run(SimConfig::smoke_test());
        // 3 engines × {1c, 2c} + the explicit coloc row.
        assert_eq!(results.runs.len(), 7);
        assert!(results.per_core("mc80", "Baseline+1c").is_empty());
        let duo = results.per_core("mc80", "Baseline+2c");
        assert_eq!(duo.len(), 2);
        assert_eq!(duo[0].workload, "mc80@core0");
        assert_eq!(duo[1].workload, "mc80@core1");
        let coloc = results.per_core("mc80", "Baseline+coloc2c");
        assert_eq!(coloc[1].workload, "corunner@core1");
        // Contention is visible in the aggregate rows.
        let solo = results.get("mc80", "Baseline+1c");
        let pair = results.get("mc80", "Baseline+2c");
        assert!(pair.avg_walk_latency() > solo.avg_walk_latency());
    }

    #[test]
    fn forced_cores_override_every_run() {
        let s = Scenario::new("forced", "forced-cores override")
            .workloads([WorkloadSpec::mcf()])
            .cores([1, 2])
            .with_forced_cores(4);
        for run in s.runs(SimConfig::smoke_test()) {
            assert_eq!(run.spec.cores, 4, "{} not overridden", run.variant);
        }
    }

    #[test]
    fn forced_numa_overrides_every_run() {
        let s = Scenario::new("forced-numa", "forced-numa override")
            .workloads([WorkloadSpec::mcf()])
            .base(|s| s.with_cores(4))
            .numa([1, 2])
            .with_forced_numa(4);
        for run in s.runs(SimConfig::smoke_test()) {
            assert_eq!(run.spec.numa_nodes, 4, "{} not overridden", run.variant);
        }
    }

    #[test]
    fn numa_smoke_scenario_splits_the_fabric() {
        let results = find("numa_smoke").unwrap().run(SimConfig::smoke_test());
        // 2 engines × {1n, 2n}, all at 4 cores.
        assert_eq!(results.runs.len(), 4);
        assert!(results.is_complete());
        // UMA rows keep the plain per-core names; split rows carry the
        // round-robin node assignment in theirs.
        let uma = results.per_core("mc80", "Baseline+1n");
        assert_eq!(uma[0].workload, "mc80@core0");
        let split = results.per_core("mc80", "Baseline+2n");
        assert_eq!(split.len(), 4);
        assert_eq!(split[0].workload, "mc80@core0n0");
        assert_eq!(split[1].workload, "mc80@core1n1");
        // Remote-node fills pay the interconnect hop: same machine,
        // strictly slower walks once the fabric splits.
        let flat = results.get("mc80", "Baseline+1n");
        let numa = results.get("mc80", "Baseline+2n");
        assert!(numa.avg_walk_latency() > flat.avg_walk_latency());
    }

    #[test]
    fn smoke_scenario_runs_end_to_end() {
        let results = find("smoke").unwrap().run(SimConfig::smoke_test());
        assert_eq!(results.runs.len(), 8);
        let base = results.get("mc80", "native/baseline");
        let asap = results.get("mc80", "native/asap");
        assert!(asap.avg_walk_latency() < base.avg_walk_latency());
        assert_eq!(results.get("mc80", "native/perfect-tlb").walks.count(), 0);
        assert!(results.get("mc80", "virt/baseline").host_served.is_some());
    }

    #[test]
    fn run_scenarios_flattens_and_regroups() {
        let sim = SimConfig {
            warmup_accesses: 200,
            measure_accesses: 500,
            seed: 42,
            ..SimConfig::default()
        };
        let set: Vec<Scenario> = registry()
            .into_iter()
            .filter(|s| s.name == "smoke" || s.name == "table2")
            .collect();
        let all = run_scenarios(&set, sim);
        assert_eq!(all.len(), 2);
        let smoke = all.iter().find(|r| r.name == "smoke").unwrap();
        let table2 = all.iter().find(|r| r.name == "table2").unwrap();
        assert_eq!(smoke.runs.len(), 8);
        assert!(table2.runs.is_empty(), "table2 is an analytic scenario");
        // Grouped results match a per-scenario run exactly.
        let direct = find("smoke").unwrap().run(sim);
        for (a, b) in smoke.runs.iter().zip(direct.runs.iter()) {
            assert_eq!(a.variant, b.variant);
            assert_eq!(a.result.walks, b.result.walks);
        }
    }

    #[test]
    fn equal_specs_simulate_once_and_share_rows() {
        let sim = SimConfig::smoke_test();
        let asap = RunSpec::new(WorkloadSpec::mcf()).with_engine(EngineSelect::asap_p1_p2());
        let metrics = TelemetryConfig {
            trace: false,
            metrics: true,
            profile: false,
        };
        let set = vec![
            Scenario::new("dedupe_a", "a").row("asap", asap.clone()),
            Scenario::new("dedupe_b", "b")
                .row("baseline", RunSpec::new(WorkloadSpec::mcf()))
                .row("asap", asap.clone()),
            Scenario::new("dedupe_c", "c")
                .row("asap", asap.clone())
                .with_telemetry(metrics),
            Scenario::new("dedupe_d", "d")
                .row("asap", asap)
                .with_telemetry(metrics),
        ];
        let specs: Vec<RunSpec> = set
            .iter()
            .flat_map(|s| s.runs(sim))
            .map(|r| r.spec)
            .collect();
        let specs: Vec<&RunSpec> = specs.iter().collect();
        // b's ASAP run repeats a's; the two traced runs are equal to each
        // other but both stay live.
        assert_eq!(first_equal_specs(&specs), vec![0, 1, 0, 3, 4]);

        let all = run_scenarios(&set, sim);
        let row = all[0].get("mcf", "asap");
        assert_eq!(all[1].get("mcf", "asap"), row);
        for traced in &all[2..] {
            assert_eq!(traced.get("mcf", "asap"), row);
            assert!(traced.runs[0].telemetry.is_some(), "traced runs run live");
        }
    }

    #[test]
    fn smoke_scenarios_declare_their_windows() {
        for s in smoke_set() {
            assert_eq!(
                s.default_windows(),
                Some(SimConfig::smoke_test()),
                "{} must pin miniature windows",
                s.name
            );
        }
        assert_eq!(find("fig3").unwrap().default_windows(), None);
        let fallback = SimConfig::default();
        assert_eq!(
            find("smoke").unwrap().windows_or(fallback),
            SimConfig::smoke_test()
        );
        assert_eq!(find("fig3").unwrap().windows_or(fallback), fallback);
    }
}
