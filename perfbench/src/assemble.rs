//! Machine assembly from the simulator's public constructors, timed per
//! constructor, and the traced drive over the decorators of [`crate::trace`].
//!
//! The assembly mirrors what `RunSpec::run_split` does inside `asap-sim`
//! (its assembly helpers are crate-private). It is not trusted to match:
//! every traced run compares its per-core rows byte for byte with
//! `run_split`'s, and a mismatch fails the run.

use crate::trace::{Layer, Spans, TimedEngine, TimedMachine, TimedStream};
use asap_cache::{HierarchyConfig, SharedFabric};
use asap_contenders::{RevelatorConfig, RevelatorMmu, VictimaConfig, VictimaMmu};
use asap_core::{
    AsapHwConfig, Mmu, MmuConfig, NestedAsapConfig, NestedMmu, NestedMmuConfig, TranslationEngine,
};
use asap_os::{AsapOsConfig, Process};
use asap_sim::{
    run_cores, run_scenario, CoreSlot, DriverError, EngineSelect, MachineSelect, RunMeta,
    RunResult, RunSpec,
};
use asap_types::{Asid, PageSize, PtLevel};
use asap_virt::{EptConfig, VirtualMachine};
use asap_workloads::{BoxedStream, WorkloadSpec};
use std::time::{Duration, Instant};

/// Host time of machine assembly, by the layer whose constructor ran.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    /// `Process::new` (layer `os`).
    pub process: Duration,
    /// `VirtualMachine::new` (layer `virt`).
    pub vm: Duration,
    /// `WorkloadSpec::build_stream` (layer `workloads`).
    pub stream: Duration,
    /// Engine constructors, the shared fabric and `load_context` (layer
    /// `core`).
    pub engine: Duration,
}

impl SetupTimes {
    /// All assembly time.
    pub fn total(&self) -> Duration {
        self.process + self.vm + self.stream + self.engine
    }
}

fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *slot += t0.elapsed();
    out
}

/// The per-core pieces of one assembled machine.
pub struct Cores<E: TranslationEngine> {
    engines: Vec<E>,
    machines: Vec<E::Machine>,
    streams: Vec<BoxedStream>,
    names: Vec<String>,
}

/// An assembled machine, by engine type.
pub enum Machine {
    /// Baseline or ASAP on a native process.
    Mmu(Cores<Mmu>),
    /// The Victima contender.
    Victima(Cores<VictimaMmu>),
    /// The Revelator contender.
    Revelator(Cores<RevelatorMmu>),
    /// Baseline or per-dimension ASAP on a virtual machine.
    Nested(Cores<NestedMmu>),
}

fn hw_asap(spec: &RunSpec) -> AsapHwConfig {
    match &spec.engine {
        EngineSelect::Asap(cfg) => cfg.clone(),
        _ => AsapHwConfig::off(),
    }
}

fn os_asap(levels: &[PtLevel]) -> AsapOsConfig {
    if levels.is_empty() {
        AsapOsConfig::disabled()
    } else {
        AsapOsConfig {
            levels: levels.to_vec(),
            max_descriptors: 16,
            extension_failure_rate: 0.0,
        }
    }
}

fn mmu_config(spec: &RunSpec, seed: u64) -> MmuConfig {
    let mut config = MmuConfig::default()
        .with_asap(hw_asap(spec))
        .with_pwc(spec.pwc.clone())
        .with_seed(seed);
    if spec.clustered_tlb {
        config = config.with_clustered_tlb();
    }
    config
}

/// Core `i`'s seed on a multi-core machine (core 0 keeps the run seed).
fn core_seed(seed: u64, core: usize) -> u64 {
    seed ^ (core as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Assembles a native machine: per core a process and a stream, then one
/// engine per core (over one shared fabric when `cores > 1`, built by
/// `engine(seed, Some(fabric))`), each loaded with its core's context.
fn native<E: TranslationEngine<Machine = Process>>(
    spec: &RunSpec,
    os: &AsapOsConfig,
    hierarchy: HierarchyConfig,
    engine: impl Fn(u64, Option<SharedFabric>) -> E,
    t: &mut SetupTimes,
) -> Cores<E> {
    let n = spec.cores;
    let mut machines = Vec::with_capacity(n);
    let mut streams = Vec::with_capacity(n);
    let mut names = Vec::with_capacity(n);
    for i in 0..n {
        let w: WorkloadSpec = if i == 0 || !spec.colocated {
            spec.workload.clone()
        } else {
            WorkloadSpec::corunner()
        };
        let seed = core_seed(spec.sim.seed, i);
        let config = w
            .process_config(Asid(1 + i as u16), os.clone(), seed)
            .with_paging_mode(spec.paging_mode);
        let process = timed(&mut t.process, || Process::new(config));
        streams.push(timed(&mut t.stream, || {
            w.build_stream(&process, seed ^ 0x11)
        }));
        machines.push(process);
        names.push(if n > 1 {
            format!("{}@core{i}", w.name)
        } else {
            w.name.to_string()
        });
    }
    let engines = timed(&mut t.engine, || {
        let mut engines: Vec<E> = if n == 1 {
            vec![engine(spec.sim.seed, None)]
        } else {
            let fabric = SharedFabric::new(hierarchy);
            (0..n)
                .map(|i| engine(core_seed(spec.sim.seed, i), Some(fabric.for_node(0))))
                .collect()
        };
        for (e, p) in engines.iter_mut().zip(&machines) {
            e.load_context(p);
        }
        engines
    });
    Cores {
        engines,
        machines,
        streams,
        names,
    }
}

/// Assembles the machine `spec` describes, charging constructor time to
/// `t`. Covers the spec shapes the benchmark's workloads use: native
/// single- and multi-core (one NUMA node), and virtualized single-core.
pub fn assemble(spec: &RunSpec, t: &mut SetupTimes) -> Machine {
    let seed = spec.sim.seed;
    if let MachineSelect::Virt { host_page_size } = spec.machine {
        let asap = match &spec.engine {
            EngineSelect::NestedAsap(cfg) => cfg.clone(),
            _ => NestedAsapConfig::off(),
        };
        let mut ept = EptConfig {
            host_levels: asap.host.clone(),
            host_page_size,
            scatter_run: spec.workload.pt_scatter_run,
            seed: seed ^ 0xE9,
        };
        if host_page_size == PageSize::Size2M {
            ept.host_levels.retain(|l| *l != PtLevel::Pl1);
        }
        let guest = spec
            .workload
            .process_config(Asid(1), os_asap(&asap.guest), seed)
            .with_compact_phys();
        let vm = timed(&mut t.vm, || VirtualMachine::new(guest, ept));
        let stream = timed(&mut t.stream, || {
            spec.workload.build_stream(vm.guest(), seed ^ 0x11)
        });
        let mmu = timed(&mut t.engine, || {
            let mut mmu =
                NestedMmu::new(NestedMmuConfig::default().with_asap(asap).with_seed(seed));
            mmu.load_context(&vm);
            mmu
        });
        return Machine::Nested(Cores {
            engines: vec![mmu],
            machines: vec![vm],
            streams: vec![stream],
            names: vec![spec.workload.name.to_string()],
        });
    }
    let off = AsapOsConfig::disabled();
    match spec.engine {
        EngineSelect::Victima => {
            let cfg = VictimaConfig::default();
            let hierarchy = cfg.hierarchy.clone();
            Machine::Victima(native(
                spec,
                &off,
                hierarchy,
                |s, fabric| match fabric {
                    Some(f) => VictimaMmu::with_fabric(cfg.clone().with_seed(s), f),
                    None => VictimaMmu::new(cfg.clone().with_seed(s)),
                },
                t,
            ))
        }
        EngineSelect::Revelator => {
            let cfg = RevelatorConfig::default();
            let hierarchy = cfg.hierarchy.clone();
            Machine::Revelator(native(
                spec,
                &off,
                hierarchy,
                |s, fabric| match fabric {
                    Some(f) => RevelatorMmu::with_fabric(cfg.clone().with_seed(s), f),
                    None => RevelatorMmu::new(cfg.clone().with_seed(s)),
                },
                t,
            ))
        }
        _ => Machine::Mmu(native(
            spec,
            &os_asap(&hw_asap(spec).levels),
            mmu_config(spec, seed).hierarchy,
            |s, fabric| match fabric {
                Some(f) => Mmu::with_fabric(mmu_config(spec, s), f),
                None => Mmu::new(mmu_config(spec, s)),
            },
            t,
        )),
    }
}

/// Drives an assembled machine with every per-access call wrapped in a
/// timing decorator; returns one row per core.
pub fn drive_traced(
    spec: &RunSpec,
    machine: Machine,
    spans: &Spans,
) -> Result<Vec<RunResult>, DriverError> {
    match machine {
        Machine::Mmu(c) => drive(spec, c, spans, Layer::Os, Layer::Core),
        Machine::Victima(c) => drive(spec, c, spans, Layer::Os, Layer::Contenders),
        Machine::Revelator(c) => drive(spec, c, spans, Layer::Os, Layer::Contenders),
        Machine::Nested(c) => drive(spec, c, spans, Layer::Virt, Layer::Core),
    }
}

fn drive<E: TranslationEngine>(
    spec: &RunSpec,
    cores: Cores<E>,
    spans: &Spans,
    demand_layer: Layer,
    walk_layer: Layer,
) -> Result<Vec<RunResult>, DriverError> {
    let meta = RunMeta {
        workload: spec.workload.name.into(),
        label: spec.label(),
        sim: spec.sim,
        colocated: spec.colocated,
        perfect_tlb: spec.perfect_tlb,
    };
    let Cores {
        engines,
        machines,
        mut streams,
        names,
    } = cores;
    let mut engines: Vec<_> = engines
        .into_iter()
        .map(|inner| TimedEngine {
            inner,
            spans,
            walk_layer,
        })
        .collect();
    let mut machines: Vec<_> = machines
        .into_iter()
        .map(|inner| TimedMachine {
            inner,
            spans,
            layer: demand_layer,
        })
        .collect();
    let mut streams: Vec<_> = streams
        .iter_mut()
        .map(|s| TimedStream {
            inner: s.as_mut(),
            spans,
        })
        .collect();
    if engines.len() == 1 {
        return run_scenario(&mut engines[0], &mut machines[0], &mut streams[0], &meta)
            .map(|r| vec![r]);
    }
    let mut slots: Vec<CoreSlot<'_, TimedEngine<'_, E>>> = engines
        .iter_mut()
        .zip(machines.iter_mut())
        .zip(streams.iter_mut())
        .zip(names)
        .map(|(((engine, machine), stream), workload)| CoreSlot {
            engine,
            machine,
            stream,
            workload,
            corunner: None,
        })
        .collect();
    run_cores(&mut slots, &meta)
}
