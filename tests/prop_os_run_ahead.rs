//! Differential property test for the driver's **OS run-ahead**: an engine
//! that declares [`TranslationEngine::translation_is_path_local`] lets each
//! core demand-page a block of its next accesses before translating them,
//! and that must never change a result.
//!
//! Every case assembles one machine from public constructors and drives it
//! twice through [`run_cores`]: once with the engines as they are (blocks of
//! up to [`OS_RUN_AHEAD_DEPTH`] accesses where an engine allows it), and
//! once with each engine wrapped in [`Coupled`], a pass-through that keeps
//! the trait's default and so runs today's coupled order (every access
//! demand-paged right before its translation). The per-core rows must be
//! equal, and a stream escaping its VMAs must fail both runs with the same
//! [`DriverError`].
//!
//! The engines cover every backend that runs ahead — Baseline and ASAP
//! `Mmu`s, the nested ASAP MMU over a virtual machine, Victima, Revelator —
//! plus ASAP with a clustered TLB, which must opt out: its fill reads the
//! PTE line around the address, which later faults change.

use asap::cache::{HierarchyConfig, SharedFabric};
use asap::contenders::{RevelatorConfig, RevelatorMmu, VictimaConfig, VictimaMmu};
use asap::core::{
    AsapHwConfig, EngineOutcome, EngineStats, Mmu, MmuConfig, NestedAsapConfig, NestedMmu,
    NestedMmuConfig, TranslationEngine,
};
use asap::os::{AsapOsConfig, OsError, Process};
use asap::sim::{
    run_cores, CoreSlot, DriverError, RunMeta, RunResult, SimConfig, OS_RUN_AHEAD_DEPTH,
};
use asap::types::{Asid, ByteSize, CacheLineAddr, PhysAddr, PtLevel, VirtAddr};
use asap::virt::{EptConfig, VirtualMachine};
use asap::workloads::{AccessStream, BoxedStream, WorkloadSpec};
use proptest::prelude::*;

/// A pass-through engine that forwards every call but keeps the default
/// `translation_is_path_local` (`false`), so the driver runs the coupled
/// order over the same inner engine.
struct Coupled<E>(E);

impl<E: TranslationEngine> TranslationEngine for Coupled<E> {
    type Machine = E::Machine;

    fn load_context(&mut self, machine: &Self::Machine) {
        self.0.load_context(machine);
    }

    fn translate_access(&mut self, machine: &mut Self::Machine, va: VirtAddr) -> EngineOutcome {
        self.0.translate_access(machine, va)
    }

    fn data_access(&mut self, pa: PhysAddr) -> asap::cache::AccessResult {
        self.0.data_access(pa)
    }

    fn corunner_access(&mut self, line: CacheLineAddr) {
        self.0.corunner_access(line);
    }

    fn now(&self) -> u64 {
        self.0.now()
    }

    fn advance(&mut self, cycles: u64) {
        self.0.advance(cycles);
    }

    fn reset_stats(&mut self) {
        self.0.reset_stats();
    }

    fn stats_snapshot(&self) -> EngineStats {
        self.0.stats_snapshot()
    }
}

/// A stream that leaves its VMAs at its `k`-th draw (0-based) and keeps
/// drawing from the wrapped stream otherwise.
struct EscapeAt {
    inner: BoxedStream,
    k: Option<u64>,
    drawn: u64,
    /// The out-of-VMA address, distinct per core so the test can tell
    /// which core's error a run returned.
    wild: VirtAddr,
}

impl AccessStream for EscapeAt {
    fn next_va(&mut self) -> VirtAddr {
        let at = self.drawn;
        self.drawn += 1;
        let va = self.inner.next_va();
        if self.k == Some(at) {
            self.wild
        } else {
            va
        }
    }

    fn name(&self) -> &'static str {
        "escape-at"
    }
}

/// The engines a case can draw.
#[derive(Debug, Clone, Copy)]
enum Engine {
    Baseline,
    Asap,
    AsapClustered,
    NestedAsap,
    Victima,
    Revelator,
}

const ENGINES: [Engine; 6] = [
    Engine::Baseline,
    Engine::Asap,
    Engine::AsapClustered,
    Engine::NestedAsap,
    Engine::Victima,
    Engine::Revelator,
];

/// One machine to drive: engine, core count, workload, windows, seed, and
/// per core the draw at which its stream escapes (if any).
#[derive(Debug, Clone)]
struct Case {
    engine: Engine,
    cores: usize,
    workload: WorkloadSpec,
    sim: SimConfig,
    escapes: Vec<Option<u64>>,
}

fn core_seed(seed: u64, core: usize) -> u64 {
    seed ^ (core as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn wild_va(core: usize) -> VirtAddr {
    VirtAddr::new(0x1234_5678_0000 + ((core as u64) << 12)).unwrap()
}

fn streams(case: &Case, build: impl Fn(usize, u64) -> BoxedStream) -> Vec<EscapeAt> {
    (0..case.cores)
        .map(|i| EscapeAt {
            inner: build(i, core_seed(case.sim.seed, i) ^ 0x11),
            k: case.escapes.get(i).copied().flatten(),
            drawn: 0,
            wild: wild_va(i),
        })
        .collect()
}

/// Drives `engines` over `machines`, once as they are or once coupled.
fn drive<E: TranslationEngine>(
    case: &Case,
    mut engines: Vec<E>,
    mut machines: Vec<E::Machine>,
    mut streams: Vec<EscapeAt>,
) -> Result<Vec<RunResult>, DriverError> {
    for (e, m) in engines.iter_mut().zip(&machines) {
        e.load_context(m);
    }
    let meta = RunMeta {
        workload: case.workload.name.into(),
        label: "os-run-ahead".into(),
        sim: case.sim,
        colocated: false,
        perfect_tlb: false,
    };
    let mut slots: Vec<CoreSlot<'_, E>> = engines
        .iter_mut()
        .zip(machines.iter_mut())
        .zip(streams.iter_mut())
        .enumerate()
        .map(|(i, ((engine, machine), stream))| CoreSlot {
            engine,
            machine,
            stream,
            workload: format!("{}@core{i}", case.workload.name),
            corunner: None,
        })
        .collect();
    run_cores(&mut slots, &meta)
}

/// Builds the native machine of `case` (one shared fabric) and drives it.
fn run_native<E: TranslationEngine<Machine = Process>>(
    case: &Case,
    coupled: bool,
    os: &AsapOsConfig,
    engine: impl Fn(u64, SharedFabric) -> E,
) -> Result<Vec<RunResult>, DriverError> {
    let machines: Vec<Process> = (0..case.cores)
        .map(|i| {
            case.workload
                .build_process(Asid(1 + i as u16), os.clone(), core_seed(case.sim.seed, i))
        })
        .collect();
    let streams = streams(case, |i, seed| {
        case.workload.build_stream(&machines[i], seed)
    });
    let fabric = SharedFabric::new(HierarchyConfig::broadwell_like());
    let engines: Vec<E> = (0..case.cores)
        .map(|i| engine(core_seed(case.sim.seed, i), fabric.clone()))
        .collect();
    if coupled {
        let engines = engines.into_iter().map(Coupled).collect();
        drive(case, engines, machines, streams)
    } else {
        drive(case, engines, machines, streams)
    }
}

/// Builds one virtual machine per core, each with its own nested MMU over
/// a private fabric (virtualized machines are single-core), and drives
/// them.
fn run_nested(case: &Case, coupled: bool) -> Result<Vec<RunResult>, DriverError> {
    let asap = NestedAsapConfig::p1g_p1h();
    let machines: Vec<VirtualMachine> = (0..case.cores)
        .map(|i| {
            let seed = core_seed(case.sim.seed, i);
            let guest = case
                .workload
                .process_config(Asid(1 + i as u16), asap_os(&asap.guest), seed)
                .with_compact_phys();
            let ept = EptConfig {
                host_levels: asap.host.clone(),
                scatter_run: case.workload.pt_scatter_run,
                seed: seed ^ 0xE9,
                ..EptConfig::default()
            };
            VirtualMachine::new(guest, ept)
        })
        .collect();
    let streams = streams(case, |i, seed| {
        case.workload.build_stream(machines[i].guest(), seed)
    });
    let engines: Vec<NestedMmu> = (0..case.cores)
        .map(|i| {
            NestedMmu::new(
                NestedMmuConfig::default()
                    .with_asap(asap.clone())
                    .with_seed(core_seed(case.sim.seed, i)),
            )
        })
        .collect();
    if coupled {
        let engines = engines.into_iter().map(Coupled).collect();
        drive(case, engines, machines, streams)
    } else {
        drive(case, engines, machines, streams)
    }
}

fn asap_os(levels: &[PtLevel]) -> AsapOsConfig {
    AsapOsConfig {
        levels: levels.to_vec(),
        max_descriptors: 16,
        extension_failure_rate: 0.0,
    }
}

fn run(case: &Case, coupled: bool) -> Result<Vec<RunResult>, DriverError> {
    let p1_p2 = AsapHwConfig::p1_p2();
    let asap_config = MmuConfig::default().with_asap(p1_p2.clone());
    match case.engine {
        Engine::Baseline => run_native(case, coupled, &AsapOsConfig::disabled(), |s, f| {
            Mmu::with_fabric(MmuConfig::default().with_seed(s), f)
        }),
        Engine::Asap => run_native(case, coupled, &asap_os(&p1_p2.levels), |s, f| {
            Mmu::with_fabric(asap_config.clone().with_seed(s), f)
        }),
        Engine::AsapClustered => run_native(case, coupled, &asap_os(&p1_p2.levels), |s, f| {
            Mmu::with_fabric(asap_config.clone().with_clustered_tlb().with_seed(s), f)
        }),
        Engine::NestedAsap => run_nested(case, coupled),
        Engine::Victima => run_native(case, coupled, &AsapOsConfig::disabled(), |s, f| {
            VictimaMmu::with_fabric(VictimaConfig::default().with_seed(s), f)
        }),
        Engine::Revelator => run_native(case, coupled, &AsapOsConfig::disabled(), |s, f| {
            RevelatorMmu::with_fabric(RevelatorConfig::default().with_seed(s), f)
        }),
    }
}

/// Both runs of `case` agree: equal rows, or the same error.
fn assert_run_ahead_matches_coupled(case: &Case) -> Result<(), TestCaseError> {
    let run_ahead = run(case, false);
    let coupled = run(case, true);
    match (&run_ahead, &coupled) {
        (Ok(a), Ok(c)) => {
            prop_assert_eq!(a.len(), case.cores);
            for (x, y) in a.iter().zip(c) {
                prop_assert_eq!(x, y, "per-core rows differ: {:?}", case);
            }
        }
        (Err(a), Err(c)) => prop_assert_eq!(a, c, "errors differ: {:?}", case),
        _ => prop_assert!(
            false,
            "one run failed, the other did not: {:?} vs {:?} for {:?}",
            run_ahead.as_ref().map(|_| ()),
            coupled.as_ref().map(|_| ()),
            case
        ),
    }
    Ok(())
}

fn workload(idx: usize) -> WorkloadSpec {
    let base = match idx {
        0 => WorkloadSpec::mc80(),
        1 => WorkloadSpec::redis(),
        _ => WorkloadSpec::mcf(),
    };
    WorkloadSpec {
        footprint: ByteSize::mib(64),
        ..base
    }
}

proptest! {
    // Each case simulates the machine twice; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn run_ahead_rows_equal_the_coupled_order(
        engine in 0usize..ENGINES.len(),
        cores in prop_oneof![Just(1usize), Just(2usize), Just(8usize)],
        workload_idx in 0usize..3,
        warmup in 0u64..200,
        measure in 1u64..600,
        seed in 0u64..1_000_000,
    ) {
        let case = Case {
            engine: ENGINES[engine],
            cores,
            workload: workload(workload_idx),
            sim: SimConfig {
                warmup_accesses: warmup,
                measure_accesses: measure,
                seed,
                lockstep: false,
            },
            escapes: vec![None; cores],
        };
        prop_assert!(run(&case, false).is_ok(), "{:?} failed", case);
        assert_run_ahead_matches_coupled(&case)?;
    }

    #[test]
    fn an_escaping_stream_fails_both_orders_alike(
        engine in 0usize..ENGINES.len(),
        cores in prop_oneof![Just(2usize), Just(8usize)],
        warmup in 0u64..200,
        measure in 1u64..400,
        seed in 0u64..1_000_000,
        escapes in proptest::collection::vec(0u64..1400, 8),
    ) {
        // Core 0 escapes within its window. Each other core escapes within
        // or past its window, or (a draw of 700 or more) never.
        let total = warmup + measure;
        let mut escapes: Vec<Option<u64>> = escapes
            .iter()
            .take(cores)
            .map(|&k| (k < 700).then_some(k))
            .collect();
        escapes[0] = Some(escapes[0].unwrap_or(0) % total);
        let case = Case {
            engine: ENGINES[engine],
            cores,
            workload: workload(0),
            sim: SimConfig {
                warmup_accesses: warmup,
                measure_accesses: measure,
                seed,
                lockstep: false,
            },
            escapes,
        };
        let err = run(&case, false).expect_err("core 0 escapes within its window");
        prop_assert!(
            matches!(err.kind, asap::sim::DriverErrorKind::StreamEscapedVma {
                source: OsError::Segfault(_), ..
            }),
            "unexpected error {:?}",
            err
        );
        assert_run_ahead_matches_coupled(&case)?;
    }
}

/// Windows longer than one block: the depth limit, the warmup boundary
/// and the window end all cut blocks, on every backend.
#[test]
fn windows_longer_than_one_block_match_the_coupled_order() {
    let depth = OS_RUN_AHEAD_DEPTH as u64;
    for (i, engine) in ENGINES.into_iter().enumerate() {
        let case = Case {
            engine,
            cores: 2,
            workload: workload(i % 3),
            sim: SimConfig {
                warmup_accesses: depth + 7,
                measure_accesses: depth + 13,
                seed: 42 + i as u64,
                lockstep: false,
            },
            escapes: vec![None, None],
        };
        assert_run_ahead_matches_coupled(&case).unwrap();
        // And the error of an access past the first block of core 1.
        let case = Case {
            escapes: vec![None, Some(depth + 3)],
            ..case
        };
        assert!(run(&case, false).is_err());
        assert_run_ahead_matches_coupled(&case).unwrap();
    }
}

/// Which engines declare the property: all but the clustered-TLB `Mmu`,
/// and none through the coupled wrapper.
#[test]
fn path_locality_is_declared_per_engine() {
    assert!(Mmu::new(MmuConfig::default()).translation_is_path_local());
    assert!(
        Mmu::new(MmuConfig::default().with_asap(AsapHwConfig::p1_p2())).translation_is_path_local()
    );
    assert!(!Mmu::new(MmuConfig::default().with_clustered_tlb()).translation_is_path_local());
    assert!(NestedMmu::new(NestedMmuConfig::default()).translation_is_path_local());
    assert!(VictimaMmu::new(VictimaConfig::default()).translation_is_path_local());
    assert!(RevelatorMmu::new(RevelatorConfig::default()).translation_is_path_local());
    assert!(!Coupled(Mmu::new(MmuConfig::default())).translation_is_path_local());
}
