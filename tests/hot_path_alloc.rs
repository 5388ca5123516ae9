//! The translation loop never allocates: once a machine's pages are
//! resident, a run's host allocations do not grow with its window.
//!
//! A counting global allocator tallies allocations on the test's thread.
//! Each machine, assembled from public constructors, is warmed with one
//! long [`run_cores`], then replays the same now-resident addresses with a
//! 2k- and a 20k-access window. Per-run setup allocates a fixed amount, so
//! the two counts must be equal; anything allocating per access, walk or
//! scheduled step in any callee (driver, engines, flat mirror, cache
//! fabric, event queue) makes the longer window count more.

#![allow(unsafe_code)]

use asap::cache::{HierarchyConfig, NumaConfig, SharedFabric};
use asap::contenders::{RevelatorConfig, RevelatorMmu, VictimaConfig, VictimaMmu};
use asap::core::{
    AsapHwConfig, Mmu, MmuConfig, NestedAsapConfig, NestedMmu, NestedMmuConfig, TranslationEngine,
};
use asap::os::{AsapOsConfig, PhysMap, Process};
use asap::sim::{run_cores, CoreSlot, RunMeta, SimConfig};
use asap::types::{Asid, ByteSize, CacheLineAddr, VirtAddr};
use asap::virt::{EptConfig, VirtualMachine};
use asap::workloads::{AccessStream, BoxedStream, WorkloadSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations per thread. `realloc` and
/// `alloc_zeroed` keep their provided forms, which go through `alloc`.
struct Counting;

// SAFETY: `alloc` and `dealloc` pass the caller's arguments, which meet
// `GlobalAlloc`'s contract, unchanged to `System`. The one addition, a
// thread-local counter bump, neither allocates nor unwinds: the `Cell` is
// const-initialised, and `try_with` skips it during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The replayed measure windows (after `SimConfig::smoke_test`'s 1k-access
/// warmup); the warming run uses the longest.
const WINDOWS: [u64; 2] = [2_000, 20_000];

/// Replays pre-drawn addresses in order.
struct Replay<'a> {
    vas: &'a [VirtAddr],
    next: usize,
}

impl AccessStream for Replay<'_> {
    fn next_va(&mut self) -> VirtAddr {
        self.next += 1;
        self.vas[self.next - 1]
    }

    fn name(&self) -> &'static str {
        "replay"
    }
}

/// One [`run_cores`] of `measure` accesses per core, after the warmup;
/// returns the allocations it made.
fn drive<E: TranslationEngine>(
    engines: &mut [E],
    machines: &mut [E::Machine],
    vas: &[Vec<VirtAddr>],
    measure: u64,
) -> u64 {
    let mut streams: Vec<Replay<'_>> = vas.iter().map(|vas| Replay { vas, next: 0 }).collect();
    let mut slots: Vec<CoreSlot<'_, E>> = engines
        .iter_mut()
        .zip(machines.iter_mut())
        .zip(streams.iter_mut())
        .map(|((engine, machine), stream)| CoreSlot {
            engine,
            machine,
            stream,
            workload: "mc80".into(),
            corunner: None,
        })
        .collect();
    let meta = RunMeta {
        workload: "mc80".into(),
        label: "hot-path-alloc".into(),
        sim: SimConfig {
            measure_accesses: measure,
            ..SimConfig::smoke_test()
        },
        colocated: false,
        perfect_tlb: false,
    };
    let before = ALLOCATIONS.with(Cell::get);
    let rows = run_cores(&mut slots, &meta);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert!(rows.is_ok(), "run failed: {:?}", rows.err());
    allocations
}

/// Warms the machine, then returns the allocation count of each replay.
fn replay_counts<E: TranslationEngine>(
    mut engines: Vec<E>,
    mut machines: Vec<E::Machine>,
    streams: Vec<BoxedStream>,
) -> Vec<u64> {
    let longest = WINDOWS[WINDOWS.len() - 1];
    let draws = SimConfig::smoke_test().warmup_accesses + longest;
    let vas: Vec<Vec<VirtAddr>> = streams
        .into_iter()
        .map(|mut s| (0..draws).map(|_| s.next_va()).collect())
        .collect();
    for (engine, machine) in engines.iter_mut().zip(&machines) {
        engine.load_context(machine);
    }
    drive(&mut engines, &mut machines, &vas, longest);
    WINDOWS
        .iter()
        .map(|&measure| drive(&mut engines, &mut machines, &vas, measure))
        .collect()
}

fn workload() -> WorkloadSpec {
    WorkloadSpec {
        footprint: ByteSize::mib(64),
        ..WorkloadSpec::mc80()
    }
}

/// `cores` processes over one fabric spread across `nodes` NUMA nodes,
/// core `i` on node `i % nodes`, as the native machine assembly lays it.
fn native<E: TranslationEngine<Machine = Process>>(
    cores: usize,
    nodes: usize,
    os: &AsapOsConfig,
    engine: impl Fn(SharedFabric) -> E,
) -> Vec<u64> {
    let w = workload();
    let asid = |i: usize| Asid(1 + i as u16);
    let machines: Vec<Process> = (0..cores)
        .map(|i| w.build_process(asid(i), os.clone(), 42 + i as u64))
        .collect();
    let streams = machines.iter().map(|p| w.build_stream(p, 7)).collect();
    let fabric = SharedFabric::new(HierarchyConfig::broadwell_like());
    if nodes > 1 {
        let windows = (0..cores).flat_map(|i| PhysMap::new(asid(i)).windows());
        fabric.configure_numa(
            NumaConfig::symmetric(nodes),
            windows.map(|(base, frames)| (CacheLineAddr::new(base.raw() << 6), frames << 6)),
        );
    }
    let engines = (0..cores).map(|i| engine(fabric.for_node(i % nodes)));
    replay_counts(engines.collect(), machines, streams)
}

/// One virtual machine under a nested ASAP MMU (P1g + P1h).
fn nested() -> Vec<u64> {
    let w = workload();
    let guest = w.process_config(Asid(1), AsapOsConfig::pl1_only(), 42);
    let vm = VirtualMachine::new(guest.with_compact_phys(), EptConfig::default().host_pl1());
    let streams = vec![w.build_stream(vm.guest(), 7)];
    let asap = NestedAsapConfig::p1g_p1h();
    let engine = NestedMmu::new(NestedMmuConfig::default().with_asap(asap));
    replay_counts(vec![engine], vec![vm], streams)
}

#[test]
fn translation_loop_allocations_do_not_grow_with_the_window() {
    let (asap_os, none) = (AsapOsConfig::pl1_and_pl2(), AsapOsConfig::disabled());
    let asap = MmuConfig::default().with_asap(AsapHwConfig::p1_p2());
    let clustered_cfg = asap.clone().with_clustered_tlb();
    let baseline = |f| Mmu::with_fabric(MmuConfig::default(), f);
    let asap_mmu = |f| Mmu::with_fabric(asap.clone(), f);
    let clustered = |f| Mmu::with_fabric(clustered_cfg.clone(), f);
    let victima = |f| VictimaMmu::with_fabric(VictimaConfig::default(), f);
    let revelator = |f| RevelatorMmu::with_fabric(RevelatorConfig::default(), f);
    let machines = [
        ("Baseline, 1 core", native(1, 1, &none, baseline)),
        ("ASAP, 1 core", native(1, 1, &asap_os, asap_mmu)),
        ("ASAP + clustered TLB", native(1, 1, &asap_os, clustered)),
        ("nested ASAP, 1 core", nested()),
        ("Victima, 1 core", native(1, 1, &none, victima)),
        ("Revelator, 1 core", native(1, 1, &none, revelator)),
        ("ASAP, 8 cores", native(8, 1, &asap_os, asap_mmu)),
        ("Revelator, 2 nodes", native(4, 2, &none, revelator)),
    ];
    for (name, counts) in machines {
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "{name}: allocations per run grow with the window {WINDOWS:?}: {counts:?}"
        );
    }
}
