//! Cross-crate integration tests: the full machine, end to end.

use asap::core::{
    AsapHwConfig, Mmu, MmuConfig, NestedAsapConfig, TranslationEngine, TranslationPath,
};
use asap::os::{AsapOsConfig, Process, ProcessConfig, VmaKind};
use asap::sim::{RunSpec, SimConfig};
use asap::types::{Asid, ByteSize, VirtAddr};
use asap::workloads::WorkloadSpec;

fn small(w: WorkloadSpec) -> WorkloadSpec {
    WorkloadSpec {
        footprint: ByteSize::mib(64 * w.big_vmas as u64),
        ..w
    }
}

/// Every workload preset drives the full native machine without faults and
/// produces plausible walk latencies.
#[test]
fn all_workloads_run_natively() {
    for w in WorkloadSpec::paper_suite() {
        let r = RunSpec::new(small(w))
            .with_sim(SimConfig::smoke_test())
            .run()
            .unwrap();
        assert_eq!(r.faults, 0, "{}", r.workload);
        assert!(r.walks.count() > 0, "{} never walked", r.workload);
        let avg = r.avg_walk_latency();
        assert!(
            (2.0..800.0).contains(&avg),
            "{}: implausible avg walk latency {avg}",
            r.workload
        );
    }
}

/// Every workload preset also runs virtualized, and the 2D walk costs more
/// than the native walk (the Fig. 3 shape).
#[test]
fn all_workloads_run_virtualized() {
    for w in WorkloadSpec::paper_suite() {
        let native = RunSpec::new(small(w.clone()))
            .with_sim(SimConfig::smoke_test())
            .run()
            .unwrap();
        let virt = RunSpec::new(small(w))
            .virt()
            .with_sim(SimConfig::smoke_test())
            .run()
            .unwrap();
        assert_eq!(virt.faults, 0, "{}", virt.workload);
        assert!(
            virt.avg_walk_latency() > native.avg_walk_latency(),
            "{}: virt {} !> native {}",
            virt.workload,
            virt.avg_walk_latency(),
            native.avg_walk_latency()
        );
    }
}

/// The paper's central ordering holds on the full machine:
/// P1+P2 <= P1 <= baseline (within noise), with real reductions on the
/// TLB-hostile workloads.
#[test]
fn asap_orderings_hold() {
    let sim = SimConfig::smoke_test();
    let w = small(WorkloadSpec::mc80());
    let base = RunSpec::new(w.clone()).with_sim(sim).run().unwrap();
    let p1 = RunSpec::new(w.clone())
        .with_asap(AsapHwConfig::p1())
        .with_sim(sim)
        .run()
        .unwrap();
    let p12 = RunSpec::new(w)
        .with_asap(AsapHwConfig::p1_p2())
        .with_sim(sim)
        .run()
        .unwrap();
    assert!(p1.avg_walk_latency() < base.avg_walk_latency());
    assert!(p12.avg_walk_latency() <= p1.avg_walk_latency() * 1.02);
}

/// Under virtualization, adding the host dimension beats guest-only
/// prefetching (the Fig. 10 ordering).
#[test]
fn nested_asap_ordering_holds() {
    let sim = SimConfig::smoke_test();
    let w = small(WorkloadSpec::mc80());
    let base = RunSpec::new(w.clone()).virt().with_sim(sim).run().unwrap();
    let p1g = RunSpec::new(w.clone())
        .virt()
        .with_nested_asap(NestedAsapConfig::p1g())
        .with_sim(sim)
        .run()
        .unwrap();
    let p1g_p1h = RunSpec::new(w.clone())
        .virt()
        .with_nested_asap(NestedAsapConfig::p1g_p1h())
        .with_sim(sim)
        .run()
        .unwrap();
    let all = RunSpec::new(w)
        .virt()
        .with_nested_asap(NestedAsapConfig::all())
        .with_sim(sim)
        .run()
        .unwrap();
    assert!(p1g.avg_walk_latency() < base.avg_walk_latency());
    assert!(p1g_p1h.avg_walk_latency() < p1g.avg_walk_latency());
    assert!(all.avg_walk_latency() <= p1g_p1h.avg_walk_latency() * 1.02);
}

/// ASAP is architecturally invisible: translations through an ASAP MMU are
/// bit-identical to the baseline for a mixed bag of addresses, including
/// after VMA growth creates out-of-line PT "holes" (§3.7.2).
#[test]
fn asap_is_architecturally_invisible_even_with_holes() {
    let mut asap_cfg = AsapOsConfig::pl1_and_pl2();
    asap_cfg.extension_failure_rate = 1.0; // every extension fails
    let mut p = Process::new(
        ProcessConfig::new(Asid(1))
            .with_heap(ByteSize::mib(8))
            .with_asap(asap_cfg)
            .with_seed(5),
    );
    let heap = *p.vma_of_kind(VmaKind::Heap).unwrap();
    let grown_end = VirtAddr::new(heap.start().raw() + (256 << 20)).unwrap();
    p.grow_heap(grown_end).unwrap();
    // Touch pages straddling the original region and the grown (hole) area.
    let vas: Vec<VirtAddr> = (0..64u64)
        .map(|i| VirtAddr::new(heap.start().raw() + i * (3 << 20)).unwrap())
        .collect();
    for va in &vas {
        p.touch(*va).unwrap();
    }
    assert!(
        p.hole_count() > 0,
        "the scenario must actually create holes"
    );

    let mut baseline = Mmu::new(MmuConfig::default());
    let mut asap = Mmu::new(MmuConfig::default().with_asap(AsapHwConfig::p1_p2()));
    asap.load_context(&p);
    for va in &vas {
        let b = baseline.translate(p.flat_mirror(), p.asid(), *va, None);
        let a = asap.translate(p.flat_mirror(), p.asid(), *va, None);
        assert_eq!(b.phys, a.phys, "{va}: ASAP changed a translation");
        assert!(a.phys.is_some());
    }
}

/// The SMP machine end to end: walk latency grows monotonically-ish with
/// core count (shared-fabric contention), per-core rows line up with the
/// aggregate, and every backend survives 4-way sharing without faults.
#[test]
fn smp_scaling_shape_holds() {
    let sim = SimConfig::smoke_test();
    let w = small(WorkloadSpec::mc80());
    let lat = |cores: usize| {
        RunSpec::new(w.clone())
            .with_cores(cores)
            .with_sim(sim)
            .run()
            .unwrap()
            .avg_walk_latency()
    };
    let solo = lat(1);
    let quad = lat(4);
    assert!(
        quad > solo,
        "4-core contention must inflate walk latency: {quad} !> {solo}"
    );

    let out = RunSpec::new(w.clone())
        .with_asap(AsapHwConfig::p1_p2())
        .with_cores(4)
        .with_sim(sim)
        .run_split()
        .unwrap();
    assert_eq!(out.per_core.len(), 4);
    assert_eq!(out.aggregate.faults, 0);
    assert_eq!(
        out.aggregate.walks.count(),
        out.per_core.iter().map(|c| c.walks.count()).sum::<u64>()
    );
    for (i, core) in out.per_core.iter().enumerate() {
        assert_eq!(core.workload, format!("mc80@core{i}"));
        assert!(core.prefetches_issued > 0, "core {i} never prefetched");
    }
}

/// The TLB path works across the facade: second access to the same page is
/// a TLB hit with zero translation latency.
#[test]
fn facade_quickstart_flow() {
    let mut p = Process::new(
        ProcessConfig::new(Asid(3))
            .with_heap(ByteSize::mib(16))
            .with_asap(AsapOsConfig::pl1_only()),
    );
    let va = p.vma_of_kind(VmaKind::Heap).unwrap().start();
    p.touch(va).unwrap();
    let mut mmu = Mmu::new(MmuConfig::default().with_asap(AsapHwConfig::p1()));
    mmu.load_context(&p);
    let first = mmu.translate(p.flat_mirror(), p.asid(), va, None);
    assert_eq!(first.path, TranslationPath::Walk);
    let second = mmu.translate(p.flat_mirror(), p.asid(), va, None);
    assert_eq!(second.path, TranslationPath::TlbL1);
    assert_eq!(second.latency, 0);
}
