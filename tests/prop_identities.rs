//! Exact identities between backends, over all seven paper workloads at
//! tiny windows.
//!
//! Each test compares runs that differ in one mechanism whose design says
//! it cannot move a given statistic, so the identities hold before and
//! after any honest re-baseline of the timing model. A failure is a defect
//! in the change, or a change of meaning that ARCHITECTURE.md documents;
//! never a bound to loosen. Each test names the mechanism it guards.

use asap::core::{AsapHwConfig, NestedAsapConfig};
use asap::sim::{EngineSelect, RunResult, RunSpec, SimConfig};
use asap::workloads::WorkloadSpec;

fn run(spec: RunSpec) -> RunResult {
    let sim = SimConfig {
        warmup_accesses: 500,
        measure_accesses: 2_000,
        ..SimConfig::default()
    };
    let label = spec.label();
    spec.with_sim(sim)
        .run()
        .map_err(|e| format!("{label}: {e}"))
        .unwrap()
}

/// Runs `check` on every paper workload.
fn each_workload(check: impl Fn(&WorkloadSpec)) {
    for w in WorkloadSpec::paper_suite() {
        check(&w);
    }
}

/// Two rows equal in every field but the label.
fn assert_same_row(a: RunResult, b: RunResult) {
    let b = RunResult {
        label: a.label.clone(),
        ..b
    };
    assert_eq!(a, b);
}

/// A prefetcher with no levels must not touch the fabric, the clock or
/// any counter: guards the native miss path's ASAP branch.
#[test]
fn asap_with_no_levels_is_baseline() {
    each_workload(|w| {
        assert_same_row(
            run(RunSpec::new(w.clone())),
            run(RunSpec::new(w.clone()).with_asap(AsapHwConfig::off())),
        );
    });
}

/// Per-dimension ASAP with no levels is the virtualized baseline: guards
/// the nested miss path's guest and host prefetch branches.
#[test]
fn nested_asap_with_no_levels_is_virtualized_baseline() {
    each_workload(|w| {
        assert_same_row(
            run(RunSpec::new(w.clone()).virt()),
            run(RunSpec::new(w.clone())
                .virt()
                .with_nested_asap(NestedAsapConfig::off())),
        );
    });
}

/// Prefetches never fill a TLB (§3.1: only a completed walk installs a
/// translation), so ASAP keeps Baseline's S-TLB misses and walks — with a
/// clustered TLB and under colocation too.
#[test]
fn asap_keeps_baseline_tlb_misses_and_walks() {
    let variants: [fn(RunSpec) -> RunSpec; 3] =
        [|spec| spec, RunSpec::with_clustered_tlb, RunSpec::colocated];
    each_workload(|w| {
        for variant in variants {
            let base = run(variant(RunSpec::new(w.clone())));
            let asap = run(variant(
                RunSpec::new(w.clone()).with_engine(EngineSelect::asap_p1_p2()),
            ));
            assert_eq!(asap.l2_tlb_misses, base.l2_tlb_misses, "{}", asap.label);
            assert_eq!(asap.walks.count(), base.walks.count(), "{}", asap.label);
            assert!(
                asap.prefetches_issued > 0,
                "{}: ASAP never prefetched",
                asap.label
            );
        }
    });
}

/// A TLB-block hit fills the TLBs with the entry the walk would have
/// filled, so Victima keeps Baseline's S-TLB misses; blocks only ever
/// replace walks.
#[test]
fn victima_keeps_tlb_misses_and_never_walks_more() {
    each_workload(|w| {
        let base = run(RunSpec::new(w.clone()));
        let victima = run(RunSpec::new(w.clone()).with_engine(EngineSelect::Victima));
        assert_eq!(victima.l2_tlb_misses, base.l2_tlb_misses, "{}", w.name);
        assert!(
            victima.walks.count() <= base.walks.count(),
            "{}: {} walks > Baseline's {}",
            w.name,
            victima.walks.count(),
            base.walks.count()
        );
    });
}

/// A perfect TLB never walks, and saving walks never costs cycles.
#[test]
fn perfect_tlb_has_no_walk_cycles_and_no_more_cycles() {
    each_workload(|w| {
        let base = run(RunSpec::new(w.clone()));
        let perfect = run(RunSpec::new(w.clone()).perfect_tlb());
        assert!(base.walk_cycles > 0, "{}: Baseline never walked", w.name);
        assert_eq!(perfect.walk_cycles, 0, "{}", w.name);
        assert!(
            perfect.cycles <= base.cycles,
            "{}: {} cycles > Baseline's {}",
            w.name,
            perfect.cycles,
            base.cycles
        );
    });
}
