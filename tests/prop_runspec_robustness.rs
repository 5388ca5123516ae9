//! Robustness property for the unified run specification: every
//! `RunSpec` drawn across every axis — engine, machine (native, or
//! virtualized over 4 KiB or 2 MiB host pages), core count and NUMA node
//! count past both limits, colocation, perfect / clustered TLB, five-level
//! paging, a non-default PWC, and tiny windows — either fails
//! `validate()` with `run_split` returning that same typed error, or runs
//! to completion without panicking. A run's shape is pinned too: one core
//! yields no per-core rows, N cores yield N rows whose walk counts sum to
//! the aggregate's.

use asap::core::{AsapHwConfig, NestedAsapConfig};
use asap::sim::{EngineSelect, MachineSelect, RunSpec, SimConfig};
use asap::tlb::PwcConfig;
use asap::types::ByteSize;
use asap::workloads::WorkloadSpec;
use proptest::prelude::*;

/// Knob bits of the `knobs` draw.
const COLOCATED: u32 = 1;
const PERFECT_TLB: u32 = 1 << 1;
const CLUSTERED_TLB: u32 = 1 << 2;
const FIVE_LEVEL: u32 = 1 << 3;
const DOUBLED_PWC: u32 = 1 << 4;
const LOCKSTEP: u32 = 1 << 5;

fn spec(
    engine: usize,
    machine: usize,
    (cores, numa_nodes): (usize, usize),
    knobs: u32,
    (warmup_accesses, measure_accesses, seed): (u64, u64, u64),
) -> RunSpec {
    let engine = match engine {
        0 => EngineSelect::Baseline,
        1 => EngineSelect::Asap(AsapHwConfig::p1_p2()),
        2 => EngineSelect::NestedAsap(NestedAsapConfig::all()),
        3 => EngineSelect::Victima,
        _ => EngineSelect::Revelator,
    };
    let machine = match machine {
        0 => MachineSelect::Native,
        1 => MachineSelect::virt(),
        _ => MachineSelect::virt_2m(),
    };
    let workload = WorkloadSpec {
        footprint: ByteSize::mib(64),
        ..WorkloadSpec::mc80()
    };
    let mut spec = RunSpec::new(workload)
        .with_engine(engine)
        .with_machine(machine)
        .with_cores(cores)
        .with_numa_nodes(numa_nodes)
        .with_sim(SimConfig {
            warmup_accesses,
            measure_accesses,
            seed,
            lockstep: knobs & LOCKSTEP != 0,
        });
    if knobs & COLOCATED != 0 {
        spec = spec.colocated();
    }
    if knobs & PERFECT_TLB != 0 {
        spec = spec.perfect_tlb();
    }
    if knobs & CLUSTERED_TLB != 0 {
        spec = spec.with_clustered_tlb();
    }
    if knobs & FIVE_LEVEL != 0 {
        spec = spec.five_level();
    }
    if knobs & DOUBLED_PWC != 0 {
        spec = spec.with_pwc(PwcConfig::split_doubled());
    }
    spec
}

proptest! {
    // Invalid specs (an axis mismatch or a count past its limit) cost
    // nothing; the valid ones run windows of at most a few hundred
    // accesses per core.
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_spec_validates_or_runs_without_panicking(
        engine in 0usize..5,
        machine in 0usize..3,
        // The full ranges past both limits, weighted toward the classic
        // one-core, one-node machine so single-core specs validate often.
        topology in (
            prop_oneof![0usize..=65, Just(1usize), 1usize..=4],
            prop_oneof![0usize..=9, Just(1usize)],
        ),
        // Every knob combination, weighted toward the knobs every engine
        // and machine models, so contender and virtualized specs validate.
        knobs in prop_oneof![
            0u32..64,
            (0u32..64).prop_map(|k| k & (COLOCATED | PERFECT_TLB | LOCKSTEP)),
        ],
        window in (0u64..=64, 0u64..=256, 0u64..1_000_000),
    ) {
        let spec = spec(engine, machine, topology, knobs, window);
        match spec.validate() {
            Err(invalid) => {
                prop_assert_eq!(
                    spec.run_split().err(),
                    Some(invalid),
                    "run_split must reject what validate rejects: {:?}",
                    spec
                );
            }
            Ok(()) => {
                let out = match spec.run_split() {
                    Ok(out) => out,
                    Err(e) => {
                        return Err(TestCaseError::fail(format!("valid spec {spec:?} failed: {e}")));
                    }
                };
                if spec.cores == 1 {
                    prop_assert!(out.per_core.is_empty(), "{:?}", spec);
                } else {
                    prop_assert_eq!(out.per_core.len(), spec.cores);
                    prop_assert_eq!(
                        out.per_core.iter().map(|c| c.walks.count()).sum::<u64>(),
                        out.aggregate.walks.count(),
                        "{:?}",
                        spec
                    );
                }
            }
        }
    }
}
