//! Property tests for the contender backends' central safety claim:
//! whatever a Victima block or a Revelator hash guess does for *timing*,
//! every translation an engine **commits** is bit-identical to the
//! machine's ground truth. Speculation may mispredict; it must never leak.

use asap::contenders::{RevelatorConfig, RevelatorMmu, VictimaConfig, VictimaMmu};
use asap::core::{SimMachine, TranslationEngine};
use asap::os::{Process, ProcessConfig, VmaKind};
use asap::types::{Asid, ByteSize, VirtAddr};
use proptest::prelude::*;

/// Builds a process with arbitrary fragmentation knobs and touches the
/// given page offsets of its heap.
fn build_process(
    offsets: &std::collections::BTreeSet<u64>,
    cluster_fraction: f64,
    pt_scatter_run: f64,
    seed: u64,
) -> (Process, Vec<VirtAddr>) {
    let mut p = Process::new(
        ProcessConfig::new(Asid(1))
            .with_heap(ByteSize::mib(256))
            .with_data_cluster_fraction(cluster_fraction)
            .with_pt_scatter_run(pt_scatter_run)
            .with_seed(seed),
    );
    let heap = *p.vma_of_kind(VmaKind::Heap).unwrap();
    let vas: Vec<VirtAddr> = offsets
        .iter()
        .map(|o| VirtAddr::new(heap.start().raw() + o * 4096).unwrap())
        .collect();
    for va in &vas {
        p.touch(*va).unwrap();
    }
    (p, vas)
}

/// Drives `engine` over every address three times (cold, warm, and
/// post-eviction block/TLB states) and checks each committed translation
/// against the machine's reference.
fn assert_commits_ground_truth<E>(mut engine: E, p: &mut Process, vas: &[VirtAddr])
where
    E: TranslationEngine<Machine = Process>,
{
    TranslationEngine::load_context(&mut engine, p);
    for pass in 0..3 {
        for va in vas {
            let out = engine.translate_access(p, *va);
            let reference = p.reference_translate(*va);
            assert_eq!(
                out.phys, reference,
                "pass {pass}, va {va}: committed translation diverged from ground truth"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Victima: blocks recovered from the L2 cache carry exactly the
    /// walked translation, for any touch pattern and any fragmentation.
    #[test]
    fn victima_commits_only_ground_truth(
        offsets in proptest::collection::btree_set(0u64..32_768, 1..64),
        cluster in 0u32..=10,
        scatter in 1u32..=64,
        seed in 0u64..1000,
    ) {
        let (mut p, vas) = build_process(
            &offsets,
            f64::from(cluster) / 10.0,
            f64::from(scatter),
            seed,
        );
        // A tiny S-TLB so evictions — and thus block fills/hits — occur
        // even for small touch sets.
        let config = VictimaConfig {
            l2_tlb: asap::tlb::TlbConfig {
                name: "tiny S-TLB",
                entries: 8,
                ways: 2,
            },
            l1_tlb: asap::tlb::TlbConfig {
                name: "tiny D-TLB",
                entries: 4,
                ways: 2,
            },
            ..VictimaConfig::default()
        }
        .with_seed(seed);
        assert_commits_ground_truth(VictimaMmu::new(config), &mut p, &vas);
    }

    /// Revelator: however often the hash guess mispredicts, the committed
    /// translation always comes from the verifying walk.
    #[test]
    fn revelator_commits_only_ground_truth(
        offsets in proptest::collection::btree_set(0u64..32_768, 1..64),
        cluster in 0u32..=10,
        scatter in 1u32..=64,
        seed in 0u64..1000,
    ) {
        let (mut p, vas) = build_process(
            &offsets,
            f64::from(cluster) / 10.0,
            f64::from(scatter),
            seed,
        );
        let mmu = RevelatorMmu::new(RevelatorConfig::default().with_seed(seed));
        assert_commits_ground_truth(mmu, &mut p, &vas);

        // And the speculation bookkeeping is consistent: every issued
        // guess is eventually verified one way or the other.
        let mut mmu = RevelatorMmu::new(RevelatorConfig::default().with_seed(seed));
        TranslationEngine::load_context(&mut mmu, &p);
        for va in &vas {
            let _ = mmu.translate_access(&mut p, *va);
        }
        let s = *mmu.backend().stats();
        prop_assert_eq!(
            s.verified_correct + s.mispredicted,
            s.speculations_issued + s.speculations_dropped,
            "every computed guess (issued or dropped) must be verified"
        );
    }

    /// Contenders against each other and the reference: for one shared
    /// access sequence, all backends commit identical physical addresses.
    #[test]
    fn all_backends_agree_on_committed_frames(
        offsets in proptest::collection::btree_set(0u64..16_384, 1..48),
        seed in 0u64..1000,
    ) {
        let (mut p, vas) = build_process(&offsets, 0.5, 8.0, seed);
        let mut victima = VictimaMmu::new(VictimaConfig::default().with_seed(seed));
        let mut revelator = RevelatorMmu::new(RevelatorConfig::default().with_seed(seed));
        TranslationEngine::load_context(&mut victima, &p);
        TranslationEngine::load_context(&mut revelator, &p);
        for va in &vas {
            let v = victima.translate_access(&mut p, *va).phys;
            let r = revelator.translate_access(&mut p, *va).phys;
            let reference = p.reference_translate(*va);
            prop_assert_eq!(v, reference);
            prop_assert_eq!(r, reference);
        }
    }
}
