//! Property tests: page-table map/translate/walk invariants of the flat page
//! table, each checked against the radix oracle built by the same maps.

use asap_pt::{BumpNodeAllocator, FlatMirror, PtCensus, PteFlags, WalkSource};
use asap_pt_test_util::{PageTable, SimPhysMem, Walker};
use asap_types::{PageSize, PagingMode, PhysFrameNum, PtLevel, VirtAddr};
use proptest::collection::btree_set;
use proptest::prelude::*;

fn arb_vpn48() -> impl Strategy<Value = u64> {
    0u64..(1 << 36) // page numbers within 48-bit VAs
}

/// The flat table and the radix oracle after mapping each `(vpn, frame)`
/// as a 4 KiB page in both, with allocators handing out the same frames.
fn map_both(pages: impl IntoIterator<Item = (u64, u64)>) -> (FlatMirror, SimPhysMem, PageTable) {
    let mut flat_alloc = BumpNodeAllocator::new(PhysFrameNum::new(0x100_0000));
    let mut radix_alloc = flat_alloc.clone();
    let mut flat = FlatMirror::new(PagingMode::FourLevel, &mut flat_alloc);
    let mut mem = SimPhysMem::new();
    let mut pt = PageTable::new(PagingMode::FourLevel, &mut mem, &mut radix_alloc);
    for (vpn, frame) in pages {
        let va = VirtAddr::new(vpn << 12).unwrap();
        let frame = PhysFrameNum::new(frame);
        flat.map(
            &mut flat_alloc,
            va,
            frame,
            PageSize::Size4K,
            PteFlags::user_data(),
        )
        .unwrap();
        pt.map(
            &mut mem,
            &mut radix_alloc,
            va,
            frame,
            PageSize::Size4K,
            PteFlags::user_data(),
        )
        .unwrap();
    }
    (flat, mem, pt)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every mapped page translates back to exactly the frame it was mapped
    /// to, and unmapped neighbours stay unmapped, in the flat table and the
    /// oracle alike.
    #[test]
    fn map_translate_roundtrip(vpns in btree_set(arb_vpn48(), 1..40)) {
        let (flat, mem, pt) = map_both(vpns.iter().zip(1..).map(|(&vpn, f)| (vpn, f)));
        for (i, &vpn) in vpns.iter().enumerate() {
            let va = VirtAddr::new(vpn << 12).unwrap();
            let t = flat.translate(va).unwrap();
            prop_assert_eq!(t.frame, PhysFrameNum::new(i as u64 + 1));
            prop_assert_eq!(Some(t), pt.translate(&mem, va));
            prop_assert!(flat.is_mapped(va));
            // A neighbour page not in the set must not translate.
            let neighbour = vpn ^ 1;
            if !vpns.contains(&neighbour) {
                let nva = VirtAddr::new(neighbour << 12).unwrap();
                prop_assert!(flat.translate(nva).is_none());
                prop_assert!(!flat.is_mapped(nva));
                prop_assert!(pt.translate(&mem, nva).is_none());
            }
        }
    }

    /// The flat walk equals the oracle's walker step for step and agrees
    /// with `translate`, and successful walks visit levels in strictly
    /// descending order ending at PL1.
    #[test]
    fn walker_agrees_with_translate(vpns in btree_set(arb_vpn48(), 1..30),
                                    probe in arb_vpn48()) {
        let (flat, mem, pt) = map_both(vpns.iter().map(|&vpn| (vpn, vpn & 0xffff_ffff)));
        for vpn in vpns.iter().copied().chain([probe]) {
            let va = VirtAddr::new(vpn << 12).unwrap();
            let trace = flat.walk_fixed(va).to_trace();
            prop_assert_eq!(&trace, &Walker::walk(&mem, &pt, va));
            prop_assert_eq!(trace.translation(), flat.translate(va));
            let depths: Vec<u32> = trace.steps.iter().map(|s| s.level.depth()).collect();
            for pair in depths.windows(2) {
                prop_assert_eq!(pair[1], pair[0] - 1, "levels strictly descend");
            }
            prop_assert_eq!(depths[0], 4, "walk starts at the root");
            if !trace.is_fault() {
                prop_assert_eq!(*depths.last().unwrap(), 1);
            }
        }
    }

    /// The census' per-level entry counts equal the number of distinct
    /// VA-prefixes at that level, PL1 entries equal mapped pages, and the
    /// flat table's census equals the oracle's.
    #[test]
    fn census_counts_match_prefixes(vpns in btree_set(arb_vpn48(), 1..50)) {
        let (flat, mem, pt) = map_both(vpns.iter().map(|&vpn| (vpn, 1)));
        let census = PtCensus::collect(&flat);
        prop_assert_eq!(&census, &pt.census(&mem));
        prop_assert_eq!(census.entries_at(PtLevel::Pl1), vpns.len() as u64);
        for level in [PtLevel::Pl1, PtLevel::Pl2, PtLevel::Pl3] {
            // Distinct table pages at `level` = distinct VA prefixes above it.
            let distinct_tables = vpns
                .iter()
                .map(|vpn| (vpn << 12) >> level.table_coverage().trailing_zeros())
                .collect::<std::collections::BTreeSet<_>>()
                .len() as u64;
            prop_assert_eq!(census.pages_at(level), distinct_tables,
                            "table pages at {}", level);
        }
        // Page counts shrink (weakly) toward the root.
        prop_assert!(census.pages_at(PtLevel::Pl2) <= census.pages_at(PtLevel::Pl1));
        prop_assert!(census.pages_at(PtLevel::Pl3) <= census.pages_at(PtLevel::Pl2));
        prop_assert_eq!(census.pages_at(PtLevel::Pl4), 1);
    }

    /// The oracle's unmap restores non-translation and is idempotent per
    /// page. (The flat table never unmaps: demand paging only maps.)
    #[test]
    fn unmap_removes_translation(vpns in btree_set(arb_vpn48(), 2..20)) {
        let mut mem = SimPhysMem::new();
        let mut alloc = BumpNodeAllocator::new(PhysFrameNum::new(0x100_0000));
        let mut pt = PageTable::new(PagingMode::FourLevel, &mut mem, &mut alloc);
        let all: Vec<u64> = vpns.iter().copied().collect();
        for &vpn in &all {
            let va = VirtAddr::new(vpn << 12).unwrap();
            pt.map(&mut mem, &mut alloc, va, PhysFrameNum::new(9),
                   PageSize::Size4K, PteFlags::user_data()).unwrap();
        }
        // Unmap the first half; second half must survive.
        let (gone, kept) = all.split_at(all.len() / 2);
        for &vpn in gone {
            let va = VirtAddr::new(vpn << 12).unwrap();
            pt.unmap(&mut mem, va).unwrap();
            prop_assert!(pt.translate(&mem, va).is_none());
            prop_assert!(pt.unmap(&mut mem, va).is_err());
        }
        for &vpn in kept {
            let va = VirtAddr::new(vpn << 12).unwrap();
            prop_assert!(pt.translate(&mem, va).is_some());
        }
    }
}
