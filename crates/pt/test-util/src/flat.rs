//! The radix oracle beside the flat page table: one walk seam, and copies
//! of a table in either form.

use crate::{PageTable, SimPhysMem, Walker};
use asap_pt::{FixedWalk, FlatMirror, PtError, PtNodeAllocator, Translation, WalkSource};
use asap_types::{PagingMode, PhysFrameNum, PtLevel, VirtAddr};

/// The radix tables viewed through the [`WalkSource`] seam, so the timing
/// model and the nested walker can run over the oracle.
#[derive(Debug, Clone, Copy)]
pub struct RadixSource<'a> {
    /// Simulated physical memory holding the table frames.
    pub mem: &'a SimPhysMem,
    /// The radix table handle.
    pub pt: &'a PageTable,
}

impl WalkSource for RadixSource<'_> {
    fn mode(&self) -> PagingMode {
        self.pt.mode()
    }

    fn walk_fixed(&self, va: VirtAddr) -> FixedWalk {
        Walker::walk_fixed(self.mem, self.pt, va)
    }

    fn translate(&self, va: VirtAddr) -> Option<Translation> {
        self.pt.translate(self.mem, va)
    }
}

/// A node allocator that hands out the frames another table already uses:
/// for a node at `level` mapping `va`, the node `src`'s walk of `va` reads
/// at `level`. Copying a table through it keeps every node in its frame.
///
/// # Panics
///
/// `alloc_node` panics if `src`'s walk of `va` does not reach `level`.
struct ReplayPlacer<'a> {
    /// The table whose node frames are replayed.
    src: &'a dyn WalkSource,
}

impl PtNodeAllocator for ReplayPlacer<'_> {
    fn alloc_node(&mut self, level: PtLevel, va: VirtAddr) -> PhysFrameNum {
        let walk = self.src.walk_fixed(va);
        #[expect(clippy::expect_used, reason = "the copied table maps va (# Panics)")]
        let step = walk.step_at(level).expect("source walk reaches the level");
        step.entry_addr.frame_number()
    }
}

/// The flat page table holding every leaf of the radix table `pt`, in the
/// same node frames: the flat table a wholesale rebuild from `pt` yields.
///
/// Exact for tables built by `PageTable::map` alone, where every node has a
/// leaf beneath it (a map creates nodes only on the way to the leaf it
/// writes). Nodes that `PageTable::unmap` left empty are not copied.
#[must_use]
pub fn mirror_of(mem: &SimPhysMem, pt: &PageTable) -> FlatMirror {
    let src = RadixSource { mem, pt };
    let mut mirror = FlatMirror::new(pt.mode(), &mut ReplayPlacer { src: &src });
    for va in pt.leaves(mem) {
        sync_va(&mut mirror, mem, pt, va);
    }
    mirror
}

/// Copies the radix leaf covering `va` into `mirror`, creating any missing
/// node in the radix table's frame, so `mirror` then answers for `va`'s
/// path as the radix table does: the incremental form of [`mirror_of`],
/// run after `PageTable::map`. Does nothing if no radix leaf covers `va` or
/// `mirror` already maps it.
///
/// # Panics
///
/// Panics if `mirror` rejects the leaf, i.e. if it has diverged from `pt`.
pub fn sync_va(mirror: &mut FlatMirror, mem: &SimPhysMem, pt: &PageTable, va: VirtAddr) {
    let src = RadixSource { mem, pt };
    let Some(t) = pt.translate(mem, va) else {
        return;
    };
    if mirror.is_mapped(va) {
        return;
    }
    let base = VirtAddr::new_unchecked(va.raw() & !(t.size.bytes() - 1));
    #[expect(clippy::expect_used, reason = "a diverged mirror (# Panics)")]
    mirror
        .map(
            &mut ReplayPlacer { src: &src },
            base,
            t.frame,
            t.size,
            t.flags,
        )
        .expect("the mirror takes the radix leaf");
}

/// The radix oracle holding the translation `table` gives each of `vas`
/// (mapped at its page base), in `table`'s node frames. Unmapped VAs are
/// skipped, and repeats of one page are mapped once.
///
/// # Panics
///
/// Panics if the oracle rejects a translation `table` holds, i.e. if
/// `table`'s leaves do not form a radix tree.
#[must_use]
pub fn radix_of(
    table: &FlatMirror,
    vas: impl IntoIterator<Item = VirtAddr>,
) -> (SimPhysMem, PageTable) {
    let mut placer = ReplayPlacer { src: table };
    let mut mem = SimPhysMem::new();
    let mut pt = PageTable::new(table.mode(), &mut mem, &mut placer);
    for va in vas {
        let Some(t) = table.translate(va) else {
            continue;
        };
        let base = VirtAddr::new_unchecked(va.raw() & !(t.size.bytes() - 1));
        match pt.map(&mut mem, &mut placer, base, t.frame, t.size, t.flags) {
            Ok(()) | Err(PtError::AlreadyMapped(_)) => {}
            #[expect(clippy::panic, reason = "the table is not a radix tree (# Panics)")]
            Err(e) => panic!("oracle rejects the translation of {va}: {e}"),
        }
    }
    (mem, pt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_pt::{BumpNodeAllocator, PteFlags, WalkOutcome};
    use asap_types::PageSize;

    /// An empty radix table and an empty flat table whose allocators hand
    /// out the same frames.
    struct Twin {
        mem: SimPhysMem,
        radix_alloc: BumpNodeAllocator,
        pt: PageTable,
        flat_alloc: BumpNodeAllocator,
        mirror: FlatMirror,
    }

    fn setup() -> Twin {
        let mut mem = SimPhysMem::new();
        let mut radix_alloc = BumpNodeAllocator::new(PhysFrameNum::new(0x100));
        let mut flat_alloc = radix_alloc.clone();
        let pt = PageTable::new(PagingMode::FourLevel, &mut mem, &mut radix_alloc);
        let mirror = FlatMirror::new(PagingMode::FourLevel, &mut flat_alloc);
        Twin {
            mem,
            radix_alloc,
            pt,
            flat_alloc,
            mirror,
        }
    }

    impl Twin {
        fn map(&mut self, va: VirtAddr, frame: PhysFrameNum, size: PageSize) {
            let flags = PteFlags::user_data();
            self.pt
                .map(&mut self.mem, &mut self.radix_alloc, va, frame, size, flags)
                .unwrap();
            self.mirror
                .map(&mut self.flat_alloc, va, frame, size, flags)
                .unwrap();
        }
    }

    #[test]
    fn synced_mirror_matches_radix_translate() {
        let mut t = setup();
        let va = VirtAddr::new(0x7fff_1234_5000).unwrap();
        t.map(va, PhysFrameNum::new(0x42), PageSize::Size4K);
        assert_eq!(t.mirror.translate(va), t.pt.translate(&t.mem, va));
        assert_eq!(t.mirror.node_count(), t.mem.table_frame_count());
    }

    #[test]
    fn walk_fixed_matches_radix_walker_trace() {
        let mut t = setup();
        let va = VirtAddr::new(0x12_3456_7000).unwrap();
        t.map(va, PhysFrameNum::new(7), PageSize::Size4K);
        let radix = Walker::walk_fixed(&t.mem, &t.pt, va);
        assert_eq!(t.mirror.walk_fixed(va), radix);
        // Faulting cousin: same chain, no PL1 mapping — traces match too.
        let cousin = VirtAddr::new(va.raw() ^ 0x1000).unwrap();
        assert_eq!(
            t.mirror.walk_fixed(cousin),
            Walker::walk_fixed(&t.mem, &t.pt, cousin)
        );
        assert!(matches!(
            t.mirror.walk_fixed(cousin).outcome(),
            WalkOutcome::Fault { .. }
        ));
    }

    #[test]
    fn rebuild_mirrors_existing_mappings() {
        let mut mem = SimPhysMem::new();
        let mut alloc = BumpNodeAllocator::new(PhysFrameNum::new(0x100));
        let mut pt = PageTable::new(PagingMode::FourLevel, &mut mem, &mut alloc);
        let vas: Vec<VirtAddr> = [0x5000u64, 0x4000_0000, 0x7fff_0000_0000]
            .iter()
            .map(|&r| VirtAddr::new(r).unwrap())
            .collect();
        for (i, &va) in vas.iter().enumerate() {
            pt.map(
                &mut mem,
                &mut alloc,
                va,
                PhysFrameNum::new(0x1000 + i as u64),
                PageSize::Size4K,
                PteFlags::user_data(),
            )
            .unwrap();
        }
        let mirror = mirror_of(&mem, &pt);
        for &va in &vas {
            assert_eq!(mirror.translate(va), pt.translate(&mem, va));
            assert_eq!(mirror.walk_fixed(va), Walker::walk_fixed(&mem, &pt, va));
        }
        assert_eq!(mirror.node_count(), mem.table_frame_count());
        assert_eq!(asap_pt::PtCensus::collect(&mirror), pt.census(&mem));
    }

    #[test]
    fn large_pages_mirror_correctly() {
        let mut t = setup();
        let va2m = VirtAddr::new(0x4000_0000).unwrap();
        t.map(va2m, PhysFrameNum::new(512), PageSize::Size2M);
        let inside = va2m.checked_add(0x12_3456).unwrap();
        assert_eq!(t.mirror.translate(inside), t.pt.translate(&t.mem, inside));
        assert_eq!(t.mirror.translate(inside).unwrap().size, PageSize::Size2M);
        let va1g = VirtAddr::new(0x40_0000_0000).unwrap();
        t.map(va1g, PhysFrameNum::new(512 * 512 * 3), PageSize::Size1G);
        assert_eq!(t.mirror.translate(va1g).unwrap().size, PageSize::Size1G);
        assert_eq!(
            t.mirror.walk_fixed(va1g),
            Walker::walk_fixed(&t.mem, &t.pt, va1g)
        );
    }

    #[test]
    fn inline_node_spills_to_full_array() {
        let mut t = setup();
        // Map far more sibling pages under one PL1 node than a node keeps
        // inline, so its storage must spill, then verify every one still
        // resolves.
        let base = 0x4000_0000u64;
        let count = 64u64;
        for i in 0..count {
            let va = VirtAddr::new(base + i * 0x1000).unwrap();
            t.map(va, PhysFrameNum::new(0x2000 + i), PageSize::Size4K);
        }
        for i in 0..count {
            let va = VirtAddr::new(base + i * 0x1000).unwrap();
            assert_eq!(
                t.mirror.translate(va),
                t.pt.translate(&t.mem, va),
                "page {i}"
            );
            assert_eq!(
                t.mirror.walk_fixed(va),
                Walker::walk_fixed(&t.mem, &t.pt, va)
            );
        }
    }

    #[test]
    fn radix_source_matches_walker() {
        let mut t = setup();
        let va = VirtAddr::new(0x9000).unwrap();
        t.map(va, PhysFrameNum::new(9), PageSize::Size4K);
        let src = RadixSource {
            mem: &t.mem,
            pt: &t.pt,
        };
        assert_eq!(src.walk_fixed(va), Walker::walk_fixed(&t.mem, &t.pt, va));
        assert_eq!(WalkSource::translate(&src, va), t.pt.translate(&t.mem, va));
    }
}
