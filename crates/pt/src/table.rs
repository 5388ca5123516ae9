//! The radix-tree page table: map, unmap, translate.

use crate::{PtError, Pte, PteFlags, SimPhysMem};
use asap_types::{PageSize, PagingMode, PhysAddr, PhysFrameNum, PtLevel, VirtAddr, PTE_SIZE};

/// Chooses physical frames for new page-table nodes.
///
/// This is the policy hook at the heart of the reproduction: the paper's OS
/// extension (§3.3) is *exactly* a page-table node placement policy. The
/// baseline implementation scatters nodes like the Linux buddy allocator;
/// the ASAP implementation places PL1/PL2 nodes in reserved, contiguous,
/// virtually-sorted regions. Both live in `asap-os`; this crate only defines
/// the interface plus a trivial bump allocator for tests and examples.
pub trait PtNodeAllocator {
    /// Returns a fresh, zeroed frame for a node at `level` that will map the
    /// virtual region containing `va`.
    fn alloc_node(&mut self, level: PtLevel, va: VirtAddr) -> PhysFrameNum;

    /// Returns a frame no longer needed by the page table.
    ///
    /// The default implementation leaks the frame, which is acceptable for
    /// short-lived simulations.
    fn free_node(&mut self, level: PtLevel, frame: PhysFrameNum) {
        let _ = (level, frame);
    }
}

/// A sequential node allocator for tests, examples and micro-benchmarks.
#[derive(Debug, Clone)]
pub struct BumpNodeAllocator {
    next: u64,
}

impl BumpNodeAllocator {
    /// Creates an allocator handing out frames from `start` upward.
    #[must_use]
    pub fn new(start: PhysFrameNum) -> Self {
        Self { next: start.raw() }
    }

    /// The next frame that would be returned.
    #[must_use]
    pub fn peek(&self) -> PhysFrameNum {
        PhysFrameNum::new(self.next)
    }
}

impl PtNodeAllocator for BumpNodeAllocator {
    fn alloc_node(&mut self, _level: PtLevel, _va: VirtAddr) -> PhysFrameNum {
        let f = PhysFrameNum::new(self.next);
        self.next += 1;
        f
    }
}

/// The result of a successful translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// Base frame of the mapped page (aligned to `size`).
    pub frame: PhysFrameNum,
    /// The mapping's page size.
    pub size: PageSize,
    /// Flags of the leaf entry.
    pub flags: PteFlags,
}

impl Translation {
    /// The full physical address for `va` under this translation.
    #[must_use]
    pub fn phys_addr(&self, va: VirtAddr) -> PhysAddr {
        let page_mask = self.size.bytes() - 1;
        PhysAddr::new(self.frame.base_addr().raw() | (va.raw() & page_mask))
    }
}

/// An x86-64 radix-tree page table (4- or 5-level).
///
/// All operations take the backing [`SimPhysMem`] explicitly: the page table
/// is *data in simulated memory*, just like on hardware, which is what lets
/// the walker, the caches, and ASAP prefetches all see the same bytes.
#[derive(Debug, Clone, Copy)]
pub struct PageTable {
    mode: PagingMode,
    root: PhysFrameNum,
}

impl PageTable {
    /// Entries per page-table node (512 on x86-64: 4 KiB / 8-byte PTEs).
    pub const ENTRIES_PER_NODE: usize = 512;

    /// Allocates a root node and returns an empty page table.
    pub fn new(mode: PagingMode, mem: &mut SimPhysMem, alloc: &mut dyn PtNodeAllocator) -> Self {
        let root = alloc.alloc_node(mode.root_level(), VirtAddr::new_unchecked(0));
        mem.install_table_frame(root);
        Self { mode, root }
    }

    /// Reconstructs a handle from an existing root (e.g. guest CR3).
    #[must_use]
    pub fn from_root(mode: PagingMode, root: PhysFrameNum) -> Self {
        Self { mode, root }
    }

    /// The root node's frame (CR3 analogue).
    #[must_use]
    pub fn root(&self) -> PhysFrameNum {
        self.root
    }

    /// The paging mode.
    #[must_use]
    pub fn mode(&self) -> PagingMode {
        self.mode
    }

    /// Physical address of the entry at `level` selected by `va`, given that
    /// the node holding it lives in `node`.
    #[must_use]
    pub fn entry_addr(node: PhysFrameNum, level: PtLevel, va: VirtAddr) -> PhysAddr {
        node.base_addr().add(level.index_of(va) * PTE_SIZE)
    }

    fn check_va(&self, va: VirtAddr) -> Result<(), PtError> {
        if self.mode.contains(va) {
            Ok(())
        } else {
            Err(PtError::OutOfRange(va))
        }
    }

    /// Maps the page of `size` containing `va` to `frame`.
    ///
    /// Intermediate nodes are created on demand through `alloc`. For large
    /// pages the leaf entry is written at PL2 (2 MiB) or PL3 (1 GiB) with
    /// the page-size bit set.
    ///
    /// # Errors
    ///
    /// * [`PtError::OutOfRange`] — `va` exceeds the paging mode width;
    /// * [`PtError::Misaligned`] — `va` or `frame` not aligned to `size`;
    /// * [`PtError::AlreadyMapped`] — a present leaf already covers `va`;
    /// * [`PtError::LargePageConflict`] — an existing large-page leaf blocks
    ///   the descent.
    pub fn map(
        &mut self,
        mem: &mut SimPhysMem,
        alloc: &mut dyn PtNodeAllocator,
        va: VirtAddr,
        frame: PhysFrameNum,
        size: PageSize,
        flags: PteFlags,
    ) -> Result<(), PtError> {
        self.check_va(va)?;
        if !va.is_aligned(size.bytes()) || frame.raw() % size.base_pages() != 0 {
            return Err(PtError::Misaligned(va));
        }
        let leaf_level = size.leaf_level();
        let mut node = self.root;
        let mut level = self.mode.root_level();
        // Descend, creating intermediate nodes, until the leaf level.
        while level != leaf_level {
            #[expect(clippy::expect_used, reason = "the loop stops above the leaf")]
            let child_level = level.child().expect("non-leaf level has a child");
            let entry_addr = Self::entry_addr(node, level, va);
            let entry = mem.read_entry(entry_addr);
            if entry.is_large_leaf() {
                return Err(PtError::LargePageConflict { va, level });
            }
            node = if entry.is_present() {
                entry.frame()
            } else {
                let child = alloc.alloc_node(child_level, va);
                mem.install_table_frame(child);
                mem.write_entry(entry_addr, Pte::new(child, PteFlags::intermediate()));
                child
            };
            level = child_level;
        }
        let leaf_addr = Self::entry_addr(node, leaf_level, va);
        if mem.read_entry(leaf_addr).is_present() {
            return Err(PtError::AlreadyMapped(va));
        }
        let leaf_flags = if size == PageSize::Size4K {
            flags
        } else {
            flags.with(PteFlags::PAGE_SIZE)
        };
        mem.write_entry(leaf_addr, Pte::new(frame, leaf_flags));
        Ok(())
    }

    /// Removes the mapping covering `va`, returning its page size.
    ///
    /// Intermediate nodes are left in place (as Linux does on `munmap`;
    /// table pages are reclaimed only when the whole region is torn down).
    ///
    /// # Errors
    ///
    /// [`PtError::NotMapped`] if no present leaf covers `va`.
    pub fn unmap(&mut self, mem: &mut SimPhysMem, va: VirtAddr) -> Result<PageSize, PtError> {
        self.check_va(va)?;
        let mut node = self.root;
        for level in self.mode.levels() {
            let entry_addr = Self::entry_addr(node, level, va);
            let entry = mem.read_entry(entry_addr);
            if !entry.is_present() {
                return Err(PtError::NotMapped(va));
            }
            let is_leaf = level == PtLevel::Pl1 || entry.is_large_leaf();
            if is_leaf {
                let size = PageSize::from_leaf_level(level).ok_or(PtError::NotMapped(va))?;
                mem.write_entry(entry_addr, Pte::not_present());
                return Ok(size);
            }
            node = entry.frame();
        }
        Err(PtError::NotMapped(va))
    }

    /// Resolves `va` without side effects.
    ///
    /// Returns `None` on any not-present entry (page fault). Use
    /// [`crate::Walker`] when the per-level node trace is needed.
    #[must_use]
    pub fn translate(&self, mem: &SimPhysMem, va: VirtAddr) -> Option<Translation> {
        if !self.mode.contains(va) {
            return None;
        }
        let mut node = self.root;
        for level in self.mode.levels() {
            let entry = mem.read_entry(Self::entry_addr(node, level, va));
            if !entry.is_present() {
                return None;
            }
            if level == PtLevel::Pl1 || entry.is_large_leaf() {
                let size = PageSize::from_leaf_level(level)?;
                return Some(Translation {
                    frame: entry.frame(),
                    size,
                    flags: entry.flags(),
                });
            }
            node = entry.frame();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SimPhysMem, BumpNodeAllocator, PageTable) {
        let mut mem = SimPhysMem::new();
        let mut alloc = BumpNodeAllocator::new(PhysFrameNum::new(0x1000));
        let pt = PageTable::new(PagingMode::FourLevel, &mut mem, &mut alloc);
        (mem, alloc, pt)
    }

    #[test]
    fn map_translate_4k() {
        let (mut mem, mut alloc, mut pt) = setup();
        let va = VirtAddr::new(0x1234_5678_9000).unwrap();
        let frame = PhysFrameNum::new(0xabc);
        pt.map(
            &mut mem,
            &mut alloc,
            va,
            frame,
            PageSize::Size4K,
            PteFlags::user_data(),
        )
        .unwrap();
        let t = pt.translate(&mem, va).unwrap();
        assert_eq!(t.frame, frame);
        assert_eq!(t.size, PageSize::Size4K);
        // Offset within the page carries through.
        let off = VirtAddr::new(0x1234_5678_9123).unwrap();
        assert_eq!(
            pt.translate(&mem, off).unwrap().phys_addr(off),
            PhysAddr::new(frame.base_addr().raw() + 0x123)
        );
    }

    #[test]
    fn unmapped_is_none() {
        let (mem, _, pt) = setup();
        assert!(pt.translate(&mem, VirtAddr::new(0x1000).unwrap()).is_none());
    }

    #[test]
    fn map_creates_exactly_needed_nodes() {
        let (mut mem, mut alloc, mut pt) = setup();
        assert_eq!(mem.table_frame_count(), 1); // root only
        let va = VirtAddr::new(0x7000_0000_0000).unwrap();
        pt.map(
            &mut mem,
            &mut alloc,
            va,
            PhysFrameNum::new(1),
            PageSize::Size4K,
            PteFlags::user_data(),
        )
        .unwrap();
        // Root + PL3 + PL2 + PL1 nodes.
        assert_eq!(mem.table_frame_count(), 4);
        // A second page in the same 2 MiB region reuses all nodes.
        let va2 = va.checked_add(0x1000).unwrap();
        pt.map(
            &mut mem,
            &mut alloc,
            va2,
            PhysFrameNum::new(2),
            PageSize::Size4K,
            PteFlags::user_data(),
        )
        .unwrap();
        assert_eq!(mem.table_frame_count(), 4);
        // A page in a different 512 GiB region allocates a fresh chain.
        let far = VirtAddr::new(0x0000_8000_0000_0000 - 0x1000).unwrap();
        pt.map(
            &mut mem,
            &mut alloc,
            far,
            PhysFrameNum::new(3),
            PageSize::Size4K,
            PteFlags::user_data(),
        )
        .unwrap();
        assert_eq!(mem.table_frame_count(), 7);
    }

    #[test]
    fn double_map_rejected() {
        let (mut mem, mut alloc, mut pt) = setup();
        let va = VirtAddr::new(0x4000).unwrap();
        pt.map(
            &mut mem,
            &mut alloc,
            va,
            PhysFrameNum::new(1),
            PageSize::Size4K,
            PteFlags::user_data(),
        )
        .unwrap();
        let again = pt.map(
            &mut mem,
            &mut alloc,
            va,
            PhysFrameNum::new(2),
            PageSize::Size4K,
            PteFlags::user_data(),
        );
        assert_eq!(again, Err(PtError::AlreadyMapped(va)));
    }

    #[test]
    fn map_2m_large_page() {
        let (mut mem, mut alloc, mut pt) = setup();
        let va = VirtAddr::new(0x4000_0000).unwrap(); // 2MiB-aligned
        let frame = PhysFrameNum::new(512 * 7); // 2MiB-aligned frame
        pt.map(
            &mut mem,
            &mut alloc,
            va,
            frame,
            PageSize::Size2M,
            PteFlags::user_data(),
        )
        .unwrap();
        // Any address inside the 2 MiB page translates.
        let inside = va.checked_add(0x12_3456).unwrap();
        let t = pt.translate(&mem, inside).unwrap();
        assert_eq!(t.size, PageSize::Size2M);
        assert!(t.flags.page_size());
        assert_eq!(
            t.phys_addr(inside).raw(),
            frame.base_addr().raw() + 0x12_3456
        );
        // Only root + PL3 + PL2 nodes exist; no PL1 was created.
        assert_eq!(mem.table_frame_count(), 3);
    }

    #[test]
    fn map_1g_large_page() {
        let (mut mem, mut alloc, mut pt) = setup();
        let va = VirtAddr::new(0x40_0000_0000).unwrap(); // 1GiB-aligned
        let frame = PhysFrameNum::new(512 * 512 * 3);
        pt.map(
            &mut mem,
            &mut alloc,
            va,
            frame,
            PageSize::Size1G,
            PteFlags::user_data(),
        )
        .unwrap();
        let t = pt
            .translate(&mem, va.checked_add(0x3fff_ffff).unwrap())
            .unwrap();
        assert_eq!(t.size, PageSize::Size1G);
        assert_eq!(mem.table_frame_count(), 2); // root + PL3
    }

    #[test]
    fn misaligned_large_page_rejected() {
        let (mut mem, mut alloc, mut pt) = setup();
        let va = VirtAddr::new(0x4000_1000).unwrap(); // not 2MiB-aligned
        let err = pt.map(
            &mut mem,
            &mut alloc,
            va,
            PhysFrameNum::new(512),
            PageSize::Size2M,
            PteFlags::user_data(),
        );
        assert_eq!(err, Err(PtError::Misaligned(va)));
        // Misaligned *frame* also rejected.
        let va = VirtAddr::new(0x4000_0000).unwrap();
        let err = pt.map(
            &mut mem,
            &mut alloc,
            va,
            PhysFrameNum::new(511),
            PageSize::Size2M,
            PteFlags::user_data(),
        );
        assert_eq!(err, Err(PtError::Misaligned(va)));
    }

    #[test]
    fn small_map_under_large_leaf_conflicts() {
        let (mut mem, mut alloc, mut pt) = setup();
        let va = VirtAddr::new(0x4000_0000).unwrap();
        pt.map(
            &mut mem,
            &mut alloc,
            va,
            PhysFrameNum::new(512),
            PageSize::Size2M,
            PteFlags::user_data(),
        )
        .unwrap();
        let inner = va.checked_add(0x1000).unwrap();
        let err = pt.map(
            &mut mem,
            &mut alloc,
            inner,
            PhysFrameNum::new(1),
            PageSize::Size4K,
            PteFlags::user_data(),
        );
        assert_eq!(
            err,
            Err(PtError::LargePageConflict {
                va: inner,
                level: PtLevel::Pl2
            })
        );
    }

    #[test]
    fn unmap_4k_and_2m() {
        let (mut mem, mut alloc, mut pt) = setup();
        let small = VirtAddr::new(0x5000).unwrap();
        let large = VirtAddr::new(0x4000_0000).unwrap();
        pt.map(
            &mut mem,
            &mut alloc,
            small,
            PhysFrameNum::new(1),
            PageSize::Size4K,
            PteFlags::user_data(),
        )
        .unwrap();
        pt.map(
            &mut mem,
            &mut alloc,
            large,
            PhysFrameNum::new(512),
            PageSize::Size2M,
            PteFlags::user_data(),
        )
        .unwrap();
        assert_eq!(pt.unmap(&mut mem, small), Ok(PageSize::Size4K));
        assert_eq!(pt.unmap(&mut mem, large), Ok(PageSize::Size2M));
        assert!(pt.translate(&mem, small).is_none());
        assert!(pt.translate(&mem, large).is_none());
        assert_eq!(pt.unmap(&mut mem, small), Err(PtError::NotMapped(small)));
    }

    #[test]
    fn five_level_mode_maps_wide_addresses() {
        let mut mem = SimPhysMem::new();
        let mut alloc = BumpNodeAllocator::new(PhysFrameNum::new(0x1000));
        let mut pt = PageTable::new(PagingMode::FiveLevel, &mut mem, &mut alloc);
        // An address above the 48-bit boundary.
        let va = VirtAddr::new(1 << 50).unwrap();
        pt.map(
            &mut mem,
            &mut alloc,
            va,
            PhysFrameNum::new(77),
            PageSize::Size4K,
            PteFlags::user_data(),
        )
        .unwrap();
        assert_eq!(pt.translate(&mem, va).unwrap().frame, PhysFrameNum::new(77));
        // Five nodes: PL5 root + PL4 + PL3 + PL2 + PL1.
        assert_eq!(mem.table_frame_count(), 5);
        // The same address is out of range for a 4-level table.
        let (mut mem4, mut alloc4, mut pt4) = setup();
        let err = pt4.map(
            &mut mem4,
            &mut alloc4,
            va,
            PhysFrameNum::new(1),
            PageSize::Size4K,
            PteFlags::user_data(),
        );
        assert_eq!(err, Err(PtError::OutOfRange(va)));
    }

    #[test]
    fn out_of_range_translate_is_none() {
        let (mem, _, pt) = setup();
        assert!(pt
            .translate(&mem, VirtAddr::new(1 << 50).unwrap())
            .is_none());
    }
}
