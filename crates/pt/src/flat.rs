//! A flat, arena-backed mirror of the radix page table.
//!
//! The radix tables in [`crate::PageTable`] + [`crate::SimPhysMem`] stay the
//! ground truth: they are what the OS writes, what ASAP prefetches read, and
//! what the census measures. But resolving a translation through them costs a
//! `HashMap` frame lookup per level, which dominates the simulator's inner
//! loop. [`FlatMirror`] is a *derived index* over the same entries: one
//! contiguous `Vec` arena of node slots where each present non-leaf entry
//! carries the arena index of its child, so a descent is four (or five)
//! array reads with no hashing and no allocation.
//!
//! Demand faults go through [`FlatMirror::map`], which writes the new leaf
//! (and any missing intermediate node) into the radix table and the mirror
//! in one descent that follows the mirror's child slots, so faulting a page
//! under an existing node chain costs one hash-keyed radix write. Other
//! radix mutations re-sync the affected virtual path
//! ([`FlatMirror::sync_va`]) or rebuild wholesale ([`FlatMirror::rebuild`]).
//! Equivalence with the radix walker, and of `map` with
//! [`PageTable::map`] + `sync_va`, is pinned property-style in
//! `tests/prop_flat_walk_equivalence.rs`; the timing model
//! consumes either through the [`WalkSource`] seam, so the walk *trace* —
//! every entry address the hardware would touch — is identical by
//! construction (node physical frames are stored in the arena).

use crate::walker::{FixedWalk, WalkOutcome, WalkStep, Walker};
use crate::{PageTable, PtError, PtNodeAllocator, Pte, PteFlags, SimPhysMem, Translation};
use asap_types::FastMap;
use asap_types::{PageSize, PagingMode, PhysFrameNum, PtLevel, VirtAddr, PTE_SIZE};

/// Anything the timing model can walk: the authoritative radix tables
/// ([`RadixSource`]) or the flat mirror ([`FlatMirror`]).
///
/// Both MMU families (the ASAP [`crate::Walker`]-based one and the contender
/// walkers) consume this seam, which is what makes the differential test
/// meaningful: swapping the source must not change a single statistic.
pub trait WalkSource {
    /// The paging mode of the underlying table.
    fn mode(&self) -> PagingMode;

    /// Full walk for `va`, recording every node access.
    fn walk_fixed(&self, va: VirtAddr) -> FixedWalk;

    /// Resolves `va` without recording the trace.
    fn translate(&self, va: VirtAddr) -> Option<Translation>;
}

/// The authoritative radix tables viewed through the [`WalkSource`] seam.
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

/// Sentinel child slot meaning "no mirrored child" (not-present entries and
/// leaves). Slot 0 always holds the root, which is never any entry's child,
/// so 0 is free as the sentinel — and it makes the all-zeros bit pattern a
/// valid [`FlatEntry::EMPTY`].
const NO_CHILD: u32 = 0;

/// One mirrored page-table entry: the raw architectural bits plus the arena
/// slot of the child node (for present non-leaf entries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FlatEntry {
    raw: u64,
    child: u32,
}

impl FlatEntry {
    const EMPTY: Self = Self {
        raw: 0,
        child: NO_CHILD,
    };
}

/// Populated entries a node keeps inline before spilling to the full
/// 512-entry array.
///
/// Scatter-placed PT nodes — every EPT node backing the hypervisor's
/// scattered guest-PT-node gPAs, and guest nodes under the scatter ablation
/// — only ever hold a handful of present entries, and a fresh node is
/// created on nearly every fault. Keeping those inline makes node creation
/// allocation-free instead of an 8 KiB zeroed allocation per node; dense
/// nodes (a demand-paged heap's PL1 nodes, upper levels) spill to the
/// direct-indexed array the first time they outgrow the inline ways.
const INLINE_WAYS: usize = 16;

/// A node's entry storage: inline-sparse or spilled-dense.
///
/// The size asymmetry between the variants is deliberate: the inline
/// variant's bulk is what keeps node creation off the allocator, and
/// nodes live in one arena `Vec`, so the "wasted" bytes of a spilled
/// node's inline slot are a per-node constant, not a per-entry cost.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum NodeEntries {
    /// Up to [`INLINE_WAYS`] populated entries, unsorted; looked up by a
    /// linear scan of the index array. Absent indices read as
    /// [`FlatEntry::EMPTY`], exactly like never-written slots of the full
    /// array.
    Inline {
        len: u8,
        idxs: [u16; INLINE_WAYS],
        entries: [FlatEntry; INLINE_WAYS],
    },
    /// Direct-indexed full array (all 512 entries).
    Full(Box<[FlatEntry]>),
}

/// One mirrored node: its physical frame (so walk traces carry the real
/// entry addresses) and its entries.
#[derive(Debug, Clone)]
struct FlatNode {
    frame: PhysFrameNum,
    entries: NodeEntries,
}

impl FlatNode {
    fn new(frame: PhysFrameNum) -> Self {
        Self {
            frame,
            entries: NodeEntries::Inline {
                len: 0,
                idxs: [0; INLINE_WAYS],
                entries: [FlatEntry::EMPTY; INLINE_WAYS],
            },
        }
    }

    /// Reads entry `idx`, defaulting to [`FlatEntry::EMPTY`] when absent.
    #[inline]
    fn get(&self, idx: usize) -> FlatEntry {
        match &self.entries {
            NodeEntries::Inline { len, idxs, entries } => {
                let idx = idx as u16;
                for i in 0..*len as usize {
                    if idxs[i] == idx {
                        return entries[i];
                    }
                }
                FlatEntry::EMPTY
            }
            NodeEntries::Full(arr) => arr[idx],
        }
    }

    /// Writes entry `idx`, spilling inline storage to the full array when
    /// the inline ways are exhausted.
    fn set(&mut self, idx: usize, e: FlatEntry) {
        match &mut self.entries {
            NodeEntries::Inline { len, idxs, entries } => {
                let idx16 = idx as u16;
                for i in 0..*len as usize {
                    if idxs[i] == idx16 {
                        entries[i] = e;
                        return;
                    }
                }
                let n = *len as usize;
                if n < INLINE_WAYS {
                    idxs[n] = idx16;
                    entries[n] = e;
                    *len += 1;
                    return;
                }
                // Filled on the heap: building the array on the stack and
                // boxing it would zero 8 KiB twice (fill + copy).
                let mut arr =
                    vec![FlatEntry::EMPTY; PageTable::ENTRIES_PER_NODE].into_boxed_slice();
                for i in 0..INLINE_WAYS {
                    arr[idxs[i] as usize] = entries[i];
                }
                arr[idx] = e;
                self.entries = NodeEntries::Full(arr);
            }
            NodeEntries::Full(arr) => arr[idx] = e,
        }
    }
}

/// 4-KiB pages per residency chunk: 2^9 pages = 2 MiB of VA per chunk, the
/// span of one PL1 node.
///
/// Sized for the sparsest user: the EPT's fault-ins land on guest-physical
/// pages (scattered guest PT nodes and data frames) spread over terabytes,
/// so about a third of them open a new chunk. A chunk of 2 MiB is one
/// 64-byte bitmap stored inline in the chunk map, so opening a region
/// allocates nothing beyond the map's own amortised growth; a chunk big
/// enough to need its own zeroed allocation (128 MiB: 4 KiB of bitmap)
/// makes that allocation the largest single cost of a nested fault.
const CHUNK_PAGE_BITS: u32 = 9;
/// Words per chunk bitmap (64 bytes).
const CHUNK_WORDS: usize = 1 << (CHUNK_PAGE_BITS - 6);
/// Page-index mask within a chunk.
const CHUNK_PAGE_MASK: u64 = (1 << CHUNK_PAGE_BITS) - 1;

/// A chunked bitmap of mapped 4-KiB pages.
///
/// The per-access residency check ("is this VA already demand-paged?") is
/// the single hottest query in the simulator: one probe of the chunk map,
/// whose slot holds the chunk's bitmap inline, then one bit test in the
/// same slot — no leaf-map or arena traffic.
///
/// Ranges recorded here are always page-size aligned (4 KiB / 2 MiB /
/// 1 GiB leaves, or whole entry spans for holes), so a sub-chunk range
/// never straddles a chunk boundary.
#[derive(Debug, Clone, Default)]
struct ResidencyMap {
    chunks: FastMap<u64, [u64; CHUNK_WORDS]>,
}

impl ResidencyMap {
    /// Whether the 4-KiB page containing `va` is marked mapped.
    #[inline]
    fn test(&self, va: u64) -> bool {
        let page = va >> 12;
        match self.chunks.get(&(page >> CHUNK_PAGE_BITS)) {
            Some(chunk) => {
                let bit = (page & CHUNK_PAGE_MASK) as usize;
                chunk[bit >> 6] & (1u64 << (bit & 63)) != 0
            }
            None => false,
        }
    }

    /// Marks `pages` 4-KiB pages starting at the page-aligned `base_va`.
    fn set_pages(&mut self, base_va: u64, pages: u64) {
        let mut page = base_va >> 12;
        let end = page + pages;
        while page < end {
            let chunk = self
                .chunks
                .entry(page >> CHUNK_PAGE_BITS)
                .or_insert([0; CHUNK_WORDS]);
            let bit = (page & CHUNK_PAGE_MASK) as usize;
            let n = (end - page).min((1 << CHUNK_PAGE_BITS) - bit as u64) as usize;
            if bit % 64 == 0 && n % 64 == 0 {
                chunk[bit >> 6..(bit + n) >> 6].fill(!0);
            } else {
                for b in bit..bit + n {
                    chunk[b >> 6] |= 1u64 << (b & 63);
                }
            }
            page += n as u64;
        }
    }

    /// Clears `pages` 4-KiB pages starting at the page-aligned `base_va`.
    fn clear_pages(&mut self, base_va: u64, pages: u64) {
        let first = base_va >> 12;
        if pages >= 1 << CHUNK_PAGE_BITS {
            // Whole-chunk spans (big holes): drop the chunks outright.
            let c0 = first >> CHUNK_PAGE_BITS;
            let c1 = (first + pages) >> CHUNK_PAGE_BITS;
            self.chunks.retain(|&c, _| c < c0 || c >= c1);
            return;
        }
        if let Some(chunk) = self.chunks.get_mut(&(first >> CHUNK_PAGE_BITS)) {
            let bit = (first & CHUNK_PAGE_MASK) as usize;
            let n = pages as usize;
            if bit % 64 == 0 && n % 64 == 0 {
                chunk[bit >> 6..(bit + n) >> 6].fill(0);
            } else {
                for b in bit..bit + n {
                    chunk[b >> 6] &= !(1u64 << (b & 63));
                }
            }
        }
    }
}

/// The arena of mirrored nodes. Slot 0 is always the root.
///
/// # Invariant
///
/// Every radix mutation keeps the mirror coherent: faults map through
/// [`FlatMirror::map`], which writes both together; any other `map`/`unmap`
/// on the radix table is followed by [`FlatMirror::sync_va`] of the touched
/// virtual path (or a wholesale rebuild). The mirror never holds an entry
/// the radix table lacks — it is an index, not a second table.
#[derive(Debug, Clone)]
pub struct FlatMirror {
    mode: PagingMode,
    nodes: Vec<FlatNode>,
    /// Table frame → arena slot, used only while syncing or linking a new
    /// node (never on the translate/walk path).
    slots: FastMap<u64, u32>,
    /// Bitmap of mapped 4-KiB pages — the [`FlatMirror::is_mapped`] fast
    /// path. Maintained by `map`, the terminal branch of `sync_va` and
    /// `rebuild`, exactly mirroring leaf presence in the radix table.
    resident: ResidencyMap,
}

impl FlatMirror {
    /// Creates a mirror of `pt` reflecting its current (typically empty)
    /// state. Call [`FlatMirror::rebuild`] afterwards if `pt` already has
    /// mappings.
    #[must_use]
    pub fn new(pt: &PageTable) -> Self {
        let mut mirror = Self {
            mode: pt.mode(),
            nodes: Vec::new(),
            slots: FastMap::default(),
            resident: ResidencyMap::default(),
        };
        let root = mirror.slot_for(pt.root());
        debug_assert_eq!(root, 0);
        mirror
    }

    /// The paging mode being mirrored.
    #[must_use]
    pub fn mode(&self) -> PagingMode {
        self.mode
    }

    /// Number of mirrored nodes (equals the radix table's materialized
    /// table-frame count when coherent).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Approximate host bytes held by the arena.
    #[must_use]
    pub fn approx_host_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| {
                core::mem::size_of::<FlatNode>()
                    + match &n.entries {
                        NodeEntries::Inline { .. } => 0,
                        NodeEntries::Full(_) => {
                            PageTable::ENTRIES_PER_NODE * core::mem::size_of::<FlatEntry>()
                        }
                    }
            })
            .sum()
    }

    fn slot_for(&mut self, frame: PhysFrameNum) -> u32 {
        if let Some(&slot) = self.slots.get(&frame.raw()) {
            return slot;
        }
        #[expect(clippy::expect_used, reason = "2^32 nodes exceed host memory")]
        let slot = u32::try_from(self.nodes.len()).expect("arena slots fit in u32");
        self.nodes.push(FlatNode::new(frame));
        self.slots.insert(frame.raw(), slot);
        slot
    }

    /// Maps the page of `size` containing `va` to `frame` in the radix
    /// table held by `mem` and in this mirror, in one descent.
    ///
    /// Makes exactly the radix writes of [`PageTable::map`], in the same
    /// order and with the same errors, and leaves the mirror as a
    /// following [`FlatMirror::sync_va`] of `va` would. The descent follows
    /// the mirror's child slots instead of looking each node's frame up in
    /// `mem`: an existing intermediate costs an arena read, a missing one
    /// is allocated through `alloc` and linked in both, and the leaf is
    /// written to both. `mem` must hold the table this mirror is coherent
    /// with.
    ///
    /// # Errors
    ///
    /// * [`PtError::OutOfRange`] — `va` exceeds the paging mode width;
    /// * [`PtError::Misaligned`] — `va` or `frame` not aligned to `size`;
    /// * [`PtError::AlreadyMapped`] — a present entry already sits at the
    ///   leaf level;
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
        if !self.mode.contains(va) {
            return Err(PtError::OutOfRange(va));
        }
        if !va.is_aligned(size.bytes()) || frame.raw() % size.base_pages() != 0 {
            return Err(PtError::Misaligned(va));
        }
        let leaf_level = size.leaf_level();
        let mut slot = 0u32;
        // (level, child level) pairs from the root down to the leaf level.
        let parents = self.mode.levels().zip(self.mode.levels().skip(1));
        for (level, child_level) in parents {
            if level == leaf_level {
                break;
            }
            let idx = level.index_of(va) as usize;
            let cur = self.nodes[slot as usize].get(idx);
            let entry = Pte::from_raw(cur.raw);
            if entry.is_large_leaf() {
                return Err(PtError::LargePageConflict { va, level });
            }
            slot = if entry.is_present() {
                debug_assert_ne!(cur.child, NO_CHILD, "flat mirror out of sync at {level}");
                cur.child
            } else {
                let child_frame = alloc.alloc_node(child_level, va);
                mem.install_table_frame(child_frame);
                let link = Pte::new(child_frame, PteFlags::intermediate());
                let node = self.nodes[slot as usize].frame;
                mem.write_entry(PageTable::entry_addr(node, level, va), link);
                let child = self.slot_for(child_frame);
                self.nodes[slot as usize].set(
                    idx,
                    FlatEntry {
                        raw: link.raw(),
                        child,
                    },
                );
                child
            };
        }
        let idx = leaf_level.index_of(va) as usize;
        let node = &mut self.nodes[slot as usize];
        if Pte::from_raw(node.get(idx).raw).is_present() {
            return Err(PtError::AlreadyMapped(va));
        }
        let leaf_flags = if size == PageSize::Size4K {
            flags
        } else {
            flags.with(PteFlags::PAGE_SIZE)
        };
        let leaf = Pte::new(frame, leaf_flags);
        mem.write_entry(PageTable::entry_addr(node.frame, leaf_level, va), leaf);
        node.set(
            idx,
            FlatEntry {
                raw: leaf.raw(),
                child: NO_CHILD,
            },
        );
        self.resident.set_pages(va.raw(), size.base_pages());
        Ok(())
    }

    /// Re-mirrors the radix path for `va` after a `map`/`unmap` touched it.
    ///
    /// Sound because radix mutations only ever change entries along the
    /// descent path of the mutated VA: `map` installs intermediates and one
    /// leaf, `unmap` clears one leaf, and existing intermediate entries are
    /// never rewritten.
    pub fn sync_va(&mut self, mem: &SimPhysMem, pt: &PageTable, va: VirtAddr) {
        debug_assert_eq!(pt.mode(), self.mode, "mirror/table mode mismatch");
        debug_assert_eq!(pt.root(), self.nodes[0].frame, "mirror/table root mismatch");
        if !self.mode.contains(va) {
            return;
        }
        let mut node = pt.root();
        let mut slot = 0u32;
        for level in self.mode.levels() {
            let idx = level.index_of(va) as usize;
            let entry = mem.read_entry(PageTable::entry_addr(node, level, va));
            if entry.is_present() && level != PtLevel::Pl1 && !entry.is_large_leaf() {
                // Unchanged intermediate with a linked child — the common
                // case (mapping a sibling under an existing chain) — needs
                // no frame→slot lookup at all.
                let cur = self.nodes[slot as usize].get(idx);
                let child = if cur.raw == entry.raw() && cur.child != NO_CHILD {
                    cur.child
                } else {
                    let child = self.slot_for(entry.frame());
                    self.nodes[slot as usize].set(
                        idx,
                        FlatEntry {
                            raw: entry.raw(),
                            child,
                        },
                    );
                    child
                };
                node = entry.frame();
                slot = child;
            } else {
                // Leaf or hole: terminal either way.
                self.nodes[slot as usize].set(
                    idx,
                    FlatEntry {
                        raw: entry.raw(),
                        child: NO_CHILD,
                    },
                );
                self.cache_terminal(va, level, entry);
                return;
            }
        }
    }

    /// Updates the residency bitmap after a terminal `sync_va` write at
    /// `level`.
    ///
    /// A present leaf marks its whole span. A hole clears the full entry
    /// span at `level`: the descent reaching a hole there means no coarser
    /// leaf covers `va` (it would have terminated the descent earlier) and
    /// nothing finer is reachable beneath it.
    fn cache_terminal(&mut self, va: VirtAddr, level: PtLevel, entry: Pte) {
        if entry.is_present() {
            if let Some(size) = PageSize::from_leaf_level(level) {
                let base = (va.raw() >> size.shift()) << size.shift();
                self.resident.set_pages(base, 1 << (size.shift() - 12));
                return;
            }
        }
        let shift = level.index_shift();
        self.resident
            .clear_pages((va.raw() >> shift) << shift, 1 << (shift - 12));
    }

    /// Discards the arena and re-mirrors the whole radix table.
    pub fn rebuild(&mut self, mem: &SimPhysMem, pt: &PageTable) {
        self.mode = pt.mode();
        self.nodes.clear();
        self.slots.clear();
        self.resident = ResidencyMap::default();
        let root = self.slot_for(pt.root());
        let mut stack = vec![(root, pt.mode().root_level(), 0u64)];
        while let Some((slot, level, va_base)) = stack.pop() {
            let frame = self.nodes[slot as usize].frame;
            for idx in 0..PageTable::ENTRIES_PER_NODE {
                let addr = frame.base_addr().add(idx as u64 * PTE_SIZE);
                let entry_va = va_base | ((idx as u64) << level.index_shift());
                let entry = mem.read_entry(addr);
                let flat = if entry.is_present() && level != PtLevel::Pl1 && !entry.is_large_leaf()
                {
                    let child = self.slot_for(entry.frame());
                    #[expect(clippy::expect_used, reason = "only non-PL1 levels get here")]
                    stack.push((
                        child,
                        level.child().expect("non-leaf level has a child"),
                        entry_va,
                    ));
                    FlatEntry {
                        raw: entry.raw(),
                        child,
                    }
                } else {
                    if entry.is_present() {
                        if let Some(size) = PageSize::from_leaf_level(level) {
                            self.resident.set_pages(entry_va, 1 << (size.shift() - 12));
                        }
                    }
                    FlatEntry {
                        raw: entry.raw(),
                        child: NO_CHILD,
                    }
                };
                // Absent entries read back as EMPTY without being stored;
                // skipping them keeps sparse nodes inline.
                if flat != FlatEntry::EMPTY {
                    self.nodes[slot as usize].set(idx, flat);
                }
            }
        }
    }

    /// Branch-light descent: the hot-path equivalent of
    /// [`PageTable::translate`]. Callers that only need "is it mapped?"
    /// should use [`FlatMirror::is_mapped`] instead — the bitmap probe is
    /// an order of magnitude cheaper than this four-node descent when the
    /// arena is cache-cold.
    #[must_use]
    pub fn translate(&self, va: VirtAddr) -> Option<Translation> {
        if !self.mode.contains(va) {
            return None;
        }
        let mut slot = 0usize;
        for level in self.mode.levels() {
            let e = self.nodes[slot].get(level.index_of(va) as usize);
            let pte = Pte::from_raw(e.raw);
            if !pte.is_present() {
                return None;
            }
            if level == PtLevel::Pl1 || pte.is_large_leaf() {
                let size = PageSize::from_leaf_level(level)?;
                return Some(Translation {
                    frame: pte.frame(),
                    size,
                    flags: pte.flags(),
                });
            }
            assert_ne!(e.child, NO_CHILD, "flat mirror out of sync at {level}");
            slot = e.child as usize;
        }
        None
    }

    /// Whether `va` is covered by any present leaf — the per-access
    /// demand-paging residency check, served from the chunked page bitmap
    /// (one tiny-map probe + one bit test; no leaf-map or arena traffic).
    #[must_use]
    pub fn is_mapped(&self, va: VirtAddr) -> bool {
        self.resident.test(va.raw())
    }
}

impl WalkSource for FlatMirror {
    fn mode(&self) -> PagingMode {
        self.mode
    }

    fn walk_fixed(&self, va: VirtAddr) -> FixedWalk {
        let mut walk = FixedWalk::empty_fault(va, self.mode.root_level());
        if !self.mode.contains(va) {
            return walk;
        }
        let mut slot = 0usize;
        for level in self.mode.levels() {
            let node = &self.nodes[slot];
            let e = node.get(level.index_of(va) as usize);
            let entry = Pte::from_raw(e.raw);
            walk.push(WalkStep {
                level,
                entry_addr: PageTable::entry_addr(node.frame, level, va),
                entry,
            });
            if !entry.is_present() {
                walk.set_outcome(WalkOutcome::Fault { level });
                return walk;
            }
            if level == PtLevel::Pl1 || entry.is_large_leaf() {
                let outcome = match PageSize::from_leaf_level(level) {
                    Some(size) => WalkOutcome::Mapped(Translation {
                        frame: entry.frame(),
                        size,
                        flags: entry.flags(),
                    }),
                    None => WalkOutcome::Fault { level },
                };
                walk.set_outcome(outcome);
                return walk;
            }
            assert_ne!(e.child, NO_CHILD, "flat mirror out of sync at {level}");
            slot = e.child as usize;
        }
        unreachable!("walk always terminates at PL1 or a leaf");
    }

    fn translate(&self, va: VirtAddr) -> Option<Translation> {
        Self::translate(self, va)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BumpNodeAllocator, PteFlags};

    fn setup() -> (SimPhysMem, BumpNodeAllocator, PageTable, FlatMirror) {
        let mut mem = SimPhysMem::new();
        let mut alloc = BumpNodeAllocator::new(PhysFrameNum::new(0x100));
        let pt = PageTable::new(PagingMode::FourLevel, &mut mem, &mut alloc);
        let mirror = FlatMirror::new(&pt);
        (mem, alloc, pt, mirror)
    }

    fn map_synced(
        mem: &mut SimPhysMem,
        alloc: &mut BumpNodeAllocator,
        pt: &mut PageTable,
        mirror: &mut FlatMirror,
        va: VirtAddr,
        frame: PhysFrameNum,
        size: PageSize,
    ) {
        pt.map(mem, alloc, va, frame, size, PteFlags::user_data())
            .unwrap();
        mirror.sync_va(mem, pt, va);
    }

    #[test]
    fn empty_mirror_translates_nothing() {
        let (_, _, _, mirror) = setup();
        assert!(mirror.translate(VirtAddr::new(0x1000).unwrap()).is_none());
        assert_eq!(mirror.node_count(), 1); // root slot
    }

    #[test]
    fn synced_mirror_matches_radix_translate() {
        let (mut mem, mut alloc, mut pt, mut mirror) = setup();
        let va = VirtAddr::new(0x7fff_1234_5000).unwrap();
        map_synced(
            &mut mem,
            &mut alloc,
            &mut pt,
            &mut mirror,
            va,
            PhysFrameNum::new(0x42),
            PageSize::Size4K,
        );
        assert_eq!(mirror.translate(va), pt.translate(&mem, va));
        assert_eq!(mirror.node_count(), mem.table_frame_count());
    }

    #[test]
    fn walk_fixed_matches_radix_walker_trace() {
        let (mut mem, mut alloc, mut pt, mut mirror) = setup();
        let va = VirtAddr::new(0x12_3456_7000).unwrap();
        map_synced(
            &mut mem,
            &mut alloc,
            &mut pt,
            &mut mirror,
            va,
            PhysFrameNum::new(7),
            PageSize::Size4K,
        );
        let radix = Walker::walk_fixed(&mem, &pt, va);
        assert_eq!(mirror.walk_fixed(va), radix);
        // Faulting cousin: same chain, no PL1 mapping — traces match too.
        let cousin = VirtAddr::new(va.raw() ^ 0x1000).unwrap();
        assert_eq!(
            mirror.walk_fixed(cousin),
            Walker::walk_fixed(&mem, &pt, cousin)
        );
    }

    #[test]
    fn unmap_hole_visible_after_sync() {
        let (mut mem, mut alloc, mut pt, mut mirror) = setup();
        let va = VirtAddr::new(0x5000).unwrap();
        map_synced(
            &mut mem,
            &mut alloc,
            &mut pt,
            &mut mirror,
            va,
            PhysFrameNum::new(1),
            PageSize::Size4K,
        );
        pt.unmap(&mut mem, va).unwrap();
        mirror.sync_va(&mem, &pt, va);
        assert!(mirror.translate(va).is_none());
        assert_eq!(mirror.walk_fixed(va), Walker::walk_fixed(&mem, &pt, va));
    }

    #[test]
    fn rebuild_mirrors_existing_mappings() {
        let (mut mem, mut alloc, mut pt, mut mirror) = setup();
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
        mirror.rebuild(&mem, &pt);
        for &va in &vas {
            assert_eq!(mirror.translate(va), pt.translate(&mem, va));
            assert_eq!(mirror.walk_fixed(va), Walker::walk_fixed(&mem, &pt, va));
        }
        assert_eq!(mirror.node_count(), mem.table_frame_count());
    }

    #[test]
    fn large_pages_mirror_correctly() {
        let (mut mem, mut alloc, mut pt, mut mirror) = setup();
        let va2m = VirtAddr::new(0x4000_0000).unwrap();
        map_synced(
            &mut mem,
            &mut alloc,
            &mut pt,
            &mut mirror,
            va2m,
            PhysFrameNum::new(512),
            PageSize::Size2M,
        );
        let inside = va2m.checked_add(0x12_3456).unwrap();
        assert_eq!(mirror.translate(inside), pt.translate(&mem, inside));
        assert_eq!(mirror.translate(inside).unwrap().size, PageSize::Size2M);
        let va1g = VirtAddr::new(0x40_0000_0000).unwrap();
        map_synced(
            &mut mem,
            &mut alloc,
            &mut pt,
            &mut mirror,
            va1g,
            PhysFrameNum::new(512 * 512 * 3),
            PageSize::Size1G,
        );
        assert_eq!(mirror.translate(va1g).unwrap().size, PageSize::Size1G);
    }

    #[test]
    fn out_of_range_is_empty_fault() {
        let (_, _, pt, mirror) = setup();
        let far = VirtAddr::new(1 << 50).unwrap();
        assert!(mirror.translate(far).is_none());
        let walk = mirror.walk_fixed(far);
        assert!(walk.is_fault());
        assert!(walk.steps().is_empty());
        assert_eq!(
            walk.outcome(),
            WalkOutcome::Fault {
                level: pt.mode().root_level()
            }
        );
    }

    #[test]
    fn inline_node_spills_to_full_array() {
        let (mut mem, mut alloc, mut pt, mut mirror) = setup();
        // Map more than INLINE_WAYS sibling pages under one PL1 node so its
        // inline storage must spill, then verify every one still resolves.
        let base = 0x4000_0000u64;
        let count = INLINE_WAYS + 8;
        for i in 0..count {
            map_synced(
                &mut mem,
                &mut alloc,
                &mut pt,
                &mut mirror,
                VirtAddr::new(base + (i as u64) * 0x1000).unwrap(),
                PhysFrameNum::new(0x2000 + i as u64),
                PageSize::Size4K,
            );
        }
        for i in 0..count {
            let va = VirtAddr::new(base + (i as u64) * 0x1000).unwrap();
            assert_eq!(mirror.translate(va), pt.translate(&mem, va), "page {i}");
            assert_eq!(mirror.walk_fixed(va), Walker::walk_fixed(&mem, &pt, va));
        }
    }

    #[test]
    fn radix_source_matches_walker() {
        let (mut mem, mut alloc, mut pt, _) = setup();
        let va = VirtAddr::new(0x9000).unwrap();
        pt.map(
            &mut mem,
            &mut alloc,
            va,
            PhysFrameNum::new(9),
            PageSize::Size4K,
            PteFlags::user_data(),
        )
        .unwrap();
        let src = RadixSource { mem: &mem, pt: &pt };
        assert_eq!(src.walk_fixed(va), Walker::walk_fixed(&mem, &pt, va));
        assert_eq!(WalkSource::translate(&src, va), pt.translate(&mem, va));
    }
}
