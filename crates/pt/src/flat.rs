//! The simulator's page table: a flat, arena-backed x86-64 radix tree.
//!
//! [`FlatMirror`] holds every node of one page table in a contiguous `Vec`
//! arena. Each node records the physical frame the OS placed it in, so a
//! walk trace carries the real entry addresses that the hardware walker and
//! the ASAP prefetcher touch; each present non-leaf entry carries the arena
//! slot of its child, so a descent is four (or five) array reads with no
//! hashing and no allocation.
//!
//! It is the only page-table store. Demand faults write it through
//! [`FlatMirror::map`], walks and translations read it, and the Table 2
//! census ([`crate::PtCensus`]) is collected from it. A hash-keyed radix
//! model of the same table lives in the `asap-pt-test-util` crate as a
//! test oracle, and `tests/prop_flat_walk_equivalence.rs` pins the two to
//! the same map results, translations, walk traces, node frames and census
//! on random tables. The timing model consumes either through the
//! [`WalkSource`] seam.

use crate::{
    FixedWalk, PtError, PtNodeAllocator, Pte, PteFlags, Translation, WalkOutcome, WalkStep,
};
use asap_types::FastMap;
use asap_types::{
    PageSize, PagingMode, PhysAddr, PhysFrameNum, PtLevel, VirtAddr, ENTRIES_PER_TABLE, PTE_SIZE,
};

/// Anything the timing model can walk: the flat page table
/// ([`FlatMirror`]) or, in tests, the radix oracle.
///
/// Both MMU families (the ASAP one and the contender walkers) and the
/// nested walker consume this seam, so a test can run the timing model over
/// the oracle and compare every statistic.
pub trait WalkSource {
    /// The paging mode of the underlying table.
    fn mode(&self) -> PagingMode;

    /// Full walk for `va`, recording every node access.
    fn walk_fixed(&self, va: VirtAddr) -> FixedWalk;

    /// Resolves `va` without recording the trace.
    fn translate(&self, va: VirtAddr) -> Option<Translation>;
}

/// Physical address of the entry at `level` selected by `va` in the node
/// held by `node`.
fn entry_addr(node: PhysFrameNum, level: PtLevel, va: VirtAddr) -> PhysAddr {
    node.base_addr().add(level.index_of(va) * PTE_SIZE)
}

/// Sentinel child slot meaning "no child node" (not-present entries and
/// leaves). Slot 0 always holds the root, which is never any entry's child,
/// so 0 is free as the sentinel — and it makes the all-zeros bit pattern a
/// valid [`FlatEntry::EMPTY`].
const NO_CHILD: u32 = 0;

/// One page-table entry: the raw architectural bits plus the arena slot of
/// the child node (for present non-leaf entries).
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

/// One node: its level, its physical frame (so walk traces carry the real
/// entry addresses) and its entries.
#[derive(Debug, Clone)]
struct FlatNode {
    level: PtLevel,
    frame: PhysFrameNum,
    entries: NodeEntries,
}

impl FlatNode {
    fn new(frame: PhysFrameNum, level: PtLevel) -> Self {
        Self {
            level,
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
                let mut arr = vec![FlatEntry::EMPTY; ENTRIES_PER_TABLE as usize].into_boxed_slice();
                for i in 0..INLINE_WAYS {
                    arr[idxs[i] as usize] = entries[i];
                }
                arr[idx] = e;
                self.entries = NodeEntries::Full(arr);
            }
            NodeEntries::Full(arr) => arr[idx] = e,
        }
    }

    /// Number of present entries.
    fn present(&self) -> u64 {
        let entries: &[FlatEntry] = match &self.entries {
            NodeEntries::Inline { len, entries, .. } => &entries[..*len as usize],
            NodeEntries::Full(arr) => arr,
        };
        entries
            .iter()
            .filter(|e| Pte::from_raw(e.raw).is_present())
            .count() as u64
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
/// Ranges recorded here are always leaves (4 KiB / 2 MiB / 1 GiB, aligned
/// to their size), so a sub-chunk range never straddles a chunk boundary.
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
}

/// A page table: the arena of nodes. Slot 0 is always the root.
///
/// # Invariant
///
/// [`FlatMirror::map`] is the only writer, so every present non-leaf entry
/// links a child slot, every leaf and hole has none, and the residency
/// bitmap marks exactly the pages some present leaf covers.
#[derive(Debug, Clone)]
pub struct FlatMirror {
    mode: PagingMode,
    nodes: Vec<FlatNode>,
    /// Bitmap of mapped 4-KiB pages — the [`FlatMirror::is_mapped`] fast
    /// path, set by every successful `map`.
    resident: ResidencyMap,
}

impl FlatMirror {
    /// Creates an empty page table whose root node is the frame `alloc`
    /// returns for the root level (asked for VA 0).
    #[must_use]
    pub fn new(mode: PagingMode, alloc: &mut dyn PtNodeAllocator) -> Self {
        let root_level = mode.root_level();
        let root = alloc.alloc_node(root_level, VirtAddr::new_unchecked(0));
        Self {
            mode,
            nodes: vec![FlatNode::new(root, root_level)],
            resident: ResidencyMap::default(),
        }
    }

    /// The paging mode.
    #[must_use]
    pub fn mode(&self) -> PagingMode {
        self.mode
    }

    /// Number of table nodes, the root included.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Every node as `(level, frame, present entries)`, in creation order
    /// (the root first) — the census input.
    pub(crate) fn nodes(&self) -> impl Iterator<Item = (PtLevel, PhysFrameNum, u64)> + '_ {
        self.nodes.iter().map(|n| (n.level, n.frame, n.present()))
    }

    /// Appends a fresh node and returns its slot.
    fn push_node(&mut self, frame: PhysFrameNum, level: PtLevel) -> u32 {
        #[expect(clippy::expect_used, reason = "2^32 nodes exceed host memory")]
        let slot = u32::try_from(self.nodes.len()).expect("arena slots fit in u32");
        self.nodes.push(FlatNode::new(frame, level));
        slot
    }

    /// Maps the page of `size` containing `va` to `frame`.
    ///
    /// Intermediate nodes are created on demand, each in the frame `alloc`
    /// returns for its level and `va`, root-most first. For large pages the
    /// leaf entry is written at PL2 (2 MiB) or PL3 (1 GiB) with the
    /// page-size bit set.
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
                debug_assert_ne!(cur.child, NO_CHILD, "intermediate without a child");
                cur.child
            } else {
                let child_frame = alloc.alloc_node(child_level, va);
                let child = self.push_node(child_frame, child_level);
                self.nodes[slot as usize].set(
                    idx,
                    FlatEntry {
                        raw: Pte::new(child_frame, PteFlags::intermediate()).raw(),
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
        node.set(
            idx,
            FlatEntry {
                raw: Pte::new(frame, leaf_flags).raw(),
                child: NO_CHILD,
            },
        );
        self.resident.set_pages(va.raw(), size.base_pages());
        Ok(())
    }

    /// Resolves `va` without recording the trace (a branch-light descent).
    /// Callers that only need "is it mapped?" should use
    /// [`FlatMirror::is_mapped`] instead — the bitmap probe is an order of
    /// magnitude cheaper than this four-node descent when the arena is
    /// cache-cold.
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
            debug_assert_ne!(e.child, NO_CHILD, "intermediate without a child");
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
                entry_addr: entry_addr(node.frame, level, va),
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
            debug_assert_ne!(e.child, NO_CHILD, "intermediate without a child");
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
    use crate::BumpNodeAllocator;

    fn setup() -> FlatMirror {
        let mut alloc = BumpNodeAllocator::new(PhysFrameNum::new(0x100));
        FlatMirror::new(PagingMode::FourLevel, &mut alloc)
    }

    #[test]
    fn empty_mirror_translates_nothing() {
        let mirror = setup();
        assert!(mirror.translate(VirtAddr::new(0x1000).unwrap()).is_none());
        assert_eq!(mirror.node_count(), 1); // root slot
    }

    #[test]
    fn out_of_range_is_empty_fault() {
        let mirror = setup();
        let far = VirtAddr::new(1 << 50).unwrap();
        assert!(mirror.translate(far).is_none());
        let walk = mirror.walk_fixed(far);
        assert!(walk.is_fault());
        assert!(walk.steps().is_empty());
        assert_eq!(
            walk.outcome(),
            WalkOutcome::Fault {
                level: mirror.mode().root_level()
            }
        );
    }
}
