//! Virtual memory areas and the per-process VMA tree.

use crate::OsError;
use asap_types::{ByteSize, VirtAddr, PAGE_SIZE};
use std::collections::BTreeMap;

/// Identifier of a VMA within one process (stable across tree mutations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VmaId(pub u32);

/// The role a VMA plays in the process — mirrors the segments the paper
/// discusses (§3.2): big heap/mmap data regions versus small, hot stack and
/// library mappings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VmaKind {
    /// Program text.
    Text,
    /// A dynamically-linked library mapping.
    Library,
    /// The heap (grows upward via `brk`).
    Heap,
    /// An anonymous or file-backed `mmap` region (dataset storage).
    Mmap,
    /// The stack.
    Stack,
}

impl core::fmt::Display for VmaKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            VmaKind::Text => f.write_str("text"),
            VmaKind::Library => f.write_str("lib"),
            VmaKind::Heap => f.write_str("heap"),
            VmaKind::Mmap => f.write_str("mmap"),
            VmaKind::Stack => f.write_str("stack"),
        }
    }
}

/// One contiguous virtual address range `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vma {
    id: VmaId,
    start: VirtAddr,
    end: VirtAddr,
    kind: VmaKind,
}

impl Vma {
    /// The VMA's id.
    #[must_use]
    pub fn id(&self) -> VmaId {
        self.id
    }

    /// First address of the range.
    #[must_use]
    pub fn start(&self) -> VirtAddr {
        self.start
    }

    /// One past the last address of the range.
    #[must_use]
    pub fn end(&self) -> VirtAddr {
        self.end
    }

    /// The VMA's role.
    #[must_use]
    pub fn kind(&self) -> VmaKind {
        self.kind
    }

    /// Size in bytes.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.end.raw() - self.start.raw()
    }

    /// Whether the range is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `va` falls inside the range.
    #[must_use]
    pub fn contains(&self, va: VirtAddr) -> bool {
        self.start <= va && va < self.end
    }

    /// Number of 4 KiB pages covered.
    #[must_use]
    pub fn pages(&self) -> u64 {
        self.len() / PAGE_SIZE
    }
}

impl core::fmt::Display for Vma {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "vma{}[{}..{}, {}, {}]",
            self.id.0,
            self.start,
            self.end,
            self.kind,
            ByteSize(self.len())
        )
    }
}

/// The process' set of non-overlapping VMAs, keyed by start address — the
/// role Linux's VMA tree plays (§3.2).
#[derive(Debug, Clone, Default)]
pub struct VmaTree {
    by_start: BTreeMap<u64, Vma>,
    next_id: u32,
}

impl VmaTree {
    /// Creates an empty tree.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `[start, end)` of `kind`, rejecting overlap and misalignment.
    ///
    /// # Errors
    ///
    /// [`OsError::Overlap`] if the range intersects an existing VMA;
    /// [`OsError::Misaligned`] if either bound is not page-aligned;
    /// [`OsError::EmptyRange`] if `start >= end`.
    pub fn insert(
        &mut self,
        start: VirtAddr,
        end: VirtAddr,
        kind: VmaKind,
    ) -> Result<VmaId, OsError> {
        if start >= end {
            return Err(OsError::EmptyRange);
        }
        if !start.is_aligned(PAGE_SIZE) || !end.is_aligned(PAGE_SIZE) {
            return Err(OsError::Misaligned);
        }
        if self.overlaps(start, end) {
            return Err(OsError::Overlap);
        }
        let id = VmaId(self.next_id);
        self.next_id += 1;
        self.by_start.insert(
            start.raw(),
            Vma {
                id,
                start,
                end,
                kind,
            },
        );
        Ok(id)
    }

    fn overlaps(&self, start: VirtAddr, end: VirtAddr) -> bool {
        // A candidate overlaps if the VMA at-or-before `end` ends after
        // `start`.
        self.by_start
            .range(..end.raw())
            .next_back()
            .is_some_and(|(_, vma)| vma.end > start)
    }

    /// The VMA containing `va`, if any.
    #[must_use]
    pub fn find(&self, va: VirtAddr) -> Option<&Vma> {
        self.by_start
            .range(..=va.raw())
            .next_back()
            .map(|(_, vma)| vma)
            .filter(|vma| vma.contains(va))
    }

    /// The VMA with the given id.
    #[must_use]
    pub fn get(&self, id: VmaId) -> Option<&Vma> {
        self.iter().find(|vma| vma.id() == id)
    }

    /// Removes the VMA containing `va`, returning it.
    pub fn remove(&mut self, va: VirtAddr) -> Option<Vma> {
        let start = self.find(va)?.start.raw();
        self.by_start.remove(&start)
    }

    /// Grows the VMA with id `id` to `new_end` (heap growth via `brk`,
    /// §3.7.2: segments grow "in a pre-determined direction").
    ///
    /// # Errors
    ///
    /// [`OsError::UnknownVma`] if `id` is absent; [`OsError::Overlap`] if
    /// growth would collide with the next VMA; [`OsError::Misaligned`] /
    /// [`OsError::EmptyRange`] for bad bounds.
    pub fn grow(&mut self, id: VmaId, new_end: VirtAddr) -> Result<(), OsError> {
        if !new_end.is_aligned(PAGE_SIZE) {
            return Err(OsError::Misaligned);
        }
        let start = self
            .iter()
            .find(|vma| vma.id() == id)
            .map(|vma| vma.start.raw())
            .ok_or(OsError::UnknownVma)?;
        let mut vma = self.by_start[&start];
        if new_end <= vma.end {
            return Err(OsError::EmptyRange);
        }
        // Collision with the next VMA?
        if let Some((_, next)) = self.by_start.range(start + 1..).next() {
            if next.start < new_end {
                return Err(OsError::Overlap);
            }
        }
        vma.end = new_end;
        self.by_start.insert(start, vma);
        Ok(())
    }

    /// Iterates VMAs in address order.
    pub fn iter(&self) -> impl Iterator<Item = &Vma> {
        self.by_start.values()
    }

    /// Number of VMAs (Table 2, "Total VMAs").
    #[must_use]
    pub fn len(&self) -> usize {
        self.by_start.len()
    }

    /// Whether the tree is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.by_start.is_empty()
    }

    /// Total bytes covered by all VMAs.
    #[must_use]
    pub fn footprint(&self) -> ByteSize {
        ByteSize(self.iter().map(Vma::len).sum())
    }

    /// The smallest number of VMAs whose combined size reaches `fraction`
    /// of the footprint (Table 2, "VMAs for 99% footprint coverage").
    #[must_use]
    pub fn vmas_covering(&self, fraction: f64) -> usize {
        let total = self.footprint().bytes();
        if total == 0 {
            return 0;
        }
        let mut sizes: Vec<u64> = self.iter().map(Vma::len).collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        let target = (total as f64 * fraction).ceil() as u64;
        let mut acc = 0u64;
        for (i, s) in sizes.iter().enumerate() {
            acc += s;
            if acc >= target {
                return i + 1;
            }
        }
        sizes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn va(raw: u64) -> VirtAddr {
        VirtAddr::new(raw).unwrap()
    }

    #[test]
    fn insert_find() {
        let mut t = VmaTree::new();
        let id = t.insert(va(0x10000), va(0x20000), VmaKind::Heap).unwrap();
        assert_eq!(t.find(va(0x10000)).unwrap().id(), id);
        assert_eq!(t.find(va(0x1ffff)).unwrap().id(), id);
        assert!(t.find(va(0x20000)).is_none());
        assert!(t.find(va(0xffff)).is_none());
        assert_eq!(t.get(id).unwrap().kind(), VmaKind::Heap);
    }

    #[test]
    fn overlap_rejected() {
        let mut t = VmaTree::new();
        t.insert(va(0x10000), va(0x20000), VmaKind::Heap).unwrap();
        assert_eq!(
            t.insert(va(0x18000), va(0x28000), VmaKind::Mmap),
            Err(OsError::Overlap)
        );
        assert_eq!(
            t.insert(va(0x0), va(0x11000), VmaKind::Mmap),
            Err(OsError::Overlap)
        );
        // Adjacent is fine.
        assert!(t.insert(va(0x20000), va(0x30000), VmaKind::Mmap).is_ok());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn alignment_and_empty_checks() {
        let mut t = VmaTree::new();
        assert_eq!(
            t.insert(va(0x1001), va(0x3000), VmaKind::Heap),
            Err(OsError::Misaligned)
        );
        assert_eq!(
            t.insert(va(0x3000), va(0x3000), VmaKind::Heap),
            Err(OsError::EmptyRange)
        );
    }

    #[test]
    fn grow_heap() {
        let mut t = VmaTree::new();
        let heap = t.insert(va(0x10000), va(0x20000), VmaKind::Heap).unwrap();
        t.insert(va(0x40000), va(0x50000), VmaKind::Mmap).unwrap();
        t.grow(heap, va(0x30000)).unwrap();
        assert_eq!(t.find(va(0x2ffff)).unwrap().id(), heap);
        // Growing into the next VMA fails.
        assert_eq!(t.grow(heap, va(0x48000)), Err(OsError::Overlap));
        // Shrink is not growth.
        assert_eq!(t.grow(heap, va(0x20000)), Err(OsError::EmptyRange));
        assert_eq!(t.grow(VmaId(99), va(0x31000)), Err(OsError::UnknownVma));
    }

    #[test]
    fn coverage_statistic() {
        let mut t = VmaTree::new();
        // One 98-page VMA and two 1-page VMAs.
        t.insert(va(0x100000), va(0x100000 + 98 * 0x1000), VmaKind::Heap)
            .unwrap();
        t.insert(va(0x400000), va(0x401000), VmaKind::Library)
            .unwrap();
        t.insert(va(0x500000), va(0x501000), VmaKind::Stack)
            .unwrap();
        assert_eq!(t.footprint().bytes(), 100 * 0x1000);
        assert_eq!(t.vmas_covering(0.98), 1);
        assert_eq!(t.vmas_covering(0.99), 2);
        assert_eq!(t.vmas_covering(1.0), 3);
        assert_eq!(VmaTree::new().vmas_covering(0.99), 0);
    }

    #[test]
    fn remove_vma() {
        let mut t = VmaTree::new();
        t.insert(va(0x10000), va(0x20000), VmaKind::Mmap).unwrap();
        let removed = t.remove(va(0x15000)).unwrap();
        assert_eq!(removed.start(), va(0x10000));
        assert!(t.is_empty());
        assert!(t.remove(va(0x15000)).is_none());
    }

    #[test]
    fn display_forms() {
        let mut t = VmaTree::new();
        let id = t.insert(va(0x1000), va(0x3000), VmaKind::Stack).unwrap();
        let vma = *t.get(id).unwrap();
        let s = vma.to_string();
        assert!(s.contains("stack") && s.contains("8.0KiB"), "{s}");
    }
}
