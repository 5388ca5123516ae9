//! A single TLB structure with multi-page-size support.

use crate::{TlbConfig, TlbStats};
use asap_cache::SetAssoc;
use asap_types::{Asid, PageSize, PhysFrameNum, VirtAddr, VirtPageNum};

/// One cached translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// Base frame of the mapped page (aligned to `size`).
    pub frame: PhysFrameNum,
    /// Page size of the mapping.
    pub size: PageSize,
}

impl TlbEntry {
    /// Creates an entry.
    #[must_use]
    pub fn new(frame: PhysFrameNum, size: PageSize) -> Self {
        Self { frame, size }
    }

    /// The physical address for `va` under this entry.
    #[must_use]
    pub fn phys_addr(&self, va: VirtAddr) -> asap_types::PhysAddr {
        let mask = self.size.bytes() - 1;
        asap_types::PhysAddr::new(self.frame.base_addr().raw() | (va.raw() & mask))
    }
}

/// A set-associative TLB tagged by `(Asid, page-base VPN)`.
///
/// Mappings of every size share the structure; a lookup probes the 4 KiB,
/// 2 MiB and 1 GiB tags in turn (the paper notes this very cost in §2.5:
/// "because the size of the page ... is unknown before a TLB look-up, all
/// of the TLB structures need to be checked").
#[derive(Debug, Clone)]
pub struct Tlb {
    array: SetAssoc<(Asid, u64), TlbEntry>,
    num_sets: usize,
    stats: TlbStats,
}

impl Tlb {
    /// Creates an empty TLB.
    #[must_use]
    pub fn new(config: TlbConfig) -> Self {
        let num_sets = config.num_sets();
        Self {
            array: SetAssoc::new(num_sets, config.ways),
            num_sets,
            stats: TlbStats::default(),
        }
    }

    /// The tag for a page of `size` containing `vpn`: the page-base VPN with
    /// the size encoded in the low bits' alignment.
    fn tag_for(vpn: VirtPageNum, size: PageSize) -> u64 {
        let span = size.base_pages();
        vpn.raw() & !(span - 1)
    }

    /// Set index: large pages are indexed by their size-class page number,
    /// not the raw (alignment-padded) tag — otherwise every 2 MiB page would
    /// land in set 0.
    fn set_for(&self, tag: u64, size: PageSize) -> usize {
        let idx = tag >> (size.shift() - PageSize::Size4K.shift());
        (idx as usize) & (self.num_sets - 1)
    }

    /// Looks up the translation covering `vpn`, probing each page size.
    pub fn lookup(&mut self, asid: Asid, vpn: VirtPageNum) -> Option<TlbEntry> {
        for size in [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G] {
            let tag = Self::tag_for(vpn, size);
            let set = self.set_for(tag, size);
            if let Some(e) = self.array.lookup(set, &(asid, tag)) {
                if e.size == size {
                    let hit = *e;
                    self.stats.hits += 1;
                    return Some(hit);
                }
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Probes without updating recency or stats.
    #[must_use]
    pub fn probe(&self, asid: Asid, vpn: VirtPageNum) -> Option<TlbEntry> {
        for size in [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G] {
            let tag = Self::tag_for(vpn, size);
            let set = self.set_for(tag, size);
            if let Some(e) = self.array.probe(set, &(asid, tag)) {
                if e.size == size {
                    return Some(*e);
                }
            }
        }
        None
    }

    /// Installs a translation for the page containing `vpn`.
    pub fn insert(&mut self, asid: Asid, vpn: VirtPageNum, entry: TlbEntry) {
        let _ = self.insert_with_victim(asid, vpn, entry);
    }

    /// Installs a translation and returns the entry it displaced, if any —
    /// the hook a victim-caching backend (e.g. a Victima-style TLB-block
    /// store) uses to capture evictions. The victim's page-base VPN is
    /// reconstructed from its tag.
    pub fn insert_with_victim(
        &mut self,
        asid: Asid,
        vpn: VirtPageNum,
        entry: TlbEntry,
    ) -> Option<(Asid, VirtPageNum, TlbEntry)> {
        let tag = Self::tag_for(vpn, entry.size);
        let set = self.set_for(tag, entry.size);
        self.stats.fills += 1;
        let evicted = self.array.insert(set, (asid, tag), entry);
        evicted.map(|ev| {
            self.stats.evictions += 1;
            let (victim_asid, victim_tag) = ev.key;
            (victim_asid, VirtPageNum::new(victim_tag), ev.value)
        })
    }

    /// Invalidates the entry covering `vpn` (any page size).
    pub fn invalidate(&mut self, asid: Asid, vpn: VirtPageNum) {
        for size in [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G] {
            let tag = Self::tag_for(vpn, size);
            let set = self.set_for(tag, size);
            self.array.invalidate(set, &(asid, tag));
        }
    }

    /// Drops every entry belonging to `asid` (full per-process shootdown).
    pub fn flush_asid(&mut self, asid: Asid) {
        self.array.retain(|(a, _), _| *a != asid);
    }

    /// Drops everything.
    pub fn flush(&mut self) {
        self.array.flush();
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    /// Resets statistics without touching contents (post-warmup).
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    /// Number of valid entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.array.len()
    }

    /// Whether the TLB holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.array.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb() -> Tlb {
        Tlb::new(TlbConfig::l1_dtlb())
    }

    #[test]
    fn miss_then_hit() {
        let mut t = tlb();
        let vpn = VirtPageNum::new(100);
        assert!(t.lookup(Asid(0), vpn).is_none());
        t.insert(
            Asid(0),
            vpn,
            TlbEntry::new(PhysFrameNum::new(5), PageSize::Size4K),
        );
        assert_eq!(t.lookup(Asid(0), vpn).unwrap().frame, PhysFrameNum::new(5));
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 1);
    }

    #[test]
    fn asids_are_isolated() {
        let mut t = tlb();
        let vpn = VirtPageNum::new(100);
        t.insert(
            Asid(0),
            vpn,
            TlbEntry::new(PhysFrameNum::new(5), PageSize::Size4K),
        );
        assert!(t.lookup(Asid(1), vpn).is_none());
        t.flush_asid(Asid(0));
        assert!(t.lookup(Asid(0), vpn).is_none());
    }

    #[test]
    fn large_page_entry_covers_whole_page() {
        let mut t = tlb();
        // A 2 MiB page at VPN 0x400 (2MiB-aligned).
        let base = VirtPageNum::new(0x400);
        t.insert(
            Asid(0),
            base,
            TlbEntry::new(PhysFrameNum::new(0x200), PageSize::Size2M),
        );
        // Any of the 512 constituent 4 KiB VPNs hits.
        for off in [0u64, 1, 255, 511] {
            let e = t
                .lookup(Asid(0), base.add(off))
                .expect("covered by 2MiB entry");
            assert_eq!(e.size, PageSize::Size2M);
        }
        assert!(t.lookup(Asid(0), base.add(512)).is_none());
    }

    #[test]
    fn phys_addr_through_large_entry() {
        let e = TlbEntry::new(PhysFrameNum::new(0x200), PageSize::Size2M);
        let va = VirtAddr::new((0x400 << 12) + 0x12_3456).unwrap();
        assert_eq!(e.phys_addr(va).raw(), (0x200 << 12) + 0x12_3456);
    }

    #[test]
    fn capacity_eviction() {
        let mut t = tlb(); // 64 entries
        for i in 0..65u64 {
            t.insert(
                Asid(0),
                VirtPageNum::new(i),
                TlbEntry::new(PhysFrameNum::new(i), PageSize::Size4K),
            );
        }
        assert_eq!(t.len(), 64);
        assert_eq!(t.stats().evictions, 1);
    }

    #[test]
    fn invalidate_single_page() {
        let mut t = tlb();
        let vpn = VirtPageNum::new(9);
        t.insert(
            Asid(0),
            vpn,
            TlbEntry::new(PhysFrameNum::new(1), PageSize::Size4K),
        );
        t.invalidate(Asid(0), vpn);
        assert!(t.probe(Asid(0), vpn).is_none());
    }

    #[test]
    fn probe_leaves_stats_alone() {
        let mut t = tlb();
        let vpn = VirtPageNum::new(3);
        t.insert(
            Asid(0),
            vpn,
            TlbEntry::new(PhysFrameNum::new(1), PageSize::Size4K),
        );
        let _ = t.probe(Asid(0), vpn);
        let _ = t.probe(Asid(0), VirtPageNum::new(4));
        assert_eq!(t.stats().hits + t.stats().misses, 0);
    }
}
