//! The two-level TLB hierarchy (L1 D-TLB backed by the L2 S-TLB).

use crate::{Tlb, TlbConfig, TlbEntry, TlbStats};
use asap_types::{Asid, VirtPageNum};

/// Which TLB level served a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbLevel {
    /// Hit in the L1 D-TLB.
    L1,
    /// Hit in the L2 S-TLB (entry promoted to L1).
    L2,
}

/// Result of a hierarchy lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbLookup {
    /// The translation was cached.
    Hit {
        /// The cached translation.
        entry: TlbEntry,
        /// The level that provided it.
        level: TlbLevel,
    },
    /// Both levels missed: a page walk is required. This is the event that
    /// triggers both the hardware walker and the ASAP prefetcher (Fig. 6).
    Miss,
}

impl TlbLookup {
    /// The entry if this is a hit.
    #[must_use]
    pub fn entry(&self) -> Option<TlbEntry> {
        match self {
            TlbLookup::Hit { entry, .. } => Some(*entry),
            TlbLookup::Miss => None,
        }
    }

    /// Whether this is a miss.
    #[must_use]
    pub fn is_miss(&self) -> bool {
        matches!(self, TlbLookup::Miss)
    }
}

/// L1 + L2 TLBs with inclusive fill and L2-to-L1 promotion.
///
/// # Examples
///
/// ```
/// use asap_tlb::{TlbEntry, TlbHierarchy, TlbLevel, TlbLookup};
/// use asap_types::{Asid, PageSize, PhysFrameNum, VirtPageNum};
///
/// let mut tlbs = TlbHierarchy::with_table5_defaults();
/// let (asid, vpn) = (Asid(0), VirtPageNum::new(42));
/// assert!(tlbs.lookup(asid, vpn).is_miss());
/// tlbs.fill(asid, vpn, TlbEntry::new(PhysFrameNum::new(7), PageSize::Size4K));
/// match tlbs.lookup(asid, vpn) {
///     TlbLookup::Hit { level: TlbLevel::L1, .. } => {}
///     other => panic!("expected L1 hit, got {other:?}"),
/// }
/// ```
#[derive(Debug, Clone)]
pub struct TlbHierarchy {
    l1: Tlb,
    l2: Tlb,
}

impl TlbHierarchy {
    /// Builds the hierarchy from explicit configs.
    #[must_use]
    pub fn new(l1: TlbConfig, l2: TlbConfig) -> Self {
        Self {
            l1: Tlb::new(l1),
            l2: Tlb::new(l2),
        }
    }

    /// The paper's Table 5 configuration: 64-entry/8-way L1, 1536-entry/
    /// 6-way L2.
    #[must_use]
    pub fn with_table5_defaults() -> Self {
        Self::new(TlbConfig::l1_dtlb(), TlbConfig::l2_stlb())
    }

    /// Looks up `vpn`, promoting L2 hits into L1.
    pub fn lookup(&mut self, asid: Asid, vpn: VirtPageNum) -> TlbLookup {
        if let Some(entry) = self.l1.lookup(asid, vpn) {
            return TlbLookup::Hit {
                entry,
                level: TlbLevel::L1,
            };
        }
        if let Some(entry) = self.l2.lookup(asid, vpn) {
            self.l1.insert(asid, vpn, entry);
            return TlbLookup::Hit {
                entry,
                level: TlbLevel::L2,
            };
        }
        TlbLookup::Miss
    }

    /// Installs a walked translation into both levels.
    pub fn fill(&mut self, asid: Asid, vpn: VirtPageNum, entry: TlbEntry) {
        self.l1.insert(asid, vpn, entry);
        self.l2.insert(asid, vpn, entry);
    }

    /// Installs a walked translation into both levels, returning the entry
    /// the L2 S-TLB displaced (if any) — the capture point for backends
    /// that give evicted translations a second life (Victima-style
    /// TLB blocks in the data cache).
    pub fn fill_with_victim(
        &mut self,
        asid: Asid,
        vpn: VirtPageNum,
        entry: TlbEntry,
    ) -> Option<(Asid, VirtPageNum, TlbEntry)> {
        self.l1.insert(asid, vpn, entry);
        self.l2.insert_with_victim(asid, vpn, entry)
    }

    /// Invalidates one page everywhere.
    pub fn invalidate(&mut self, asid: Asid, vpn: VirtPageNum) {
        self.l1.invalidate(asid, vpn);
        self.l2.invalidate(asid, vpn);
    }

    /// Per-ASID shootdown.
    pub fn flush_asid(&mut self, asid: Asid) {
        self.l1.flush_asid(asid);
        self.l2.flush_asid(asid);
    }

    /// Full flush.
    pub fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
    }

    /// L1 statistics.
    #[must_use]
    pub fn l1_stats(&self) -> &TlbStats {
        self.l1.stats()
    }

    /// L2 statistics. The paper's "L2 TLB miss ratio" (§4) and the MPKI of
    /// Table 7 are computed from these.
    #[must_use]
    pub fn l2_stats(&self) -> &TlbStats {
        self.l2.stats()
    }

    /// Resets both levels' statistics (post-warmup).
    pub fn reset_stats(&mut self) {
        self.l1.reset_stats();
        self.l2.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_types::{PageSize, PhysFrameNum};

    fn entry(n: u64) -> TlbEntry {
        TlbEntry::new(PhysFrameNum::new(n), PageSize::Size4K)
    }

    #[test]
    fn l2_hit_promotes_to_l1() {
        let mut h = TlbHierarchy::with_table5_defaults();
        let (asid, vpn) = (Asid(0), VirtPageNum::new(7));
        h.fill(asid, vpn, entry(1));
        // Evict from L1 only: flood its set with conflicting 4K pages.
        // L1 has 8 sets; VPNs congruent mod 8 conflict.
        for i in 1..=8u64 {
            h.l1.insert(asid, VirtPageNum::new(7 + i * 8), entry(100 + i));
        }
        assert!(h.l1.probe(asid, vpn).is_none(), "evicted from L1");
        match h.lookup(asid, vpn) {
            TlbLookup::Hit {
                level: TlbLevel::L2,
                ..
            } => {}
            other => panic!("expected L2 hit, got {other:?}"),
        }
        // Promotion: next lookup is an L1 hit.
        match h.lookup(asid, vpn) {
            TlbLookup::Hit {
                level: TlbLevel::L1,
                ..
            } => {}
            other => panic!("expected L1 hit after promotion, got {other:?}"),
        }
    }

    #[test]
    fn miss_counts_both_levels() {
        let mut h = TlbHierarchy::with_table5_defaults();
        assert!(h.lookup(Asid(0), VirtPageNum::new(1)).is_miss());
        assert_eq!(h.l1_stats().misses, 1);
        assert_eq!(h.l2_stats().misses, 1);
    }

    #[test]
    fn invalidate_hits_both_levels() {
        let mut h = TlbHierarchy::with_table5_defaults();
        let (asid, vpn) = (Asid(3), VirtPageNum::new(55));
        h.fill(asid, vpn, entry(9));
        h.invalidate(asid, vpn);
        assert!(h.lookup(asid, vpn).is_miss());
    }

    #[test]
    fn flush_asid_leaves_others() {
        let mut h = TlbHierarchy::with_table5_defaults();
        h.fill(Asid(1), VirtPageNum::new(1), entry(1));
        h.fill(Asid(2), VirtPageNum::new(2), entry(2));
        h.flush_asid(Asid(1));
        assert!(h.lookup(Asid(1), VirtPageNum::new(1)).is_miss());
        assert!(!h.lookup(Asid(2), VirtPageNum::new(2)).is_miss());
    }

    #[test]
    fn lookup_entry_accessor() {
        let mut h = TlbHierarchy::with_table5_defaults();
        assert_eq!(h.lookup(Asid(0), VirtPageNum::new(9)).entry(), None);
        h.fill(Asid(0), VirtPageNum::new(9), entry(4));
        assert_eq!(
            h.lookup(Asid(0), VirtPageNum::new(9)).entry(),
            Some(entry(4))
        );
    }
}
