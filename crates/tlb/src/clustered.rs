//! Clustered TLB (Pham et al., HPCA 2014), evaluated against ASAP in §5.4.1.
//!
//! A clustered TLB coalesces up to [`CLUSTER_PAGES`] translations into one
//! entry when the virtual cluster maps to a *physical cluster*:
//! `pfn(vpn) = pfn_base + (vpn mod 8)` for each covered sub-page. The walker
//! already fetches the PTE cache line — 8 PTEs, exactly one cluster — so the
//! fill logic can compute the conforming sub-page bitmap for free. The paper
//! reproduces Pham's observation that effectiveness tracks the physical
//! contiguity the allocator happens to produce (Table 7), and shows the
//! technique is complementary to ASAP (Fig. 11): clustering removes *short*
//! walks, ASAP shortens the *long* ones.

use crate::TlbStats;
use asap_cache::SetAssoc;
use asap_types::{Asid, PhysFrameNum, VirtPageNum};

/// Pages per cluster (Pham et al.'s "up to 8 PTEs into 1 TLB entry").
pub const CLUSTER_PAGES: u64 = 8;

/// Geometry of the clustered TLB.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusteredTlbConfig {
    /// Total entries.
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
}

impl ClusteredTlbConfig {
    /// The evaluated configuration: 512 entries, 4-way — giving the same
    /// nominal reach as a 4096-entry conventional TLB when fully clustered.
    #[must_use]
    pub fn default_eval() -> Self {
        Self {
            entries: 512,
            ways: 4,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ClusterEntry {
    /// Frame of sub-page 0, i.e. `pfn(vpn) = base_frame + (vpn & 7)` for
    /// valid sub-pages.
    base_frame: u64,
    /// Bit *i* set = sub-page *i* conforms and is covered.
    valid: u8,
}

/// The clustered TLB structure.
///
/// # Examples
///
/// ```
/// use asap_tlb::{ClusteredTlb, ClusteredTlbConfig, CLUSTER_PAGES};
/// use asap_types::{Asid, PhysFrameNum, VirtPageNum};
///
/// let mut ct = ClusteredTlb::new(ClusteredTlbConfig::default_eval());
/// // A fully contiguous cluster: vpn 8..16 -> pfn 100..108.
/// let pfns: Vec<Option<PhysFrameNum>> =
///     (0..CLUSTER_PAGES).map(|i| Some(PhysFrameNum::new(100 + i))).collect();
/// ct.fill_cluster(Asid(0), VirtPageNum::new(8), &pfns);
/// // One entry now serves all eight pages.
/// assert_eq!(ct.lookup(Asid(0), VirtPageNum::new(13)),
///            Some(PhysFrameNum::new(105)));
/// ```
#[derive(Debug, Clone)]
pub struct ClusteredTlb {
    array: SetAssoc<(Asid, u64), ClusterEntry>,
    num_sets: usize,
    stats: TlbStats,
    coalesced_fills: u64,
}

impl ClusteredTlb {
    /// Creates an empty clustered TLB.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not yield a power-of-two set count.
    #[must_use]
    pub fn new(config: ClusteredTlbConfig) -> Self {
        let num_sets = config.entries / config.ways;
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        Self {
            array: SetAssoc::new(num_sets, config.ways),
            num_sets,
            stats: TlbStats::default(),
            coalesced_fills: 0,
        }
    }

    fn cluster_of(vpn: VirtPageNum) -> u64 {
        vpn.raw() / CLUSTER_PAGES
    }

    fn set_for(&self, cluster: u64) -> usize {
        (cluster as usize) & (self.num_sets - 1)
    }

    /// Looks up the translation for `vpn`.
    pub fn lookup(&mut self, asid: Asid, vpn: VirtPageNum) -> Option<PhysFrameNum> {
        let cluster = Self::cluster_of(vpn);
        let set = self.set_for(cluster);
        let sub = (vpn.raw() % CLUSTER_PAGES) as u8;
        let hit = self
            .array
            .lookup(set, &(asid, cluster))
            .filter(|e| e.valid & (1 << sub) != 0)
            .map(|e| PhysFrameNum::new(e.base_frame + u64::from(sub)));
        if hit.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    /// Fills from a walk of the page containing `vpn`.
    ///
    /// `cluster_pfns` holds the 8 translations of the aligned cluster
    /// containing `vpn` (index = sub-page number), `None` for unmapped
    /// pages — exactly the contents of the PTE cache line the walker just
    /// fetched. Sub-pages conforming to the anchor's cluster pattern are
    /// coalesced into the entry; at minimum the anchor page itself is
    /// covered.
    ///
    /// # Panics
    ///
    /// Panics if `cluster_pfns.len() != 8` or the anchor sub-page is `None`.
    pub fn fill_cluster(
        &mut self,
        asid: Asid,
        vpn: VirtPageNum,
        cluster_pfns: &[Option<PhysFrameNum>],
    ) {
        assert_eq!(
            cluster_pfns.len(),
            CLUSTER_PAGES as usize,
            "cluster fill needs exactly 8 sub-page translations"
        );
        let sub = (vpn.raw() % CLUSTER_PAGES) as usize;
        #[expect(clippy::expect_used, reason = "an unmapped anchor (# Panics)")]
        let anchor_pfn = cluster_pfns[sub].expect("anchor page must be mapped");
        // base such that pfn(sub) = base + sub.
        let Some(base) = anchor_pfn.raw().checked_sub(sub as u64) else {
            // Anchor maps below its own sub-index: the cluster pattern is
            // unrepresentable. The conventional TLB (which always receives
            // the translation too) covers this page; install nothing here.
            return;
        };
        let mut valid = 0u8;
        let mut covered = 0u32;
        for (i, pfn) in cluster_pfns.iter().enumerate() {
            if let Some(p) = pfn {
                if p.raw() == base + i as u64 {
                    valid |= 1 << i;
                    covered += 1;
                }
            }
        }
        debug_assert!(valid & (1 << sub) != 0);
        if covered > 1 {
            self.coalesced_fills += 1;
        }
        self.insert_entry(
            asid,
            Self::cluster_of(vpn),
            ClusterEntry {
                base_frame: base,
                valid,
            },
            sub as u8,
        );
    }

    fn insert_entry(&mut self, asid: Asid, cluster: u64, entry: ClusterEntry, _anchor: u8) {
        let set = self.set_for(cluster);
        self.stats.fills += 1;
        if self.array.insert(set, (asid, cluster), entry).is_some() {
            self.stats.evictions += 1;
        }
    }

    /// Statistics (hits/misses/fills).
    #[must_use]
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    /// Fills that coalesced more than one sub-page.
    #[must_use]
    pub fn coalesced_fills(&self) -> u64 {
        self.coalesced_fills
    }

    /// Resets counters (post-warmup).
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
        self.coalesced_fills = 0;
    }

    /// Drops everything.
    pub fn flush(&mut self) {
        self.array.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ct() -> ClusteredTlb {
        ClusteredTlb::new(ClusteredTlbConfig::default_eval())
    }

    fn contiguous_cluster(base: u64) -> Vec<Option<PhysFrameNum>> {
        (0..CLUSTER_PAGES)
            .map(|i| Some(PhysFrameNum::new(base + i)))
            .collect()
    }

    #[test]
    fn contiguous_cluster_covers_all_eight() {
        let mut t = ct();
        t.fill_cluster(Asid(0), VirtPageNum::new(16), &contiguous_cluster(200));
        for i in 0..CLUSTER_PAGES {
            assert_eq!(
                t.lookup(Asid(0), VirtPageNum::new(16 + i)),
                Some(PhysFrameNum::new(200 + i)),
                "sub-page {i}"
            );
        }
        assert_eq!(t.coalesced_fills(), 1);
    }

    #[test]
    fn scattered_cluster_covers_only_anchor() {
        let mut t = ct();
        // Random PFNs: only the anchor (sub 3) conforms to its own pattern.
        let pfns: Vec<Option<PhysFrameNum>> = [900u64, 17, 5000, 203, 44, 8, 77, 123]
            .iter()
            .map(|&p| Some(PhysFrameNum::new(p)))
            .collect();
        t.fill_cluster(Asid(0), VirtPageNum::new(8 + 3), &pfns);
        assert_eq!(
            t.lookup(Asid(0), VirtPageNum::new(8 + 3)),
            Some(PhysFrameNum::new(203))
        );
        // Neighbour in the same cluster: miss (its PFN does not conform).
        assert_eq!(t.lookup(Asid(0), VirtPageNum::new(8 + 4)), None);
    }

    #[test]
    fn partially_contiguous_cluster() {
        let mut t = ct();
        // Sub-pages 0..4 contiguous from 100; 4..8 from somewhere else.
        let mut pfns = contiguous_cluster(100);
        for (i, p) in pfns.iter_mut().enumerate().skip(4) {
            *p = Some(PhysFrameNum::new(7000 + 2 * i as u64));
        }
        t.fill_cluster(Asid(0), VirtPageNum::new(0), &pfns);
        for i in 0..4u64 {
            assert!(t.lookup(Asid(0), VirtPageNum::new(i)).is_some());
        }
        for i in 4..8u64 {
            assert!(t.lookup(Asid(0), VirtPageNum::new(i)).is_none());
        }
    }

    #[test]
    fn unmapped_neighbours_are_not_covered() {
        let mut t = ct();
        let mut pfns = contiguous_cluster(300);
        pfns[2] = None;
        pfns[7] = None;
        t.fill_cluster(Asid(0), VirtPageNum::new(40), &pfns);
        assert!(t.lookup(Asid(0), VirtPageNum::new(42)).is_none());
        assert!(t.lookup(Asid(0), VirtPageNum::new(47)).is_none());
        assert!(t.lookup(Asid(0), VirtPageNum::new(41)).is_some());
    }

    #[test]
    fn unrepresentable_anchor_installs_nothing() {
        let mut t = ct();
        // Anchor sub 5 maps to PFN 2 (< 5): cluster pattern impossible, so
        // no entry may be installed (a wrong base would corrupt neighbours).
        let mut pfns: Vec<Option<PhysFrameNum>> = vec![None; 8];
        pfns[5] = Some(PhysFrameNum::new(2));
        t.fill_cluster(Asid(0), VirtPageNum::new(5), &pfns);
        assert_eq!(t.lookup(Asid(0), VirtPageNum::new(5)), None);
        assert_eq!(t.stats().fills, 0);
    }

    #[test]
    fn refill_updates_entry() {
        let mut t = ct();
        t.fill_cluster(Asid(0), VirtPageNum::new(0), &contiguous_cluster(100));
        // Remap: a later walk observes different PFNs for the same cluster.
        t.fill_cluster(Asid(0), VirtPageNum::new(0), &contiguous_cluster(500));
        assert_eq!(
            t.lookup(Asid(0), VirtPageNum::new(3)),
            Some(PhysFrameNum::new(503))
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut t = ct();
        let _ = t.lookup(Asid(0), VirtPageNum::new(1)); // miss
        t.fill_cluster(Asid(0), VirtPageNum::new(0), &contiguous_cluster(100));
        let _ = t.lookup(Asid(0), VirtPageNum::new(1)); // hit
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 1);
        assert_eq!(t.stats().fills, 1);
    }
}
