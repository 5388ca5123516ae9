//! Split page-walk caches (paging-structure caches).
//!
//! Modern walkers keep small caches of intermediate radix-tree entries,
//! tagged by virtual-address prefix (§2.1). A hit on the PL2 cache hands the
//! walker the PL1 table's frame directly, skipping the PL4/PL3/PL2 node
//! reads; PL3 and PL4 hits skip proportionally less. The walker consults all
//! three in parallel and resumes from the **longest matching prefix**.
//!
//! Crucially, PWCs cache PL4/PL3/PL2 *entries only* — PL1 leaves go to the
//! TLB. This is why the paper targets PL1/PL2 with prefetches: "the fourth
//! and third PT levels are small and efficiently covered by the Page Walk
//! Caches" (§3.1), while PL1 is never PWC-resident and PL2 often misses.

use crate::PwcConfig;
use asap_cache::SetAssoc;
use asap_types::{Asid, PhysFrameNum, PtLevel, VirtAddr};

/// A page-walk-cache hit: the walker may skip straight to reading the node
/// at `next_level`, whose table page is `node`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PwcHit {
    /// The deepest level whose entry was cached (PL2 beats PL3 beats PL4).
    pub hit_level: PtLevel,
    /// The level the walker resumes at (child of `hit_level`).
    pub next_level: PtLevel,
    /// Frame of the table page the walker reads next.
    pub node: PhysFrameNum,
}

/// The split PWC: one structure per cached level.
///
/// # Examples
///
/// ```
/// use asap_tlb::{PageWalkCaches, PwcConfig};
/// use asap_types::{Asid, PhysFrameNum, PtLevel, VirtAddr};
///
/// let mut pwc = PageWalkCaches::new(PwcConfig::split_default());
/// let va = VirtAddr::new(0x7f00_1234_5000).unwrap();
/// assert!(pwc.lookup(Asid(0), va).is_none());
/// // After a walk, the PL2 entry (pointing at the PL1 table) is cached.
/// pwc.fill(Asid(0), va, PtLevel::Pl2, PhysFrameNum::new(0x88));
/// let hit = pwc.lookup(Asid(0), va).unwrap();
/// assert_eq!(hit.hit_level, PtLevel::Pl2);
/// assert_eq!(hit.next_level, PtLevel::Pl1);
/// assert_eq!(hit.node, PhysFrameNum::new(0x88));
/// ```
#[derive(Debug, Clone)]
pub struct PageWalkCaches {
    /// PL2-entry cache, set-associative.
    pl2: SetAssoc<(Asid, u64), PhysFrameNum>,
    pl2_sets: usize,
    /// PL3-entry cache, fully associative.
    pl3: SetAssoc<(Asid, u64), PhysFrameNum>,
    /// PL4-entry cache, fully associative.
    pl4: SetAssoc<(Asid, u64), PhysFrameNum>,
    latency: u64,
    lookups: u64,
    hits_per_level: [u64; 3], // PL2, PL3, PL4
}

impl PageWalkCaches {
    /// Creates empty PWCs with the given geometry.
    #[must_use]
    pub fn new(config: PwcConfig) -> Self {
        let pl2_sets = (config.pl2_entries / config.pl2_ways).max(1);
        assert!(
            pl2_sets.is_power_of_two(),
            "PL2 PWC set count must be a power of two"
        );
        Self {
            pl2: SetAssoc::new(pl2_sets, config.pl2_ways),
            pl2_sets,
            pl3: SetAssoc::new(1, config.pl3_entries),
            pl4: SetAssoc::new(1, config.pl4_entries),
            latency: config.latency,
            lookups: 0,
            hits_per_level: [0; 3],
        }
    }

    /// Tag for a cached entry at `level`: the VA prefix above the entry's
    /// coverage (works for both 4- and 5-level VAs).
    fn tag(level: PtLevel, va: VirtAddr) -> u64 {
        va.raw() >> level.index_shift()
    }

    /// Looks up all levels in parallel, returning the deepest hit.
    pub fn lookup(&mut self, asid: Asid, va: VirtAddr) -> Option<PwcHit> {
        self.lookups += 1;
        let pl2_tag = Self::tag(PtLevel::Pl2, va);
        let set = (pl2_tag as usize) & (self.pl2_sets - 1);
        if let Some(&node) = self.pl2.lookup(set, &(asid, pl2_tag)) {
            self.hits_per_level[0] += 1;
            return Some(PwcHit {
                hit_level: PtLevel::Pl2,
                next_level: PtLevel::Pl1,
                node,
            });
        }
        if let Some(&node) = self.pl3.lookup(0, &(asid, Self::tag(PtLevel::Pl3, va))) {
            self.hits_per_level[1] += 1;
            return Some(PwcHit {
                hit_level: PtLevel::Pl3,
                next_level: PtLevel::Pl2,
                node,
            });
        }
        if let Some(&node) = self.pl4.lookup(0, &(asid, Self::tag(PtLevel::Pl4, va))) {
            self.hits_per_level[2] += 1;
            return Some(PwcHit {
                hit_level: PtLevel::Pl4,
                next_level: PtLevel::Pl3,
                node,
            });
        }
        None
    }

    /// Installs the entry observed at `level` during a walk: `node` is the
    /// child table frame the entry points to. Only PL2/PL3/PL4 entries are
    /// cacheable; other levels are ignored (PL1 belongs to the TLB, PL5 is
    /// not cached by this three-level split design).
    pub fn fill(&mut self, asid: Asid, va: VirtAddr, level: PtLevel, node: PhysFrameNum) {
        match level {
            PtLevel::Pl2 => {
                let tag = Self::tag(PtLevel::Pl2, va);
                let set = (tag as usize) & (self.pl2_sets - 1);
                self.pl2.insert(set, (asid, tag), node);
            }
            PtLevel::Pl3 => {
                self.pl3
                    .insert(0, (asid, Self::tag(PtLevel::Pl3, va)), node);
            }
            PtLevel::Pl4 => {
                self.pl4
                    .insert(0, (asid, Self::tag(PtLevel::Pl4, va)), node);
            }
            PtLevel::Pl1 | PtLevel::Pl5 => {}
        }
    }

    /// PWC access latency in cycles.
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Total lookups performed.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Hits that resolved at the given level's cache.
    #[must_use]
    pub fn hits_at(&self, level: PtLevel) -> u64 {
        match level {
            PtLevel::Pl2 => self.hits_per_level[0],
            PtLevel::Pl3 => self.hits_per_level[1],
            PtLevel::Pl4 => self.hits_per_level[2],
            _ => 0,
        }
    }

    /// Drops all entries for `asid`.
    pub fn flush_asid(&mut self, asid: Asid) {
        self.pl2.retain(|(a, _), _| *a != asid);
        self.pl3.retain(|(a, _), _| *a != asid);
        self.pl4.retain(|(a, _), _| *a != asid);
    }

    /// Drops everything.
    pub fn flush(&mut self) {
        self.pl2.flush();
        self.pl3.flush();
        self.pl4.flush();
    }

    /// Resets counters (post-warmup).
    pub fn reset_stats(&mut self) {
        self.lookups = 0;
        self.hits_per_level = [0; 3];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pwc() -> PageWalkCaches {
        PageWalkCaches::new(PwcConfig::split_default())
    }

    fn va(raw: u64) -> VirtAddr {
        VirtAddr::new(raw).unwrap()
    }

    #[test]
    fn deepest_hit_wins() {
        let mut p = pwc();
        let a = va(0x7f00_1234_5000);
        p.fill(Asid(0), a, PtLevel::Pl4, PhysFrameNum::new(3));
        p.fill(Asid(0), a, PtLevel::Pl3, PhysFrameNum::new(2));
        p.fill(Asid(0), a, PtLevel::Pl2, PhysFrameNum::new(1));
        let hit = p.lookup(Asid(0), a).unwrap();
        assert_eq!(hit.hit_level, PtLevel::Pl2);
        assert_eq!(hit.node, PhysFrameNum::new(1));
    }

    #[test]
    fn pl3_hit_when_pl2_misses() {
        let mut p = pwc();
        let a = va(0x7f00_1234_5000);
        p.fill(Asid(0), a, PtLevel::Pl3, PhysFrameNum::new(2));
        // A different 2MiB region under the same 1GiB region: PL2 tag
        // differs, PL3 tag matches.
        let b = va(0x7f00_1254_5000);
        let hit = p.lookup(Asid(0), b).unwrap();
        assert_eq!(hit.hit_level, PtLevel::Pl3);
        assert_eq!(hit.next_level, PtLevel::Pl2);
    }

    #[test]
    fn pl1_fills_are_ignored() {
        let mut p = pwc();
        let a = va(0x1000);
        p.fill(Asid(0), a, PtLevel::Pl1, PhysFrameNum::new(9));
        assert!(p.lookup(Asid(0), a).is_none());
    }

    #[test]
    fn pl4_capacity_is_two() {
        let mut p = pwc();
        // Three distinct 512GiB regions: only two PL4 entries survive.
        let regions = [0u64, 1, 2].map(|i| va(i << 39));
        for (i, r) in regions.iter().enumerate() {
            p.fill(Asid(0), *r, PtLevel::Pl4, PhysFrameNum::new(i as u64));
        }
        let hits = regions
            .iter()
            .filter(|r| p.lookup(Asid(0), **r).is_some())
            .count();
        assert_eq!(hits, 2);
    }

    #[test]
    fn asid_tagging_isolates() {
        let mut p = pwc();
        let a = va(0x4000_0000);
        p.fill(Asid(1), a, PtLevel::Pl2, PhysFrameNum::new(7));
        assert!(p.lookup(Asid(2), a).is_none());
        p.flush_asid(Asid(1));
        assert!(p.lookup(Asid(1), a).is_none());
    }

    #[test]
    fn stats_track_hit_levels() {
        let mut p = pwc();
        let a = va(0x4000_0000);
        p.fill(Asid(0), a, PtLevel::Pl2, PhysFrameNum::new(7));
        let _ = p.lookup(Asid(0), a);
        let _ = p.lookup(Asid(0), va(0x5000_0000)); // miss
        assert_eq!(p.lookups(), 2);
        assert_eq!(p.hits_at(PtLevel::Pl2), 1);
        assert_eq!(p.hits_at(PtLevel::Pl3), 0);
        p.reset_stats();
        assert_eq!(p.lookups(), 0);
    }

    #[test]
    fn five_level_prefixes_do_not_alias() {
        let mut p = pwc();
        // Two VAs identical in bits 0..48 but different at bit 50: their
        // PL4/PL3/PL2 tags must differ (tags keep the full upper VA).
        let a = va(0x1234_5000);
        let b = va((1 << 50) | 0x1234_5000);
        p.fill(Asid(0), a, PtLevel::Pl2, PhysFrameNum::new(1));
        assert!(p.lookup(Asid(0), b).is_none());
    }
}
