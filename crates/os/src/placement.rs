//! Page-table node placement: scattered baseline vs. ASAP reserved regions.

use crate::{PhysMap, VmaId};
use asap_alloc::{ContiguousReservation, FrameAllocator};
use asap_pt::PtNodeAllocator;
use asap_types::{FastMap, PhysFrameNum, PtLevel, VirtAddr, INDEX_BITS};

/// OS-side ASAP configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AsapOsConfig {
    /// PT levels placed in reserved, sorted regions (the prefetch targets).
    /// The paper evaluates `[PL1]` and `[PL1, PL2]`.
    pub levels: Vec<PtLevel>,
    /// Hardware range registers available (§3.4: "tracking 8–16 VMAs is
    /// enough to cover 99% of the memory footprint").
    pub max_descriptors: usize,
    /// Probability that an asynchronous region extension fails and the new
    /// PT pages become out-of-line "holes" (§3.7.2).
    pub extension_failure_rate: f64,
}

impl AsapOsConfig {
    /// ASAP disabled: everything scattered (the baseline).
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            levels: Vec::new(),
            max_descriptors: 0,
            extension_failure_rate: 0.0,
        }
    }

    /// Reserve and sort PL1 only (the paper's `P1` configuration).
    #[must_use]
    pub fn pl1_only() -> Self {
        Self {
            levels: vec![PtLevel::Pl1],
            max_descriptors: 16,
            extension_failure_rate: 0.0,
        }
    }

    /// Reserve and sort PL1 and PL2 (the paper's `P1 + P2` configuration).
    #[must_use]
    pub fn pl1_and_pl2() -> Self {
        Self {
            levels: vec![PtLevel::Pl1, PtLevel::Pl2],
            max_descriptors: 16,
            extension_failure_rate: 0.0,
        }
    }

    /// Whether any level is reserved.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        !self.levels.is_empty()
    }

    /// Whether `level` is a reserved (prefetchable) level.
    #[must_use]
    pub fn covers(&self, level: PtLevel) -> bool {
        self.levels.contains(&level)
    }
}

/// Which placement policy a process uses for its page-table nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PtPlacement {
    /// Buddy-like scattering for every node (the baseline).
    Scattered,
    /// ASAP: reserved contiguous sorted regions for the configured levels,
    /// scattering for the rest (PL3/PL4 nodes, holes).
    AsapReserved,
}

/// The i-th table page at `level` covering `va` within a VMA starting at
/// `vma_start` — the sorted-region index of the paper's base-plus-offset
/// arithmetic.
#[must_use]
pub fn node_index(vma_start: VirtAddr, level: PtLevel, va: VirtAddr) -> u64 {
    let shift = level.index_shift() + INDEX_BITS; // one table page's coverage
    (va.raw() >> shift) - (vma_start.raw() >> shift)
}

/// Number of table pages at `level` needed to cover `[start, end)`.
#[must_use]
pub fn nodes_needed(start: VirtAddr, end: VirtAddr, level: PtLevel) -> u64 {
    if start >= end {
        return 0;
    }
    let shift = level.index_shift() + INDEX_BITS;
    ((end.raw() - 1) >> shift) - (start.raw() >> shift) + 1
}

/// All contiguous reservations of one process, with the bump allocator that
/// carves them out of the process' reservation window.
#[derive(Debug, Clone)]
pub struct ReservationSet {
    map: FastMap<(VmaId, PtLevel), ContiguousReservation>,
    /// Physical frames set aside for each region (in-place growth headroom).
    capacity: FastMap<(VmaId, PtLevel), u64>,
    /// Indices at or beyond this value are holes (failed extension), per
    /// region.
    failed_beyond: FastMap<(VmaId, PtLevel), u64>,
    next_frame: u64,
    limit: u64,
    holes_punched: u64,
}

impl ReservationSet {
    /// Creates an empty set drawing from the map's reservation window.
    #[must_use]
    pub fn new(phys: PhysMap) -> Self {
        let base = phys.reservation_base().raw();
        Self {
            map: FastMap::default(),
            capacity: FastMap::default(),
            failed_beyond: FastMap::default(),
            next_frame: base,
            limit: base + PhysMap::RESERVATION_WINDOW_FRAMES,
            holes_punched: 0,
        }
    }

    /// Reserves the region for (`vma`, `level`) covering `[start, end)`.
    ///
    /// Reserving twice for the same key is a no-op (idempotent setup).
    ///
    /// # Panics
    ///
    /// Panics if the reservation window is exhausted (a configuration bug:
    /// the window fits the PT of multi-terabyte datasets).
    pub fn reserve(&mut self, vma: VmaId, level: PtLevel, start: VirtAddr, end: VirtAddr) {
        if self.map.contains_key(&(vma, level)) {
            return;
        }
        let len = nodes_needed(start, end, level);
        // Reserve with headroom so moderate VMA growth can stay in line —
        // the OS "reserves ... ahead of the eventual demand allocation"
        // (§3.3). Growth beyond the headroom behaves like a failed
        // extension (§3.7.2).
        let cap = (len.next_power_of_two() * 2).max(16);
        assert!(
            self.next_frame + cap <= self.limit,
            "reservation window exhausted"
        );
        let base = PhysFrameNum::new(self.next_frame);
        self.next_frame += cap;
        self.capacity.insert((vma, level), cap);
        self.map
            .insert((vma, level), ContiguousReservation::new(base, len));
    }

    /// The reservation for (`vma`, `level`).
    #[must_use]
    pub fn get(&self, vma: VmaId, level: PtLevel) -> Option<&ContiguousReservation> {
        self.map.get(&(vma, level))
    }

    /// Region base — the value the OS writes into the VMA descriptor.
    #[must_use]
    pub fn base(&self, vma: VmaId, level: PtLevel) -> Option<PhysFrameNum> {
        self.map.get(&(vma, level)).map(ContiguousReservation::base)
    }

    /// Handles a VMA extension: on success the regions simply grow; on
    /// failure new indices become holes (§3.7.2).
    pub fn extend(
        &mut self,
        vma: VmaId,
        level: PtLevel,
        new_start: VirtAddr,
        new_end: VirtAddr,
        success: bool,
    ) {
        let Some(res) = self.map.get_mut(&(vma, level)) else {
            return;
        };
        let new_len = nodes_needed(new_start, new_end, level);
        if new_len <= res.len() {
            return;
        }
        let cap = self.capacity.get(&(vma, level)).copied().unwrap_or(0);
        if success && new_len <= cap {
            res.extend(new_len);
        } else {
            // Adjacent physical memory is unavailable (pinned pages, or the
            // headroom ran out): new node indices go out of line (§3.7.2).
            let old = res.len();
            self.failed_beyond.entry((vma, level)).or_insert(old);
        }
    }

    /// Resolves the frame for node `index` of (`vma`, `level`), allocating
    /// a hole frame from `fallback` when the index lies beyond a failed
    /// extension. Returns `None` when no reservation exists for the key.
    pub fn place(
        &mut self,
        vma: VmaId,
        level: PtLevel,
        index: u64,
        fallback: &mut dyn FrameAllocator,
    ) -> Option<PhysFrameNum> {
        let failed_at = self.failed_beyond.get(&(vma, level)).copied();
        let res = self.map.get_mut(&(vma, level))?;
        if let Some(limit) = failed_at {
            if index >= limit {
                if let Some(f) = res.frame_for_index(index) {
                    // Hole already materialized.
                    if !res.is_prefetchable(index) {
                        return Some(f);
                    }
                }
                #[expect(clippy::expect_used, reason = "fallback outsizes any PT")]
                let frame = fallback
                    .alloc_frame()
                    .expect("fallback allocator exhausted");
                res.punch_hole(index, frame);
                self.holes_punched += 1;
                return Some(frame);
            }
        }
        res.frame_for_index(index)
    }

    /// Total holes punched (diagnostic).
    #[must_use]
    pub fn holes_punched(&self) -> u64 {
        self.holes_punched
    }
}

/// The per-fault `PtNodeAllocator`: consults the reservations for ASAP
/// levels inside a known VMA, falls back to buddy-like scattering otherwise
/// (PL3/PL4 nodes, non-ASAP processes, addresses outside any reserved VMA).
pub struct NodePlacer<'a> {
    /// The VMA the faulting address belongs to, if any.
    pub vma: Option<(VmaId, VirtAddr)>,
    /// The process' reservations.
    pub reservations: &'a mut ReservationSet,
    /// Scattered fallback (the baseline path).
    pub scatter: &'a mut dyn FrameAllocator,
    /// Levels with reserved regions.
    pub asap_levels: &'a [PtLevel],
}

impl PtNodeAllocator for NodePlacer<'_> {
    fn alloc_node(&mut self, level: PtLevel, va: VirtAddr) -> PhysFrameNum {
        if let Some((vma_id, vma_start)) = self.vma {
            if self.asap_levels.contains(&level) {
                let index = node_index(vma_start, level, va);
                if let Some(frame) = self.reservations.place(vma_id, level, index, self.scatter) {
                    return frame;
                }
            }
        }
        #[expect(clippy::expect_used, reason = "PT window outsizes any PT")]
        self.scatter
            .alloc_frame()
            .expect("PT scatter window exhausted")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_alloc::{ScatterAllocator, ScatterConfig};

    fn va(raw: u64) -> VirtAddr {
        VirtAddr::new(raw).unwrap()
    }

    #[test]
    fn node_index_arithmetic() {
        let start = va(0x5600_0000_0000);
        // PL1: one table page covers 2 MiB.
        assert_eq!(node_index(start, PtLevel::Pl1, start), 0);
        assert_eq!(
            node_index(start, PtLevel::Pl1, va(start.raw() + (2 << 20))),
            1
        );
        assert_eq!(
            node_index(start, PtLevel::Pl1, va(start.raw() + (2 << 20) - 1)),
            0
        );
        // PL2: one table page covers 1 GiB.
        assert_eq!(
            node_index(start, PtLevel::Pl2, va(start.raw() + (1 << 30))),
            1
        );
        // Unaligned VMA start still indexes correctly (floor semantics).
        let odd = va(0x5600_0010_0000); // 1 MiB into a 2 MiB region
        assert_eq!(node_index(odd, PtLevel::Pl1, odd), 0);
        assert_eq!(node_index(odd, PtLevel::Pl1, va(odd.raw() + (1 << 20))), 1);
    }

    #[test]
    fn nodes_needed_counts_straddling() {
        let start = va(0x5600_0010_0000); // mid-2MiB
        let end = va(0x5600_0030_0000); // 2 MiB later, also mid-region
                                        // Straddles two PL1 table pages.
        assert_eq!(nodes_needed(start, end, PtLevel::Pl1), 2);
        assert_eq!(nodes_needed(start, start, PtLevel::Pl1), 0);
        // A 4 GiB aligned VMA needs 2048 PL1 pages and 4 PL2 pages.
        let s = va(0x7000_0000_0000);
        let e = va(0x7000_0000_0000 + (4u64 << 30));
        assert_eq!(nodes_needed(s, e, PtLevel::Pl1), 2048);
        assert_eq!(nodes_needed(s, e, PtLevel::Pl2), 4);
    }

    fn scatter() -> ScatterAllocator {
        ScatterAllocator::new(ScatterConfig {
            mean_run_len: 1.0,
            phys_frames: 1 << 16,
            seed: 0,
        })
    }

    #[test]
    fn reservation_roundtrip_and_sortedness() {
        let mut set = ReservationSet::new(PhysMap::new(asap_types::Asid(1)));
        let vma = VmaId(0);
        let (s, e) = (va(0x5600_0000_0000), va(0x5600_4000_0000)); // 1 GiB
        set.reserve(vma, PtLevel::Pl1, s, e);
        let mut fallback = scatter();
        // Node frames are base + index: physically sorted by VA.
        let f0 = set.place(vma, PtLevel::Pl1, 0, &mut fallback).unwrap();
        let f7 = set.place(vma, PtLevel::Pl1, 7, &mut fallback).unwrap();
        assert_eq!(f7.raw(), f0.raw() + 7);
        assert_eq!(set.base(vma, PtLevel::Pl1).unwrap(), f0);
        // Unreserved key yields None.
        assert!(set.place(vma, PtLevel::Pl2, 0, &mut fallback).is_none());
    }

    #[test]
    fn reserve_is_idempotent() {
        let mut set = ReservationSet::new(PhysMap::new(asap_types::Asid(1)));
        let vma = VmaId(3);
        let (s, e) = (va(0x1000_0000), va(0x2000_0000));
        set.reserve(vma, PtLevel::Pl1, s, e);
        let base = set.base(vma, PtLevel::Pl1).unwrap();
        set.reserve(vma, PtLevel::Pl1, s, e);
        assert_eq!(set.base(vma, PtLevel::Pl1).unwrap(), base);
    }

    #[test]
    fn successful_extension_stays_in_line() {
        let mut set = ReservationSet::new(PhysMap::new(asap_types::Asid(1)));
        let vma = VmaId(0);
        let s = va(0x5600_0000_0000);
        set.reserve(vma, PtLevel::Pl1, s, va(s.raw() + (4 << 20))); // 2 nodes
        set.extend(vma, PtLevel::Pl1, s, va(s.raw() + (8 << 20)), true); // 4 nodes
        let mut fallback = scatter();
        let f0 = set.place(vma, PtLevel::Pl1, 0, &mut fallback).unwrap();
        let f3 = set.place(vma, PtLevel::Pl1, 3, &mut fallback).unwrap();
        assert_eq!(f3.raw(), f0.raw() + 3);
        assert_eq!(set.holes_punched(), 0);
    }

    #[test]
    fn failed_extension_creates_holes() {
        let mut set = ReservationSet::new(PhysMap::new(asap_types::Asid(1)));
        let vma = VmaId(0);
        let s = va(0x5600_0000_0000);
        set.reserve(vma, PtLevel::Pl1, s, va(s.raw() + (4 << 20))); // 2 nodes
        set.extend(vma, PtLevel::Pl1, s, va(s.raw() + (8 << 20)), false);
        let mut fallback = scatter();
        let f0 = set.place(vma, PtLevel::Pl1, 0, &mut fallback).unwrap();
        let f2 = set.place(vma, PtLevel::Pl1, 2, &mut fallback).unwrap();
        // Index 2 is a hole: out of line.
        assert_ne!(f2.raw(), f0.raw() + 2);
        assert_eq!(set.holes_punched(), 1);
        // The hole is stable across repeated placement.
        assert_eq!(set.place(vma, PtLevel::Pl1, 2, &mut fallback).unwrap(), f2);
        assert_eq!(set.holes_punched(), 1);
        // In-line indices before the failure point still work.
        assert!(set.get(vma, PtLevel::Pl1).unwrap().is_prefetchable(1));
        assert!(!set.get(vma, PtLevel::Pl1).unwrap().is_prefetchable(2));
    }

    #[test]
    fn node_placer_uses_reservations_for_asap_levels() {
        let mut set = ReservationSet::new(PhysMap::new(asap_types::Asid(1)));
        let vma = VmaId(0);
        let (s, e) = (va(0x5600_0000_0000), va(0x5600_4000_0000));
        set.reserve(vma, PtLevel::Pl1, s, e);
        set.reserve(vma, PtLevel::Pl2, s, e);
        let res_base = set.base(vma, PtLevel::Pl1).unwrap();
        let mut sc = scatter();
        let levels = [PtLevel::Pl1, PtLevel::Pl2];
        let mut placer = NodePlacer {
            vma: Some((vma, s)),
            reservations: &mut set,
            scatter: &mut sc,
            asap_levels: &levels,
        };
        // PL1 node for the VMA start: in-line at the reservation base.
        assert_eq!(placer.alloc_node(PtLevel::Pl1, s), res_base);
        // PL3 is not an ASAP level: scattered.
        let f = placer.alloc_node(PtLevel::Pl3, s);
        assert!(f.raw() < (1 << 16), "scatter window frame expected");
        // Outside any VMA: scattered too.
        let mut placer2 = NodePlacer {
            vma: None,
            reservations: &mut set,
            scatter: &mut sc,
            asap_levels: &levels,
        };
        let f2 = placer2.alloc_node(PtLevel::Pl1, va(0x9999_0000));
        assert!(f2.raw() < (1 << 16));
    }

    #[test]
    fn config_presets() {
        assert!(!AsapOsConfig::disabled().is_enabled());
        assert!(AsapOsConfig::pl1_only().covers(PtLevel::Pl1));
        assert!(!AsapOsConfig::pl1_only().covers(PtLevel::Pl2));
        assert!(AsapOsConfig::pl1_and_pl2().covers(PtLevel::Pl2));
    }
}
