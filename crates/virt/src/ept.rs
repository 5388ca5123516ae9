//! The host-dimension (nested/extended) page table.

use crate::HostPtMap;
use asap_alloc::{FrameAllocator, ScatterAllocator, ScatterConfig};
use asap_pt::{
    FixedWalk, FlatMirror, PtCensus, PtError, PtNodeAllocator, PteFlags, WalkSource, WalkTrace,
};
use asap_types::{PageSize, PagingMode, PhysAddr, PhysFrameNum, PtLevel, VirtAddr, INDEX_BITS};

/// Configuration of the host dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct EptConfig {
    /// Host-PT levels placed in reserved, sorted regions (the host half of
    /// ASAP: `P1h`, `P2h`). Empty = baseline scattered host PT.
    pub host_levels: Vec<PtLevel>,
    /// Host page size backing guest memory: 4 KiB for the main evaluation,
    /// 2 MiB for the Fig. 12 configuration (walks shorten by one level).
    pub host_page_size: PageSize,
    /// Mean run length of scattered host-PT pages (the paper models the
    /// baseline host PT "by randomly scattering the PT pages", §4).
    pub scatter_run: f64,
    /// Deterministic seed.
    pub seed: u64,
}

impl Default for EptConfig {
    /// Baseline: no host ASAP, 4 KiB host pages, near-random scatter.
    fn default() -> Self {
        Self {
            host_levels: Vec::new(),
            host_page_size: PageSize::Size4K,
            scatter_run: 2.0,
            seed: 0,
        }
    }
}

impl EptConfig {
    /// Host ASAP on PL1 only (`P1h`).
    #[must_use]
    pub fn host_pl1(mut self) -> Self {
        self.host_levels = vec![PtLevel::Pl1];
        self
    }

    /// Host ASAP on PL1 and PL2 (`P1h + P2h`).
    #[must_use]
    pub fn host_pl1_and_pl2(mut self) -> Self {
        self.host_levels = vec![PtLevel::Pl1, PtLevel::Pl2];
        self
    }

    /// 2 MiB host pages with host ASAP on PL2 only — the Fig. 12 setup
    /// ("prefetching from both PL1 and PL2 in the guest and PL2-only in the
    /// host"; with 2 MiB host pages the host PT has no PL1 level).
    #[must_use]
    pub fn host_2m_pages(mut self) -> Self {
        self.host_page_size = PageSize::Size2M;
        self.host_levels = vec![PtLevel::Pl2];
        self
    }

    /// Overrides the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The nested page table: guest-physical → host-physical.
///
/// Guest-physical addresses are treated as the "virtual addresses" of the
/// host dimension (the guest VM is a single host VMA starting at zero,
/// §3.6). Data frames are backed **identity**: host frame = guest frame.
/// This models the §3.6 vmcall guarantee that guest-side ASAP regions are
/// contiguous *in host physical memory as well* — and is innocuous for
/// everything else, since data-page placement only affects cache-set
/// indexing (see DESIGN.md).
#[derive(Debug)]
pub struct Ept {
    /// The nested table: fault-ins map into it, host walks and the census
    /// read it.
    flat: FlatMirror,
    scatter: ScatterAllocator,
    config: EptConfig,
    faults: u64,
}

impl Ept {
    /// Creates an empty nested table.
    #[must_use]
    pub fn new(config: EptConfig) -> Self {
        let mut scatter = ScatterAllocator::new(ScatterConfig {
            mean_run_len: config.scatter_run,
            phys_frames: HostPtMap::SCATTER_WINDOW_FRAMES,
            seed: config.seed ^ 0xE97,
        });
        let mut placer = HostNodePlacer {
            levels: &config.host_levels,
            scatter: &mut scatter,
        };
        let flat = FlatMirror::new(PagingMode::FourLevel, &mut placer);
        Self {
            flat,
            scatter,
            config,
            faults: 0,
        }
    }

    /// Reinterprets a guest-physical address as a host-dimension VA.
    ///
    /// # Panics
    ///
    /// Panics if the gPA exceeds the 4-level span (the compact guest map
    /// guarantees it never does).
    #[must_use]
    pub fn gpa_as_va(gpa: PhysAddr) -> VirtAddr {
        #[expect(clippy::expect_used, reason = "gPAs fit 4 levels (# Panics)")]
        let va = VirtAddr::new(gpa.raw()).expect("gPA exceeds canonical VA");
        assert!(
            PagingMode::FourLevel.contains(va),
            "gPA {gpa} exceeds the 4-level nested table span"
        );
        va
    }

    /// Ensures the guest-physical page containing `gpa` is backed,
    /// faulting in an identity mapping at the configured host page size.
    ///
    /// # Errors
    ///
    /// Returns the [`PtError`] of a fault-in the nested table rejects.
    pub fn ensure_mapped(&mut self, gpa: PhysAddr) -> Result<(), PtError> {
        let va = Self::gpa_as_va(gpa);
        if self.flat.is_mapped(va) {
            return Ok(());
        }
        let size = self.config.host_page_size;
        let va_base = VirtAddr::new_unchecked(va.raw() & !(size.bytes() - 1));
        let frame = PhysFrameNum::new(va_base.raw() >> 12);
        let mut placer = HostNodePlacer {
            levels: &self.config.host_levels,
            scatter: &mut self.scatter,
        };
        self.flat
            .map(&mut placer, va_base, frame, size, PteFlags::user_data())?;
        self.faults += 1;
        Ok(())
    }

    /// Translates a guest-physical address to host-physical.
    #[must_use]
    pub fn translate(&self, gpa: PhysAddr) -> Option<PhysAddr> {
        let va = Self::gpa_as_va(gpa);
        self.flat.translate(va).map(|t| t.phys_addr(va))
    }

    /// Walks the host table for `gpa`, returning the node trace (one 1D
    /// walk of the 2D sequence).
    #[must_use]
    pub fn walk(&self, gpa: PhysAddr) -> WalkTrace {
        self.walk_fixed(gpa).to_trace()
    }

    /// [`Ept::walk`] without the heap allocation (the hot-path form).
    #[must_use]
    pub fn walk_fixed(&self, gpa: PhysAddr) -> FixedWalk {
        self.flat.walk_fixed(Self::gpa_as_va(gpa))
    }

    /// The nested table.
    #[must_use]
    pub fn flat_mirror(&self) -> &FlatMirror {
        &self.flat
    }

    /// Base host-physical address of the reserved host region for `level`,
    /// when host ASAP covers it — the host dimension's range-register
    /// payload (a single descriptor covers the whole guest, §3.6).
    #[must_use]
    pub fn host_region_base(&self, level: PtLevel) -> Option<PhysAddr> {
        if !self.config.host_levels.contains(&level) {
            return None;
        }
        match level {
            PtLevel::Pl1 => Some(HostPtMap::res_pl1_base().base_addr()),
            PtLevel::Pl2 => Some(HostPtMap::res_pl2_base().base_addr()),
            _ => None,
        }
    }

    /// The configured host page size.
    #[must_use]
    pub fn host_page_size(&self) -> PageSize {
        self.config.host_page_size
    }

    /// Number of EPT fault-ins performed.
    #[must_use]
    pub fn fault_count(&self) -> u64 {
        self.faults
    }

    /// Census over the host PT (diagnostics / host Table 2 analogue).
    #[must_use]
    pub fn census(&self) -> PtCensus {
        PtCensus::collect(&self.flat)
    }
}

/// Places host-PT nodes: reserved sorted regions for ASAP levels, scattered
/// otherwise.
struct HostNodePlacer<'a> {
    levels: &'a [PtLevel],
    scatter: &'a mut ScatterAllocator,
}

impl PtNodeAllocator for HostNodePlacer<'_> {
    fn alloc_node(&mut self, level: PtLevel, va: VirtAddr) -> PhysFrameNum {
        if self.levels.contains(&level) {
            let index = va.raw() >> (level.index_shift() + INDEX_BITS);
            let base = match level {
                PtLevel::Pl1 => Some(HostPtMap::res_pl1_base()),
                PtLevel::Pl2 => Some(HostPtMap::res_pl2_base()),
                _ => None,
            };
            if let Some(base) = base {
                return base.add(index);
            }
        }
        #[expect(clippy::expect_used, reason = "host PT window outsizes any PT")]
        let f = self
            .scatter
            .alloc_frame()
            .expect("host PT scatter window exhausted");
        HostPtMap::scatter_base().add(f.raw())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpa(raw: u64) -> PhysAddr {
        PhysAddr::new(raw)
    }

    #[test]
    fn identity_backing() {
        let mut ept = Ept::new(EptConfig::default());
        let g = gpa(0x12_3456_7000);
        ept.ensure_mapped(g).unwrap();
        assert_eq!(ept.translate(g), Some(g));
        // Offsets carry through.
        let off = gpa(0x12_3456_7123);
        assert_eq!(ept.translate(off), Some(off));
        assert_eq!(ept.fault_count(), 1);
        // Idempotent.
        ept.ensure_mapped(g).unwrap();
        assert_eq!(ept.fault_count(), 1);
    }

    #[test]
    fn unmapped_gpa_is_none() {
        let ept = Ept::new(EptConfig::default());
        assert_eq!(ept.translate(gpa(0x1000)), None);
    }

    #[test]
    fn host_walk_has_four_steps_on_4k() {
        let mut ept = Ept::new(EptConfig::default());
        let g = gpa(0x4000_0000);
        ept.ensure_mapped(g).unwrap();
        let trace = ept.walk(g);
        assert_eq!(trace.steps.len(), 4);
        assert!(!trace.is_fault());
    }

    #[test]
    fn host_walk_has_three_steps_on_2m() {
        let mut ept = Ept::new(EptConfig::default().host_2m_pages());
        let g = gpa(0x4000_0000);
        ept.ensure_mapped(g).unwrap();
        let trace = ept.walk(g);
        assert_eq!(trace.steps.len(), 3, "2 MiB leaf at PL2");
        let t = trace.translation().unwrap();
        assert_eq!(t.size, PageSize::Size2M);
        // Identity at 2 MiB granularity.
        assert_eq!(ept.translate(g), Some(g));
    }

    #[test]
    fn host_asap_sorts_pl1_nodes() {
        let mut ept = Ept::new(EptConfig::default().host_pl1_and_pl2().with_seed(3));
        // Touch gPAs in several distinct 2 MiB regions, out of order.
        for region in [9u64, 2, 5, 0] {
            ept.ensure_mapped(gpa(region * (2 << 20))).unwrap();
        }
        for region in [0u64, 2, 5, 9] {
            let trace = ept.walk(gpa(region * (2 << 20)));
            let pl1 = trace.step_at(PtLevel::Pl1).unwrap();
            assert_eq!(
                pl1.entry_addr.frame_number().raw(),
                HostPtMap::res_pl1_base().raw() + region,
                "hPL1 node for region {region}"
            );
        }
        assert_eq!(
            ept.host_region_base(PtLevel::Pl1),
            Some(HostPtMap::res_pl1_base().base_addr())
        );
        assert_eq!(
            ept.host_region_base(PtLevel::Pl2),
            Some(HostPtMap::res_pl2_base().base_addr())
        );
    }

    #[test]
    fn baseline_has_no_region_bases() {
        let ept = Ept::new(EptConfig::default());
        assert_eq!(ept.host_region_base(PtLevel::Pl1), None);
        assert_eq!(ept.host_region_base(PtLevel::Pl2), None);
    }

    #[test]
    fn baseline_pl1_nodes_scattered() {
        let mut ept = Ept::new(EptConfig {
            scatter_run: 1.0,
            ..EptConfig::default()
        });
        let mut frames = Vec::new();
        for region in 0..8u64 {
            let g = gpa(region * (2 << 20));
            ept.ensure_mapped(g).unwrap();
            frames.push(
                ept.walk(g)
                    .step_at(PtLevel::Pl1)
                    .unwrap()
                    .entry_addr
                    .frame_number()
                    .raw(),
            );
        }
        let contiguous = frames.windows(2).all(|w| w[1] == w[0] + 1);
        assert!(!contiguous, "{frames:?}");
        // All inside the scatter window.
        for f in frames {
            assert!(f >= HostPtMap::scatter_base().raw());
            assert!(f < HostPtMap::scatter_base().raw() + HostPtMap::SCATTER_WINDOW_FRAMES);
        }
    }

    #[test]
    #[should_panic(expected = "4-level nested table span")]
    fn oversized_gpa_rejected() {
        let _ = Ept::gpa_as_va(PhysAddr::new(1 << 49));
    }
}
