//! A simulated process: address space, demand paging, ASAP descriptors.

use crate::placement::NodePlacer;
use crate::{
    AsapOsConfig, DataPageLayout, OsError, PhysMap, ProcessLayout, ReservationSet, Vma,
    VmaDescriptor, VmaId, VmaKind, VmaTree,
};
use asap_alloc::{ScatterAllocator, ScatterConfig};
use asap_pt::{FixedWalk, FlatMirror, PtCensus, PteFlags, Translation, WalkSource, WalkTrace};
use asap_types::{Asid, ByteSize, PageSize, PagingMode, PhysFrameNum, VirtAddr, VirtPageNum};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`Process`].
#[derive(Debug, Clone)]
pub struct ProcessConfig {
    /// Address-space identifier (also selects physical windows).
    pub asid: Asid,
    /// The VMA layout; defaults to a server-like shape with no big regions.
    pub layout: ProcessLayout,
    /// OS-side ASAP configuration (disabled by default).
    pub asap: AsapOsConfig,
    /// Mean physical run length of scattered PT pages (Table 2 calibration).
    pub pt_scatter_run: f64,
    /// Fraction of 8-page data groups that are physically clusterable
    /// (Table 7 calibration).
    pub data_cluster_fraction: f64,
    /// Paging mode (4-level unless exercising the §3.5 extension).
    pub paging_mode: PagingMode,
    /// Use the compact guest-physical map (required when this process runs
    /// inside a virtual machine; see `PhysMap::compact_guest`).
    pub compact_phys: bool,
    /// Deterministic seed.
    pub seed: u64,
}

impl ProcessConfig {
    /// A minimal config: server-like layout with a tiny heap.
    #[must_use]
    pub fn new(asid: Asid) -> Self {
        Self {
            asid,
            layout: ProcessLayout::server_like(ByteSize::mib(16), &[]),
            asap: AsapOsConfig::disabled(),
            pt_scatter_run: 16.0,
            data_cluster_fraction: 0.3,
            paging_mode: PagingMode::FourLevel,
            compact_phys: false,
            seed: 0,
        }
    }

    /// Replaces the layout with a server-like one with the given heap size.
    #[must_use]
    pub fn with_heap(mut self, heap: ByteSize) -> Self {
        self.layout = ProcessLayout::server_like(heap, &[]);
        self
    }

    /// Uses an explicit layout.
    #[must_use]
    pub fn with_layout(mut self, layout: ProcessLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Enables ASAP with the given OS config.
    #[must_use]
    pub fn with_asap(mut self, asap: AsapOsConfig) -> Self {
        self.asap = asap;
        self
    }

    /// Sets the PT scatter run length.
    #[must_use]
    pub fn with_pt_scatter_run(mut self, run: f64) -> Self {
        self.pt_scatter_run = run;
        self
    }

    /// Sets the data clusterable fraction.
    #[must_use]
    pub fn with_data_cluster_fraction(mut self, fraction: f64) -> Self {
        self.data_cluster_fraction = fraction;
        self
    }

    /// Sets the paging mode.
    #[must_use]
    pub fn with_paging_mode(mut self, mode: PagingMode) -> Self {
        self.paging_mode = mode;
        self
    }

    /// Sets the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Switches to the compact guest-physical map (for use inside a VM).
    #[must_use]
    pub fn with_compact_phys(mut self) -> Self {
        self.compact_phys = true;
        self
    }

    /// The physical map this config implies.
    #[must_use]
    pub fn phys_map(&self) -> PhysMap {
        if self.compact_phys {
            PhysMap::compact_guest(self.asid)
        } else {
            PhysMap::new(self.asid)
        }
    }
}

/// Result of touching a virtual address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TouchOutcome {
    /// The page was already mapped.
    AlreadyMapped,
    /// A demand fault mapped the page.
    Faulted,
}

/// A simulated process: VMAs, page table, demand paging, and the ASAP
/// descriptors the OS exposes to hardware.
#[derive(Debug)]
pub struct Process {
    asid: Asid,
    phys: PhysMap,
    vmas: VmaTree,
    /// The page table: demand faults map into it, walks and the census
    /// read it.
    flat: FlatMirror,
    reservations: ReservationSet,
    scatter: ScatterAllocator,
    data_layout: DataPageLayout,
    asap: AsapOsConfig,
    /// Per-VMA base into the process-relative data-page index space,
    /// indexed by [`VmaId`] (the tree numbers its VMAs densely from 0).
    data_index_base: Vec<u64>,
    next_data_index: u64,
    descriptors: Vec<VmaDescriptor>,
    faults: u64,
    rng: SmallRng,
}

impl Process {
    /// Creates the process: builds VMAs, the empty page table, and — when
    /// ASAP is enabled — the per-VMA contiguous PT reservations and the
    /// hardware VMA descriptors.
    ///
    /// # Panics
    ///
    /// Panics if the layout produces overlapping VMAs (a configuration bug).
    #[must_use]
    pub fn new(config: ProcessConfig) -> Self {
        let phys = config.phys_map();
        let mut vmas = VmaTree::new();
        #[expect(clippy::expect_used, reason = "overlapping VMAs (# Panics)")]
        let ids = config
            .layout
            .build(&mut vmas)
            .expect("process layout must be self-consistent");
        let mut scatter = ScatterAllocator::new(ScatterConfig {
            mean_run_len: config.pt_scatter_run,
            phys_frames: PhysMap::PT_WINDOW_FRAMES,
            seed: config.seed ^ 0x57A7,
        });
        // The scatter window is process-relative; rebase its frames.
        let pt_base = phys.pt_scatter_base();
        let mut rebased = RebasedScatter {
            inner: &mut scatter,
            base: pt_base,
        };
        let flat = FlatMirror::new(config.paging_mode, &mut rebased);

        let mut reservations = ReservationSet::new(phys);
        let mut data_index_base = vec![0; ids.len()];
        let mut next_data_index = 0u64;
        for id in &ids {
            let Some(&vma) = vmas.get(*id) else { continue };
            if let Some(base) = data_index_base.get_mut(id.0 as usize) {
                *base = next_data_index;
            }
            next_data_index = (next_data_index + vma.pages() + 7) & !7;
            if config.asap.is_enabled() {
                for &level in &config.asap.levels {
                    reservations.reserve(*id, level, vma.start(), vma.end());
                }
            }
        }

        let mut process = Self {
            asid: config.asid,
            phys,
            vmas,
            flat,
            reservations,
            scatter,
            data_layout: DataPageLayout::new(
                phys,
                config.data_cluster_fraction,
                config.seed ^ 0xDA7A ^ (u64::from(config.asid.0) << 32),
            ),
            asap: config.asap,
            data_index_base,
            next_data_index,
            descriptors: Vec::new(),
            faults: 0,
            rng: SmallRng::seed_from_u64(config.seed ^ 0x05),
        };
        process.rebuild_descriptors();
        process
    }

    /// Recomputes the VMA descriptors: the largest VMAs, up to the range
    /// register budget (§3.4).
    fn rebuild_descriptors(&mut self) {
        use asap_types::PtLevel;
        self.descriptors.clear();
        if !self.asap.is_enabled() {
            return;
        }
        let mut by_size: Vec<Vma> = self.vmas.iter().copied().collect();
        by_size.sort_unstable_by_key(|v| core::cmp::Reverse(v.len()));
        for vma in by_size.into_iter().take(self.asap.max_descriptors) {
            let pl1_base = self
                .reservations
                .base(vma.id(), PtLevel::Pl1)
                .map(PhysFrameNum::base_addr);
            let pl2_base = self
                .reservations
                .base(vma.id(), PtLevel::Pl2)
                .map(PhysFrameNum::base_addr);
            self.descriptors.push(VmaDescriptor {
                start: vma.start(),
                end: vma.end(),
                pl1_base: self.asap.covers(PtLevel::Pl1).then_some(pl1_base).flatten(),
                pl2_base: self.asap.covers(PtLevel::Pl2).then_some(pl2_base).flatten(),
            });
        }
    }

    /// The process-relative data-page index for `va` (dense across VMAs).
    fn data_index(&self, vma: &Vma, va: VirtAddr) -> Result<u64, OsError> {
        let base = self
            .data_index_base
            .get(vma.id().0 as usize)
            .ok_or(OsError::UnknownVma)?;
        Ok(base + (va.raw() - vma.start().raw()) / asap_types::PAGE_SIZE)
    }

    /// Touches `va`: demand-faults the page in if needed.
    ///
    /// # Errors
    ///
    /// [`OsError::Segfault`] if `va` lies outside every VMA;
    /// [`OsError::PageTable`] if the fault's page-table update fails.
    pub fn touch(&mut self, va: VirtAddr) -> Result<TouchOutcome, OsError> {
        if self.flat.is_mapped(va) {
            return Ok(TouchOutcome::AlreadyMapped);
        }
        let vma = *self.vmas.find(va).ok_or(OsError::Segfault(va))?;
        let frame = self
            .data_layout
            .frame_for(VirtPageNum::new(self.data_index(&vma, va)?));
        let phys = self.phys;
        let mut rebased = RebasedScatter {
            inner: &mut self.scatter,
            base: phys.pt_scatter_base(),
        };
        let mut placer = NodePlacer {
            vma: Some((vma.id(), vma.start())),
            reservations: &mut self.reservations,
            scatter: &mut rebased,
            asap_levels: &self.asap.levels,
        };
        self.flat.map(
            &mut placer,
            va.page_base(),
            frame,
            PageSize::Size4K,
            PteFlags::user_data(),
        )?;
        self.faults += 1;
        Ok(TouchOutcome::Faulted)
    }

    /// Translates `va` if mapped (no side effects).
    #[must_use]
    pub fn translate(&self, va: VirtAddr) -> Option<Translation> {
        self.flat.translate(va)
    }

    /// Performs a full software page walk, returning the node trace.
    #[must_use]
    pub fn walk(&self, va: VirtAddr) -> WalkTrace {
        self.flat.walk_fixed(va).to_trace()
    }

    /// [`Process::walk`] without the heap allocation (the hot-path form).
    #[must_use]
    pub fn walk_fixed(&self, va: VirtAddr) -> FixedWalk {
        self.flat.walk_fixed(va)
    }

    /// This process' page table.
    #[must_use]
    pub fn flat_mirror(&self) -> &FlatMirror {
        &self.flat
    }

    /// Grows the heap VMA to `new_end` (`brk`), extending reservations; a
    /// configured fraction of extensions fails, creating holes (§3.7.2).
    ///
    /// # Errors
    ///
    /// Propagates VMA-tree errors (overlap with the next VMA etc.).
    pub fn grow_heap(&mut self, new_end: VirtAddr) -> Result<(), OsError> {
        let heap = *self
            .vmas
            .iter()
            .find(|v| v.kind() == VmaKind::Heap)
            .ok_or(OsError::UnknownVma)?;
        self.vmas.grow(heap.id(), new_end)?;
        let levels = self.asap.levels.clone();
        for level in levels {
            let success = self.rng.gen::<f64>() >= self.asap.extension_failure_rate;
            self.reservations
                .extend(heap.id(), level, heap.start(), new_end, success);
        }
        self.rebuild_descriptors();
        Ok(())
    }

    /// The translations of the aligned 8-page cluster containing `va`
    /// (`None` for unmapped neighbours) — the PTE cache line the walker
    /// fetches, used to fill the clustered TLB (§5.4.1).
    #[must_use]
    pub fn cluster_translations(&self, va: VirtAddr) -> [Option<PhysFrameNum>; 8] {
        let base_vpn = va.page_number().raw() & !7;
        core::array::from_fn(|i| {
            let nva = VirtAddr::new_unchecked((base_vpn + i as u64) << 12);
            self.flat.translate(nva).map(|t| t.frame)
        })
    }

    /// The speculation hint the OS publishes for hash-based speculative
    /// translation (Revelator-style contenders): per-VMA data-page index
    /// windows plus the placement-hash parameters. Pure hint — consumers
    /// must verify every guess against the page table before use.
    #[must_use]
    pub fn speculation_hint(&self) -> crate::SpeculationHint {
        let pairs: Vec<(Vma, u64)> = (0u32..)
            .zip(&self.data_index_base)
            .filter_map(|(id, base)| self.vmas.get(VmaId(id)).map(|vma| (*vma, *base)))
            .collect();
        crate::SpeculationHint::new(crate::speculation::windows_for(&pairs), self.data_layout)
    }

    /// The first VMA of `kind`, if any.
    #[must_use]
    pub fn vma_of_kind(&self, kind: VmaKind) -> Option<&Vma> {
        self.vmas.iter().find(|v| v.kind() == kind)
    }

    /// The OS-maintained hardware VMA descriptors (loaded into the range
    /// registers on context switch).
    #[must_use]
    pub fn vma_descriptors(&self) -> &[VmaDescriptor] {
        &self.descriptors
    }

    /// The process' ASID.
    #[must_use]
    pub fn asid(&self) -> Asid {
        self.asid
    }

    /// The VMA tree.
    #[must_use]
    pub fn vmas(&self) -> &VmaTree {
        &self.vmas
    }

    /// Demand faults taken so far.
    #[must_use]
    pub fn fault_count(&self) -> u64 {
        self.faults
    }

    /// Data-page index space consumed so far (diagnostic; grows as VMAs are
    /// added).
    #[must_use]
    pub fn data_pages_indexed(&self) -> u64 {
        self.next_data_index
    }

    /// Holes punched in reservations so far (§3.7.2 diagnostics).
    #[must_use]
    pub fn hole_count(&self) -> u64 {
        self.reservations.holes_punched()
    }

    /// Collects the PT census (Table 2 inputs).
    #[must_use]
    pub fn census(&self) -> PtCensus {
        PtCensus::collect(&self.flat)
    }
}

/// Adapts the window-relative scatter allocator to absolute frames.
struct RebasedScatter<'a> {
    inner: &'a mut ScatterAllocator,
    base: PhysFrameNum,
}

impl asap_alloc::FrameAllocator for RebasedScatter<'_> {
    fn alloc_frame(&mut self) -> Result<PhysFrameNum, asap_alloc::AllocError> {
        let f = asap_alloc::FrameAllocator::alloc_frame(self.inner)?;
        Ok(self.base.add(f.raw()))
    }
}

impl asap_pt::PtNodeAllocator for RebasedScatter<'_> {
    fn alloc_node(&mut self, _level: asap_types::PtLevel, _va: VirtAddr) -> PhysFrameNum {
        #[expect(clippy::expect_used, reason = "PT window outsizes any PT")]
        asap_alloc::FrameAllocator::alloc_frame(self).expect("PT scatter window exhausted")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_types::PtLevel;

    fn small_process(asap: AsapOsConfig) -> Process {
        Process::new(
            ProcessConfig::new(Asid(1))
                .with_heap(ByteSize::mib(64))
                .with_asap(asap)
                .with_seed(7),
        )
    }

    #[test]
    fn touch_faults_then_is_mapped() {
        let mut p = small_process(AsapOsConfig::disabled());
        let heap = p.vma_of_kind(VmaKind::Heap).unwrap().start();
        assert_eq!(p.touch(heap).unwrap(), TouchOutcome::Faulted);
        assert_eq!(p.touch(heap).unwrap(), TouchOutcome::AlreadyMapped);
        assert_eq!(p.fault_count(), 1);
        assert!(p.translate(heap).is_some());
    }

    #[test]
    fn segfault_outside_vmas() {
        let mut p = small_process(AsapOsConfig::disabled());
        let wild = VirtAddr::new(0x1234_5678_0000).unwrap();
        assert_eq!(p.touch(wild), Err(OsError::Segfault(wild)));
    }

    #[test]
    fn asap_pl1_nodes_are_sorted_and_contiguous() {
        let mut p = small_process(AsapOsConfig::pl1_and_pl2());
        let heap = *p.vma_of_kind(VmaKind::Heap).unwrap();
        // Touch pages across several 2 MiB regions, out of order.
        for region in [5u64, 1, 3, 0, 7] {
            let va = VirtAddr::new(heap.start().raw() + region * (2 << 20)).unwrap();
            p.touch(va).unwrap();
        }
        // The PL1 node for region k must be at pl1_base + k.
        let pl1_base = p
            .vma_descriptors()
            .iter()
            .find(|d| d.covers(heap.start()))
            .and_then(|d| d.pl1_base)
            .expect("heap descriptor with PL1 base");
        for region in [0u64, 1, 3, 5, 7] {
            let va = VirtAddr::new(heap.start().raw() + region * (2 << 20)).unwrap();
            let trace = p.walk(va);
            let pl1_step = trace.step_at(PtLevel::Pl1).expect("walk reaches PL1");
            let node_frame = pl1_step.entry_addr.frame_number();
            assert_eq!(
                node_frame.raw(),
                pl1_base.frame_number().raw() + region,
                "PL1 node for region {region} must sit at base+{region}"
            );
        }
    }

    #[test]
    fn baseline_pl1_nodes_are_scattered() {
        // Fully random PT placement (mean run 1) — the paper's own host-side
        // baseline methodology (§4).
        let mut p = Process::new(
            ProcessConfig::new(Asid(1))
                .with_heap(ByteSize::mib(64))
                .with_pt_scatter_run(1.0)
                .with_seed(7),
        );
        let heap = *p.vma_of_kind(VmaKind::Heap).unwrap();
        let mut frames = Vec::new();
        for region in 0..8u64 {
            let va = VirtAddr::new(heap.start().raw() + region * (2 << 20)).unwrap();
            p.touch(va).unwrap();
            let trace = p.walk(va);
            frames.push(
                trace
                    .step_at(PtLevel::Pl1)
                    .unwrap()
                    .entry_addr
                    .frame_number()
                    .raw(),
            );
        }
        // Not in sorted ascending order with stride 1 (overwhelmingly likely
        // under scattering).
        let sorted_contig = frames.windows(2).all(|w| w[1] == w[0] + 1);
        assert!(
            !sorted_contig,
            "scattered PT pages must not be contiguous: {frames:?}"
        );
        assert!(p.vma_descriptors().is_empty());
    }

    #[test]
    fn descriptors_respect_register_budget() {
        let mut layout = ProcessLayout::server_like(ByteSize::mib(32), &[]);
        for _ in 0..30 {
            layout.push(crate::VmaSpec::new(VmaKind::Mmap, ByteSize::mib(4)));
        }
        let p = Process::new(
            ProcessConfig::new(Asid(2))
                .with_layout(layout)
                .with_asap(AsapOsConfig::pl1_and_pl2()),
        );
        assert!(p.vma_descriptors().len() <= 16);
        // The biggest VMA (the heap) must be covered.
        let heap = p.vma_of_kind(VmaKind::Heap).unwrap();
        assert!(p.vma_descriptors().iter().any(|d| d.covers(heap.start())));
    }

    #[test]
    fn heap_growth_with_guaranteed_failure_creates_holes() {
        let mut asap = AsapOsConfig::pl1_only();
        asap.extension_failure_rate = 1.0;
        let mut p = Process::new(
            ProcessConfig::new(Asid(1))
                .with_heap(ByteSize::mib(4)) // 2 PL1 nodes, capacity 16
                .with_asap(asap)
                .with_seed(3),
        );
        let heap = *p.vma_of_kind(VmaKind::Heap).unwrap();
        let new_end = VirtAddr::new(heap.start().raw() + (64 << 20)).unwrap();
        p.grow_heap(new_end).unwrap();
        // Touch a page in the grown area: its PL1 node becomes a hole.
        let va = VirtAddr::new(heap.start().raw() + (32 << 20)).unwrap();
        p.touch(va).unwrap();
        assert_eq!(p.hole_count(), 1);
        // The walk still succeeds (correctness preserved).
        assert!(!p.walk(va).is_fault());
    }

    #[test]
    fn heap_growth_success_extends_inline() {
        let mut p = Process::new(
            ProcessConfig::new(Asid(1))
                .with_heap(ByteSize::mib(4))
                .with_asap(AsapOsConfig::pl1_only())
                .with_seed(3),
        );
        let heap = *p.vma_of_kind(VmaKind::Heap).unwrap();
        let new_end = VirtAddr::new(heap.start().raw() + (16 << 20)).unwrap();
        p.grow_heap(new_end).unwrap();
        let va = VirtAddr::new(heap.start().raw() + (10 << 20)).unwrap();
        p.touch(va).unwrap();
        assert_eq!(p.hole_count(), 0);
    }

    #[test]
    fn cluster_translations_reflect_mapped_neighbours() {
        let mut p = small_process(AsapOsConfig::disabled());
        let heap = p.vma_of_kind(VmaKind::Heap).unwrap().start();
        // Map pages 0 and 2 of the first cluster.
        p.touch(heap).unwrap();
        p.touch(VirtAddr::new(heap.raw() + 2 * 4096).unwrap())
            .unwrap();
        let cluster = p.cluster_translations(heap);
        assert!(cluster[0].is_some());
        assert!(cluster[1].is_none());
        assert!(cluster[2].is_some());
    }

    #[test]
    fn census_reflects_touched_pages() {
        let mut p = small_process(AsapOsConfig::disabled());
        let heap = p.vma_of_kind(VmaKind::Heap).unwrap().start();
        for i in 0..10u64 {
            p.touch(VirtAddr::new(heap.raw() + i * 4096).unwrap())
                .unwrap();
        }
        let census = p.census();
        assert_eq!(census.entries_at(PtLevel::Pl1), 10);
        assert_eq!(census.pages_at(PtLevel::Pl1), 1);
    }

    #[test]
    fn different_vmas_get_disjoint_data_frames() {
        let mut layout = ProcessLayout::server_like(ByteSize::mib(8), &[ByteSize::mib(8)]);
        layout.push(crate::VmaSpec::new(VmaKind::Mmap, ByteSize::mib(8)));
        let mut p = Process::new(ProcessConfig::new(Asid(1)).with_layout(layout));
        let mut frames = std::collections::HashSet::new();
        let vmas: Vec<Vma> = p.vmas().iter().copied().collect();
        for vma in vmas {
            for i in 0..16u64 {
                let va = VirtAddr::new(vma.start().raw() + i * 4096).unwrap();
                p.touch(va).unwrap();
                let t = p.translate(va).unwrap();
                assert!(frames.insert(t.frame.raw()), "duplicate data frame");
            }
        }
    }
}
