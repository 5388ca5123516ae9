//! The native-execution MMU: TLBs → PWCs → walker, with ASAP attached.

use crate::engine::{
    Backend, CoreConfig, Engine, EngineCore, EngineOutcome, TranslationPath, WalkSources,
};
use crate::{AsapHwConfig, ClusterSource, MmuConfig, RangeRegisterFile};
use asap_os::Process;
use asap_pt::WalkSource;
use asap_tlb::{ClusteredTlb, PageWalkCaches, TlbEntry};
use asap_types::{Asid, PageSize, PhysAddr, VirtAddr};

/// Details of one page walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkReport {
    /// Walk latency in cycles (the paper's headline metric).
    pub latency: u64,
    /// Per-level serving source, root first.
    pub sources: WalkSources,
    /// ASAP prefetches issued for this walk.
    pub prefetches_issued: u8,
    /// ASAP prefetches dropped for lack of an MSHR.
    pub prefetches_dropped: u8,
    /// Whether the walk ended in a page fault.
    pub fault: bool,
}

/// The outcome of one translation request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessOutcome {
    /// How the translation was served.
    pub path: TranslationPath,
    /// Translation-side latency in cycles (0 for an L1 TLB hit; the walk
    /// latency for walks).
    pub latency: u64,
    /// The resulting physical address (`None` on a page fault).
    pub phys: Option<PhysAddr>,
    /// Walk details when `path == Walk`.
    pub walk: Option<WalkReport>,
}

impl From<AccessOutcome> for EngineOutcome {
    fn from(out: AccessOutcome) -> Self {
        Self {
            path: out.path,
            latency: out.latency,
            phys: out.phys,
            prefetches_issued: out.walk.as_ref().map_or(0, |w| w.prefetches_issued),
            prefetches_dropped: out.walk.as_ref().map_or(0, |w| w.prefetches_dropped),
        }
    }
}

/// The per-core translation machine of Fig. 6: unmodified TLBs, PWCs,
/// walker and cache hierarchy, plus the ASAP range registers and prefetch
/// logic bolted onto the TLB-miss path.
pub type Mmu = Engine<Native>;

/// The native miss path: split PWCs, an optional clustered TLB, and one
/// range-register file feeding the ASAP prefetcher.
#[derive(Debug)]
pub struct Native {
    asap: AsapHwConfig,
    pwc: PageWalkCaches,
    clustered: Option<ClusteredTlb>,
    range_regs: RangeRegisterFile,
}

impl Backend for Native {
    type Machine = Process;
    type Config = MmuConfig;

    fn build(config: MmuConfig) -> (CoreConfig, Self) {
        let MmuConfig {
            l1_tlb,
            l2_tlb,
            pwc,
            hierarchy,
            asap,
            range_registers,
            clustered_tlb,
            seed: _,
        } = config;
        let native = Self {
            asap,
            pwc: PageWalkCaches::new(pwc),
            clustered: clustered_tlb.map(ClusteredTlb::new),
            range_regs: RangeRegisterFile::new(range_registers),
        };
        let parts = CoreConfig {
            l1_tlb,
            l2_tlb,
            hierarchy,
        };
        (parts, native)
    }

    /// Loads the OS-provided VMA descriptors (context switch, §3.4).
    fn load_context(&mut self, machine: &Process) {
        self.range_regs.load_context(machine.vma_descriptors());
    }

    fn translate_miss(
        &mut self,
        core: &mut EngineCore,
        machine: &mut Process,
        asid: Asid,
        va: VirtAddr,
    ) -> EngineOutcome {
        let cluster = self
            .clustered
            .is_some()
            .then_some(&*machine as &dyn ClusterSource);
        self.miss(core, machine.flat_mirror(), asid, va, cluster)
            .into()
    }

    /// Path-local unless a clustered TLB is configured: its fill reads the
    /// PTE line around the address, which later faults change.
    fn translation_is_path_local(&self) -> bool {
        self.clustered.is_none()
    }

    fn reset_stats(&mut self) {
        self.pwc.reset_stats();
        self.range_regs.reset_stats();
        if let Some(ct) = &mut self.clustered {
            ct.reset_stats();
        }
    }
}

impl Native {
    /// The S-TLB-miss path: a clustered-TLB probe, then the ASAP
    /// prefetches and the (possibly PWC-shortened) walk of Fig. 4b, and
    /// the fills.
    fn miss<S: WalkSource + ?Sized>(
        &mut self,
        core: &mut EngineCore,
        src: &S,
        asid: Asid,
        va: VirtAddr,
        cluster: Option<&dyn ClusterSource>,
    ) -> AccessOutcome {
        let vpn = va.page_number();
        if let Some(frame) = self.clustered.as_mut().and_then(|ct| ct.lookup(asid, vpn)) {
            let entry = TlbEntry::new(frame, PageSize::Size4K);
            core.tlbs.fill(asid, vpn, entry);
            core.charge_tlb_hit(3, crate::L2_TLB_HIT_CYCLES);
            return AccessOutcome {
                path: TranslationPath::ClusteredTlb,
                latency: crate::L2_TLB_HIT_CYCLES,
                phys: Some(entry.phys_addr(va)),
                walk: None,
            };
        }

        // ASAP: range-register check in parallel with walker activation; on
        // a hit, prefetches launch immediately (concurrently with the
        // walker's first access).
        let mut prefetches_issued = 0u8;
        let mut prefetches_dropped = 0u8;
        if self.asap.is_enabled() {
            if let Some(desc) = self.range_regs.lookup(va).copied() {
                let t0 = core.now();
                core.issue_prefetches(
                    &desc,
                    &self.asap.levels,
                    va,
                    t0,
                    &mut prefetches_issued,
                    &mut prefetches_dropped,
                );
            }
        }
        let walk = core.walk_1d(&mut self.pwc, src, asid, va);
        if let Some(tr) = walk.translation {
            core.tlbs.fill(asid, vpn, TlbEntry::new(tr.frame, tr.size));
            if tr.size == PageSize::Size4K {
                if let (Some(ct), Some(source)) = (&mut self.clustered, cluster) {
                    ct.fill_cluster(asid, vpn, &source.cluster_frames(va));
                }
            }
        }
        AccessOutcome {
            path: TranslationPath::Walk,
            latency: walk.latency,
            phys: walk.translation.map(|t| t.phys_addr(va)),
            walk: Some(WalkReport {
                latency: walk.latency,
                sources: walk.sources,
                prefetches_issued,
                prefetches_dropped,
                fault: walk.translation.is_none(),
            }),
        }
    }
}

impl Mmu {
    /// Translates `va`, simulating the full machine: TLB lookups, the ASAP
    /// prefetches, the (possibly PWC-shortened) page walk over the cache
    /// hierarchy, and all fills. Advances the core clock by the
    /// translation latency. The driver's
    /// [`translate_access`](crate::TranslationEngine::translate_access)
    /// takes the same path with the walk details dropped.
    ///
    /// `src` is the page table the walker reads: the process's
    /// [`asap_pt::FlatMirror`], or any other [`WalkSource`]. `cluster`
    /// supplies PTE-cluster contents for the clustered-TLB fill; pass `None`
    /// when the clustered TLB is disabled.
    pub fn translate<S: WalkSource + ?Sized>(
        &mut self,
        src: &S,
        asid: Asid,
        va: VirtAddr,
        cluster: Option<&dyn ClusterSource>,
    ) -> AccessOutcome {
        match self.core.tlb_lookup(asid, va) {
            Some(hit) => AccessOutcome {
                path: hit.path,
                latency: hit.latency,
                phys: hit.phys,
                walk: None,
            },
            None => self.backend.miss(&mut self.core, src, asid, va, cluster),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServedSource, TranslationEngine};
    use asap_os::{AsapOsConfig, ProcessConfig, VmaKind};
    use asap_types::{ByteSize, CacheLineAddr, PtLevel};

    fn process(asap: AsapOsConfig) -> Process {
        Process::new(
            ProcessConfig::new(Asid(1))
                .with_heap(ByteSize::mib(256))
                .with_asap(asap)
                .with_pt_scatter_run(1.0)
                .with_seed(9),
        )
    }

    fn heap_va(p: &Process, off: u64) -> VirtAddr {
        VirtAddr::new(p.vma_of_kind(VmaKind::Heap).unwrap().start().raw() + off).unwrap()
    }

    #[test]
    fn first_access_walks_then_tlb_hits() {
        let mut p = process(AsapOsConfig::disabled());
        let va = heap_va(&p, 0);
        p.touch(va).unwrap();
        let mut mmu = Mmu::new(MmuConfig::default());
        let first = mmu.translate(p.flat_mirror(), p.asid(), va, None);
        assert_eq!(first.path, TranslationPath::Walk);
        assert!(first.latency > 0);
        assert_eq!(first.phys, p.translate(va).map(|t| t.phys_addr(va)));
        let second = mmu.translate(p.flat_mirror(), p.asid(), va, None);
        assert_eq!(second.path, TranslationPath::TlbL1);
        assert_eq!(second.latency, 0);
        assert_eq!(mmu.stats_snapshot().walks.count(), 1);
    }

    #[test]
    fn cold_walk_latency_is_four_memory_accesses() {
        let mut p = process(AsapOsConfig::disabled());
        let va = heap_va(&p, 0);
        p.touch(va).unwrap();
        let mut mmu = Mmu::new(MmuConfig::default());
        let out = mmu.translate(p.flat_mirror(), p.asid(), va, None);
        let walk = out.walk.unwrap();
        // Cold caches, cold PWC: 2 (PWC probe) + 4 × 191 (memory).
        assert_eq!(walk.latency, 2 + 4 * 191);
        assert_eq!(walk.sources.len(), 4);
    }

    #[test]
    fn pwc_shortens_the_second_walk() {
        let mut p = process(AsapOsConfig::disabled());
        let a = heap_va(&p, 0);
        let b = heap_va(&p, 0x1000); // same PL1 table, different PTE
        p.touch(a).unwrap();
        p.touch(b).unwrap();
        let mut mmu = Mmu::new(MmuConfig::default());
        let _ = mmu.translate(p.flat_mirror(), p.asid(), a, None);
        let out = mmu.translate(p.flat_mirror(), p.asid(), b, None);
        let walk = out.walk.unwrap();
        // PL4..PL2 served by PWC, only PL1 touches the hierarchy.
        let pwc_count = walk
            .sources
            .iter()
            .filter(|(_, s)| *s == ServedSource::Pwc)
            .count();
        assert_eq!(pwc_count, 3);
        // PL1 line: same 2 MiB region, different PTE — maybe a different
        // line, but at most one hierarchy access happened.
        assert!(walk.latency <= 2 + 191);
    }

    #[test]
    fn asap_overlaps_cold_walk() {
        // With ASAP P1+P2 on an ASAP-enabled process, the cold walk's PL2
        // and PL1 accesses overlap the PL4/PL3 fetches instead of
        // serializing after them.
        let mut p = process(AsapOsConfig::pl1_and_pl2());
        let va = heap_va(&p, 0);
        p.touch(va).unwrap();
        let mut base_mmu = Mmu::new(MmuConfig::default());
        let base = base_mmu
            .translate(p.flat_mirror(), p.asid(), va, None)
            .walk
            .unwrap();
        let mut asap_mmu = Mmu::new(MmuConfig::default().with_asap(AsapHwConfig::p1_p2()));
        asap_mmu.load_context(&p);
        let asap = asap_mmu
            .translate(p.flat_mirror(), p.asid(), va, None)
            .walk
            .unwrap();
        assert_eq!(asap.prefetches_issued, 2);
        assert!(
            asap.latency < base.latency,
            "ASAP {} !< baseline {}",
            asap.latency,
            base.latency
        );
        // Cold walk: PL4+PL3 serialize (2×191); by the time the walker
        // reaches PL2/PL1 the t0-issued prefetches have completed, so those
        // steps are L1 hits: ≈ 2 + 191 + 191 + 4 + 4.
        assert!(asap.latency <= 2 + 2 * 191 + 2 * 4);
        assert!(asap
            .sources
            .iter()
            .filter(|(l, _)| matches!(l, PtLevel::Pl1 | PtLevel::Pl2))
            .all(|(_, s)| matches!(
                s,
                ServedSource::Cache(asap_cache::ServedBy::L1) | ServedSource::Merged(_)
            )));
    }

    #[test]
    fn asap_demand_merges_with_inflight_prefetch() {
        // When the PWC covers PL4..PL2, the walker reaches PL1 almost
        // immediately — while the prefetch is still in flight — and merges
        // with its MSHR (Fig. 4b's overlap in its purest form).
        let mut p = process(AsapOsConfig::pl1_and_pl2());
        let a = heap_va(&p, 0);
        let b = heap_va(&p, 512 * 0x1000); // next 2 MiB region: fresh PL1 node
        p.touch(a).unwrap();
        p.touch(b).unwrap();
        let mut mmu = Mmu::new(MmuConfig::default().with_asap(AsapHwConfig::p1_p2()));
        mmu.load_context(&p);
        let _ = mmu.translate(p.flat_mirror(), p.asid(), a, None);
        let out = mmu.translate(p.flat_mirror(), p.asid(), b, None);
        let walk = out.walk.unwrap();
        assert!(
            walk.sources
                .iter()
                .any(|(_, s)| matches!(s, ServedSource::Merged(_))),
            "expected an MSHR merge, got {:?}",
            walk.sources
        );
        // The exposed latency is roughly ONE memory access, the paper's
        // "single access to the memory hierarchy" claim.
        assert!(
            walk.latency <= 2 + 191 + 2 * 4 + 8,
            "latency {}",
            walk.latency
        );
    }

    #[test]
    fn asap_without_descriptors_changes_nothing() {
        // Hardware prefetch enabled but no range registers loaded (e.g. a
        // non-ASAP process): walks behave exactly like the baseline.
        let mut p = process(AsapOsConfig::disabled());
        let va = heap_va(&p, 0);
        p.touch(va).unwrap();
        let mut mmu = Mmu::new(MmuConfig::default().with_asap(AsapHwConfig::p1_p2()));
        let out = mmu.translate(p.flat_mirror(), p.asid(), va, None);
        let walk = out.walk.unwrap();
        assert_eq!(walk.prefetches_issued, 0);
        assert_eq!(walk.latency, 2 + 4 * 191);
    }

    #[test]
    fn prefetches_never_change_translation_results() {
        let mut p = process(AsapOsConfig::pl1_and_pl2());
        let vas: Vec<VirtAddr> = (0..32).map(|i| heap_va(&p, i * 0x5000)).collect();
        for va in &vas {
            p.touch(*va).unwrap();
        }
        let mut base_mmu = Mmu::new(MmuConfig::default());
        let mut asap_mmu = Mmu::new(MmuConfig::default().with_asap(AsapHwConfig::p1_p2()));
        asap_mmu.load_context(&p);
        for va in &vas {
            let b = base_mmu.translate(p.flat_mirror(), p.asid(), *va, None);
            let a = asap_mmu.translate(p.flat_mirror(), p.asid(), *va, None);
            assert_eq!(b.phys, a.phys, "ASAP must be invisible architecturally");
        }
    }

    #[test]
    fn clustered_tlb_short_circuits_walks() {
        let mut p = Process::new(
            ProcessConfig::new(Asid(1))
                .with_heap(ByteSize::mib(64))
                .with_data_cluster_fraction(1.0)
                .with_seed(4),
        );
        // Touch a whole cluster (8 pages).
        let vas: Vec<VirtAddr> = (0..8).map(|i| heap_va(&p, i * 0x1000)).collect();
        for va in &vas {
            p.touch(*va).unwrap();
        }
        let mut mmu = Mmu::new(MmuConfig::default().with_clustered_tlb());
        // Walk the first page; the fill coalesces the whole cluster.
        let first = mmu.translate(p.flat_mirror(), p.asid(), vas[0], Some(&p));
        assert_eq!(first.path, TranslationPath::Walk);
        // A *different* page of the same cluster: clustered TLB hit, not a
        // walk — but only after it misses L1/L2 TLBs (it was never filled
        // there). It must yield the correct frame.
        let second = mmu.translate(p.flat_mirror(), p.asid(), vas[5], Some(&p));
        assert_eq!(second.path, TranslationPath::ClusteredTlb);
        assert_eq!(
            second.phys,
            p.translate(vas[5]).map(|t| t.phys_addr(vas[5]))
        );
        assert_eq!(mmu.stats_snapshot().walks.count(), 1);
    }

    #[test]
    fn fault_walk_is_counted_and_returns_none() {
        let p = process(AsapOsConfig::disabled());
        let va = heap_va(&p, 0); // never touched
        let mut mmu = Mmu::new(MmuConfig::default());
        let out = mmu.translate(p.flat_mirror(), p.asid(), va, None);
        assert_eq!(out.phys, None);
        assert!(out.walk.unwrap().fault);
        assert_eq!(mmu.stats_snapshot().walk_faults, 1);
    }

    #[test]
    fn corunner_does_not_advance_clock() {
        let mut mmu = Mmu::new(MmuConfig::default());
        let before = mmu.now();
        mmu.corunner_access(CacheLineAddr::new(0x999));
        assert_eq!(mmu.now(), before);
        mmu.data_access(PhysAddr::new(0x1000));
        assert!(mmu.now() > before);
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut p = process(AsapOsConfig::disabled());
        let va = heap_va(&p, 0);
        p.touch(va).unwrap();
        let mut mmu = Mmu::new(MmuConfig::default());
        let _ = mmu.translate(p.flat_mirror(), p.asid(), va, None);
        mmu.reset_stats();
        assert_eq!(mmu.stats_snapshot().walks.count(), 0);
        assert_eq!(mmu.stats_snapshot().l2_tlb.accesses(), 0);
        // Contents stay warm: the next access is still a TLB hit.
        let out = mmu.translate(p.flat_mirror(), p.asid(), va, None);
        assert_eq!(out.path, TranslationPath::TlbL1);
    }

    #[test]
    fn engine_trait_matches_inherent_translation() {
        // The trait surface must be a pure view over the inherent API: the
        // same access sequence through both yields identical outcomes.
        let mut p1 = process(AsapOsConfig::pl1_and_pl2());
        let mut p2 = process(AsapOsConfig::pl1_and_pl2());
        let vas: Vec<VirtAddr> = (0..16).map(|i| heap_va(&p1, i * 0x3000)).collect();
        for va in &vas {
            p1.touch(*va).unwrap();
            p2.touch(*va).unwrap();
        }
        let mut inherent = Mmu::new(MmuConfig::default().with_asap(AsapHwConfig::p1_p2()));
        inherent.load_context(&p1);
        let mut engine = Mmu::new(MmuConfig::default().with_asap(AsapHwConfig::p1_p2()));
        TranslationEngine::load_context(&mut engine, &p2);
        for va in &vas {
            let a = inherent.translate(p1.flat_mirror(), p1.asid(), *va, None);
            let b = engine.translate_access(&mut p2, *va);
            assert_eq!(a.path, b.path);
            assert_eq!(a.latency, b.latency);
            assert_eq!(a.phys, b.phys);
        }
        let snap = engine.stats_snapshot();
        assert_eq!(snap.walks, inherent.stats_snapshot().walks);
        assert_eq!(snap.walk_faults, 0);
        assert!(snap.host_served.is_none());
    }
}
