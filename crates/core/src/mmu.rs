//! The native-execution MMU: TLBs → PWCs → walker, with ASAP attached.

use crate::engine::{EngineCore, EngineOutcome, EngineStats, TranslationEngine, TranslationPath};
use crate::{
    AsapHwConfig, ClusterSource, MmuConfig, RangeRegisterFile, ServedByMatrix, ServedSource,
};
use asap_cache::HierarchyStats;
use asap_os::Process;
use asap_pt::{Translation, WalkSource, MAX_WALK_DEPTH};
use asap_tlb::{ClusteredTlb, PageWalkCaches, TlbEntry, TlbLevel, TlbStats};
use asap_types::{Asid, CacheLineAddr, PageSize, PhysAddr, PtLevel, VirtAddr};

/// Per-level serving sources of one walk (root first): the fixed-capacity,
/// allocation-free twin of a `Vec<(PtLevel, ServedSource)>` — a walk visits
/// at most [`MAX_WALK_DEPTH`] levels.
#[derive(Debug, Clone, Copy)]
pub struct WalkSources {
    items: [(PtLevel, ServedSource); MAX_WALK_DEPTH],
    len: u8,
}

impl WalkSources {
    const FILLER: (PtLevel, ServedSource) = (PtLevel::Pl1, ServedSource::Pwc);

    /// An empty source list.
    #[must_use]
    pub fn new() -> Self {
        Self {
            items: [Self::FILLER; MAX_WALK_DEPTH],
            len: 0,
        }
    }

    fn push(&mut self, level: PtLevel, src: ServedSource) {
        self.items[usize::from(self.len)] = (level, src);
        self.len += 1;
    }

    /// The recorded `(level, source)` pairs, root first.
    #[must_use]
    pub fn as_slice(&self) -> &[(PtLevel, ServedSource)] {
        &self.items[..usize::from(self.len)]
    }

    /// Iterates over the recorded pairs.
    pub fn iter(&self) -> core::slice::Iter<'_, (PtLevel, ServedSource)> {
        self.as_slice().iter()
    }

    /// Number of recorded levels.
    #[must_use]
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Whether no level was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Default for WalkSources {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for WalkSources {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for WalkSources {}

impl<'a> IntoIterator for &'a WalkSources {
    type Item = &'a (PtLevel, ServedSource);
    type IntoIter = core::slice::Iter<'a, (PtLevel, ServedSource)>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

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

/// The per-core translation machine of Fig. 6: unmodified TLBs, PWCs,
/// walker and cache hierarchy, plus the ASAP range registers and prefetch
/// logic bolted onto the TLB-miss path. The TLB fast path, hierarchy clock
/// and walk accounting live in the shared `EngineCore`; this type adds
/// the native-only structures (split PWCs, clustered TLB, one range-register
/// file).
#[derive(Debug)]
pub struct Mmu {
    core: EngineCore,
    asap: AsapHwConfig,
    pwc: PageWalkCaches,
    clustered: Option<ClusteredTlb>,
    range_regs: RangeRegisterFile,
    served: ServedByMatrix,
}

impl Mmu {
    /// Builds an MMU from `config`, with a private memory fabric (the
    /// single-core machine).
    #[must_use]
    pub fn new(config: MmuConfig) -> Self {
        let fabric = asap_cache::SharedFabric::new(config.hierarchy.clone());
        Self::with_fabric(config, fabric)
    }

    /// Builds an MMU whose core attaches to an **existing** shared fabric —
    /// one core of an SMP machine. `config.hierarchy` is ignored (the
    /// fabric was already built from the machine-wide hierarchy config).
    #[must_use]
    pub fn with_fabric(config: MmuConfig, fabric: asap_cache::SharedFabric) -> Self {
        let MmuConfig {
            l1_tlb,
            l2_tlb,
            pwc,
            hierarchy: _,
            asap,
            range_registers,
            clustered_tlb,
            seed: _,
        } = config;
        Self {
            core: EngineCore::with_fabric(l1_tlb, l2_tlb, fabric),
            pwc: PageWalkCaches::new(pwc),
            clustered: clustered_tlb.map(ClusteredTlb::new),
            range_regs: RangeRegisterFile::new(range_registers),
            asap,
            served: ServedByMatrix::new(),
        }
    }

    /// Loads the OS-provided VMA descriptors (context switch, §3.4).
    pub fn load_context(&mut self, descriptors: &[asap_os::VmaDescriptor]) {
        self.range_regs.load_context(descriptors);
    }

    /// Translates `va`, simulating the full machine: TLB lookups, the ASAP
    /// prefetches, the (possibly PWC-shortened) page walk over the cache
    /// hierarchy, and all fills. Advances the hierarchy clock by the
    /// translation latency.
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
        let vpn = va.page_number();
        if let Some((level, latency, entry)) = self.core.tlb_lookup(asid, vpn) {
            let path = match level {
                TlbLevel::L1 => TranslationPath::TlbL1,
                TlbLevel::L2 => TranslationPath::TlbL2,
            };
            return AccessOutcome {
                path,
                latency,
                phys: Some(entry.phys_addr(va)),
                walk: None,
            };
        }
        if let Some(ct) = &mut self.clustered {
            if let Some(frame) = ct.lookup(asid, vpn) {
                let entry = TlbEntry::new(frame, PageSize::Size4K);
                self.core.tlbs.fill(asid, vpn, entry);
                self.core.advance(crate::L2_TLB_HIT_CYCLES);
                let now = self.core.now();
                if let Some(t) = self.core.tracer_mut() {
                    t.record(now, asap_telemetry::TraceEventKind::TlbHit { level: 3 });
                }
                return AccessOutcome {
                    path: TranslationPath::ClusteredTlb,
                    latency: crate::L2_TLB_HIT_CYCLES,
                    phys: Some(entry.phys_addr(va)),
                    walk: None,
                };
            }
        }
        let (report, translation) = self.walk(src, asid, va, cluster);
        let latency = report.latency;
        // The walk trace already carries the ground-truth translation — no
        // second table descent needed.
        let phys = translation.map(|t| t.phys_addr(va));
        AccessOutcome {
            path: TranslationPath::Walk,
            latency,
            phys,
            walk: Some(report),
        }
    }

    /// The TLB-miss path: prefetch issue + walk timeline (Fig. 4b).
    fn walk<S: WalkSource + ?Sized>(
        &mut self,
        src: &S,
        asid: Asid,
        va: VirtAddr,
        cluster: Option<&dyn ClusterSource>,
    ) -> (WalkReport, Option<Translation>) {
        let t0 = self.core.now();

        // ASAP: range-register check in parallel with walker activation; on
        // a hit, prefetches launch immediately (concurrently with the
        // walker's first access).
        let mut prefetches_issued = 0u8;
        let mut prefetches_dropped = 0u8;
        if self.asap.is_enabled() {
            if let Some(desc) = self.range_regs.lookup(va).copied() {
                self.core.issue_prefetches(
                    &desc,
                    &self.asap.levels,
                    va,
                    t0,
                    &mut prefetches_issued,
                    &mut prefetches_dropped,
                );
            }
        }

        // The walker starts with a PWC probe; the deepest hit decides where
        // the radix-tree traversal resumes.
        let pwc_hit = self.pwc.lookup(asid, va);
        let start_level = pwc_hit.map_or(src.mode().root_level(), |h| h.next_level);

        // Ground truth: the full node trace. The timing model below elides
        // the PWC-covered prefix and charges the hierarchy for the rest,
        // merging with in-flight prefetches where they overlap.
        let trace = src.walk_fixed(va);
        let mut sources = WalkSources::new();
        let mut t = t0 + self.pwc.latency();
        for step in trace.steps() {
            if step.level.depth() > start_level.depth() {
                sources.push(step.level, ServedSource::Pwc);
                self.served.record(step.level, ServedSource::Pwc);
                continue;
            }
            let served = self.core.walk_access(step.entry_addr.cache_line(), &mut t);
            sources.push(step.level, served);
            self.served.record(step.level, served);
        }
        let latency = self.core.finish_walk(t0, t);

        // Fills: PWC entries for intermediate levels, TLB (and clustered
        // TLB) for the leaf. Only a completed walk installs translations —
        // prefetched data is never consumed architecturally (§3.1).
        for step in trace.steps() {
            if step.level != PtLevel::Pl1 && step.entry.is_present() && !step.entry.is_large_leaf()
            {
                self.pwc.fill(asid, va, step.level, step.entry.frame());
            }
        }
        let fault = trace.is_fault();
        let translation = trace.translation();
        if let Some(tr) = translation {
            self.core
                .tlbs
                .fill(asid, vpn_of(va), TlbEntry::new(tr.frame, tr.size));
            if tr.size == PageSize::Size4K {
                if let (Some(ct), Some(source)) = (&mut self.clustered, cluster) {
                    ct.fill_cluster(asid, vpn_of(va), &source.cluster_frames(va));
                }
            }
        } else {
            self.core.walk_faults += 1;
        }
        (
            WalkReport {
                latency,
                sources,
                prefetches_issued,
                prefetches_dropped,
                fault,
            },
            translation,
        )
    }

    /// A demand data access (the application's own load/store reaching the
    /// cache hierarchy); advances the clock.
    pub fn data_access(&mut self, pa: PhysAddr) -> asap_cache::AccessResult {
        self.core.data_access(pa)
    }

    /// Cache pressure from the SMT co-runner: perturbs cache contents
    /// without consuming this thread's cycles (the co-runner executes on
    /// the sibling hardware thread, §4).
    pub fn corunner_access(&mut self, line: CacheLineAddr) {
        self.core.corunner_access(line);
    }

    /// Walk-latency statistics (Fig. 3/8 metric).
    #[must_use]
    pub fn walk_stats(&self) -> &crate::WalkLatencyStats {
        &self.core.walk_stats
    }

    /// The served-by matrix (Fig. 9 data).
    #[must_use]
    pub fn served_matrix(&self) -> &ServedByMatrix {
        &self.served
    }

    /// L1 TLB statistics.
    #[must_use]
    pub fn l1_tlb_stats(&self) -> &TlbStats {
        self.core.tlbs.l1_stats()
    }

    /// L2 TLB statistics (MPKI source for Table 7).
    #[must_use]
    pub fn l2_tlb_stats(&self) -> &TlbStats {
        self.core.tlbs.l2_stats()
    }

    /// Clustered-TLB statistics when configured.
    #[must_use]
    pub fn clustered_stats(&self) -> Option<&TlbStats> {
        self.clustered.as_ref().map(ClusteredTlb::stats)
    }

    /// Cache-hierarchy statistics (fabric-wide: shared across the cores of
    /// an SMP machine).
    #[must_use]
    pub fn hierarchy_stats(&self) -> HierarchyStats {
        self.core.hierarchy_stats()
    }

    /// Walks that ended in a fault.
    #[must_use]
    pub fn walk_faults(&self) -> u64 {
        self.core.walk_faults
    }

    /// The current cycle count.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.core.now()
    }

    /// Advances the clock (non-memory work between accesses).
    pub fn advance(&mut self, cycles: u64) {
        self.core.advance(cycles);
    }

    /// Resets all statistics, keeping state warm (post-warmup).
    pub fn reset_stats(&mut self) {
        self.core.reset_stats();
        self.served = ServedByMatrix::new();
        self.pwc.reset_stats();
        self.range_regs.reset_stats();
        if let Some(ct) = &mut self.clustered {
            ct.reset_stats();
        }
    }
}

impl TranslationEngine for Mmu {
    type Machine = Process;

    fn load_context(&mut self, machine: &Process) {
        Mmu::load_context(self, machine.vma_descriptors());
    }

    fn translate_access(&mut self, machine: &mut Process, va: VirtAddr) -> EngineOutcome {
        let cluster = self
            .clustered
            .is_some()
            .then_some(&*machine as &dyn ClusterSource);
        let out = self.translate(machine.flat_mirror(), machine.asid(), va, cluster);
        EngineOutcome {
            path: out.path,
            latency: out.latency,
            phys: out.phys,
            prefetches_issued: out.walk.as_ref().map_or(0, |w| w.prefetches_issued),
            prefetches_dropped: out.walk.as_ref().map_or(0, |w| w.prefetches_dropped),
        }
    }

    fn data_access(&mut self, pa: PhysAddr) -> asap_cache::AccessResult {
        Mmu::data_access(self, pa)
    }

    fn corunner_access(&mut self, line: CacheLineAddr) {
        Mmu::corunner_access(self, line);
    }

    fn now(&self) -> u64 {
        Mmu::now(self)
    }

    fn advance(&mut self, cycles: u64) {
        Mmu::advance(self, cycles);
    }

    fn reset_stats(&mut self) {
        Mmu::reset_stats(self);
    }

    fn stats_snapshot(&self) -> EngineStats {
        EngineStats {
            walks: self.core.walk_stats.clone(),
            served: self.served,
            host_served: None,
            l2_tlb: *self.core.tlbs.l2_stats(),
            walk_faults: self.core.walk_faults,
        }
    }

    fn set_tracer(&mut self, sink: asap_telemetry::TraceSink) {
        self.core.set_tracer(sink);
    }

    fn take_tracer(&mut self) -> Option<asap_telemetry::TraceSink> {
        self.core.take_tracer()
    }

    /// Path-local unless a clustered TLB is configured: its fill reads the
    /// PTE line around the address, which later faults change.
    fn translation_is_path_local(&self) -> bool {
        self.clustered.is_none()
    }

    fn collect_metrics(&self, prefix: &str, out: &mut asap_telemetry::MetricSet) {
        use asap_telemetry::Collect;
        self.stats_snapshot().collect(prefix, out);
        self.core.collect_fabric_metrics(prefix, out);
    }
}

fn vpn_of(va: VirtAddr) -> asap_types::VirtPageNum {
    va.page_number()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AsapHwConfig;
    use asap_os::{AsapOsConfig, Process, ProcessConfig, VmaKind};
    use asap_types::{Asid, ByteSize};

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
        assert_eq!(mmu.walk_stats().count(), 1);
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
        asap_mmu.load_context(p.vma_descriptors());
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
        mmu.load_context(p.vma_descriptors());
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
        asap_mmu.load_context(p.vma_descriptors());
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
        assert_eq!(mmu.walk_stats().count(), 1);
    }

    #[test]
    fn fault_walk_is_counted_and_returns_none() {
        let p = process(AsapOsConfig::disabled());
        let va = heap_va(&p, 0); // never touched
        let mut mmu = Mmu::new(MmuConfig::default());
        let out = mmu.translate(p.flat_mirror(), p.asid(), va, None);
        assert_eq!(out.phys, None);
        assert!(out.walk.unwrap().fault);
        assert_eq!(mmu.walk_faults(), 1);
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
        assert_eq!(mmu.walk_stats().count(), 0);
        assert_eq!(mmu.l2_tlb_stats().accesses(), 0);
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
        inherent.load_context(p1.vma_descriptors());
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
        assert_eq!(snap.walks, *inherent.walk_stats());
        assert_eq!(snap.walk_faults, 0);
        assert!(snap.host_served.is_none());
    }
}
