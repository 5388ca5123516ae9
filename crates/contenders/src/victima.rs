//! A Victima-style backend: evicted L2 S-TLB entries live on as TLB
//! blocks in the L2 data cache.
//!
//! Victima (Kanellopoulos et al., MICRO 2023) observes that L2 cache ways
//! are chronically underutilized while S-TLB reach is the bottleneck for
//! big-memory workloads, and repurposes cache lines to hold *TLB blocks*:
//! one line packs the translations of [`TLB_BLOCK_PAGES`] virtually
//! contiguous pages. On S-TLB eviction, a [`PtwCostPredictor`] decides
//! whether the victim's translation is costly enough to re-walk to justify
//! a block; if so the block line is installed in the L2, where it competes
//! with ordinary data under the normal replacement policy. On an S-TLB
//! miss, the core probes the L2 for the block before starting a walk: a
//! hit recovers the translation at L2-hit latency and eliminates the walk
//! entirely.
//!
//! Modelling notes:
//!
//! * Block lines are *synthetic* line addresses in a reserved tag space
//!   (bit 62 set) that no simulated physical frame can produce, so blocks
//!   and data can never alias — but they do contend for real L2 sets and
//!   ways, which is the mechanism's central trade-off.
//! * Block contents are shadowed in a software map; the cache decides
//!   *residency* (a block evicted by data pressure is lost, exactly as in
//!   the real design), the shadow supplies the payload on a resident hit.
//! * The simulated OS never remaps a page, so blocks need no shootdown
//!   path; a real implementation invalidates block lines like TLB entries.

use crate::walk::verified_walk;
use crate::{PtwCostPredictor, PtwCostPredictorConfig};
use asap_cache::HierarchyConfig;
use asap_core::{
    EngineCore, EngineOutcome, EngineStats, ServedByMatrix, TranslationEngine, TranslationPath,
};
use asap_os::Process;
use asap_tlb::{PageWalkCaches, PwcConfig, TlbConfig, TlbEntry, TlbLevel};
use asap_types::FastMap;
use asap_types::{Asid, CacheLineAddr, PageSize, PhysAddr, VirtAddr, VirtPageNum};

/// Translations per TLB block: eight 8-byte entries fill one 64-byte line,
/// covering eight virtually contiguous 4 KiB pages.
pub const TLB_BLOCK_PAGES: u64 = 8;

/// Reserved tag bit distinguishing synthetic block lines from every real
/// physical line (simulated frames stay far below 2^40, i.e. lines below
/// 2^46).
const BLOCK_LINE_TAG: u64 = 1 << 62;

/// Full Victima-MMU configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VictimaConfig {
    /// L1 D-TLB geometry.
    pub l1_tlb: TlbConfig,
    /// L2 S-TLB geometry.
    pub l2_tlb: TlbConfig,
    /// Split page-walk caches (unchanged from the baseline).
    pub pwc: PwcConfig,
    /// Cache hierarchy (Table 5); the L2 doubles as the block store.
    pub hierarchy: HierarchyConfig,
    /// The PTW cost predictor gating block insertion.
    pub predictor: PtwCostPredictorConfig,
    /// The run's seed. Every structure of the engine is deterministic
    /// (exact LRU), so no state depends on it.
    pub seed: u64,
}

impl Default for VictimaConfig {
    /// The paper's Table 5 machine with the default predictor.
    fn default() -> Self {
        Self {
            l1_tlb: TlbConfig::l1_dtlb(),
            l2_tlb: TlbConfig::l2_stlb(),
            pwc: PwcConfig::split_default(),
            hierarchy: HierarchyConfig::broadwell_like(),
            predictor: PtwCostPredictorConfig::default(),
            seed: 0,
        }
    }
}

impl VictimaConfig {
    /// Sets the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Swaps the predictor policy.
    #[must_use]
    pub fn with_predictor(mut self, predictor: PtwCostPredictorConfig) -> Self {
        self.predictor = predictor;
        self
    }
}

/// Victima-specific counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VictimaStats {
    /// S-TLB misses served from a cache-resident TLB block (walks saved).
    pub block_hits: u64,
    /// S-TLB misses whose block probe missed (walk performed).
    pub block_misses: u64,
    /// Blocks installed into the L2 on S-TLB evictions.
    pub blocks_installed: u64,
    /// Evictions the cost predictor declined to insert.
    pub predictor_rejections: u64,
}

impl asap_telemetry::Collect for VictimaStats {
    fn collect(&self, prefix: &str, out: &mut asap_telemetry::MetricSet) {
        out.counter(
            format!("{prefix}block_hits_total"),
            "S-TLB misses served from a cache-resident TLB block",
            self.block_hits,
        );
        out.counter(
            format!("{prefix}block_misses_total"),
            "S-TLB misses whose block probe missed",
            self.block_misses,
        );
        out.counter(
            format!("{prefix}blocks_installed_total"),
            "blocks installed into the L2 on S-TLB evictions",
            self.blocks_installed,
        );
        out.counter(
            format!("{prefix}predictor_rejections_total"),
            "evictions the cost predictor declined to insert",
            self.predictor_rejections,
        );
    }
}

/// The Victima-style translation machine: stock TLBs, PWCs and walker,
/// plus the TLB-block path between the S-TLB and the walk.
#[derive(Debug)]
pub struct VictimaMmu {
    core: EngineCore,
    pwc: PageWalkCaches,
    predictor: PtwCostPredictor,
    /// Shadow payloads of installed blocks, keyed by (ASID, block index).
    /// Residency is decided by the L2 cache; this map only supplies the
    /// translations for lines that are still resident.
    blocks: FastMap<(Asid, u64), [Option<TlbEntry>; TLB_BLOCK_PAGES as usize]>,
    served: ServedByMatrix,
    stats: VictimaStats,
}

impl VictimaMmu {
    /// Builds the MMU from `config`, with a private memory fabric (the
    /// single-core machine).
    #[must_use]
    pub fn new(config: VictimaConfig) -> Self {
        let fabric = asap_cache::SharedFabric::new(config.hierarchy.clone());
        Self::with_fabric(config, fabric)
    }

    /// Builds an MMU whose core attaches to an **existing** shared fabric —
    /// one core of an SMP machine, whose TLB blocks then contend for the
    /// *shared* L2 with every other core's data and blocks.
    /// `config.hierarchy` is ignored (the fabric already exists).
    #[must_use]
    pub fn with_fabric(config: VictimaConfig, fabric: asap_cache::SharedFabric) -> Self {
        let VictimaConfig {
            l1_tlb,
            l2_tlb,
            pwc,
            hierarchy: _,
            predictor,
            seed: _,
        } = config;
        Self {
            core: EngineCore::with_fabric(l1_tlb, l2_tlb, fabric),
            pwc: PageWalkCaches::new(pwc),
            predictor: PtwCostPredictor::new(predictor),
            blocks: FastMap::default(),
            served: ServedByMatrix::new(),
            stats: VictimaStats::default(),
        }
    }

    /// The synthetic L2 line holding the block for `(asid, block index)`.
    fn block_line(asid: Asid, block: u64) -> CacheLineAddr {
        CacheLineAddr::new(BLOCK_LINE_TAG | (u64::from(asid.0) << 45) | block)
    }

    fn block_of(vpn: VirtPageNum) -> (u64, usize) {
        (
            vpn.raw() / TLB_BLOCK_PAGES,
            (vpn.raw() % TLB_BLOCK_PAGES) as usize,
        )
    }

    /// Probes the L2 for a resident TLB block covering `vpn`. On a hit the
    /// probe costs an L2 access; on a miss it overlaps walker activation
    /// (like ASAP's range-register check) and costs nothing extra.
    fn block_lookup(&mut self, asid: Asid, vpn: VirtPageNum) -> Option<TlbEntry> {
        let (block, sub) = Self::block_of(vpn);
        let entry = *self.blocks.get(&(asid, block))?.get(sub)?;
        let entry = entry?;
        self.core
            .l2_lookup(Self::block_line(asid, block))
            .then_some(entry)
    }

    /// Offers an S-TLB victim to the block store: 4 KiB victims whose
    /// region the predictor deems costly get (merged into) a block line in
    /// the L2.
    fn offer_victim(&mut self, asid: Asid, vpn: VirtPageNum, entry: TlbEntry) {
        if entry.size != PageSize::Size4K {
            // Large-page victims have reach already; blocks hold 4K PTEs.
            return;
        }
        if !self.predictor.predicts_costly(asid, vpn) {
            self.stats.predictor_rejections += 1;
            return;
        }
        let (block, sub) = Self::block_of(vpn);
        let line = Self::block_line(asid, block);
        let resident = self.core.l2_contains(line);
        let payload = self.blocks.entry((asid, block)).or_default();
        if !resident {
            // The line is not in the L2, so any shadowed payload was lost
            // with it: a fresh install starts from an empty block rather
            // than resurrecting translations the cache evicted.
            *payload = [None; TLB_BLOCK_PAGES as usize];
        }
        payload[sub] = Some(entry);
        self.core.l2_install(line);
        self.stats.blocks_installed += 1;
    }

    /// Translates `va`: TLB fast path, then the TLB-block probe, then the
    /// verifying walk. Advances the clock by the translation latency.
    pub fn translate(&mut self, machine: &Process, va: VirtAddr) -> EngineOutcome {
        let asid = machine.asid();
        let vpn = va.page_number();
        if let Some((level, latency, entry)) = self.core.tlb_lookup(asid, vpn) {
            let path = match level {
                TlbLevel::L1 => TranslationPath::TlbL1,
                TlbLevel::L2 => TranslationPath::TlbL2,
            };
            return EngineOutcome {
                path,
                latency,
                phys: Some(entry.phys_addr(va)),
                prefetches_issued: 0,
                prefetches_dropped: 0,
            };
        }
        if let Some(entry) = self.block_lookup(asid, vpn) {
            self.stats.block_hits += 1;
            let latency = self.core.l2_latency();
            self.core.advance(latency);
            let now = self.core.now();
            if let Some(t) = self.core.tracer_mut() {
                t.record(now, asap_telemetry::TraceEventKind::TlbHit { level: 3 });
            }
            // Promote back into the TLBs; the displaced entry gets its own
            // shot at a block.
            if let Some((v_asid, v_vpn, v_entry)) =
                self.core.tlbs.fill_with_victim(asid, vpn, entry)
            {
                self.offer_victim(v_asid, v_vpn, v_entry);
            }
            return EngineOutcome {
                path: TranslationPath::TlbBlock,
                latency,
                phys: Some(entry.phys_addr(va)),
                prefetches_issued: 0,
                prefetches_dropped: 0,
            };
        }
        self.stats.block_misses += 1;
        let walk = verified_walk(
            &mut self.core,
            &mut self.pwc,
            &mut self.served,
            machine.flat_mirror(),
            asid,
            va,
        );
        self.predictor.record(asid, vpn, walk.latency);
        let phys = walk.translation.map(|tr| {
            let entry = TlbEntry::new(tr.frame, tr.size);
            if let Some((v_asid, v_vpn, v_entry)) =
                self.core.tlbs.fill_with_victim(asid, vpn, entry)
            {
                self.offer_victim(v_asid, v_vpn, v_entry);
            }
            entry.phys_addr(va)
        });
        EngineOutcome {
            path: TranslationPath::Walk,
            latency: walk.latency,
            phys,
            prefetches_issued: 0,
            prefetches_dropped: 0,
        }
    }

    /// Victima-specific counters.
    #[must_use]
    pub fn victima_stats(&self) -> &VictimaStats {
        &self.stats
    }

    /// Walk-latency statistics.
    #[must_use]
    pub fn walk_stats(&self) -> &asap_core::WalkLatencyStats {
        &self.core.walk_stats
    }
}

impl TranslationEngine for VictimaMmu {
    type Machine = Process;

    fn load_context(&mut self, _machine: &Process) {
        // Victima is OS-transparent: no descriptors, no published hints.
    }

    fn translate_access(&mut self, machine: &mut Process, va: VirtAddr) -> EngineOutcome {
        self.translate(machine, va)
    }

    fn data_access(&mut self, pa: PhysAddr) -> asap_cache::AccessResult {
        self.core.data_access(pa)
    }

    fn corunner_access(&mut self, line: CacheLineAddr) {
        self.core.corunner_access(line);
    }

    fn now(&self) -> u64 {
        self.core.now()
    }

    fn advance(&mut self, cycles: u64) {
        self.core.advance(cycles);
    }

    fn reset_stats(&mut self) {
        self.core.reset_stats();
        self.served = ServedByMatrix::new();
        self.stats = VictimaStats::default();
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

    /// TLB blocks hold evicted TLB entries, never PTEs read off the path.
    fn translation_is_path_local(&self) -> bool {
        true
    }

    fn set_tracer(&mut self, sink: asap_telemetry::TraceSink) {
        self.core.set_tracer(sink);
    }

    fn take_tracer(&mut self) -> Option<asap_telemetry::TraceSink> {
        self.core.take_tracer()
    }

    fn collect_metrics(&self, prefix: &str, out: &mut asap_telemetry::MetricSet) {
        use asap_telemetry::Collect;
        self.stats_snapshot().collect(prefix, out);
        self.core.collect_fabric_metrics(prefix, out);
        self.stats.collect(&format!("{prefix}victima_"), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_core::SimMachine;
    use asap_os::{Process, ProcessConfig, VmaKind};
    use asap_types::{Asid, ByteSize};

    /// A config whose S-TLB is tiny, so evictions (and thus blocks) appear
    /// after a handful of fills.
    fn tiny_stlb_config() -> VictimaConfig {
        VictimaConfig {
            l2_tlb: TlbConfig {
                name: "tiny S-TLB",
                entries: 8,
                ways: 2,
            },
            l1_tlb: TlbConfig {
                name: "tiny D-TLB",
                entries: 4,
                ways: 2,
            },
            ..VictimaConfig::default()
        }
    }

    fn process() -> Process {
        Process::new(
            ProcessConfig::new(Asid(1))
                .with_heap(ByteSize::mib(256))
                .with_seed(5),
        )
    }

    fn heap_va(p: &Process, page: u64) -> VirtAddr {
        VirtAddr::new(p.vma_of_kind(VmaKind::Heap).unwrap().start().raw() + page * 4096).unwrap()
    }

    #[test]
    fn evicted_translations_come_back_as_block_hits() {
        let mut p = process();
        // Touch far-apart pages (distinct 2 MiB regions → costly walks).
        let vas: Vec<VirtAddr> = (0..32).map(|i| heap_va(&p, i * 513)).collect();
        for va in &vas {
            p.touch(*va).unwrap();
        }
        let mut mmu = VictimaMmu::new(tiny_stlb_config());
        for va in &vas {
            let out = mmu.translate(&p, *va);
            assert_eq!(out.path, TranslationPath::Walk);
        }
        assert!(
            mmu.victima_stats().blocks_installed > 0,
            "tiny S-TLB must evict into blocks"
        );
        // Re-touch the earliest pages: long evicted from the S-TLB, but
        // their blocks are L2-resident.
        let mut hits = 0;
        for va in &vas[..8] {
            let out = mmu.translate(&p, *va);
            if out.path == TranslationPath::TlbBlock {
                hits += 1;
                assert_eq!(out.latency, 12, "block hit costs an L2 access");
            }
            assert_eq!(out.phys, Some(p.translate(*va).unwrap().phys_addr(*va)));
        }
        assert!(
            hits > 0,
            "expected block hits, stats: {:?}",
            mmu.victima_stats()
        );
    }

    #[test]
    fn block_hits_eliminate_walks() {
        let mut p = process();
        let vas: Vec<VirtAddr> = (0..24).map(|i| heap_va(&p, i * 513)).collect();
        for va in &vas {
            p.touch(*va).unwrap();
        }
        let mut mmu = VictimaMmu::new(tiny_stlb_config());
        for va in &vas {
            let _ = mmu.translate(&p, *va);
        }
        let walks_before = mmu.walk_stats().count();
        for va in &vas {
            let _ = mmu.translate(&p, *va);
        }
        let second_pass_walks = mmu.walk_stats().count() - walks_before;
        assert!(
            second_pass_walks < vas.len() as u64,
            "blocks must absorb some second-pass misses ({second_pass_walks}/{})",
            vas.len()
        );
    }

    #[test]
    fn predictor_gates_insertion() {
        let mut p = process();
        let vas: Vec<VirtAddr> = (0..32).map(|i| heap_va(&p, i * 513)).collect();
        for va in &vas {
            p.touch(*va).unwrap();
        }
        // An insertion bar no real walk reaches: nothing gets inserted.
        let mut config = tiny_stlb_config();
        config.predictor.threshold = u64::MAX;
        let mut mmu = VictimaMmu::new(config);
        for va in &vas {
            let _ = mmu.translate(&p, *va);
        }
        for va in &vas {
            let _ = mmu.translate(&p, *va);
        }
        let s = *mmu.victima_stats();
        assert_eq!(s.blocks_installed, 0);
        assert!(s.predictor_rejections > 0);
        assert_eq!(s.block_hits, 0);
    }

    #[test]
    fn cache_pressure_evicts_blocks() {
        let mut p = process();
        let vas: Vec<VirtAddr> = (0..24).map(|i| heap_va(&p, i * 513)).collect();
        for va in &vas {
            p.touch(*va).unwrap();
        }
        let mut mmu = VictimaMmu::new(tiny_stlb_config());
        for va in &vas {
            let _ = mmu.translate(&p, *va);
        }
        let installed = mmu.victima_stats().blocks_installed;
        assert!(installed > 0);
        // Thrash the whole hierarchy: every block line is evicted.
        for i in 0..400_000u64 {
            let _ = mmu.data_access(PhysAddr::new(i * 64));
        }
        let hits_before = mmu.victima_stats().block_hits;
        for va in &vas[..8] {
            let out = mmu.translate(&p, *va);
            assert_ne!(out.path, TranslationPath::TlbBlock);
        }
        assert_eq!(mmu.victima_stats().block_hits, hits_before);
    }

    #[test]
    fn reinstall_after_eviction_does_not_resurrect_stale_entries() {
        let mut mmu = VictimaMmu::new(VictimaConfig::default());
        let asid = Asid(1);
        let a = VirtPageNum::new(8);
        let b = VirtPageNum::new(9); // same 8-page block as `a`
        let ea = TlbEntry::new(asap_types::PhysFrameNum::new(100), PageSize::Size4K);
        let eb = TlbEntry::new(asap_types::PhysFrameNum::new(101), PageSize::Size4K);
        mmu.offer_victim(asid, a, ea); // unknown region → predicted costly
        mmu.offer_victim(asid, b, eb);
        assert_eq!(mmu.block_lookup(asid, a), Some(ea));
        assert_eq!(mmu.block_lookup(asid, b), Some(eb));
        // Evict the block line with data pressure: both payloads are lost.
        for i in 0..400_000u64 {
            let _ = mmu.data_access(PhysAddr::new(i * 64));
        }
        assert_eq!(mmu.block_lookup(asid, a), None);
        // Re-installing one page must not resurrect the other's payload.
        mmu.offer_victim(asid, a, ea);
        assert_eq!(mmu.block_lookup(asid, a), Some(ea));
        assert_eq!(
            mmu.block_lookup(asid, b),
            None,
            "stale sub-entry resurrected after cache eviction"
        );
    }

    #[test]
    fn committed_translations_match_reference() {
        let mut p = process();
        let vas: Vec<VirtAddr> = (0..48).map(|i| heap_va(&p, i * 37)).collect();
        for va in &vas {
            p.touch(*va).unwrap();
        }
        let mut mmu = VictimaMmu::new(tiny_stlb_config());
        for pass in 0..3 {
            for va in &vas {
                let out = mmu.translate_access(&mut p, *va);
                assert_eq!(out.phys, p.reference_translate(*va), "pass {pass} va {va}");
            }
        }
    }

    #[test]
    fn reset_stats_keeps_blocks_warm() {
        let mut p = process();
        let vas: Vec<VirtAddr> = (0..24).map(|i| heap_va(&p, i * 513)).collect();
        for va in &vas {
            p.touch(*va).unwrap();
        }
        let mut mmu = VictimaMmu::new(tiny_stlb_config());
        for va in &vas {
            let _ = mmu.translate(&p, *va);
        }
        TranslationEngine::reset_stats(&mut mmu);
        assert_eq!(mmu.victima_stats().blocks_installed, 0);
        let mut block_hits = 0;
        for va in &vas[..8] {
            if mmu.translate(&p, *va).path == TranslationPath::TlbBlock {
                block_hits += 1;
            }
        }
        assert!(block_hits > 0, "blocks survive a stats reset");
    }
}
