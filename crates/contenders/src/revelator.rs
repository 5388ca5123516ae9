//! A Revelator-style backend: hash-based speculative translation verified
//! by the radix walk.
//!
//! Revelator (Kanellopoulos et al., 2025) attacks the *serialization* of
//! translation and data fetch: on a TLB miss the data access cannot start
//! until the walk delivers the physical address. If system software places
//! data frames with a published hash policy, hardware can compute a
//! *speculative* physical address in a few cycles and start fetching the
//! data immediately, overlapping the fetch with the verifying walk. A
//! correct guess hides the data-fetch latency entirely behind the walk; a
//! wrong guess wasted one best-effort prefetch. Nothing architectural ever
//! depends on the guess: the committed translation always comes from the
//! walk.
//!
//! The OS side is [`asap_os::SpeculationHint`]: the hash parameters of the
//! data-page layout plus per-VMA index windows, loaded on context switch.
//! Accuracy tracks physical fragmentation — groups the OS managed to place
//! on the hash-preferred (clustered) path verify, fragmentation-forced
//! scattered groups mispredict — reproducing the paper's sensitivity to
//! memory pressure.

use crate::walk::verified_walk;
use asap_cache::HierarchyConfig;
use asap_core::{
    EngineCore, EngineOutcome, EngineStats, ServedByMatrix, TranslationEngine, TranslationPath,
};
use asap_os::{Process, SpeculationHint};
use asap_tlb::{PageWalkCaches, PwcConfig, TlbConfig, TlbEntry, TlbLevel};
use asap_types::{CacheLineAddr, PhysAddr, VirtAddr};

/// Full Revelator-MMU configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RevelatorConfig {
    /// L1 D-TLB geometry.
    pub l1_tlb: TlbConfig,
    /// L2 S-TLB geometry.
    pub l2_tlb: TlbConfig,
    /// Split page-walk caches (unchanged from the baseline).
    pub pwc: PwcConfig,
    /// Cache hierarchy (Table 5).
    pub hierarchy: HierarchyConfig,
    /// Cycles the hash unit needs to produce a speculative address. The
    /// speculative fetch issues this many cycles after walk start.
    pub hash_cycles: u64,
    /// The run's seed. Every structure of the engine is deterministic
    /// (exact LRU), so no state depends on it.
    pub seed: u64,
}

impl Default for RevelatorConfig {
    /// The paper's Table 5 machine with a 4-cycle hash unit.
    fn default() -> Self {
        Self {
            l1_tlb: TlbConfig::l1_dtlb(),
            l2_tlb: TlbConfig::l2_stlb(),
            pwc: PwcConfig::split_default(),
            hierarchy: HierarchyConfig::broadwell_like(),
            hash_cycles: 4,
            seed: 0,
        }
    }
}

impl RevelatorConfig {
    /// Sets the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Revelator-specific counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RevelatorStats {
    /// Speculative data fetches issued.
    pub speculations_issued: u64,
    /// Speculative fetches dropped for lack of an MSHR.
    pub speculations_dropped: u64,
    /// Guesses the verifying walk confirmed.
    pub verified_correct: u64,
    /// Guesses the verifying walk refuted (fetch wasted).
    pub mispredicted: u64,
    /// TLB misses with no published window covering the address.
    pub declined: u64,
}

impl RevelatorStats {
    /// Fraction of verified speculations that were correct.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        let total = self.verified_correct + self.mispredicted;
        if total == 0 {
            0.0
        } else {
            self.verified_correct as f64 / total as f64
        }
    }
}

impl asap_telemetry::Collect for RevelatorStats {
    fn collect(&self, prefix: &str, out: &mut asap_telemetry::MetricSet) {
        out.counter(
            format!("{prefix}speculations_issued_total"),
            "speculative data fetches issued",
            self.speculations_issued,
        );
        out.counter(
            format!("{prefix}speculations_dropped_total"),
            "speculative fetches dropped for lack of an MSHR",
            self.speculations_dropped,
        );
        out.counter(
            format!("{prefix}verified_correct_total"),
            "guesses the verifying walk confirmed",
            self.verified_correct,
        );
        out.counter(
            format!("{prefix}mispredicted_total"),
            "guesses the verifying walk refuted",
            self.mispredicted,
        );
        out.counter(
            format!("{prefix}declined_total"),
            "TLB misses with no published window covering the address",
            self.declined,
        );
        out.gauge(
            format!("{prefix}accuracy"),
            "fraction of verified speculations that were correct",
            self.accuracy(),
        );
    }
}

/// The Revelator-style translation machine: stock TLBs, PWCs and walker,
/// plus the hash unit that overlaps a speculative data fetch with the
/// verifying walk.
#[derive(Debug)]
pub struct RevelatorMmu {
    core: EngineCore,
    pwc: PageWalkCaches,
    hash_cycles: u64,
    hint: Option<SpeculationHint>,
    served: ServedByMatrix,
    stats: RevelatorStats,
}

impl RevelatorMmu {
    /// Builds the MMU from `config`, with a private memory fabric (the
    /// single-core machine).
    #[must_use]
    pub fn new(config: RevelatorConfig) -> Self {
        let fabric = asap_cache::SharedFabric::new(config.hierarchy.clone());
        Self::with_fabric(config, fabric)
    }

    /// Builds an MMU whose core attaches to an **existing** shared fabric —
    /// one core of an SMP machine, whose speculative data fetches then
    /// contend for MSHRs and cache ways with every other core.
    /// `config.hierarchy` is ignored (the fabric already exists).
    #[must_use]
    pub fn with_fabric(config: RevelatorConfig, fabric: asap_cache::SharedFabric) -> Self {
        let RevelatorConfig {
            l1_tlb,
            l2_tlb,
            pwc,
            hierarchy: _,
            hash_cycles,
            seed: _,
        } = config;
        Self {
            core: EngineCore::with_fabric(l1_tlb, l2_tlb, fabric),
            pwc: PageWalkCaches::new(pwc),
            hash_cycles,
            hint: None,
            served: ServedByMatrix::new(),
            stats: RevelatorStats::default(),
        }
    }

    /// Loads the OS-published speculation hint (context switch).
    pub fn load_hint(&mut self, hint: SpeculationHint) {
        self.hint = Some(hint);
    }

    /// Translates `va`: TLB fast path, then hash speculation overlapped
    /// with the verifying walk. Advances the clock by the walk latency; the
    /// speculative fetch rides an MSHR and surfaces as a merge when the
    /// subsequent demand data access arrives.
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

        // The hash unit runs concurrently with walker activation; its
        // speculative data fetch issues `hash_cycles` after walk start.
        let t0 = self.core.now();
        let mut issued = 0u8;
        let mut dropped = 0u8;
        let guess = self.hint.as_ref().and_then(|h| h.predict(va));
        match guess {
            Some(pa) => {
                match self
                    .core
                    .prefetch_line_at(pa.cache_line(), t0 + self.hash_cycles)
                {
                    Some(_) => {
                        issued = 1;
                        self.stats.speculations_issued += 1;
                    }
                    None => {
                        dropped = 1;
                        self.stats.speculations_dropped += 1;
                    }
                }
            }
            None => self.stats.declined += 1,
        }

        // The verifying walk — the only source of architectural truth.
        let walk = verified_walk(
            &mut self.core,
            &mut self.pwc,
            &mut self.served,
            machine.flat_mirror(),
            asid,
            va,
        );
        let phys = walk.translation.map(|tr| {
            let entry = TlbEntry::new(tr.frame, tr.size);
            self.core.tlbs.fill(asid, vpn, entry);
            entry.phys_addr(va)
        });
        match (guess, phys) {
            (Some(pa), Some(actual)) if pa == actual => self.stats.verified_correct += 1,
            (Some(_), Some(_)) => self.stats.mispredicted += 1,
            // A guess for a page the walk proves unmapped is wrong by
            // definition — count it so every computed guess is verified.
            (Some(_), None) => self.stats.mispredicted += 1,
            (None, _) => {}
        }
        EngineOutcome {
            path: TranslationPath::Walk,
            latency: walk.latency,
            phys,
            prefetches_issued: issued,
            prefetches_dropped: dropped,
        }
    }

    /// Revelator-specific counters.
    #[must_use]
    pub fn revelator_stats(&self) -> &RevelatorStats {
        &self.stats
    }

    /// Walk-latency statistics.
    #[must_use]
    pub fn walk_stats(&self) -> &asap_core::WalkLatencyStats {
        &self.core.walk_stats
    }
}

impl TranslationEngine for RevelatorMmu {
    type Machine = Process;

    fn load_context(&mut self, machine: &Process) {
        self.load_hint(machine.speculation_hint());
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
        self.stats = RevelatorStats::default();
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

    /// The speculative fetch comes from the hint loaded with the context;
    /// only the verifying walk reads the machine.
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
        self.stats.collect(&format!("{prefix}revelator_"), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_core::SimMachine;
    use asap_os::{Process, ProcessConfig, VmaKind};
    use asap_types::{Asid, ByteSize};

    fn process(cluster_fraction: f64) -> Process {
        Process::new(
            ProcessConfig::new(Asid(1))
                .with_heap(ByteSize::mib(256))
                .with_data_cluster_fraction(cluster_fraction)
                .with_seed(5),
        )
    }

    fn heap_va(p: &Process, page: u64) -> VirtAddr {
        VirtAddr::new(p.vma_of_kind(VmaKind::Heap).unwrap().start().raw() + page * 4096).unwrap()
    }

    fn engine_with(p: &Process) -> RevelatorMmu {
        let mut mmu = RevelatorMmu::new(RevelatorConfig::default());
        TranslationEngine::load_context(&mut mmu, p);
        mmu
    }

    #[test]
    fn clustered_process_speculates_correctly() {
        let mut p = process(1.0);
        let vas: Vec<VirtAddr> = (0..32).map(|i| heap_va(&p, i * 7)).collect();
        for va in &vas {
            p.touch(*va).unwrap();
        }
        let mut mmu = engine_with(&p);
        for va in &vas {
            let out = mmu.translate(&p, *va);
            assert_eq!(out.path, TranslationPath::Walk);
            assert_eq!(out.phys, Some(p.translate(*va).unwrap().phys_addr(*va)));
        }
        let s = *mmu.revelator_stats();
        assert_eq!(s.verified_correct, 32);
        assert_eq!(s.mispredicted, 0);
        assert!((s.accuracy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scattered_process_mispredicts_but_commits_truth() {
        let mut p = process(0.0);
        let vas: Vec<VirtAddr> = (0..32).map(|i| heap_va(&p, i * 7)).collect();
        for va in &vas {
            p.touch(*va).unwrap();
        }
        let mut mmu = engine_with(&p);
        for va in &vas {
            let out = mmu.translate_access(&mut p, *va);
            // Misprediction never leaks into the committed translation.
            assert_eq!(out.phys, p.reference_translate(*va));
        }
        let s = *mmu.revelator_stats();
        assert_eq!(s.verified_correct, 0);
        assert_eq!(s.mispredicted, 32);
    }

    #[test]
    fn correct_speculation_hides_the_data_fetch() {
        // After a cold walk (≈ 766 cycles), the speculative fetch issued at
        // walk start has long completed: the demand data access is an L1
        // hit instead of a DRAM miss.
        let mut p = process(1.0);
        let va = heap_va(&p, 0);
        p.touch(va).unwrap();
        let mut mmu = engine_with(&p);
        let out = mmu.translate(&p, va);
        let pa = out.phys.unwrap();
        let r = TranslationEngine::data_access(&mut mmu, pa);
        assert!(
            r.latency <= 12,
            "data fetch must be hidden behind the walk, got {} cycles",
            r.latency
        );
    }

    #[test]
    fn misprediction_leaves_data_fetch_cold() {
        let mut p = process(0.0);
        let va = heap_va(&p, 0);
        p.touch(va).unwrap();
        let mut mmu = engine_with(&p);
        let out = mmu.translate(&p, va);
        let pa = out.phys.unwrap();
        let r = TranslationEngine::data_access(&mut mmu, pa);
        assert_eq!(r.latency, 191, "wrong guess cannot help the real fetch");
    }

    #[test]
    fn without_hint_speculation_declines() {
        let mut p = process(1.0);
        let va = heap_va(&p, 0);
        p.touch(va).unwrap();
        let mut mmu = RevelatorMmu::new(RevelatorConfig::default());
        let out = mmu.translate(&p, va);
        assert_eq!(out.prefetches_issued, 0);
        assert_eq!(mmu.revelator_stats().declined, 1);
        assert_eq!(out.phys, Some(p.translate(va).unwrap().phys_addr(va)));
    }

    #[test]
    fn faulting_walk_counts_the_guess_as_mispredicted() {
        // An address inside a published window but never demand-paged: the
        // hash unit guesses, the verifying walk faults, and the guess must
        // still be accounted (wrong by definition).
        let p = process(1.0);
        let va = heap_va(&p, 0);
        let mut mmu = engine_with(&p);
        let out = mmu.translate(&p, va);
        assert_eq!(out.phys, None);
        let s = *mmu.revelator_stats();
        assert_eq!(s.mispredicted, 1);
        assert_eq!(
            s.verified_correct + s.mispredicted,
            s.speculations_issued + s.speculations_dropped,
            "every computed guess must be verified"
        );
    }

    #[test]
    fn speculation_does_not_change_walk_latency() {
        // The walk timeline is untouched by speculation: a Revelator walk
        // costs exactly what the same walk costs with no hint loaded.
        let mut p1 = process(1.0);
        let mut p2 = process(1.0);
        let vas: Vec<VirtAddr> = (0..16).map(|i| heap_va(&p1, i * 3)).collect();
        for va in &vas {
            p1.touch(*va).unwrap();
            p2.touch(*va).unwrap();
        }
        let mut with_hint = engine_with(&p1);
        let mut without = RevelatorMmu::new(RevelatorConfig::default());
        for va in &vas {
            let a = with_hint.translate(&p1, *va);
            let b = without.translate(&p2, *va);
            assert_eq!(a.latency, b.latency, "va {va}");
            assert_eq!(a.phys, b.phys);
        }
    }

    #[test]
    fn accuracy_tracks_fragmentation() {
        let mut p = process(0.5);
        let vas: Vec<VirtAddr> = (0..256).map(|i| heap_va(&p, i * 8)).collect();
        for va in &vas {
            p.touch(*va).unwrap();
        }
        let mut mmu = engine_with(&p);
        for va in &vas {
            let _ = mmu.translate(&p, *va);
        }
        let acc = mmu.revelator_stats().accuracy();
        assert!(
            (acc - 0.5).abs() < 0.2,
            "accuracy {acc} should track the 0.5 cluster fraction"
        );
    }
}
