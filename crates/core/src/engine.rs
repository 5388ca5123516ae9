//! The unified translation-engine abstraction.
//!
//! The paper evaluates one mechanism (ASAP) on two machines: native
//! translation ([`Mmu`](crate::Mmu), §3.1–3.3) and nested translation
//! ([`NestedMmu`](crate::NestedMmu), §3.4). This module gives both the same
//! shape so the rest of the system — the driver loop, the scenario
//! registry, future backends — can stay generic:
//!
//! * [`TranslationEngine`] — the interface a simulation driver speaks:
//!   context load, translate-on-access, demand/co-runner accesses, clock
//!   control, and a statistics snapshot with prefetch accounting;
//! * [`SimMachine`] — the software side an engine translates for (a
//!   [`Process`] or a [`VirtualMachine`]): demand paging plus a
//!   ground-truth translation used by perfect-TLB runs;
//! * [`EngineCore`] — the **per-core** plumbing both MMUs share (private
//!   TLB fast path, local clock, prefetch issue, walk-latency accounting)
//!   over a [`SharedFabric`] handle to the machine's one memory fabric, so
//!   `mmu.rs` and `nested_mmu.rs` cannot drift apart and N cores can
//!   contend for the same caches.
//!
//! A new translation backend (e.g. a cache-backed TLB à la Victima, or a
//! speculative hashed scheme à la Revelator) plugs in by implementing
//! [`TranslationEngine`], typically over an embedded [`EngineCore`].

use crate::{prefetch_target, ServedByMatrix, ServedSource, WalkLatencyStats};
use asap_cache::{AccessResult, HierarchyConfig, HierarchyStats, ServedBy, SharedFabric};
use asap_os::{OsError, Process, VmaDescriptor};
use asap_telemetry::{Collect, MetricSet, TraceEventKind, TraceSink};
use asap_tlb::{TlbConfig, TlbEntry, TlbHierarchy, TlbLevel, TlbLookup, TlbStats};
use asap_types::{Asid, CacheLineAddr, PhysAddr, PtLevel, VirtAddr, VirtPageNum};
use asap_virt::VirtualMachine;

/// Cycles charged for a translation that hits the L2 S-TLB (the L1 hit is
/// folded into the load pipeline). Used by the execution-time model
/// (Fig. 2); walk latencies are unaffected.
pub const L2_TLB_HIT_CYCLES: u64 = 7;

/// How a translation was resolved, across every engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranslationPath {
    /// L1 D-TLB hit.
    TlbL1,
    /// L2 S-TLB hit.
    TlbL2,
    /// Clustered-TLB hit (§5.4.1), when configured.
    ClusteredTlb,
    /// Hit on a cache-resident TLB block (a Victima-style backend): the
    /// translation was recovered from the L2 data cache, no walk ran.
    TlbBlock,
    /// Full page walk (1D native, 2D nested).
    Walk,
}

/// The engine-agnostic outcome of one translation request — what the
/// generic driver loop needs for cycle and prefetch accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOutcome {
    /// How the translation was served.
    pub path: TranslationPath,
    /// Translation-side latency in cycles (0 for an L1 TLB hit).
    pub latency: u64,
    /// The resulting physical address (`None` on a page fault). For nested
    /// engines this is the final host-physical address.
    pub phys: Option<PhysAddr>,
    /// ASAP prefetches issued for this access (0 on TLB hits).
    pub prefetches_issued: u8,
    /// ASAP prefetches dropped for lack of an MSHR.
    pub prefetches_dropped: u8,
}

/// An owned snapshot of every statistic a run report is built from.
#[derive(Debug, Clone)]
pub struct EngineStats {
    /// Walk-latency distribution over the window.
    pub walks: WalkLatencyStats,
    /// Per-level serving sources (guest dimension for nested engines).
    pub served: ServedByMatrix,
    /// Host-dimension serving sources (nested engines only).
    pub host_served: Option<ServedByMatrix>,
    /// L2 S-TLB hit/miss counters (the MPKI source).
    pub l2_tlb: TlbStats,
    /// Walks that ended in a page fault.
    pub walk_faults: u64,
}

impl Collect for EngineStats {
    fn collect(&self, prefix: &str, out: &mut MetricSet) {
        out.counter(
            format!("{prefix}walks_total"),
            "page walks performed",
            self.walks.count(),
        );
        out.counter(
            format!("{prefix}walk_faults_total"),
            "walks that ended in a page fault",
            self.walk_faults,
        );
        self.walks.collect(&format!("{prefix}walk_"), out);
        self.l2_tlb.collect(&format!("{prefix}tlb_l2_"), out);
        self.served.collect(prefix, out);
        if let Some(host) = &self.host_served {
            host.collect(&format!("{prefix}host_"), out);
        }
    }
}

/// The software machine an engine translates for: it owns the page tables
/// and backs demand paging. [`Process`] (native) and [`VirtualMachine`]
/// (nested) implement it.
pub trait SimMachine {
    /// Demand-pages `va` (OS work off the measured path).
    ///
    /// # Errors
    ///
    /// Returns the OS error when `va` lies outside every VMA.
    fn demand_page(&mut self, va: VirtAddr) -> Result<(), OsError>;

    /// Ground-truth translation without any MMU involvement — the
    /// perfect-TLB methodology of Table 6. Takes `&mut self` because nested
    /// machines may lazily extend host mappings for page-table pages.
    fn reference_translate(&mut self, va: VirtAddr) -> Option<PhysAddr>;
}

impl SimMachine for Process {
    fn demand_page(&mut self, va: VirtAddr) -> Result<(), OsError> {
        self.touch(va).map(|_| ())
    }

    fn reference_translate(&mut self, va: VirtAddr) -> Option<PhysAddr> {
        self.translate(va).map(|t| t.phys_addr(va))
    }
}

impl SimMachine for VirtualMachine {
    fn demand_page(&mut self, va: VirtAddr) -> Result<(), OsError> {
        self.touch(va).map(|_| ())
    }

    fn reference_translate(&mut self, va: VirtAddr) -> Option<PhysAddr> {
        // Equivalent to `self.nested_walk(va).data_hpa()`: `touch` backs the
        // guest node chain and data page in the EPT up front, so composing
        // the two per-dimension translations never needs a lazy host fill.
        let gpa = self.guest().translate(va)?.phys_addr(va);
        self.ept().translate(gpa)
    }
}

/// One pluggable translation backend: the interface between an MMU model
/// and the generic simulation driver.
///
/// Implementations simulate the full translation machine — TLB lookups,
/// prefetches, walks over the cache hierarchy — and keep their own
/// statistics, exposed as an owned [`EngineStats`] snapshot.
pub trait TranslationEngine {
    /// The paired software state ([`Process`], [`VirtualMachine`], ...).
    type Machine: SimMachine;

    /// Loads OS/hypervisor-provided context (range-register descriptors) —
    /// the context-switch step of §3.4.
    fn load_context(&mut self, machine: &Self::Machine);

    /// Translates one application reference, advancing the engine clock by
    /// the translation latency.
    fn translate_access(&mut self, machine: &mut Self::Machine, va: VirtAddr) -> EngineOutcome;

    /// A demand data access (the application's own load/store reaching the
    /// cache hierarchy); advances the clock.
    fn data_access(&mut self, pa: PhysAddr) -> AccessResult;

    /// Cache pressure from the SMT co-runner: perturbs cache contents
    /// without consuming this thread's cycles (§4).
    fn corunner_access(&mut self, line: CacheLineAddr);

    /// The current cycle count.
    fn now(&self) -> u64;

    /// Advances the clock (non-memory work between accesses).
    fn advance(&mut self, cycles: u64);

    /// Resets all statistics, keeping cached state warm (post-warmup).
    fn reset_stats(&mut self);

    /// An owned snapshot of the current statistics.
    fn stats_snapshot(&self) -> EngineStats;

    /// Installs a trace sink recording this engine's per-access events.
    /// The default ignores it, so backends without tracing support stay
    /// valid; engines embedding an [`EngineCore`] delegate to it.
    fn set_tracer(&mut self, sink: TraceSink) {
        let _ = sink;
    }

    /// Removes and returns the installed trace sink, if any.
    fn take_tracer(&mut self) -> Option<TraceSink> {
        None
    }

    /// Contributes this engine's statistics to a metrics snapshot under
    /// `prefix`. The default contributes nothing; engines embedding an
    /// [`EngineCore`] collect their [`EngineStats`] plus the shared-fabric
    /// counters, and backends append their mechanism-specific rows.
    fn collect_metrics(&self, prefix: &str, out: &mut MetricSet) {
        let _ = (prefix, out);
    }
}

/// The **private, per-core** state and plumbing every translation engine
/// embeds: the L1/L2 TLB hierarchy, the core's local clock, and walk
/// accounting — plus a handle to the machine's **shared**
/// [`MemoryFabric`](asap_cache::MemoryFabric) (caches, DRAM, MSHRs),
/// which N cores of an SMP machine reference through cloned
/// [`SharedFabric`] handles. Engines add their backend-specific private
/// structures on top (PWCs, range registers, clustered TLB, TLB-block
/// shadows, speculation units, ...). Public so out-of-crate backends
/// (e.g. `asap-contenders`) build on the same plumbing as
/// [`Mmu`](crate::Mmu)/[`NestedMmu`](crate::NestedMmu) instead of forking
/// it.
///
/// Timing model: the core keeps its own cycle counter and stamps it onto
/// every fabric request, so a single-core machine behaves exactly as when
/// the hierarchy owned the clock, while multiple cores interleave their
/// locally-timed requests over one fabric.
#[derive(Debug)]
pub struct EngineCore {
    /// The L1/L2 TLB hierarchy (per-core private fast path).
    pub tlbs: TlbHierarchy,
    /// Handle to the shared memory fabric.
    fabric: SharedFabric,
    /// The core's local clock.
    clock: u64,
    /// Walk-latency distribution over the current window.
    pub walk_stats: WalkLatencyStats,
    /// Walks that ended in a page fault.
    pub walk_faults: u64,
    /// The optional event tracer. `None` in every default configuration,
    /// so the recording hooks below are never-taken branches unless a run
    /// explicitly installs a sink — the zero-cost-when-off contract.
    tracer: Option<Box<TraceSink>>,
}

impl EngineCore {
    /// Builds a single-core engine core: TLB geometries plus a private
    /// memory fabric constructed from `hierarchy`.
    #[must_use]
    pub fn new(l1_tlb: TlbConfig, l2_tlb: TlbConfig, hierarchy: HierarchyConfig) -> Self {
        Self::with_fabric(l1_tlb, l2_tlb, SharedFabric::new(hierarchy))
    }

    /// Builds a core over an **existing** fabric handle — the multi-core
    /// path, where every core of the machine clones one [`SharedFabric`].
    #[must_use]
    pub fn with_fabric(l1_tlb: TlbConfig, l2_tlb: TlbConfig, fabric: SharedFabric) -> Self {
        Self {
            tlbs: TlbHierarchy::new(l1_tlb, l2_tlb),
            fabric,
            clock: 0,
            walk_stats: WalkLatencyStats::new(),
            walk_faults: 0,
            tracer: None,
        }
    }

    /// Installs an event tracer; subsequent translations record into it.
    pub fn set_tracer(&mut self, sink: TraceSink) {
        self.tracer = Some(Box::new(sink));
    }

    /// Removes and returns the tracer (the end-of-run harvest).
    pub fn take_tracer(&mut self) -> Option<TraceSink> {
        self.tracer.take().map(|b| *b)
    }

    /// Contributes the shared-fabric statistics — the cache hierarchy
    /// levels and the DRAM locality counters — to a metrics snapshot.
    /// Engines call this from their `collect_metrics` after their own
    /// [`EngineStats`] so every backend emits the same fabric names.
    pub fn collect_fabric_metrics(&self, prefix: &str, out: &mut MetricSet) {
        self.hierarchy_stats().collect(prefix, out);
        self.fabric()
            .numa_stats()
            .collect(&format!("{prefix}numa_"), out);
    }

    /// The installed tracer, for engines recording backend-specific
    /// events (clustered-TLB hits, TLB-block hits, speculation).
    pub fn tracer_mut(&mut self) -> Option<&mut TraceSink> {
        self.tracer.as_deref_mut()
    }

    /// The core's handle to the shared memory fabric.
    #[must_use]
    pub fn fabric(&self) -> &SharedFabric {
        &self.fabric
    }

    /// The TLB fast path: on a hit, charges the hit latency to the clock
    /// and returns the level, latency and entry for the caller to build its
    /// outcome from.
    pub fn tlb_lookup(
        &mut self,
        asid: Asid,
        vpn: VirtPageNum,
    ) -> Option<(TlbLevel, u64, TlbEntry)> {
        match self.tlbs.lookup(asid, vpn) {
            TlbLookup::Hit { entry, level } => {
                let latency = match level {
                    TlbLevel::L1 => 0,
                    TlbLevel::L2 => L2_TLB_HIT_CYCLES,
                };
                self.clock += latency;
                if let Some(t) = &mut self.tracer {
                    let tlb_level = match level {
                        TlbLevel::L1 => 1,
                        TlbLevel::L2 => 2,
                    };
                    t.record(self.clock, TraceEventKind::TlbHit { level: tlb_level });
                }
                Some((level, latency, entry))
            }
            TlbLookup::Miss => None,
        }
    }

    /// Issues the ASAP prefetches a descriptor enables for `va` at time
    /// `at`, accumulating issue/drop counts.
    pub fn issue_prefetches(
        &mut self,
        desc: &VmaDescriptor,
        levels: &[PtLevel],
        va: VirtAddr,
        at: u64,
        issued: &mut u8,
        dropped: &mut u8,
    ) {
        for &level in levels {
            if let Some(target) = prefetch_target(desc, level, va) {
                let kind = match self.fabric.prefetch_at(target.cache_line(), at) {
                    Some(_) => {
                        *issued = issued.saturating_add(1);
                        TraceEventKind::PrefetchIssue
                    }
                    None => {
                        *dropped = dropped.saturating_add(1);
                        TraceEventKind::PrefetchDrop
                    }
                };
                if let Some(t) = &mut self.tracer {
                    t.record(at, kind);
                }
            }
        }
    }

    /// Issues one best-effort prefetch for `line` at time `at` (a
    /// backend-specific speculative fetch, e.g. Revelator's hashed data
    /// address). Returns the completion cycle, or `None` when dropped.
    pub fn prefetch_line_at(&mut self, line: CacheLineAddr, at: u64) -> Option<u64> {
        let done = self.fabric.prefetch_at(line, at);
        if let Some(t) = &mut self.tracer {
            t.record(
                at,
                if done.is_some() {
                    TraceEventKind::PrefetchIssue
                } else {
                    TraceEventKind::PrefetchDrop
                },
            );
        }
        done
    }

    /// One walker access to the shared fabric at walk-local time `t`:
    /// advances `t` by the access latency and classifies the serving
    /// source (merged with an in-flight prefetch or served by a level).
    pub fn walk_access(&mut self, line: CacheLineAddr, t: &mut u64) -> ServedSource {
        let issued_at = *t;
        let r = self.fabric.access_at(line, *t);
        *t += r.latency;
        if let Some(tracer) = &mut self.tracer {
            if r.merged {
                tracer.record(issued_at, TraceEventKind::MshrMerge);
            } else if r.served_by == ServedBy::Memory
                && self
                    .fabric
                    .home_node(line)
                    .is_some_and(|home| home != self.fabric.node())
            {
                tracer.record(issued_at, TraceEventKind::NumaHop);
            }
        }
        if r.merged {
            ServedSource::Merged(r.served_by)
        } else {
            ServedSource::Cache(r.served_by)
        }
    }

    /// Closes out a walk that started at `t0` and ended at `t`: charges the
    /// latency to the core's clock, records it, and returns it.
    pub fn finish_walk(&mut self, t0: u64, t: u64) -> u64 {
        let latency = t - t0;
        self.clock += latency;
        self.walk_stats.record(latency);
        if let Some(tracer) = &mut self.tracer {
            tracer.record(t0, TraceEventKind::Walk { latency });
        }
        latency
    }

    /// A demand data access through the fabric; advances the core's clock
    /// past the access (serialized in-order execution).
    pub fn data_access(&mut self, pa: PhysAddr) -> AccessResult {
        let r = self.fabric.access_at(pa.cache_line(), self.clock);
        self.clock += r.latency;
        r
    }

    /// Cache pressure from the SMT co-runner (no cycles consumed here).
    pub fn corunner_access(&mut self, line: CacheLineAddr) {
        let _ = self.fabric.access_at(line, self.clock);
    }

    /// L2 hit latency — what a cache-resident TLB-block lookup costs.
    #[must_use]
    pub fn l2_latency(&self) -> u64 {
        self.fabric.l2_latency()
    }

    /// Installs `line` into the shared L2 only (Victima TLB-block path).
    pub fn l2_install(&mut self, line: CacheLineAddr) {
        self.fabric.l2_install(line);
    }

    /// Probes the shared L2 for `line`, updating recency on a hit.
    pub fn l2_lookup(&mut self, line: CacheLineAddr) -> bool {
        self.fabric.l2_lookup(line)
    }

    /// Whether the shared L2 currently holds `line` (no side effects).
    #[must_use]
    pub fn l2_contains(&self, line: CacheLineAddr) -> bool {
        self.fabric.l2_contains(line)
    }

    /// Fabric-wide hierarchy statistics (shared across cores).
    #[must_use]
    pub fn hierarchy_stats(&self) -> HierarchyStats {
        self.fabric.stats()
    }

    /// The core's current cycle count.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Advances the core's clock (non-memory work between accesses).
    pub fn advance(&mut self, cycles: u64) {
        self.clock += cycles;
    }

    /// Resets the core-private statistics (TLBs, walk accounting) and the
    /// fabric-wide hierarchy counters, keeping all cached state warm. On a
    /// multi-core machine each core resets its own window; the shared
    /// fabric counters (which feed no per-run result) simply restart from
    /// the last core's reset.
    pub fn reset_stats(&mut self) {
        self.walk_stats = WalkLatencyStats::new();
        self.walk_faults = 0;
        self.tlbs.reset_stats();
        self.fabric.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_os::{AsapOsConfig, ProcessConfig, VmaKind};
    use asap_types::ByteSize;
    use asap_virt::EptConfig;

    fn process() -> Process {
        Process::new(
            ProcessConfig::new(Asid(1))
                .with_heap(ByteSize::mib(16))
                .with_asap(AsapOsConfig::disabled()),
        )
    }

    #[test]
    fn process_is_a_sim_machine() {
        let mut p = process();
        let va = p.vma_of_kind(VmaKind::Heap).unwrap().start();
        assert_eq!(p.reference_translate(va), None, "untouched page");
        p.demand_page(va).unwrap();
        let reference = p.reference_translate(va);
        assert!(reference.is_some());
        assert_eq!(reference, p.translate(va).map(|t| t.phys_addr(va)));
    }

    #[test]
    fn vm_is_a_sim_machine() {
        let mut vm = VirtualMachine::new(
            ProcessConfig::new(Asid(1))
                .with_heap(ByteSize::mib(16))
                .with_compact_phys(),
            EptConfig::default(),
        );
        let va = vm.guest().vma_of_kind(VmaKind::Heap).unwrap().start();
        vm.demand_page(va).unwrap();
        assert!(vm.reference_translate(va).is_some());
    }

    #[test]
    fn core_tlb_fast_path_charges_l2_latency() {
        let mut core = EngineCore::new(
            TlbConfig::l1_dtlb(),
            TlbConfig::l2_stlb(),
            HierarchyConfig::broadwell_like(),
        );
        let va = VirtAddr::new(0x4000).unwrap();
        let vpn = va.page_number();
        assert!(core.tlb_lookup(Asid(1), vpn).is_none());
        core.tlbs.fill(
            Asid(1),
            vpn,
            TlbEntry::new(
                PhysAddr::new(0x9000).frame_number(),
                asap_types::PageSize::Size4K,
            ),
        );
        let (level, latency, _) = core.tlb_lookup(Asid(1), vpn).unwrap();
        assert_eq!(level, TlbLevel::L1);
        assert_eq!(latency, 0);
    }

    #[test]
    fn cores_share_a_fabric_but_keep_private_clocks() {
        let fabric = SharedFabric::new(HierarchyConfig::broadwell_like());
        let mut a =
            EngineCore::with_fabric(TlbConfig::l1_dtlb(), TlbConfig::l2_stlb(), fabric.clone());
        let mut b = EngineCore::with_fabric(TlbConfig::l1_dtlb(), TlbConfig::l2_stlb(), fabric);
        let pa = PhysAddr::new(0x4_0000);
        let first = a.data_access(pa);
        let second = b.data_access(pa);
        assert!(
            second.latency < first.latency,
            "core B must hit the line core A's miss filled"
        );
        assert_eq!(b.now(), second.latency, "clocks are per-core");
        assert!(a.now() > b.now());
        assert_eq!(a.fabric().ports(), 2);
    }

    #[test]
    fn private_fabric_matches_the_old_internal_clock_model() {
        // The clock-mirroring contract behind the engine-parity goldens: a
        // single core stamping its local clock onto every fabric request
        // reproduces the exact latencies of the hierarchy-owned clock.
        let mut core = EngineCore::new(
            TlbConfig::l1_dtlb(),
            TlbConfig::l2_stlb(),
            HierarchyConfig::tiny_for_tests(),
        );
        let pa = PhysAddr::new(0x9000);
        let miss = core.data_access(pa);
        assert_eq!(miss.latency, 191);
        assert_eq!(core.now(), 191);
        let hit = core.data_access(pa);
        assert_eq!(hit.latency, 4);
        assert_eq!(core.now(), 195);
        core.advance(5);
        assert_eq!(core.now(), 200);
    }
}
