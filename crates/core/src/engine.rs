//! The unified translation-engine abstraction: one engine shell, one
//! pluggable TLB-miss path per backend.
//!
//! The paper changes one thing about a core's translation machine: what
//! happens after an L2 S-TLB miss, where range registers launch PL1/PL2
//! prefetches next to the walker. The TLBs, the clock, the memory fabric
//! and the accounting are stock. This module encodes that split:
//!
//! * [`TranslationEngine`] — the interface a simulation driver speaks:
//!   context load, translate-on-access, demand/co-runner accesses, clock
//!   control, and a statistics snapshot with prefetch accounting;
//! * [`SimMachine`] — the software side an engine translates for (a
//!   [`Process`] or a [`VirtualMachine`]): demand paging plus a
//!   ground-truth translation used by perfect-TLB runs; [`AddressSpace`]
//!   names the ASID its translations are tagged with;
//! * [`Engine`] — the **one** implementation of [`TranslationEngine`]: the
//!   shell that owns a core's [`EngineCore`] and runs the TLB fast path,
//!   handing every S-TLB miss to its [`Backend`];
//! * [`Backend`] — what differs between translation machines: only the
//!   miss path and its private structures (PWCs, range registers, a
//!   clustered TLB, TLB blocks, a hash unit, ...);
//! * [`EngineCore`] — the **per-core** plumbing every miss path runs on
//!   (TLBs, local clock, served-by matrices, walk accounting, prefetch
//!   issue, the stock 1D walk) over a [`SharedFabric`] handle to the
//!   machine's one [`CacheHierarchy`](asap_cache::CacheHierarchy), so N
//!   cores contend for the same caches.
//!
//! # Adding a backend
//!
//! A backend is a struct holding its private structures. It implements
//! [`Backend`], which asks for four parts:
//!
//! 1. [`load_context`](Backend::load_context) — what it reads from the
//!    machine on a context switch (descriptors, hints, or nothing);
//! 2. [`translate_miss`](Backend::translate_miss) — the path after an
//!    S-TLB miss, over the [`EngineCore`] it is handed; a stock walk is
//!    one call to [`EngineCore::walk_1d`], after any prefetch or
//!    speculation the backend issues at walk start;
//! 3. [`translation_is_path_local`](Backend::translation_is_path_local) —
//!    whether the driver may demand-page ahead of its translations;
//! 4. its extra statistics: [`reset_stats`](Backend::reset_stats) and
//!    [`collect_metrics`](Backend::collect_metrics) (both default to none).
//!
//! [`Backend::build`] splits its config into the stock [`CoreConfig`] and
//! the backend. `pub type MyMmu = Engine<MyBackend>` then has `new`,
//! `with_fabric` and the whole [`TranslationEngine`].

use crate::{prefetch_target, ServedByMatrix, ServedSource, WalkLatencyStats};
use asap_cache::{AccessResult, HierarchyConfig, ServedBy, SharedFabric};
use asap_os::{OsError, Process, VmaDescriptor};
use asap_pt::{Translation, WalkSource, MAX_WALK_DEPTH};
use asap_telemetry::{Collect, MetricSet, TraceEventKind, TraceSink};
use asap_tlb::{PageWalkCaches, TlbConfig, TlbHierarchy, TlbLevel, TlbLookup, TlbStats};
use asap_types::{Asid, CacheLineAddr, PhysAddr, PtLevel, VirtAddr};
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

/// The address space a machine's translations live in: the ASID the
/// shell's TLB fast path tags them with.
pub trait AddressSpace {
    /// The ASID of the translated (guest) process.
    fn asid(&self) -> Asid;
}

impl AddressSpace for Process {
    fn asid(&self) -> Asid {
        Process::asid(self)
    }
}

impl AddressSpace for VirtualMachine {
    fn asid(&self) -> Asid {
        self.guest().asid()
    }
}

/// One pluggable translation engine: the interface between an MMU model
/// and the generic simulation driver.
///
/// [`Engine`] is the simulator's implementation; the trait stays separate
/// so a driver-side decorator (a timing wrapper, a pass-through that keeps
/// the coupled order) can wrap any engine.
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
    /// The default ignores it.
    fn set_tracer(&mut self, sink: TraceSink) {
        let _ = sink;
    }

    /// Removes and returns the installed trace sink, if any.
    fn take_tracer(&mut self) -> Option<TraceSink> {
        None
    }

    /// Contributes this engine's statistics to a metrics snapshot under
    /// `prefix`. The default contributes nothing; [`Engine`] collects its
    /// [`EngineStats`], the shared-fabric counters and its backend's rows.
    fn collect_metrics(&self, prefix: &str, out: &mut MetricSet) {
        let _ = (prefix, out);
    }

    /// Whether a driver may demand-page this core's next accesses before
    /// it translates the earlier ones (the `asap-sim` driver's *OS
    /// run-ahead*). The default `false` keeps the coupled order: every
    /// access is demand-paged immediately before it is translated.
    ///
    /// Return `true` only if no later demand fault can change anything
    /// [`translate_access`](Self::translate_access) reads for an earlier
    /// address. A backend must guarantee all of:
    ///
    /// * it reads the machine only along the page-table path of the
    ///   address being translated — never a neighbouring PTE, a fault
    ///   counter, an allocator, or any other state demand paging updates
    ///   off that path;
    /// * any machine state it writes (e.g. a nested machine's lazy host
    ///   mapping) is already in place for every demand-paged address, so
    ///   its writes never interleave with the OS's frame allocations;
    /// * its machine's demand paging only ever adds entries, so every
    ///   entry on a mapped address's path is present and final.
    ///
    /// A clustered-TLB fill reads the 8-PTE line around the address, which
    /// later faults fill in, so an engine with one must return `false`.
    fn translation_is_path_local(&self) -> bool {
        false
    }
}

/// The stock per-core parts every backend config names: the TLB
/// geometries, and the hierarchy a single-core engine builds its private
/// fabric from (ignored when the core attaches to an existing fabric).
#[derive(Debug, Clone)]
pub struct CoreConfig {
    /// L1 D-TLB geometry.
    pub l1_tlb: TlbConfig,
    /// L2 S-TLB geometry.
    pub l2_tlb: TlbConfig,
    /// The cache hierarchy of a private fabric.
    pub hierarchy: HierarchyConfig,
}

/// What a translation machine adds to the stock core: its S-TLB-miss path
/// and the private structures that path owns. See the module docs for
/// the recipe.
pub trait Backend: Sized {
    /// The software machine the backend translates for.
    type Machine: SimMachine + AddressSpace;

    /// The backend's configuration, stock core parts included.
    type Config;

    /// Whether the backend walks a host dimension too: its statistics
    /// snapshot then reports the host served-by matrix.
    const NESTED: bool = false;

    /// Splits `config` into the stock core parts and the backend.
    fn build(config: Self::Config) -> (CoreConfig, Self);

    /// Loads what the backend reads from the machine on a context switch.
    fn load_context(&mut self, machine: &Self::Machine);

    /// Resolves an access whose L1 and L2 TLB lookups both missed,
    /// advancing `core`'s clock by the translation latency and filling
    /// the TLBs from whatever produced the translation.
    fn translate_miss(
        &mut self,
        core: &mut EngineCore,
        machine: &mut Self::Machine,
        asid: Asid,
        va: VirtAddr,
    ) -> EngineOutcome;

    /// The engine's [`TranslationEngine::translation_is_path_local`]:
    /// `true` only if the miss path meets that method's contract.
    fn translation_is_path_local(&self) -> bool;

    /// Resets the backend's own statistics, keeping its state warm.
    fn reset_stats(&mut self) {}

    /// Contributes the backend's own metrics rows under `prefix`.
    fn collect_metrics(&self, prefix: &str, out: &mut MetricSet) {
        let _ = (prefix, out);
    }
}

/// The engine shell: one core's [`EngineCore`] plus the [`Backend`] that
/// resolves its S-TLB misses. The only [`TranslationEngine`]
/// implementation; monomorphized per backend, so the hot path stays
/// static.
#[derive(Debug)]
pub struct Engine<B> {
    pub(crate) core: EngineCore,
    pub(crate) backend: B,
}

impl<B: Backend> Engine<B> {
    /// Builds an engine from `config`, with a private memory fabric (the
    /// single-core machine).
    #[must_use]
    pub fn new(config: B::Config) -> Self {
        let (parts, backend) = B::build(config);
        let fabric = SharedFabric::new(parts.hierarchy.clone());
        Self {
            core: EngineCore::with_fabric(parts, fabric),
            backend,
        }
    }

    /// Builds an engine whose core attaches to an **existing** shared
    /// fabric — one core of an SMP machine. The config's hierarchy is
    /// ignored (the fabric was built from the machine-wide one).
    #[must_use]
    pub fn with_fabric(config: B::Config, fabric: SharedFabric) -> Self {
        let (parts, backend) = B::build(config);
        Self {
            core: EngineCore::with_fabric(parts, fabric),
            backend,
        }
    }

    /// The backend, for its mechanism-specific counters.
    #[must_use]
    pub fn backend(&self) -> &B {
        &self.backend
    }
}

impl<B: Backend> TranslationEngine for Engine<B> {
    type Machine = B::Machine;

    fn load_context(&mut self, machine: &B::Machine) {
        self.backend.load_context(machine);
    }

    fn translate_access(&mut self, machine: &mut B::Machine, va: VirtAddr) -> EngineOutcome {
        let asid = machine.asid();
        match self.core.tlb_lookup(asid, va) {
            Some(hit) => hit,
            None => self
                .backend
                .translate_miss(&mut self.core, machine, asid, va),
        }
    }

    /// Serialized in-order execution: the access starts at the core's
    /// clock and the clock advances past it.
    fn data_access(&mut self, pa: PhysAddr) -> AccessResult {
        let r = self.core.fabric.access_at(pa.cache_line(), self.core.clock);
        self.core.clock += r.latency;
        r
    }

    /// The co-runner executes on the sibling hardware thread, so no
    /// cycles are charged here.
    fn corunner_access(&mut self, line: CacheLineAddr) {
        let _ = self.core.fabric.access_at(line, self.core.clock);
    }

    fn now(&self) -> u64 {
        self.core.clock
    }

    fn advance(&mut self, cycles: u64) {
        self.core.clock += cycles;
    }

    /// Resets the core-private statistics and the fabric-wide hierarchy
    /// counters, keeping all cached state warm. On a multi-core machine
    /// each core resets its own window; the shared fabric counters (which
    /// feed no per-run result) simply restart from the last core's reset.
    fn reset_stats(&mut self) {
        let core = &mut self.core;
        core.walk_stats = WalkLatencyStats::new();
        core.walk_faults = 0;
        core.served = ServedByMatrix::new();
        core.host_served = ServedByMatrix::new();
        core.tlbs.reset_stats();
        core.fabric.reset_stats();
        self.backend.reset_stats();
    }

    fn stats_snapshot(&self) -> EngineStats {
        EngineStats {
            walks: self.core.walk_stats.clone(),
            served: self.core.served,
            host_served: B::NESTED.then_some(self.core.host_served),
            l2_tlb: *self.core.tlbs.l2_stats(),
            walk_faults: self.core.walk_faults,
        }
    }

    fn set_tracer(&mut self, sink: TraceSink) {
        self.core.tracer = Some(Box::new(sink));
    }

    fn take_tracer(&mut self) -> Option<TraceSink> {
        self.core.tracer.take().map(|b| *b)
    }

    /// The [`EngineStats`], then the shared-fabric counters (cache levels
    /// and DRAM locality), then the backend's own rows.
    fn collect_metrics(&self, prefix: &str, out: &mut MetricSet) {
        self.stats_snapshot().collect(prefix, out);
        self.core.fabric.stats().collect(prefix, out);
        self.core
            .fabric
            .numa_stats()
            .collect(&format!("{prefix}numa_"), out);
        self.backend.collect_metrics(prefix, out);
    }

    fn translation_is_path_local(&self) -> bool {
        self.backend.translation_is_path_local()
    }
}

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

/// What one stock 1D walk produced.
#[derive(Debug, Clone, Copy)]
pub struct Walk1d {
    /// Walk latency in cycles (already charged to the core's clock).
    pub latency: u64,
    /// Per-level serving source, root first.
    pub sources: WalkSources,
    /// The walked translation (`None` on a page fault).
    pub translation: Option<Translation>,
}

/// The **private, per-core** state and plumbing every miss path runs on:
/// the L1/L2 TLB hierarchy, the core's local clock, the served-by
/// matrices and walk accounting — plus a handle to the machine's
/// **shared** [`CacheHierarchy`](asap_cache::CacheHierarchy) (caches,
/// DRAM, MSHRs, NUMA homing), which N cores of an SMP machine reference
/// through cloned [`SharedFabric`] handles. [`Engine`] owns one; a
/// [`Backend`] is handed it on every S-TLB miss.
///
/// Timing model: the hierarchy keeps no clock. The core keeps its own
/// cycle counter and stamps it onto every fabric request, so multiple
/// cores interleave their locally-timed requests over one hierarchy.
#[derive(Debug)]
pub struct EngineCore {
    /// The L1/L2 TLB hierarchy (per-core private fast path).
    pub tlbs: TlbHierarchy,
    /// Handle to the shared memory fabric.
    fabric: SharedFabric,
    /// The core's local clock.
    clock: u64,
    /// Per-level serving sources (the guest dimension of a nested walk).
    pub(crate) served: ServedByMatrix,
    /// Host-dimension serving sources (nested walks only).
    pub(crate) host_served: ServedByMatrix,
    /// Walk-latency distribution over the current window.
    walk_stats: WalkLatencyStats,
    /// Walks that ended in a page fault.
    pub(crate) walk_faults: u64,
    /// The optional event tracer. `None` in every default configuration,
    /// so the recording hooks below are never-taken branches unless a run
    /// explicitly installs a sink — the zero-cost-when-off contract.
    tracer: Option<Box<TraceSink>>,
}

impl EngineCore {
    /// Builds a core over an existing fabric handle (`parts.hierarchy` is
    /// not used).
    #[must_use]
    pub fn with_fabric(parts: CoreConfig, fabric: SharedFabric) -> Self {
        Self {
            tlbs: TlbHierarchy::new(parts.l1_tlb, parts.l2_tlb),
            fabric,
            clock: 0,
            served: ServedByMatrix::new(),
            host_served: ServedByMatrix::new(),
            walk_stats: WalkLatencyStats::new(),
            walk_faults: 0,
            tracer: None,
        }
    }

    /// The core's handle to the shared memory fabric.
    #[must_use]
    pub fn fabric(&self) -> &SharedFabric {
        &self.fabric
    }

    /// The core's current cycle count.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// The TLB fast path: on a hit, charges the hit latency to the clock
    /// and returns the outcome.
    pub(crate) fn tlb_lookup(&mut self, asid: Asid, va: VirtAddr) -> Option<EngineOutcome> {
        let TlbLookup::Hit { entry, level } = self.tlbs.lookup(asid, va.page_number()) else {
            return None;
        };
        let (path, latency, tlb_level) = match level {
            TlbLevel::L1 => (TranslationPath::TlbL1, 0, 1),
            TlbLevel::L2 => (TranslationPath::TlbL2, L2_TLB_HIT_CYCLES, 2),
        };
        self.charge_tlb_hit(tlb_level, latency);
        Some(EngineOutcome {
            path,
            latency,
            phys: Some(entry.phys_addr(va)),
            prefetches_issued: 0,
            prefetches_dropped: 0,
        })
    }

    /// Charges a translation hit at TLB `level` (1 and 2: the L1/L2 TLBs;
    /// 3: a backend's own store, such as a clustered TLB or a TLB block)
    /// to the clock and traces it.
    pub fn charge_tlb_hit(&mut self, level: u8, latency: u64) {
        self.clock += latency;
        if let Some(t) = &mut self.tracer {
            t.record(self.clock, TraceEventKind::TlbHit { level });
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

    /// The stock 1D page walk of `va` (Fig. 4), starting at the core's
    /// clock: the PWC probe, the PWC-covered prefix elided, one fabric
    /// access per remaining level (merging with any in-flight prefetch),
    /// the latency charged to the clock, PWC fills for the intermediate
    /// levels, and the served-by and fault accounting.
    ///
    /// A backend issues its prefetches or speculation before the call, at
    /// the same [`now`](Self::now), and fills the TLBs from the returned
    /// translation itself: only a completed walk installs one, and
    /// prefetched data is never consumed architecturally (§3.1).
    pub fn walk_1d<S: WalkSource + ?Sized>(
        &mut self,
        pwc: &mut PageWalkCaches,
        src: &S,
        asid: Asid,
        va: VirtAddr,
    ) -> Walk1d {
        let t0 = self.clock;
        // The deepest PWC hit decides where the radix traversal resumes.
        let start_level = pwc
            .lookup(asid, va)
            .map_or(src.mode().root_level(), |h| h.next_level);
        let trace = src.walk_fixed(va);
        let mut sources = WalkSources::new();
        let mut t = t0 + pwc.latency();
        for step in trace.steps() {
            let served = if step.level.depth() > start_level.depth() {
                ServedSource::Pwc
            } else {
                self.walk_access(step.entry_addr.cache_line(), &mut t)
            };
            sources.push(step.level, served);
            self.served.record(step.level, served);
        }
        let latency = self.finish_walk(t0, t);
        for step in trace.steps() {
            if step.level != PtLevel::Pl1 && step.entry.is_present() && !step.entry.is_large_leaf()
            {
                pwc.fill(asid, va, step.level, step.entry.frame());
            }
        }
        let translation = trace.translation();
        if translation.is_none() {
            self.walk_faults += 1;
        }
        Walk1d {
            latency,
            sources,
            translation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mmu, MmuConfig};
    use asap_os::{AsapOsConfig, ProcessConfig, VmaKind};
    use asap_tlb::TlbEntry;
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
        assert_eq!(AddressSpace::asid(&vm), Asid(1));
    }

    #[test]
    fn core_tlb_fast_path_charges_l2_latency() {
        let parts = CoreConfig {
            l1_tlb: TlbConfig::l1_dtlb(),
            l2_tlb: TlbConfig::l2_stlb(),
            hierarchy: HierarchyConfig::broadwell_like(),
        };
        let fabric = SharedFabric::new(parts.hierarchy.clone());
        let mut core = EngineCore::with_fabric(parts, fabric);
        let va = VirtAddr::new(0x4000).unwrap();
        assert!(core.tlb_lookup(Asid(1), va).is_none());
        core.tlbs.fill(
            Asid(1),
            va.page_number(),
            TlbEntry::new(
                PhysAddr::new(0x9000).frame_number(),
                asap_types::PageSize::Size4K,
            ),
        );
        let hit = core.tlb_lookup(Asid(1), va).unwrap();
        assert_eq!(hit.path, TranslationPath::TlbL1);
        assert_eq!(hit.latency, 0);
        assert_eq!(hit.phys, Some(PhysAddr::new(0x9000)));
    }

    #[test]
    fn cores_share_a_fabric_but_keep_private_clocks() {
        let fabric = SharedFabric::new(HierarchyConfig::broadwell_like());
        let mut a = Mmu::with_fabric(MmuConfig::default(), fabric.clone());
        let mut b = Mmu::with_fabric(MmuConfig::default(), fabric);
        let pa = PhysAddr::new(0x4_0000);
        let first = a.data_access(pa);
        let second = b.data_access(pa);
        assert!(
            second.latency < first.latency,
            "core B must hit the line core A's miss filled"
        );
        assert_eq!(b.now(), second.latency, "clocks are per-core");
        assert!(a.now() > b.now());
        assert_eq!(
            a.core.fabric().stats().levels[0].hits,
            1,
            "B's hit is in A's L1"
        );
    }

    #[test]
    fn private_fabric_matches_the_old_internal_clock_model() {
        // The clock contract behind the engine-parity goldens: a single
        // core stamping its local clock onto every fabric request sees a
        // serialized hierarchy, and advances by exactly each latency.
        let mut mmu =
            Mmu::new(MmuConfig::default().with_hierarchy(HierarchyConfig::tiny_for_tests()));
        let pa = PhysAddr::new(0x9000);
        let miss = mmu.data_access(pa);
        assert_eq!(miss.latency, 191);
        assert_eq!(mmu.now(), 191);
        let hit = mmu.data_access(pa);
        assert_eq!(hit.latency, 4);
        assert_eq!(mmu.now(), 195);
        mmu.advance(5);
        assert_eq!(mmu.now(), 200);
        mmu.corunner_access(CacheLineAddr::new(0x999));
        assert_eq!(mmu.now(), 200, "the co-runner consumes no cycles");
    }
}
