//! The shared memory fabric of a (possibly multi-core) simulated machine.
//!
//! A [`CacheHierarchy`] owns an *internal* clock, which is the right model
//! for a single in-order core but breaks down when several cores — each
//! with its own notion of time — contend for one hierarchy. The
//! [`MemoryFabric`] is the multi-core view: the same caches, MSHR file and
//! (for a Victima-style backend) synthetic TLB-block lines, but with an
//! **explicitly timed** API — every request carries the issuing core's
//! local cycle count, and the fabric never keeps time of its own.
//!
//! [`SharedFabric`] is the handle cores actually hold: a cheaply clonable
//! reference (`Rc<RefCell<_>>`) to one fabric. A run is simulated on a
//! single host thread with deterministic core arbitration, so the shared
//! mutable state needs no locking — the interior mutability only expresses
//! that N per-core engines reference one memory system.
//!
//! The fabric can further be split into **NUMA nodes**
//! ([`MemoryFabric::configure_numa`]): physical windows register a home
//! node round-robin, each core's handle carries its node
//! ([`SharedFabric::for_node`]), and a DRAM-served access whose home
//! differs from the requester's pays an interconnect hop on top of the
//! memory latency. Unconfigured (the default), nothing changes — the
//! uniform-memory timing is bit-identical to the pre-NUMA fabric.
//!
//! # Examples
//!
//! ```
//! use asap_cache::{HierarchyConfig, ServedBy, SharedFabric};
//! use asap_types::CacheLineAddr;
//!
//! let fabric = SharedFabric::new(HierarchyConfig::broadwell_like());
//! let core0 = fabric.clone(); // a second core's handle to the SAME caches
//! let line = CacheLineAddr::new(0x40);
//! assert_eq!(fabric.access_at(line, 0).served_by, ServedBy::Memory);
//! // Core 0 finds the line core 1's miss just filled.
//! assert_eq!(core0.access_at(line, 500).served_by, ServedBy::L1);
//! assert_eq!(fabric.ports(), 2);
//! ```

use crate::{AccessResult, CacheHierarchy, HierarchyConfig, HierarchyStats, ServedBy};
use asap_types::CacheLineAddr;
use std::cell::RefCell;
use std::rc::Rc;

/// Interconnect-hop latency in cycles a DRAM access pays when the line's
/// home node differs from the requesting core's: remote DRAM at
/// `191 + 120 = 311` cycles against 191 local, the ~1.6× remote/local
/// ratio of a two-socket machine.
pub const NUMA_HOP_CYCLES: u64 = 120;

/// NUMA topology parameters for a [`MemoryFabric`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NumaConfig {
    /// Number of memory nodes (>= 2; a single node is simply uniform
    /// memory, i.e. no topology at all).
    pub nodes: usize,
    /// Extra cycles a DRAM-served access pays when the line's home node
    /// differs from the requester's.
    pub hop_cycles: u64,
}

impl NumaConfig {
    /// A symmetric topology of `nodes` nodes at the default hop latency.
    #[must_use]
    pub fn symmetric(nodes: usize) -> Self {
        Self {
            nodes,
            hop_cycles: NUMA_HOP_CYCLES,
        }
    }
}

/// DRAM-service counters split by locality (managed windows only; lines
/// outside every registered window — e.g. the legacy co-runner stream or
/// Victima's synthetic block lines — are treated as node-local).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NumaStats {
    /// DRAM serves whose home node matched the requester's.
    pub local_dram: u64,
    /// DRAM serves that paid the interconnect hop.
    pub remote_dram: u64,
}

impl asap_telemetry::Collect for NumaStats {
    fn collect(&self, prefix: &str, out: &mut asap_telemetry::MetricSet) {
        out.counter(
            format!("{prefix}local_dram_total"),
            "DRAM serves whose home node matched the requester's",
            self.local_dram,
        );
        out.counter(
            format!("{prefix}remote_dram_total"),
            "DRAM serves that paid the interconnect hop",
            self.remote_dram,
        );
    }
}

/// The NUMA side of the fabric: the topology, the physical windows with
/// their home nodes (kept sorted and disjoint for binary search), the
/// round-robin cursor the next registered window is assigned with, and the
/// locality counters.
#[derive(Debug, Clone)]
struct NumaState {
    config: NumaConfig,
    /// `(start_line, end_line, home_node)`, sorted by start.
    windows: Vec<(u64, u64, usize)>,
    next_node: usize,
    stats: NumaStats,
}

impl NumaState {
    /// The home node of `line`, if it falls inside a registered window.
    fn home_node(&self, line: CacheLineAddr) -> Option<usize> {
        let addr = line.raw();
        let idx = self
            .windows
            .partition_point(|&(start, _, _)| start <= addr)
            .checked_sub(1)?;
        let (_, end, node) = self.windows[idx];
        (addr < end).then_some(node)
    }
}

/// The shared memory-system layer all simulated cores reference: the
/// three-level cache hierarchy, DRAM, the MSHR file, and any synthetic
/// lines a backend installs (e.g. Victima TLB blocks). Purely
/// explicitly-timed — callers pass their local clock on every request.
#[derive(Debug, Clone)]
pub struct MemoryFabric {
    hierarchy: CacheHierarchy,
    /// `None` until [`MemoryFabric::configure_numa`] — the uniform-memory
    /// fast path stays byte-identical to the pre-NUMA fabric.
    numa: Option<NumaState>,
}

impl MemoryFabric {
    /// Builds an empty fabric from `config`.
    #[must_use]
    pub fn new(config: HierarchyConfig) -> Self {
        Self {
            hierarchy: CacheHierarchy::new(config),
            numa: None,
        }
    }

    /// Spreads the fabric's DRAM over `config.nodes` memory nodes. Windows
    /// registered afterwards with [`MemoryFabric::assign_window`] receive
    /// home nodes round-robin.
    ///
    /// # Panics
    ///
    /// Panics on fewer than two nodes — a one-node "topology" is uniform
    /// memory and must stay on the unconfigured fast path.
    pub fn configure_numa(&mut self, config: NumaConfig) {
        assert!(config.nodes >= 2, "a NUMA topology needs at least 2 nodes");
        self.numa = Some(NumaState {
            config,
            windows: Vec::new(),
            next_node: 0,
            stats: NumaStats::default(),
        });
    }

    /// Registers a physical window of `lines` cache lines starting at
    /// `start_line` and assigns it the next home node round-robin,
    /// returning that node. Models default first-touch-free page placement
    /// at datacenter scale: allocation classes spread across sockets, so
    /// every core ends up with a deterministic mix of local and remote
    /// windows.
    ///
    /// # Panics
    ///
    /// Panics without a prior [`MemoryFabric::configure_numa`], or when
    /// the window overlaps one already registered.
    pub fn assign_window(&mut self, start_line: CacheLineAddr, lines: u64) -> usize {
        #[expect(clippy::expect_used, reason = "must configure_numa first")]
        let numa = self.numa.as_mut().expect("configure_numa first");
        let node = numa.next_node;
        numa.next_node = (numa.next_node + 1) % numa.config.nodes;
        let start = start_line.raw();
        let end = start + lines;
        let idx = numa.windows.partition_point(|&(s, _, _)| s < start);
        let disjoint = (idx == 0 || numa.windows[idx - 1].1 <= start)
            && (idx == numa.windows.len() || end <= numa.windows[idx].0);
        assert!(disjoint, "NUMA windows must be disjoint");
        numa.windows.insert(idx, (start, end, node));
        node
    }

    /// The home node of `line`, when NUMA is configured and the line falls
    /// in a registered window.
    #[must_use]
    pub fn home_node(&self, line: CacheLineAddr) -> Option<usize> {
        self.numa.as_ref().and_then(|n| n.home_node(line))
    }

    /// A demand access issued at the caller's local cycle `now`.
    pub fn access_at(&mut self, line: CacheLineAddr, now: u64) -> AccessResult {
        self.access_from(line, now, 0)
    }

    /// A demand access issued at `now` by a core on `node`. When the line
    /// is served by DRAM and homed on a different node, the interconnect
    /// hop is added to the reported latency; merged accesses ride the fill
    /// already in flight and pay nothing extra.
    pub fn access_from(&mut self, line: CacheLineAddr, now: u64, node: usize) -> AccessResult {
        let mut r = self.hierarchy.access_at(line, now);
        if let Some(numa) = self.numa.as_mut() {
            if r.served_by == ServedBy::Memory && !r.merged {
                if let Some(home) = numa.home_node(line) {
                    if home == node {
                        numa.stats.local_dram += 1;
                    } else {
                        numa.stats.remote_dram += 1;
                        r.latency += numa.config.hop_cycles;
                    }
                }
            }
        }
        r
    }

    /// A best-effort prefetch issued at `now`; `None` when dropped for
    /// lack of an MSHR.
    pub fn prefetch_at(&mut self, line: CacheLineAddr, now: u64) -> Option<u64> {
        self.hierarchy.prefetch_at(line, now)
    }

    /// Residency probe that disturbs nothing (no fills, no stats).
    #[must_use]
    pub fn source_of(&self, line: CacheLineAddr) -> ServedBy {
        self.hierarchy.source_of(line)
    }

    /// L1 hit latency (the floor for any demand access).
    #[must_use]
    pub fn l1_latency(&self) -> u64 {
        self.hierarchy.l1_latency()
    }

    /// L2 hit latency — what a cache-resident TLB-block lookup costs.
    #[must_use]
    pub fn l2_latency(&self) -> u64 {
        self.hierarchy.l2_latency()
    }

    /// DRAM latency.
    #[must_use]
    pub fn memory_latency(&self) -> u64 {
        self.hierarchy.memory_latency()
    }

    /// Installs `line` into the L2 only (the Victima TLB-block insertion
    /// path; see [`CacheHierarchy::l2_install`]).
    pub fn l2_install(&mut self, line: CacheLineAddr) {
        self.hierarchy.l2_install(line);
    }

    /// Probes the L2 for `line`, updating recency on a hit.
    pub fn l2_lookup(&mut self, line: CacheLineAddr) -> bool {
        self.hierarchy.l2_lookup(line)
    }

    /// Whether the L2 currently holds `line` (no side effects).
    #[must_use]
    pub fn l2_contains(&self, line: CacheLineAddr) -> bool {
        self.hierarchy.l2_contains(line)
    }

    /// Invalidates a line everywhere.
    pub fn invalidate(&mut self, line: CacheLineAddr) {
        self.hierarchy.invalidate(line);
    }

    /// Accumulated hierarchy statistics (fabric-wide, across all cores).
    #[must_use]
    pub fn stats(&self) -> HierarchyStats {
        *self.hierarchy.stats()
    }

    /// DRAM locality counters (zero until NUMA is configured).
    #[must_use]
    pub fn numa_stats(&self) -> NumaStats {
        self.numa.as_ref().map(|n| n.stats).unwrap_or_default()
    }

    /// Resets the fabric-wide statistics without touching contents.
    pub fn reset_stats(&mut self) {
        self.hierarchy.reset_stats();
        if let Some(numa) = self.numa.as_mut() {
            numa.stats = NumaStats::default();
        }
    }
}

/// A core's handle to the one [`MemoryFabric`] of its machine.
///
/// Clone one handle per core; all clones reference the same caches. The
/// handle is single-threaded by design (`Rc`): a simulated machine lives
/// on one host thread, and determinism comes from the driver's fixed
/// arbitration order, not from locks.
///
/// Each handle also carries the NUMA node its core sits on (node 0 until
/// [`SharedFabric::for_node`]), so engines stay topology-oblivious: they
/// call [`SharedFabric::access_at`] as always, and the handle stamps the
/// requester's node onto the request.
#[derive(Debug, Clone)]
pub struct SharedFabric {
    fabric: Rc<RefCell<MemoryFabric>>,
    node: usize,
}

impl SharedFabric {
    /// Builds a fresh fabric from `config` and returns the first handle.
    #[must_use]
    pub fn new(config: HierarchyConfig) -> Self {
        MemoryFabric::new(config).into_shared()
    }

    /// How many handles (≈ attached cores) reference this fabric.
    #[must_use]
    pub fn ports(&self) -> usize {
        Rc::strong_count(&self.fabric)
    }

    /// A handle to the same fabric for a core on `node` — what the SMP
    /// assembly passes to each engine constructor on a NUMA machine.
    #[must_use]
    pub fn for_node(&self, node: usize) -> Self {
        Self {
            fabric: Rc::clone(&self.fabric),
            node,
        }
    }

    /// The NUMA node this handle's requests are stamped with.
    #[must_use]
    pub fn node(&self) -> usize {
        self.node
    }

    /// Spreads the fabric's DRAM over NUMA nodes (see
    /// [`MemoryFabric::configure_numa`]).
    ///
    /// # Panics
    ///
    /// Panics on fewer than two nodes.
    pub fn configure_numa(&self, config: NumaConfig) {
        self.fabric.borrow_mut().configure_numa(config);
    }

    /// Registers a physical window and returns its round-robin home node
    /// (see [`MemoryFabric::assign_window`]).
    ///
    /// # Panics
    ///
    /// Panics without a prior [`SharedFabric::configure_numa`] or on an
    /// overlapping window.
    pub fn assign_window(&self, start_line: CacheLineAddr, lines: u64) -> usize {
        self.fabric.borrow_mut().assign_window(start_line, lines)
    }

    /// The home node of `line`, when registered.
    #[must_use]
    pub fn home_node(&self, line: CacheLineAddr) -> Option<usize> {
        self.fabric.borrow().home_node(line)
    }

    /// A demand access issued at the caller's local cycle `now`, stamped
    /// with this handle's node.
    pub fn access_at(&self, line: CacheLineAddr, now: u64) -> AccessResult {
        self.fabric.borrow_mut().access_from(line, now, self.node)
    }

    /// A best-effort prefetch issued at `now`; `None` when dropped. The
    /// reported completion never includes an interconnect hop: a prefetch
    /// that lands hides the remote latency entirely (that is the point of
    /// prefetching); a demand access that misses it still pays the hop
    /// through [`SharedFabric::access_at`].
    pub fn prefetch_at(&self, line: CacheLineAddr, now: u64) -> Option<u64> {
        self.fabric.borrow_mut().prefetch_at(line, now)
    }

    /// Residency probe that disturbs nothing.
    #[must_use]
    pub fn source_of(&self, line: CacheLineAddr) -> ServedBy {
        self.fabric.borrow().source_of(line)
    }

    /// L1 hit latency.
    #[must_use]
    pub fn l1_latency(&self) -> u64 {
        self.fabric.borrow().l1_latency()
    }

    /// L2 hit latency.
    #[must_use]
    pub fn l2_latency(&self) -> u64 {
        self.fabric.borrow().l2_latency()
    }

    /// DRAM latency.
    #[must_use]
    pub fn memory_latency(&self) -> u64 {
        self.fabric.borrow().memory_latency()
    }

    /// Installs `line` into the L2 only (Victima TLB-block insertion).
    pub fn l2_install(&self, line: CacheLineAddr) {
        self.fabric.borrow_mut().l2_install(line);
    }

    /// Probes the L2 for `line`, updating recency on a hit.
    pub fn l2_lookup(&self, line: CacheLineAddr) -> bool {
        self.fabric.borrow_mut().l2_lookup(line)
    }

    /// Whether the L2 currently holds `line`.
    #[must_use]
    pub fn l2_contains(&self, line: CacheLineAddr) -> bool {
        self.fabric.borrow().l2_contains(line)
    }

    /// Invalidates a line everywhere.
    pub fn invalidate(&self, line: CacheLineAddr) {
        self.fabric.borrow_mut().invalidate(line);
    }

    /// Fabric-wide hierarchy statistics.
    #[must_use]
    pub fn stats(&self) -> HierarchyStats {
        self.fabric.borrow().stats()
    }

    /// Fabric-wide DRAM locality counters.
    #[must_use]
    pub fn numa_stats(&self) -> NumaStats {
        self.fabric.borrow().numa_stats()
    }

    /// Resets the fabric-wide statistics.
    pub fn reset_stats(&self) {
        self.fabric.borrow_mut().reset_stats();
    }
}

impl MemoryFabric {
    /// Wraps the fabric in a shareable handle (node 0).
    #[must_use]
    pub fn into_shared(self) -> SharedFabric {
        SharedFabric {
            fabric: Rc::new(RefCell::new(self)),
            node: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HierarchyConfig;

    #[test]
    fn handles_share_one_hierarchy() {
        let a = SharedFabric::new(HierarchyConfig::tiny_for_tests());
        let b = a.clone();
        assert_eq!(a.ports(), 2);
        let line = CacheLineAddr::new(0x7);
        assert_eq!(a.access_at(line, 0).served_by, ServedBy::Memory);
        assert_eq!(b.access_at(line, 300).served_by, ServedBy::L1);
        assert_eq!(b.stats().levels[0].hits, 1);
    }

    #[test]
    fn fabric_is_explicitly_timed() {
        // Two "cores" at different local times merge on the same MSHR.
        let f = SharedFabric::new(HierarchyConfig::tiny_for_tests());
        let line = CacheLineAddr::new(0x9);
        let completion = f.prefetch_at(line, 0).expect("mshr available");
        let r = f.access_at(line, completion / 2);
        assert!(r.merged);
        assert_eq!(r.latency, completion - completion / 2);
    }

    #[test]
    fn remote_dram_pays_the_interconnect_hop() {
        let f = SharedFabric::new(HierarchyConfig::tiny_for_tests());
        f.configure_numa(NumaConfig::symmetric(2));
        // Two windows: round-robin puts the first on node 0, second on 1.
        assert_eq!(f.assign_window(CacheLineAddr::new(0), 1 << 20), 0);
        assert_eq!(f.assign_window(CacheLineAddr::new(1 << 20), 1 << 20), 1);
        let core1 = f.for_node(1);
        assert_eq!(core1.node(), 1);
        assert_eq!(f.node(), 0);

        let local = CacheLineAddr::new(0x40); // homed on node 0
        let remote = CacheLineAddr::new((1 << 20) + 0x40); // homed on node 1
        assert_eq!(f.home_node(local), Some(0));
        assert_eq!(f.home_node(remote), Some(1));
        // Node 0 touching its own window: plain DRAM latency.
        let r = f.access_at(local, 0);
        assert_eq!(r.served_by, ServedBy::Memory);
        assert_eq!(r.latency, f.memory_latency());
        // Node 0 touching node 1's window: DRAM + hop.
        let r = f.access_at(remote, 0);
        assert_eq!(r.latency, f.memory_latency() + NUMA_HOP_CYCLES);
        // Node 1 touching its own window's next line: local again.
        let r = core1.access_at(CacheLineAddr::new((1 << 20) + 0x80), 0);
        assert_eq!(r.latency, f.memory_latency());
        assert_eq!(
            f.numa_stats(),
            NumaStats {
                local_dram: 2,
                remote_dram: 1
            }
        );
        // Cache hits never pay the hop, wherever the line is homed.
        let r = f.access_at(remote, 10_000);
        assert_ne!(r.served_by, ServedBy::Memory);
        assert_eq!(f.numa_stats().remote_dram, 1);
        // Unregistered lines (co-runner traffic, synthetic blocks) are
        // node-local by definition.
        assert_eq!(f.home_node(CacheLineAddr::new(1 << 40)), None);
        f.reset_stats();
        assert_eq!(f.numa_stats(), NumaStats::default());
    }

    #[test]
    fn merged_accesses_ride_the_inflight_fill_without_a_hop() {
        let f = SharedFabric::new(HierarchyConfig::tiny_for_tests());
        f.configure_numa(NumaConfig::symmetric(2));
        f.assign_window(CacheLineAddr::new(0), 1 << 20);
        f.assign_window(CacheLineAddr::new(1 << 20), 1 << 20);
        let remote = CacheLineAddr::new((1 << 20) + 0x40);
        let completion = f.prefetch_at(remote, 0).expect("mshr available");
        let r = f.access_at(remote, completion / 2);
        assert!(r.merged);
        assert_eq!(r.latency, completion - completion / 2);
        assert_eq!(f.numa_stats(), NumaStats::default());
    }

    #[test]
    fn cross_node_merge_charges_neither_dram_counter() {
        // Core 1 prefetches a line homed on node 0; core 0 — for which
        // that line is LOCAL — demand-accesses it mid-flight and merges
        // on the MSHR. Only one DRAM transaction ever happens, and it is
        // a prefetch fill, so the merged demand must increment neither
        // local_dram nor remote_dram and pay no hop. A later genuinely
        // remote demand still counts, proving the counters are armed.
        let f = SharedFabric::new(HierarchyConfig::tiny_for_tests());
        f.configure_numa(NumaConfig::symmetric(2));
        f.assign_window(CacheLineAddr::new(0), 1 << 20);
        f.assign_window(CacheLineAddr::new(1 << 20), 1 << 20);
        let core1 = f.for_node(1);
        let local = CacheLineAddr::new(0x40); // homed on node 0

        let completion = core1.prefetch_at(local, 0).expect("mshr available");
        let merged = f.access_at(local, completion / 2);
        assert!(merged.merged);
        assert_eq!(merged.latency, completion - completion / 2);
        assert_eq!(
            f.numa_stats(),
            NumaStats::default(),
            "merged demand over a prefetch fill counts no DRAM locality"
        );

        let remote = CacheLineAddr::new((1 << 20) + 0x40); // homed on node 1
        let demand = f.access_at(remote, 0);
        assert_eq!(demand.served_by, ServedBy::Memory);
        assert_eq!(demand.latency, f.memory_latency() + NUMA_HOP_CYCLES);
        assert_eq!(
            f.numa_stats(),
            NumaStats {
                local_dram: 0,
                remote_dram: 1
            }
        );
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn overlapping_numa_windows_are_rejected() {
        let f = SharedFabric::new(HierarchyConfig::tiny_for_tests());
        f.configure_numa(NumaConfig::symmetric(2));
        f.assign_window(CacheLineAddr::new(0), 1 << 20);
        f.assign_window(CacheLineAddr::new(1 << 10), 1 << 20);
    }

    #[test]
    fn block_line_api_reaches_the_l2() {
        let f = SharedFabric::new(HierarchyConfig::tiny_for_tests());
        let line = CacheLineAddr::new(1 << 62);
        assert!(!f.l2_contains(line));
        f.l2_install(line);
        assert!(f.l2_contains(line));
        assert!(f.l2_lookup(line));
        f.invalidate(line);
        assert!(!f.l2_contains(line));
    }
}
