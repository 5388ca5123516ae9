//! The cores' handles to the machine's one memory system.
//!
//! A simulated machine has one [`CacheHierarchy`]: caches, DRAM, the MSHR
//! file, NUMA homing and (for a Victima-style backend) synthetic TLB-block
//! lines. It keeps no clock; every request carries the issuing core's local
//! cycle. [`SharedFabric`] is the handle cores hold: a cheaply clonable
//! reference (`Rc<RefCell<_>>`) to that hierarchy plus the NUMA node of its
//! core. A run is simulated on a single host thread with deterministic core
//! arbitration, so the shared mutable state needs no locking — the interior
//! mutability only expresses that N per-core engines reference one memory
//! system.
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
//! ```

use crate::{AccessResult, CacheHierarchy, HierarchyConfig, HierarchyStats, NumaConfig, NumaStats};
use asap_types::CacheLineAddr;
use std::cell::RefCell;
use std::rc::Rc;

/// A core's handle to the one [`CacheHierarchy`] of its machine.
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
    hierarchy: Rc<RefCell<CacheHierarchy>>,
    node: usize,
}

impl SharedFabric {
    /// Builds a fresh hierarchy from `config` and returns the first handle
    /// (node 0).
    #[must_use]
    pub fn new(config: HierarchyConfig) -> Self {
        Self {
            hierarchy: Rc::new(RefCell::new(CacheHierarchy::new(config))),
            node: 0,
        }
    }

    /// A handle to the same hierarchy for a core on `node` — what the SMP
    /// assembly passes to each engine constructor on a NUMA machine.
    #[must_use]
    pub fn for_node(&self, node: usize) -> Self {
        Self {
            hierarchy: Rc::clone(&self.hierarchy),
            node,
        }
    }

    /// The NUMA node this handle's requests are stamped with.
    #[must_use]
    pub fn node(&self) -> usize {
        self.node
    }

    /// Spreads DRAM over NUMA nodes and homes the `(start_line, lines)`
    /// windows round-robin (see [`CacheHierarchy::configure_numa`]).
    ///
    /// # Panics
    ///
    /// Panics on fewer than two nodes or on overlapping windows.
    pub fn configure_numa(
        &self,
        config: NumaConfig,
        windows: impl IntoIterator<Item = (CacheLineAddr, u64)>,
    ) {
        self.hierarchy.borrow_mut().configure_numa(config, windows);
    }

    /// The home node of `line`, when registered.
    #[must_use]
    pub fn home_node(&self, line: CacheLineAddr) -> Option<usize> {
        self.hierarchy.borrow().home_node(line)
    }

    /// A demand access issued at the caller's local cycle `now`, stamped
    /// with this handle's node.
    pub fn access_at(&self, line: CacheLineAddr, now: u64) -> AccessResult {
        self.hierarchy.borrow_mut().access(line, now, self.node)
    }

    /// A best-effort prefetch issued at `now`; `None` when dropped (see
    /// [`CacheHierarchy::prefetch_at`]).
    pub fn prefetch_at(&self, line: CacheLineAddr, now: u64) -> Option<u64> {
        self.hierarchy.borrow_mut().prefetch_at(line, now)
    }

    /// L2 hit latency — what a cache-resident TLB-block lookup costs.
    #[must_use]
    pub fn l2_latency(&self) -> u64 {
        self.hierarchy.borrow().l2_latency()
    }

    /// Installs `line` into the L2 only (see [`CacheHierarchy::l2_install`]).
    pub fn l2_install(&self, line: CacheLineAddr) {
        self.hierarchy.borrow_mut().l2_install(line);
    }

    /// Probes the L2 for `line`, updating recency on a hit.
    pub fn l2_lookup(&self, line: CacheLineAddr) -> bool {
        self.hierarchy.borrow_mut().l2_lookup(line)
    }

    /// Whether the L2 currently holds `line`.
    #[must_use]
    pub fn l2_contains(&self, line: CacheLineAddr) -> bool {
        self.hierarchy.borrow().l2_contains(line)
    }

    /// Machine-wide hierarchy statistics.
    #[must_use]
    pub fn stats(&self) -> HierarchyStats {
        *self.hierarchy.borrow().stats()
    }

    /// Machine-wide DRAM locality counters.
    #[must_use]
    pub fn numa_stats(&self) -> NumaStats {
        self.hierarchy.borrow().numa_stats()
    }

    /// Resets the machine-wide statistics.
    pub fn reset_stats(&self) {
        self.hierarchy.borrow_mut().reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServedBy, NUMA_HOP_CYCLES};

    const DRAM: u64 = 191;

    /// A tiny two-node machine: lines `[0, 2^20)` homed on node 0 and
    /// `[2^20, 2^21)` on node 1.
    fn two_nodes() -> SharedFabric {
        let f = SharedFabric::new(HierarchyConfig::tiny_for_tests());
        let windows = [0, 1 << 20].map(|start| (CacheLineAddr::new(start), 1 << 20));
        f.configure_numa(NumaConfig::symmetric(2), windows);
        f
    }

    #[test]
    fn handles_share_one_hierarchy() {
        let a = SharedFabric::new(HierarchyConfig::tiny_for_tests());
        let b = a.clone();
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
        let f = two_nodes();
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
        assert_eq!(r.latency, DRAM);
        // Node 0 touching node 1's window: DRAM + hop.
        let r = f.access_at(remote, 0);
        assert_eq!(r.latency, DRAM + NUMA_HOP_CYCLES);
        // Node 1 touching its own window's next line: local again.
        let r = core1.access_at(CacheLineAddr::new((1 << 20) + 0x80), 0);
        assert_eq!(r.latency, DRAM);
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
        let f = two_nodes();
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
        let f = two_nodes();
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
        assert_eq!(demand.latency, DRAM + NUMA_HOP_CYCLES);
        assert_eq!(
            f.numa_stats(),
            NumaStats {
                local_dram: 0,
                remote_dram: 1
            }
        );
    }

    #[test]
    fn windows_are_homed_round_robin_in_the_order_given() {
        // Given out of address order: the third window goes back to node 0.
        let f = SharedFabric::new(HierarchyConfig::tiny_for_tests());
        let windows = [(200, 50), (0, 100), (100, 100)].map(|(s, n)| (CacheLineAddr::new(s), n));
        f.configure_numa(NumaConfig::symmetric(2), windows);
        let home = |l| f.home_node(CacheLineAddr::new(l));
        assert_eq!(
            [home(0), home(99), home(100), home(249)],
            [Some(1), Some(1), Some(0), Some(0)]
        );
        assert_eq!(home(250), None);
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn overlapping_numa_windows_are_rejected() {
        let f = SharedFabric::new(HierarchyConfig::tiny_for_tests());
        let windows = [0, 1 << 10].map(|start| (CacheLineAddr::new(start), 1 << 20));
        f.configure_numa(NumaConfig::symmetric(2), windows);
    }

    #[test]
    fn block_line_api_reaches_the_l2() {
        let f = SharedFabric::new(HierarchyConfig::tiny_for_tests());
        let line = CacheLineAddr::new(1 << 62);
        assert!(!f.l2_contains(line));
        assert!(!f.l2_lookup(line));
        f.l2_install(line);
        assert!(f.l2_contains(line));
        assert!(f.l2_lookup(line));
        assert_eq!(f.l2_latency(), 12);
    }
}
