//! NUMA homing of physical windows and the DRAM interconnect hop.
//!
//! A [`CacheHierarchy`](crate::CacheHierarchy) can spread its DRAM over
//! memory nodes: physical windows get a home node round-robin, every demand
//! access carries its requester's node, and a DRAM-served access whose
//! home differs from the requester's pays an interconnect hop on top of the
//! memory latency. Unconfigured (the default), timing is uniform.

use asap_types::CacheLineAddr;

/// Interconnect-hop latency in cycles a DRAM access pays when the line's
/// home node differs from the requesting core's: remote DRAM at
/// `191 + 120 = 311` cycles against 191 local, the ~1.6× remote/local
/// ratio of a two-socket machine.
pub const NUMA_HOP_CYCLES: u64 = 120;

/// NUMA topology parameters for a [`CacheHierarchy`](crate::CacheHierarchy).
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

/// The topology, the physical windows with their home nodes (sorted and
/// disjoint for binary search), and the locality counters.
#[derive(Debug, Clone)]
pub(crate) struct NumaState {
    config: NumaConfig,
    /// `(start_line, end_line, home_node)`, sorted by start.
    windows: Vec<(u64, u64, usize)>,
    pub(crate) stats: NumaStats,
}

impl NumaState {
    /// Homes the `(start_line, lines)` windows on nodes round-robin, in
    /// the order given.
    ///
    /// # Panics
    ///
    /// Panics on fewer than two nodes — a one-node "topology" is uniform
    /// memory and stays unconfigured — or on overlapping windows.
    pub(crate) fn new(
        config: NumaConfig,
        windows: impl IntoIterator<Item = (CacheLineAddr, u64)>,
    ) -> Self {
        assert!(config.nodes >= 2, "a NUMA topology needs at least 2 nodes");
        let mut windows: Vec<_> = windows
            .into_iter()
            .enumerate()
            .map(|(i, (start, lines))| (start.raw(), start.raw() + lines, i % config.nodes))
            .collect();
        windows.sort_unstable();
        let disjoint = windows.windows(2).all(|w| w[0].1 <= w[1].0);
        assert!(disjoint, "NUMA windows must be disjoint");
        Self {
            config,
            windows,
            stats: NumaStats::default(),
        }
    }

    /// The home node of `line`, if it falls inside a registered window.
    pub(crate) fn home_node(&self, line: CacheLineAddr) -> Option<usize> {
        let addr = line.raw();
        let idx = self
            .windows
            .partition_point(|&(start, _, _)| start <= addr)
            .checked_sub(1)?;
        let (_, end, node) = self.windows[idx];
        (addr < end).then_some(node)
    }

    /// Counts a DRAM fill of `line` for a requester on `node` and returns
    /// the hop it pays: the configured hop when the line is homed on
    /// another node, 0 when local or unregistered.
    pub(crate) fn dram_hop(&mut self, line: CacheLineAddr, node: usize) -> u64 {
        match self.home_node(line) {
            Some(home) if home == node => {
                self.stats.local_dram += 1;
                0
            }
            Some(_) => {
                self.stats.remote_dram += 1;
                self.config.hop_cycles
            }
            None => 0,
        }
    }
}
