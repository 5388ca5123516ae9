//! The three-level cache hierarchy plus DRAM: the machine's one memory
//! system.

use crate::numa::NumaState;
use crate::{
    Cache, CacheStats, HierarchyConfig, HierarchyStats, MshrFile, MshrOutcome, NumaConfig,
    NumaStats,
};
use asap_types::CacheLineAddr;

/// The hierarchy level that ultimately served an access — the per-request
/// attribution behind the paper's Figure 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ServedBy {
    /// Hit in the L1 data cache.
    L1,
    /// Served from the unified L2.
    L2,
    /// Served from the shared last-level cache.
    L3,
    /// Served from DRAM.
    Memory,
}

impl ServedBy {
    /// All variants, fastest first.
    pub const ALL: [ServedBy; 4] = [ServedBy::L1, ServedBy::L2, ServedBy::L3, ServedBy::Memory];
}

impl core::fmt::Display for ServedBy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServedBy::L1 => f.write_str("L1"),
            ServedBy::L2 => f.write_str("L2"),
            ServedBy::L3 => f.write_str("LLC"),
            ServedBy::Memory => f.write_str("Mem"),
        }
    }
}

/// The outcome of one hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Cycles from issue to data return.
    pub latency: u64,
    /// Level that served the request.
    pub served_by: ServedBy,
    /// Whether the request merged with an in-flight prefetch MSHR; when
    /// true, `latency` is the *residual* wait, not a full fetch.
    pub merged: bool,
}

/// A three-level cache hierarchy with DRAM backing, an L1-D MSHR file for
/// in-flight ASAP prefetches and, optionally, NUMA homing of DRAM.
///
/// Timing model: a hit at level *n* costs that level's configured total
/// latency (Table 5 latencies are load-to-use, not incremental); a full miss
/// costs the memory latency, plus [`NumaConfig::hop_cycles`] when the line
/// is homed on another node than the requester's. Fills install the line in
/// every level (the paper routes ASAP prefetches "into the L1-D", and
/// walker/demand misses likewise allocate up the hierarchy).
///
/// The hierarchy keeps no clock: every request carries the issuing core's
/// local cycle, so N cores with their own clocks can share it (through
/// [`SharedFabric`](crate::SharedFabric) handles).
///
/// The hierarchy owns the only per-level counters: hits and misses of
/// demand lookups, lines installed and the valid lines those installs
/// displaced.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    /// L1, L2, L3.
    levels: [Cache; 3],
    memory_latency: u64,
    mshrs: MshrFile,
    stats: HierarchyStats,
    /// `None` until [`CacheHierarchy::configure_numa`]: uniform memory.
    numa: Option<NumaState>,
}

/// Makes `line` the most recent line of `cache`, given its probed position:
/// promotes a resident line, or installs an absent one and counts the fill
/// and any valid line it displaces.
fn fill_at(cache: &mut Cache, stats: &mut CacheStats, line: CacheLineAddr, pos: Option<usize>) {
    match pos {
        Some(pos) => cache.promote(line, pos),
        None => {
            stats.fills += 1;
            if cache.insert(line).is_some() {
                stats.evictions += 1;
            }
        }
    }
}

impl CacheHierarchy {
    /// Builds an empty hierarchy from `config`.
    #[must_use]
    pub fn new(config: HierarchyConfig) -> Self {
        Self {
            levels: [
                Cache::new(config.l1),
                Cache::new(config.l2),
                Cache::new(config.l3),
            ],
            memory_latency: config.memory_latency,
            mshrs: MshrFile::new(config.mshr_entries),
            stats: HierarchyStats::default(),
            numa: None,
        }
    }

    /// Spreads DRAM over `config.nodes` memory nodes and homes each
    /// `(start_line, lines)` physical window on a node, round-robin in the
    /// order given. Models default first-touch-free page placement at
    /// datacenter scale: allocation classes spread across sockets, so every
    /// core ends up with a deterministic mix of local and remote windows.
    ///
    /// # Panics
    ///
    /// Panics on fewer than two nodes — a one-node "topology" is uniform
    /// memory and stays unconfigured — or on overlapping windows.
    pub fn configure_numa(
        &mut self,
        config: NumaConfig,
        windows: impl IntoIterator<Item = (CacheLineAddr, u64)>,
    ) {
        self.numa = Some(NumaState::new(config, windows));
    }

    /// The home node of `line`, when NUMA is configured and the line falls
    /// in a registered window.
    #[must_use]
    pub fn home_node(&self, line: CacheLineAddr) -> Option<usize> {
        self.numa.as_ref().and_then(|n| n.home_node(line))
    }

    /// A demand access issued at the caller's local cycle `now` by a core
    /// on NUMA node `node` (0 on a uniform-memory machine). An in-flight
    /// prefetch to the line absorbs it: the request waits only for the
    /// residual and pays no hop, since it rides a fill already under way.
    pub fn access(&mut self, line: CacheLineAddr, now: u64, node: usize) -> AccessResult {
        if let Some((completion, source)) = self.mshrs.in_flight(line, now) {
            self.stats.mshr_merges += 1;
            let latency = completion.saturating_sub(now).max(self.levels[0].latency());
            return AccessResult {
                latency,
                served_by: source,
                merged: true,
            };
        }
        let (mut latency, served_by) = self.lookup_and_fill(line);
        if served_by == ServedBy::Memory {
            if let Some(numa) = self.numa.as_mut() {
                latency += numa.dram_hop(line, node);
            }
        }
        AccessResult {
            latency,
            served_by,
            merged: false,
        }
    }

    /// Issues a best-effort prefetch for `line` at cycle `now`.
    ///
    /// Returns the completion cycle, or `None` if the prefetch was dropped
    /// because no MSHR was available. A prefetch to a line already resident
    /// in L1 is a no-op completing immediately; a prefetch to a line already
    /// in flight merges with the existing entry. A prefetch pays no
    /// interconnect hop and counts in no [`NumaStats`], even for a line
    /// homed on a remote node; only demand accesses do.
    pub fn prefetch_at(&mut self, line: CacheLineAddr, now: u64) -> Option<u64> {
        // In-flight entries are checked before residency: fills are installed
        // optimistically at issue time, so an in-flight line already appears
        // in L1 even though its data has not arrived yet.
        if let Some((completion, _)) = self.mshrs.in_flight(line, now) {
            return Some(completion);
        }
        if self.levels[0].contains(line) {
            return Some(now);
        }
        // Each outer level is scanned once: the positions found decide
        // where the line comes from and, once an MSHR covers the flight
        // time, where each level promotes or installs it.
        let pos = [
            None,
            self.levels[1].position(line),
            self.levels[2].position(line),
        ];
        let (latency, served_by) = self.source(pos.map(|p| p.is_some()));
        match self.mshrs.allocate(line, now, now + latency, served_by) {
            MshrOutcome::Issued { completion } | MshrOutcome::Merged { completion } => {
                for ((cache, stats), pos) in
                    self.levels.iter_mut().zip(&mut self.stats.levels).zip(pos)
                {
                    fill_at(cache, stats, line, pos);
                }
                self.stats.prefetch_fills += 1;
                Some(completion)
            }
            MshrOutcome::Full => {
                self.stats.prefetches_dropped += 1;
                None
            }
        }
    }

    /// The latency and level of the nearest level `resident` marks, or
    /// DRAM's.
    fn source(&self, resident: [bool; 3]) -> (u64, ServedBy) {
        resident
            .iter()
            .zip(&self.levels)
            .zip(ServedBy::ALL)
            .find(|((&hit, _), _)| hit)
            .map_or(
                (self.memory_latency, ServedBy::Memory),
                |((_, cache), by)| (cache.latency(), by),
            )
    }

    /// Looks `line` up level by level, filling every level that misses —
    /// each level's set is scanned once. The levels share no state, so
    /// filling a level as soon as it misses leaves the same contents as
    /// filling them all once the serving level is known.
    fn lookup_and_fill(&mut self, line: CacheLineAddr) -> (u64, ServedBy) {
        for ((cache, stats), served_by) in self
            .levels
            .iter_mut()
            .zip(&mut self.stats.levels)
            .zip(ServedBy::ALL)
        {
            let pos = cache.position(line);
            stats.record(pos.is_some());
            fill_at(cache, stats, line, pos);
            if pos.is_some() {
                return (cache.latency(), served_by);
            }
        }
        self.stats.memory_accesses += 1;
        (self.memory_latency, ServedBy::Memory)
    }

    /// Residency probe that disturbs nothing (no fills, no stats).
    #[must_use]
    pub fn source_of(&self, line: CacheLineAddr) -> ServedBy {
        self.source(self.levels.each_ref().map(|c| c.contains(line)))
            .1
    }

    /// L2 hit latency — what a cache-resident TLB-block lookup costs.
    #[must_use]
    pub fn l2_latency(&self) -> u64 {
        self.levels[1].latency()
    }

    /// Installs `line` into the L2 **only** — the insertion path of a
    /// Victima-style backend, which parks evicted TLB entries as TLB blocks
    /// in the L2 without polluting the L1 or LLC. The block then competes
    /// for L2 ways with ordinary data, so cache pressure naturally evicts
    /// stale translations. The install counts as an L2 fill.
    pub fn l2_install(&mut self, line: CacheLineAddr) {
        let pos = self.levels[1].position(line);
        fill_at(&mut self.levels[1], &mut self.stats.levels[1], line, pos);
    }

    /// Probes the L2 for `line`, updating recency on a hit (a real lookup,
    /// as a TLB-block probe performs). Does not fill other levels and does
    /// not touch the hierarchy-level hit/miss statistics — block probes are
    /// accounted by the backend that issues them.
    pub fn l2_lookup(&mut self, line: CacheLineAddr) -> bool {
        let l2 = &mut self.levels[1];
        let pos = l2.position(line);
        if let Some(pos) = pos {
            l2.promote(line, pos);
        }
        pos.is_some()
    }

    /// Whether the L2 currently holds `line` (no side effects).
    #[must_use]
    pub fn l2_contains(&self, line: CacheLineAddr) -> bool {
        self.levels[1].contains(line)
    }

    /// Accumulated statistics (machine-wide, across all cores).
    #[must_use]
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// DRAM locality counters (zero until NUMA is configured).
    #[must_use]
    pub fn numa_stats(&self) -> NumaStats {
        self.numa.as_ref().map(|n| n.stats).unwrap_or_default()
    }

    /// Resets statistics (e.g. after warmup) without touching contents.
    pub fn reset_stats(&mut self) {
        self.stats = HierarchyStats::default();
        if let Some(numa) = self.numa.as_mut() {
            numa.stats = NumaStats::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheHierarchy {
        CacheHierarchy::new(HierarchyConfig::tiny_for_tests())
    }

    /// A node-0 demand access at cycle 0 (no prefetch in flight).
    fn demand(h: &mut CacheHierarchy, line: u64) -> AccessResult {
        h.access(CacheLineAddr::new(line), 0, 0)
    }

    /// Lines 1 + 16i, i = 1..=8, conflict with line 1's set in the tiny
    /// L1 (16 sets x 4 ways) and push it out of the L1 only.
    fn thrash_l1_set_of_line_1(h: &mut CacheHierarchy) {
        for i in 1..=8u64 {
            demand(h, 1 + i * 16);
        }
    }

    #[test]
    fn miss_fills_all_levels() {
        let mut h = tiny();
        let r = demand(&mut h, 0x99);
        assert_eq!(r.served_by, ServedBy::Memory);
        assert_eq!(r.latency, 191);
        let r2 = demand(&mut h, 0x99);
        assert_eq!(r2.served_by, ServedBy::L1);
        assert_eq!(r2.latency, 4);
    }

    #[test]
    fn l2_serves_after_l1_eviction() {
        let mut h = tiny();
        demand(&mut h, 1);
        thrash_l1_set_of_line_1(&mut h);
        let r = demand(&mut h, 1);
        assert_eq!(r.served_by, ServedBy::L2);
        assert_eq!(r.latency, 12);
    }

    #[test]
    fn prefetch_then_demand_is_l1_hit_after_completion() {
        let mut h = tiny();
        let line = CacheLineAddr::new(0x40);
        let completion = h.prefetch_at(line, 0).expect("mshr available");
        assert_eq!(completion, 191);
        // Demand access after completion: plain L1 hit.
        let r = h.access(line, 200, 0);
        assert_eq!(r.served_by, ServedBy::L1);
        assert_eq!(r.latency, 4);
        assert!(!r.merged);
    }

    #[test]
    fn demand_merges_with_inflight_prefetch() {
        let mut h = tiny();
        let line = CacheLineAddr::new(0x41);
        let completion = h.prefetch_at(line, 0).unwrap();
        // Walker arrives at cycle 100 < 191: waits only the residual.
        let r = h.access(line, 100, 0);
        assert!(r.merged);
        assert_eq!(r.latency, completion - 100);
        assert_eq!(r.served_by, ServedBy::Memory);
        assert_eq!(h.stats().mshr_merges, 1);
    }

    #[test]
    fn merge_latency_floor_is_l1_hit() {
        let mut h = tiny();
        let line = CacheLineAddr::new(0x42);
        let completion = h.prefetch_at(line, 0).unwrap();
        // Demand lands 1 cycle before completion: cannot beat an L1 hit.
        let r = h.access(line, completion - 1, 0);
        assert!(r.merged);
        assert_eq!(r.latency, 4);
    }

    #[test]
    fn prefetch_to_resident_line_is_free() {
        let mut h = tiny();
        let line = CacheLineAddr::new(0x43);
        let now = h.access(line, 0, 0).latency; // now resident
        assert_eq!(h.prefetch_at(line, now), Some(now));
        assert_eq!(h.stats().prefetch_fills, 0);
    }

    #[test]
    fn prefetch_dropped_when_mshrs_full() {
        let mut cfg = HierarchyConfig::tiny_for_tests();
        cfg.mshr_entries = 2;
        let mut h = CacheHierarchy::new(cfg);
        assert!(h.prefetch_at(CacheLineAddr::new(1), 0).is_some());
        assert!(h.prefetch_at(CacheLineAddr::new(2), 0).is_some());
        assert!(h.prefetch_at(CacheLineAddr::new(3), 0).is_none());
        assert_eq!(h.stats().prefetches_dropped, 1);
        // A dropped prefetch installs nothing.
        assert_eq!(h.source_of(CacheLineAddr::new(3)), ServedBy::Memory);
        // After the first two complete, capacity frees up.
        assert!(h.prefetch_at(CacheLineAddr::new(3), 200).is_some());
    }

    #[test]
    fn duplicate_prefetch_merges() {
        let mut h = tiny();
        let line = CacheLineAddr::new(9);
        let c1 = h.prefetch_at(line, 0).unwrap();
        let c2 = h.prefetch_at(line, 10).unwrap();
        assert_eq!(c1, c2, "second prefetch rides the first");
    }

    #[test]
    fn source_probe_matches_access() {
        let mut h = tiny();
        let line = CacheLineAddr::new(1);
        assert_eq!(h.source_of(line), ServedBy::Memory);
        demand(&mut h, 1);
        assert_eq!(h.source_of(line), ServedBy::L1);
        thrash_l1_set_of_line_1(&mut h);
        assert_eq!(h.source_of(line), ServedBy::L2);
        assert_eq!(demand(&mut h, 1).served_by, ServedBy::L2);
    }

    #[test]
    fn prefetch_from_l2_refreshes_the_outer_levels() {
        let mut h = tiny();
        let line = CacheLineAddr::new(1);
        demand(&mut h, 1);
        thrash_l1_set_of_line_1(&mut h);
        assert_eq!(h.source_of(line), ServedBy::L2);
        let before = h.stats().levels.map(|l| l.fills);
        assert_eq!(h.prefetch_at(line, 0), Some(12));
        assert_eq!(h.levels.each_ref().map(|c| c.position(line)), [Some(0); 3]);
        let after = h.stats().levels.map(|l| l.fills);
        assert_eq!(
            [0, 1, 2].map(|i| after[i] - before[i]),
            [1, 0, 0],
            "only L1 fills"
        );
    }

    #[test]
    fn fills_minus_evictions_is_residency() {
        // Demand accesses, prefetches, L2 block installs and block probes
        // over four times the lines the tiny LLC holds, on one core's clock.
        let mut h = tiny();
        let mut now = 0;
        let mut x = 1u64;
        for i in 0..20_000u64 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let line = CacheLineAddr::new((x >> 33) % 4096);
            match i % 5 {
                0 => {
                    let _ = h.prefetch_at(line, now);
                }
                1 => h.l2_install(line),
                2 => {
                    let _ = h.l2_lookup(line);
                }
                _ => now += h.access(line, now, 0).latency,
            }
        }
        for (cache, stats) in h.levels.iter().zip(&h.stats().levels) {
            assert!(stats.evictions > 0, "{}: no eviction", cache.config().name);
            assert_eq!(
                stats.fills - stats.evictions,
                cache.len() as u64,
                "{}",
                cache.config().name
            );
        }
    }
}
