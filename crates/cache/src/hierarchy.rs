//! The three-level cache hierarchy plus DRAM.

use crate::{Cache, HierarchyConfig, HierarchyStats, MshrFile, MshrOutcome};
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

/// Whether an access is a demand request or an ASAP prefetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A demand access (data reference or page-walker PT-node read).
    Demand,
    /// A best-effort ASAP prefetch.
    Prefetch,
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

/// A three-level cache hierarchy with DRAM backing and an L1-D MSHR file for
/// in-flight ASAP prefetches.
///
/// Timing model: a hit at level *n* costs that level's configured total
/// latency (Table 5 latencies are load-to-use, not incremental); a full miss
/// costs the memory latency. Fills install the line in every level (the
/// paper routes ASAP prefetches "into the L1-D", and walker/demand misses
/// likewise allocate up the hierarchy).
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: Cache,
    l2: Cache,
    l3: Cache,
    memory_latency: u64,
    mshrs: MshrFile,
    stats: HierarchyStats,
    now: u64,
}

impl CacheHierarchy {
    /// Builds an empty hierarchy from `config`.
    #[must_use]
    pub fn new(config: HierarchyConfig) -> Self {
        Self {
            l1: Cache::new(config.l1),
            l2: Cache::new(config.l2),
            l3: Cache::new(config.l3),
            memory_latency: config.memory_latency,
            mshrs: MshrFile::new(config.mshr_entries),
            stats: HierarchyStats::default(),
            now: 0,
        }
    }

    /// The internal clock, advanced by [`CacheHierarchy::access`] and
    /// [`CacheHierarchy::advance`].
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advances the internal clock (e.g. to account for non-memory work
    /// between accesses).
    pub fn advance(&mut self, cycles: u64) {
        self.now += cycles;
    }

    /// Demand access at the internal clock; the clock then advances past the
    /// access (serialized execution, which is how a page walk behaves).
    pub fn access(&mut self, line: CacheLineAddr) -> AccessResult {
        let result = self.access_at(line, self.now);
        self.now += result.latency;
        result
    }

    /// Demand access at an explicit cycle `now` (does not move the internal
    /// clock). Used by the walk timeline, which interleaves walker progress
    /// and prefetch completions.
    pub fn access_at(&mut self, line: CacheLineAddr, now: u64) -> AccessResult {
        // An in-flight prefetch to the same line absorbs the demand miss.
        if let Some((completion, source)) = self.mshrs.in_flight(line, now) {
            self.stats.mshr_merges += 1;
            let latency = completion.saturating_sub(now).max(self.l1.latency());
            return AccessResult {
                latency,
                served_by: source,
                merged: true,
            };
        }
        let (latency, served_by) = self.lookup_and_fill(line);
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
    /// in flight merges with the existing entry.
    pub fn prefetch_at(&mut self, line: CacheLineAddr, now: u64) -> Option<u64> {
        // In-flight entries are checked before residency: fills are installed
        // optimistically at issue time, so an in-flight line already appears
        // in L1 even though its data has not arrived yet.
        if let Some((completion, _)) = self.mshrs.in_flight(line, now) {
            return Some(completion);
        }
        if self.l1.contains(line) {
            return Some(now);
        }
        // Determine where the line would come from, then move it into L1
        // (and the outer levels) with an MSHR covering the flight time.
        let (latency, served_by) = self.probe_source(line);
        match self.mshrs.allocate(line, now, now + latency, served_by) {
            MshrOutcome::Issued { completion } | MshrOutcome::Merged { completion } => {
                self.fill_all(line);
                self.stats.prefetch_fills += 1;
                Some(completion)
            }
            MshrOutcome::Full => {
                self.stats.prefetches_dropped += 1;
                None
            }
        }
    }

    fn probe_source(&self, line: CacheLineAddr) -> (u64, ServedBy) {
        if self.l1.contains(line) {
            (self.l1.latency(), ServedBy::L1)
        } else if self.l2.contains(line) {
            (self.l2.latency(), ServedBy::L2)
        } else if self.l3.contains(line) {
            (self.l3.latency(), ServedBy::L3)
        } else {
            (self.memory_latency, ServedBy::Memory)
        }
    }

    /// Looks `line` up level by level, filling every level that misses —
    /// each level's set is scanned once. The levels share no state, so
    /// filling a level as soon as it misses leaves the same contents as
    /// filling them all once the serving level is known.
    fn lookup_and_fill(&mut self, line: CacheLineAddr) -> (u64, ServedBy) {
        if self.l1.access_or_fill(line) {
            self.record(0, true);
            return (self.l1.latency(), ServedBy::L1);
        }
        self.record(0, false);
        if self.l2.access_or_fill(line) {
            self.record(1, true);
            return (self.l2.latency(), ServedBy::L2);
        }
        self.record(1, false);
        if self.l3.access_or_fill(line) {
            self.record(2, true);
            return (self.l3.latency(), ServedBy::L3);
        }
        self.record(2, false);
        self.stats.memory_accesses += 1;
        (self.memory_latency, ServedBy::Memory)
    }

    fn fill_all(&mut self, line: CacheLineAddr) {
        self.l1.fill(line);
        self.l2.fill(line);
        self.l3.fill(line);
    }

    fn record(&mut self, level: usize, hit: bool) {
        let s = &mut self.stats.levels[level];
        if hit {
            s.hits += 1;
        } else {
            s.misses += 1;
        }
    }

    /// Residency probe that disturbs nothing (no fills, no stats).
    #[must_use]
    pub fn source_of(&self, line: CacheLineAddr) -> ServedBy {
        self.probe_source(line).1
    }

    /// Invalidates a line everywhere.
    pub fn invalidate(&mut self, line: CacheLineAddr) {
        self.l1.invalidate(line);
        self.l2.invalidate(line);
        self.l3.invalidate(line);
    }

    /// Empties all levels and the MSHR file (stats preserved).
    pub fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
        self.l3.flush();
        self.mshrs.clear();
    }

    /// L1 hit latency (the floor for any demand access).
    #[must_use]
    pub fn l1_latency(&self) -> u64 {
        self.l1.latency()
    }

    /// L2 hit latency — what a cache-resident TLB-block lookup costs.
    #[must_use]
    pub fn l2_latency(&self) -> u64 {
        self.l2.latency()
    }

    /// Installs `line` into the L2 **only** — the insertion path of a
    /// Victima-style backend, which parks evicted TLB entries as TLB blocks
    /// in the L2 without polluting the L1 or LLC. The block then competes
    /// for L2 ways with ordinary data, so cache pressure naturally evicts
    /// stale translations.
    pub fn l2_install(&mut self, line: CacheLineAddr) {
        self.l2.fill(line);
    }

    /// Probes the L2 for `line`, updating recency on a hit (a real lookup,
    /// as a TLB-block probe performs). Does not fill other levels and does
    /// not touch the hierarchy-level hit/miss statistics — block probes are
    /// accounted by the backend that issues them.
    pub fn l2_lookup(&mut self, line: CacheLineAddr) -> bool {
        self.l2.access(line)
    }

    /// Whether the L2 currently holds `line` (no side effects).
    #[must_use]
    pub fn l2_contains(&self, line: CacheLineAddr) -> bool {
        self.l2.contains(line)
    }

    /// DRAM latency.
    #[must_use]
    pub fn memory_latency(&self) -> u64 {
        self.memory_latency
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// Resets statistics (e.g. after warmup) without touching contents.
    pub fn reset_stats(&mut self) {
        self.stats = HierarchyStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheHierarchy {
        CacheHierarchy::new(HierarchyConfig::tiny_for_tests())
    }

    #[test]
    fn miss_fills_all_levels() {
        let mut h = tiny();
        let line = CacheLineAddr::new(0x99);
        let r = h.access(line);
        assert_eq!(r.served_by, ServedBy::Memory);
        assert_eq!(r.latency, 191);
        let r2 = h.access(line);
        assert_eq!(r2.served_by, ServedBy::L1);
        assert_eq!(r2.latency, 4);
    }

    #[test]
    fn l2_serves_after_l1_eviction() {
        let mut h = tiny();
        let line = CacheLineAddr::new(1);
        h.access(line);
        // Thrash L1 (64 lines, 16 sets x 4 ways in tiny config) with lines
        // that conflict on the same set as `line`.
        for i in 1..=8u64 {
            h.access(CacheLineAddr::new(1 + i * 16));
        }
        let r = h.access(line);
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
        let r = h.access_at(line, 200);
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
        let r = h.access_at(line, 100);
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
        let r = h.access_at(line, completion - 1);
        assert!(r.merged);
        assert_eq!(r.latency, 4);
    }

    #[test]
    fn prefetch_to_resident_line_is_free() {
        let mut h = tiny();
        let line = CacheLineAddr::new(0x43);
        h.access(line); // now resident
        let now = h.now();
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
    fn internal_clock_advances_with_access() {
        let mut h = tiny();
        assert_eq!(h.now(), 0);
        h.access(CacheLineAddr::new(1));
        assert_eq!(h.now(), 191);
        h.access(CacheLineAddr::new(1));
        assert_eq!(h.now(), 195);
        h.advance(5);
        assert_eq!(h.now(), 200);
    }

    #[test]
    fn source_probe_matches_access() {
        let mut h = tiny();
        let line = CacheLineAddr::new(77);
        assert_eq!(h.source_of(line), ServedBy::Memory);
        h.access(line);
        assert_eq!(h.source_of(line), ServedBy::L1);
        h.invalidate(line);
        assert_eq!(h.source_of(line), ServedBy::Memory);
    }

    #[test]
    fn flush_clears_contents() {
        let mut h = tiny();
        let line = CacheLineAddr::new(5);
        h.access(line);
        h.flush();
        assert_eq!(h.source_of(line), ServedBy::Memory);
    }
}
