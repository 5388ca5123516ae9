//! The three-level cache hierarchy plus DRAM.

use crate::{Cache, CacheStats, HierarchyConfig, HierarchyStats, MshrFile, MshrOutcome};
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
    now: u64,
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
            let latency = completion.saturating_sub(now).max(self.l1_latency());
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

    /// Invalidates a line everywhere.
    pub fn invalidate(&mut self, line: CacheLineAddr) {
        for cache in &mut self.levels {
            cache.invalidate(line);
        }
    }

    /// Empties all levels and the MSHR file (stats preserved).
    pub fn flush(&mut self) {
        for cache in &mut self.levels {
            cache.flush();
        }
        self.mshrs.clear();
    }

    /// L1 hit latency (the floor for any demand access).
    #[must_use]
    pub fn l1_latency(&self) -> u64 {
        self.levels[0].latency()
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
    fn prefetch_from_l2_refreshes_the_outer_levels() {
        let mut h = tiny();
        let line = CacheLineAddr::new(2);
        h.access(line);
        h.levels[0].invalidate(line);
        assert_eq!(h.source_of(line), ServedBy::L2);
        assert_eq!(h.prefetch_at(line, 0), Some(12));
        assert_eq!(h.levels.each_ref().map(|c| c.position(line)), [Some(0); 3]);
        let l1 = &h.stats().levels[0];
        assert_eq!((l1.fills, h.stats().levels[1].fills), (2, 1));
    }

    #[test]
    fn fills_minus_evictions_is_residency() {
        // Demand accesses, prefetches, L2 block installs and block probes
        // over four times the lines the tiny LLC holds.
        let mut h = tiny();
        let mut x = 1u64;
        for i in 0..20_000u64 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let line = CacheLineAddr::new((x >> 33) % 4096);
            let now = h.now();
            match i % 5 {
                0 => {
                    let _ = h.prefetch_at(line, now);
                }
                1 => h.l2_install(line),
                2 => {
                    let _ = h.l2_lookup(line);
                }
                _ => {
                    let _ = h.access(line);
                }
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

    #[test]
    fn flush_clears_contents() {
        let mut h = tiny();
        let line = CacheLineAddr::new(5);
        h.access(line);
        h.flush();
        assert_eq!(h.source_of(line), ServedBy::Memory);
    }
}
