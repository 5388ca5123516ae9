//! A single physical-line cache level.

use crate::replacement::{RankLru, MAX_WAYS};
use crate::{CacheConfig, CacheStats};
use asap_types::CacheLineAddr;

/// One level of the cache hierarchy, indexed by physical cache-line address.
///
/// The model tracks tags only — the simulator never needs line *data*, since
/// page-table contents live in `asap-pt`'s simulated physical memory and the
/// hierarchy only decides service latency.
///
/// Storage is one `u64` tag word per way, set-major, holding `line + 1`,
/// with zero meaning an empty way; replacement is exact LRU over per-set
/// `u8` ranks. Both arrays come from zeroed allocations, so building even
/// a 20 MiB last-level cache costs no initialisation pass. Tags are full
/// 64-bit line numbers (Victima's TLB blocks live under bit-62 lines); the
/// one line number the encoding cannot hold, `u64::MAX`, is no line
/// address (those are byte addresses shifted right by six).
///
/// # Examples
///
/// ```
/// use asap_cache::{Cache, CacheConfig};
/// use asap_types::CacheLineAddr;
///
/// let mut l1 = Cache::new(CacheConfig::from_capacity("L1-D", 4096, 4, 4));
/// let line = CacheLineAddr::new(123);
/// assert!(!l1.access(line));
/// l1.fill(line);
/// assert!(l1.access(line));
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `tags[set * ways + w]`: `line + 1` of the line in way `w`, 0 if empty.
    tags: Vec<u64>,
    lru: RankLru,
    stats: CacheStats,
}

/// Where a tag stands in its set.
enum Probe {
    /// The tag is in this way.
    Hit(usize),
    /// The tag is absent; `free` is the set's first empty way, if any.
    Miss { free: Option<usize> },
}

/// The tag word of `line`: never zero, which marks an empty way.
fn tag_of(line: CacheLineAddr) -> u64 {
    debug_assert_ne!(line.raw(), u64::MAX, "line number u64::MAX is reserved");
    line.raw().wrapping_add(1)
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `config.num_sets` is not a power of two (the set index is
    /// the low line-number bits) or `config.ways` is not in `1..=256`.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.num_sets.is_power_of_two(),
            "{}: set count must be a power of two, got {}",
            config.name,
            config.num_sets
        );
        assert!(
            (1..=MAX_WAYS).contains(&config.ways),
            "{}: ways must be in 1..={MAX_WAYS}, got {}",
            config.name,
            config.ways
        );
        Self {
            tags: vec![0; config.num_sets * config.ways],
            lru: RankLru::new(config.num_sets, config.ways),
            config,
            stats: CacheStats::default(),
        }
    }

    fn set_of(&self, line: CacheLineAddr) -> usize {
        (line.raw() as usize) & (self.config.num_sets - 1)
    }

    /// Scans `set` once for `tag`. The scan always covers the whole set,
    /// so it compiles to selects rather than a loop exit at a way the host
    /// cannot predict, and a miss learns the first empty way for free.
    fn probe(&self, set: usize, tag: u64) -> Probe {
        let base = set * self.config.ways;
        let ways = &self.tags[base..base + self.config.ways];
        let (mut hit, mut free) = (ways.len(), ways.len());
        for (w, &t) in ways.iter().enumerate().rev() {
            if t == tag {
                hit = w;
            }
            if t == 0 {
                free = w;
            }
        }
        if hit < ways.len() {
            Probe::Hit(hit)
        } else {
            Probe::Miss {
                free: (free < ways.len()).then_some(free),
            }
        }
    }

    /// Installs the absent `tag` into way `free`, or over the LRU way of a
    /// full set, returning the evicted line.
    fn install(&mut self, set: usize, tag: u64, free: Option<usize>) -> Option<CacheLineAddr> {
        self.stats.fills += 1;
        let (way, evicted) = match free {
            Some(way) => (way, None),
            None => {
                let way = self.lru.victim(set);
                self.stats.evictions += 1;
                let old = self.tags[set * self.config.ways + way];
                (way, Some(CacheLineAddr::new(old.wrapping_sub(1))))
            }
        };
        self.tags[set * self.config.ways + way] = tag;
        self.lru.touch(set, way);
        evicted
    }

    /// Performs a demand lookup; returns whether it hit. Misses do **not**
    /// allocate — the hierarchy decides where fills go.
    pub fn access(&mut self, line: CacheLineAddr) -> bool {
        let set = self.set_of(line);
        let hit = match self.probe(set, tag_of(line)) {
            Probe::Hit(way) => {
                self.lru.touch(set, way);
                true
            }
            Probe::Miss { .. } => false,
        };
        self.stats.record(hit);
        hit
    }

    /// A demand lookup that installs `line` on a miss; returns whether it
    /// hit. Exactly [`Cache::access`] followed, on a miss, by
    /// [`Cache::fill`], with one scan of the set.
    pub fn access_or_fill(&mut self, line: CacheLineAddr) -> bool {
        let set = self.set_of(line);
        let tag = tag_of(line);
        let hit = match self.probe(set, tag) {
            Probe::Hit(way) => {
                self.lru.touch(set, way);
                true
            }
            Probe::Miss { free } => {
                self.install(set, tag, free);
                false
            }
        };
        self.stats.record(hit);
        hit
    }

    /// Checks residency without disturbing replacement state or stats.
    #[must_use]
    pub fn contains(&self, line: CacheLineAddr) -> bool {
        matches!(self.probe(self.set_of(line), tag_of(line)), Probe::Hit(_))
    }

    /// Installs a line, returning the evicted line if any. Filling a
    /// resident line only refreshes its recency.
    pub fn fill(&mut self, line: CacheLineAddr) -> Option<CacheLineAddr> {
        let set = self.set_of(line);
        let tag = tag_of(line);
        match self.probe(set, tag) {
            Probe::Hit(way) => {
                self.stats.fills += 1;
                self.lru.touch(set, way);
                None
            }
            Probe::Miss { free } => self.install(set, tag, free),
        }
    }

    /// Removes a line if present.
    pub fn invalidate(&mut self, line: CacheLineAddr) -> bool {
        let set = self.set_of(line);
        match self.probe(set, tag_of(line)) {
            Probe::Hit(way) => {
                self.tags[set * self.config.ways + way] = 0;
                true
            }
            Probe::Miss { .. } => false,
        }
    }

    /// Empties the cache (stats are preserved).
    pub fn flush(&mut self) {
        self.tags.fill(0);
    }

    /// Hit latency in cycles.
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.config.latency
    }

    /// The cache's configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Number of resident lines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tags.iter().filter(|&&t| t != 0).count()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tags.iter().all(|&t| t == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(num_sets: usize, ways: usize) -> CacheConfig {
        CacheConfig {
            name: "t",
            num_sets,
            ways,
            latency: 4,
        }
    }

    fn tiny() -> Cache {
        // 2 sets x 2 ways.
        Cache::new(config(2, 2))
    }

    #[test]
    fn miss_does_not_allocate() {
        let mut c = tiny();
        assert!(!c.access(CacheLineAddr::new(0)));
        assert!(!c.access(CacheLineAddr::new(0)), "still absent after miss");
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn fill_then_hit() {
        let mut c = tiny();
        let line = CacheLineAddr::new(5);
        c.fill(line);
        assert!(c.access(line));
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn conflict_eviction_within_set() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (2 sets).
        assert_eq!(c.fill(CacheLineAddr::new(0)), None);
        assert_eq!(c.fill(CacheLineAddr::new(2)), None);
        let evicted = c.fill(CacheLineAddr::new(4)).expect("set full");
        assert_eq!(evicted, CacheLineAddr::new(0));
        assert!(c.contains(CacheLineAddr::new(2)));
        assert!(c.contains(CacheLineAddr::new(4)));
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = tiny();
        c.fill(CacheLineAddr::new(0)); // set 0
        c.fill(CacheLineAddr::new(1)); // set 1
        c.fill(CacheLineAddr::new(2)); // set 0
        c.fill(CacheLineAddr::new(3)); // set 1
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn invalidate_and_flush() {
        let mut c = tiny();
        let line = CacheLineAddr::new(9);
        c.fill(line);
        assert!(c.invalidate(line));
        assert!(!c.invalidate(line));
        c.fill(line);
        c.flush();
        assert!(c.is_empty());
    }

    #[test]
    fn access_or_fill_installs_on_a_miss() {
        let mut c = tiny();
        let line = CacheLineAddr::new(6);
        assert!(!c.access_or_fill(line));
        assert!(c.access_or_fill(line));
        assert_eq!(
            (c.stats().hits, c.stats().misses, c.stats().fills),
            (1, 1, 1)
        );
    }

    #[test]
    fn block_lines_keep_their_high_bits() {
        // A Victima block line differs from a data line only in bit 62.
        let mut c = tiny();
        let data = CacheLineAddr::new(4);
        let block = CacheLineAddr::new(1 << 62 | 4);
        c.fill(block);
        assert!(!c.contains(data));
        c.fill(data);
        assert_eq!(c.fill(CacheLineAddr::new(0)), Some(block));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn new_rejects_non_power_of_two_sets() {
        let _ = Cache::new(config(24, 2));
    }

    #[test]
    #[should_panic(expected = "ways must be in 1..=256")]
    fn new_rejects_more_ways_than_ranks_hold() {
        let _ = Cache::new(config(1, 257));
    }
}
