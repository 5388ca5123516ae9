//! A single physical-line cache level.

use crate::CacheConfig;
use asap_types::CacheLineAddr;

/// One level of the cache hierarchy, indexed by physical cache-line address.
///
/// The model tracks tags only — the simulator never needs line *data*, since
/// page-table contents live in `asap-pt`'s simulated physical memory and the
/// hierarchy only decides service latency. It keeps no counters either: the
/// hierarchy counts hits, misses, fills and evictions per level.
///
/// Storage is one `u64` tag word per way, set-major, holding `line + 1`,
/// with zero meaning an empty way. Each set is kept in recency order, most
/// recent first, with its empty ways trailing: a hit rotates its tag to the
/// front and an install shifts the set right by one, so the tag that falls
/// off the end is the exact-LRU victim. The array comes from one zeroed
/// allocation, so building even a 20 MiB last-level cache costs no
/// initialisation pass. Tags are full 64-bit line numbers (Victima's TLB
/// blocks live under bit-62 lines); the one line number the encoding cannot
/// hold, `u64::MAX`, is no line address (those are byte addresses shifted
/// right by six).
///
/// # Examples
///
/// ```
/// use asap_cache::{Cache, CacheConfig};
/// use asap_types::CacheLineAddr;
///
/// let mut l1 = Cache::new(CacheConfig::from_capacity("L1-D", 4096, 4, 4));
/// let line = CacheLineAddr::new(123);
/// assert_eq!(l1.position(line), None);
/// assert_eq!(l1.insert(line), None, "an empty set evicts nothing");
/// assert_eq!(l1.position(line), Some(0), "most recent first");
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `tags[set * ways + r]`: `line + 1` of the set's `r`-th most recent
    /// line, 0 for an empty way (empty ways trail).
    tags: Vec<u64>,
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
    /// the low line-number bits) or `config.ways` is zero.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.num_sets.is_power_of_two(),
            "{}: set count must be a power of two, got {}",
            config.name,
            config.num_sets
        );
        assert!(config.ways > 0, "{}: need at least one way", config.name);
        Self {
            tags: vec![0; config.num_sets * config.ways],
            config,
        }
    }

    /// The tag words of `line`'s set, most recent first.
    fn set(&self, line: CacheLineAddr) -> &[u64] {
        let base = ((line.raw() as usize) & (self.config.num_sets - 1)) * self.config.ways;
        &self.tags[base..base + self.config.ways]
    }

    fn set_mut(&mut self, line: CacheLineAddr) -> &mut [u64] {
        let base = ((line.raw() as usize) & (self.config.num_sets - 1)) * self.config.ways;
        &mut self.tags[base..base + self.config.ways]
    }

    /// Where `line` stands in its set's recency order (0 = most recent), or
    /// `None` if it is not resident. Disturbs nothing.
    #[must_use]
    pub fn position(&self, line: CacheLineAddr) -> Option<usize> {
        let tag = tag_of(line);
        self.set(line).iter().position(|&t| t == tag)
    }

    /// Checks residency without disturbing replacement state.
    #[must_use]
    pub fn contains(&self, line: CacheLineAddr) -> bool {
        self.position(line).is_some()
    }

    /// Makes the resident `line`, found at `pos` by [`Cache::position`],
    /// the most recent line of its set.
    pub fn promote(&mut self, line: CacheLineAddr, pos: usize) {
        let set = self.set_mut(line);
        debug_assert_eq!(set[pos], tag_of(line), "stale position");
        let tag = set[pos];
        set.copy_within(..pos, 1);
        set[0] = tag;
    }

    /// Installs the absent `line` as its set's most recent line, returning
    /// the least recent line if the set was full.
    pub fn insert(&mut self, line: CacheLineAddr) -> Option<CacheLineAddr> {
        let tag = tag_of(line);
        let set = self.set_mut(line);
        debug_assert!(!set.contains(&tag), "line already resident");
        let old = set[set.len() - 1];
        set.copy_within(..set.len() - 1, 1);
        set[0] = tag;
        (old != 0).then(|| CacheLineAddr::new(old.wrapping_sub(1)))
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

    fn line(n: u64) -> CacheLineAddr {
        CacheLineAddr::new(n)
    }

    #[test]
    fn miss_does_not_allocate() {
        let c = tiny();
        assert_eq!(c.position(line(0)), None);
        assert_eq!(c.position(line(0)), None, "still absent after a miss");
        assert!(c.is_empty());
    }

    #[test]
    fn fill_then_hit() {
        let mut c = tiny();
        assert_eq!(c.insert(line(5)), None);
        assert_eq!(c.position(line(5)), Some(0));
        assert_eq!(c.insert(line(7)), None);
        assert_eq!(c.position(line(5)), Some(1), "pushed back by a newer line");
    }

    #[test]
    fn access_or_fill_installs_on_a_miss() {
        // The hierarchy's demand step: promote a hit, install a miss.
        let mut c = tiny();
        let access_or_fill = |c: &mut Cache, l: CacheLineAddr| match c.position(l) {
            Some(pos) => {
                c.promote(l, pos);
                true
            }
            None => {
                c.insert(l);
                false
            }
        };
        assert!(!access_or_fill(&mut c, line(6)));
        assert!(!access_or_fill(&mut c, line(8)));
        assert!(access_or_fill(&mut c, line(6)));
        assert_eq!(c.position(line(6)), Some(0));
        assert_eq!(c.position(line(8)), Some(1));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn conflict_eviction_within_set() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (2 sets).
        assert_eq!(c.insert(line(0)), None);
        assert_eq!(c.insert(line(2)), None);
        assert_eq!(c.insert(line(4)), Some(line(0)));
        assert!(c.contains(line(2)));
        assert!(c.contains(line(4)));
    }

    #[test]
    fn promote_protects_a_line_from_eviction() {
        let mut c = tiny();
        c.insert(line(0));
        c.insert(line(2));
        c.promote(line(0), 1);
        assert_eq!(c.position(line(0)), Some(0));
        assert_eq!(c.insert(line(4)), Some(line(2)));
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = tiny();
        for n in 0..4 {
            assert_eq!(c.insert(line(n)), None);
        }
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn block_lines_keep_their_high_bits() {
        // A Victima block line differs from a data line only in bit 62.
        let mut c = tiny();
        let data = line(4);
        let block = line(1 << 62 | 4);
        c.insert(block);
        assert!(!c.contains(data));
        c.insert(data);
        assert_eq!(c.insert(line(0)), Some(block));
    }

    #[test]
    fn a_512_way_set_evicts_in_lru_order() {
        let ways = 512;
        let mut c = Cache::new(config(1, ways));
        for n in 0..ways as u64 {
            assert_eq!(c.insert(line(n)), None);
        }
        // Promote the oldest line; the next oldest becomes the victim.
        let pos = c.position(line(0)).unwrap();
        assert_eq!(pos, ways - 1);
        c.promote(line(0), pos);
        for n in 1..ways as u64 {
            assert_eq!(c.insert(line(1000 + n)), Some(line(n)));
        }
        assert_eq!(c.insert(line(5000)), Some(line(0)));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn new_rejects_non_power_of_two_sets() {
        let _ = Cache::new(config(24, 2));
    }
}
