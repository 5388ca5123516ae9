//! Differential property test: [`Cache`] against a reference model.
//!
//! The reference is the straightforward layout the compact tag array
//! replaced: one `Option` slot per way, a `u64` recency stamp per way and a
//! structure-wide clock, evicting the way with the smallest stamp. Random
//! sequences of every `Cache` operation must give the same return values,
//! `len()` and `CacheStats` on both.

use asap_cache::{Cache, CacheConfig, CacheStats, HierarchyConfig};
use asap_types::CacheLineAddr;
use proptest::prelude::*;

/// The stamp-LRU, `Option`-slot cache model.
struct StampCache {
    num_sets: usize,
    ways: usize,
    slots: Vec<Option<u64>>,
    stamps: Vec<u64>,
    clock: u64,
    stats: CacheStats,
}

impl StampCache {
    fn new(config: &CacheConfig) -> Self {
        let n = config.num_sets * config.ways;
        Self {
            num_sets: config.num_sets,
            ways: config.ways,
            slots: vec![None; n],
            stamps: vec![0; n],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    fn base(&self, line: u64) -> usize {
        (line as usize & (self.num_sets - 1)) * self.ways
    }

    fn find(&self, line: u64) -> Option<usize> {
        let base = self.base(line);
        (base..base + self.ways).find(|&i| self.slots[i] == Some(line))
    }

    fn access(&mut self, line: u64) -> bool {
        self.clock += 1;
        let hit = self.find(line);
        if let Some(i) = hit {
            self.stamps[i] = self.clock;
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit.is_some()
    }

    fn fill(&mut self, line: u64) -> Option<u64> {
        self.clock += 1;
        self.stats.fills += 1;
        if let Some(i) = self.find(line) {
            self.stamps[i] = self.clock;
            return None;
        }
        let base = self.base(line);
        if let Some(i) = (base..base + self.ways).find(|&i| self.slots[i].is_none()) {
            self.slots[i] = Some(line);
            self.stamps[i] = self.clock;
            return None;
        }
        let victim = (base..base + self.ways)
            .min_by_key(|&i| self.stamps[i])
            .unwrap();
        self.stats.evictions += 1;
        self.stamps[victim] = self.clock;
        self.slots[victim].replace(line)
    }

    fn invalidate(&mut self, line: u64) -> bool {
        self.find(line).and_then(|i| self.slots[i].take()).is_some()
    }

    fn flush(&mut self) {
        self.slots.fill(None);
    }

    fn len(&self) -> usize {
        self.slots.iter().flatten().count()
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Access(u64),
    AccessOrFill(u64),
    Fill(u64),
    Contains(u64),
    Invalidate(u64),
    Flush,
}

/// Victima parks TLB blocks under line numbers with bit 62 set.
const BLOCK_LINE_TAG: u64 = 1 << 62;

/// Operation scripts over a handful of sets of `config`, with more distinct
/// lines per set than it has ways (so sets fill and evict), line 0
/// included, and a quarter of the lines being bit-62 block lines.
fn arb_ops(config: &CacheConfig, len: usize) -> impl Strategy<Value = Vec<Op>> {
    let sets = [0, 1, config.num_sets - 1];
    let (num_sets, tags) = (config.num_sets as u64, config.ways as u64 + 3);
    let line = (0usize..sets.len(), 0..tags, 0u8..4).prop_map(move |(s, k, b)| {
        let line = k * num_sets + sets[s] as u64;
        if b == 0 {
            line | BLOCK_LINE_TAG
        } else {
            line
        }
    });
    // Flushes are rare enough that a 20-way set fills between two.
    let op = (0u8..200, line).prop_map(|(kind, line)| match kind {
        0 => Op::Flush,
        1..=15 => Op::Invalidate(line),
        16..=35 => Op::Contains(line),
        36..=85 => Op::Access(line),
        86..=135 => Op::AccessOrFill(line),
        _ => Op::Fill(line),
    });
    proptest::collection::vec(op, len)
}

/// Runs `ops` on both caches, comparing after every step; `len()` (a scan
/// of the whole array) is compared every `len_every` steps and at the end.
fn run_both(config: &CacheConfig, ops: &[Op], len_every: usize) -> Result<(), TestCaseError> {
    let mut cache = Cache::new(config.clone());
    let mut model = StampCache::new(config);
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Access(l) => {
                prop_assert_eq!(
                    cache.access(CacheLineAddr::new(l)),
                    model.access(l),
                    "{:?}",
                    op
                )
            }
            Op::AccessOrFill(l) => {
                let hit = model.access(l);
                if !hit {
                    model.fill(l);
                }
                prop_assert_eq!(cache.access_or_fill(CacheLineAddr::new(l)), hit, "{:?}", op)
            }
            Op::Fill(l) => prop_assert_eq!(
                cache.fill(CacheLineAddr::new(l)).map(CacheLineAddr::raw),
                model.fill(l),
                "{:?}",
                op
            ),
            Op::Contains(l) => prop_assert_eq!(
                cache.contains(CacheLineAddr::new(l)),
                model.find(l).is_some(),
                "{:?}",
                op
            ),
            Op::Invalidate(l) => prop_assert_eq!(
                cache.invalidate(CacheLineAddr::new(l)),
                model.invalidate(l),
                "{:?}",
                op
            ),
            Op::Flush => {
                cache.flush();
                model.flush();
            }
        }
        prop_assert_eq!(*cache.stats(), model.stats, "stats after step {}", step);
        if (step + 1) % len_every == 0 || step + 1 == ops.len() {
            prop_assert_eq!(cache.len(), model.len(), "len after step {}", step);
            prop_assert_eq!(cache.is_empty(), model.len() == 0);
        }
    }
    Ok(())
}

fn two_by_two() -> CacheConfig {
    CacheConfig {
        name: "2x2",
        num_sets: 2,
        ways: 2,
        latency: 4,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn two_set_two_way_cache_matches_stamp_lru(ops in arb_ops(&two_by_two(), 300)) {
        run_both(&two_by_two(), &ops, 1)?;
    }

    #[test]
    fn tiny_l1_matches_stamp_lru(ops in arb_ops(&HierarchyConfig::tiny_for_tests().l1, 300)) {
        run_both(&HierarchyConfig::tiny_for_tests().l1, &ops, 1)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn broadwell_l3_matches_stamp_lru(ops in arb_ops(&HierarchyConfig::broadwell_like().l3, 1000)) {
        run_both(&HierarchyConfig::broadwell_like().l3, &ops, 100)?;
    }
}
