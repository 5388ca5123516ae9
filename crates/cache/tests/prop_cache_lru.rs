//! Differential property tests: [`Cache`] and [`SetAssoc`] against
//! reference models.
//!
//! The references are the straightforward layout the recency-ordered sets
//! replaced: one `Option` slot per way, a `u64` recency stamp per way and a
//! structure-wide clock, filling the first free way and evicting the way
//! with the smallest stamp. Random sequences of every operation must give
//! the same return values and contents on both.

use asap_cache::{Cache, CacheConfig, Eviction, HierarchyConfig, SetAssoc};
use asap_types::CacheLineAddr;
use proptest::prelude::*;

/// The stamp-LRU, `Option`-slot model of a set-associative array.
struct StampAssoc {
    ways: usize,
    slots: Vec<Option<(u64, u64)>>,
    stamps: Vec<u64>,
    clock: u64,
}

impl StampAssoc {
    fn new(num_sets: usize, ways: usize) -> Self {
        Self {
            ways,
            slots: vec![None; num_sets * ways],
            stamps: vec![0; num_sets * ways],
            clock: 0,
        }
    }

    fn ways_of(&self, set: usize) -> std::ops::Range<usize> {
        set * self.ways..(set + 1) * self.ways
    }

    fn find(&self, set: usize, key: u64) -> Option<usize> {
        self.ways_of(set)
            .find(|&i| self.slots[i].is_some_and(|(k, _)| k == key))
    }

    /// How many valid entries of `set` were used more recently than `key`.
    fn position(&self, set: usize, key: u64) -> Option<usize> {
        let i = self.find(set, key)?;
        let newer = self
            .ways_of(set)
            .filter(|&j| self.slots[j].is_some() && self.stamps[j] > self.stamps[i])
            .count();
        Some(newer)
    }

    fn touch(&mut self, i: usize) {
        self.clock += 1;
        self.stamps[i] = self.clock;
    }

    fn lookup_mut(&mut self, set: usize, key: u64) -> Option<&mut u64> {
        let i = self.find(set, key)?;
        self.touch(i);
        self.slots[i].as_mut().map(|(_, v)| v)
    }

    fn probe(&self, set: usize, key: u64) -> Option<u64> {
        self.find(set, key)
            .and_then(|i| self.slots[i])
            .map(|(_, v)| v)
    }

    fn insert(&mut self, set: usize, key: u64, value: u64) -> Option<(u64, u64)> {
        if let Some(i) = self.find(set, key) {
            self.touch(i);
            self.slots[i] = Some((key, value));
            return None;
        }
        let free = self.ways_of(set).find(|&i| self.slots[i].is_none());
        let i = free.unwrap_or_else(|| self.ways_of(set).min_by_key(|&i| self.stamps[i]).unwrap());
        self.touch(i);
        self.slots[i].replace((key, value))
    }

    fn invalidate(&mut self, set: usize, key: u64) -> Option<u64> {
        let i = self.find(set, key)?;
        self.slots[i].take().map(|(_, v)| v)
    }

    fn retain(&mut self, keep: impl Fn(u64) -> bool) -> usize {
        let mut dropped = 0;
        for slot in &mut self.slots {
            if slot.is_some_and(|(k, _)| !keep(k)) {
                *slot = None;
                dropped += 1;
            }
        }
        dropped
    }

    fn flush(&mut self) {
        self.slots.fill(None);
    }

    fn len(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// `(set, key, value)` of every valid entry, sorted.
    fn entries(&self) -> Vec<(usize, u64, u64)> {
        let mut all: Vec<_> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|(k, v)| (i / self.ways, k, v)))
            .collect();
        all.sort_unstable();
        all
    }
}

// ---------------------------------------------------------------- Cache

#[derive(Debug, Clone, Copy)]
enum CacheOp {
    /// A lookup that promotes a hit and allocates nothing.
    Access(u64),
    /// A lookup that promotes a hit or installs a miss (the hierarchy's
    /// demand step and fill).
    AccessOrFill(u64),
    Position(u64),
}

/// Victima parks TLB blocks under line numbers with bit 62 set.
const BLOCK_LINE_TAG: u64 = 1 << 62;

/// Operation scripts over a handful of sets of `config`, with more distinct
/// lines per set than it has ways (so sets fill and evict), line 0
/// included, and a quarter of the lines being bit-62 block lines.
fn arb_cache_ops(config: &CacheConfig, len: usize) -> impl Strategy<Value = Vec<CacheOp>> {
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
    let op = (0u8..200, line).prop_map(|(kind, line)| match kind {
        0..=45 => CacheOp::Position(line),
        46..=95 => CacheOp::Access(line),
        _ => CacheOp::AccessOrFill(line),
    });
    proptest::collection::vec(op, len)
}

/// Runs `ops` on the cache and the model (keyed by line, every value 0),
/// comparing after every step; `len()` (a scan of the whole array) is
/// compared every `len_every` steps and at the end.
fn run_cache(config: &CacheConfig, ops: &[CacheOp], len_every: usize) -> Result<(), TestCaseError> {
    let mut cache = Cache::new(config.clone());
    let mut model = StampAssoc::new(config.num_sets, config.ways);
    let set_of = |l: u64| l as usize & (config.num_sets - 1);
    for (step, &op) in ops.iter().enumerate() {
        let line = |l| CacheLineAddr::new(l);
        match op {
            CacheOp::Access(l) => {
                let pos = cache.position(line(l));
                if let Some(pos) = pos {
                    cache.promote(line(l), pos);
                }
                prop_assert_eq!(
                    pos.is_some(),
                    model.lookup_mut(set_of(l), l).is_some(),
                    "{:?}",
                    op
                );
            }
            CacheOp::AccessOrFill(l) => {
                let evicted = match cache.position(line(l)) {
                    Some(pos) => {
                        cache.promote(line(l), pos);
                        None
                    }
                    None => cache.insert(line(l)).map(CacheLineAddr::raw),
                };
                let expected = model.insert(set_of(l), l, 0).map(|(k, _)| k);
                prop_assert_eq!(evicted, expected, "{:?}", op);
            }
            CacheOp::Position(l) => {
                prop_assert_eq!(
                    cache.position(line(l)),
                    model.position(set_of(l), l),
                    "{:?}",
                    op
                );
                prop_assert_eq!(cache.contains(line(l)), model.find(set_of(l), l).is_some());
            }
        }
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
    fn two_set_two_way_cache_matches_stamp_lru(ops in arb_cache_ops(&two_by_two(), 300)) {
        run_cache(&two_by_two(), &ops, 1)?;
    }

    #[test]
    fn tiny_l1_matches_stamp_lru(ops in arb_cache_ops(&HierarchyConfig::tiny_for_tests().l1, 300)) {
        run_cache(&HierarchyConfig::tiny_for_tests().l1, &ops, 1)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn broadwell_l3_matches_stamp_lru(ops in arb_cache_ops(&HierarchyConfig::broadwell_like().l3, 1000)) {
        run_cache(&HierarchyConfig::broadwell_like().l3, &ops, 100)?;
    }
}

// ------------------------------------------------------------- SetAssoc

#[derive(Debug, Clone, Copy)]
enum AssocOp {
    Lookup(usize, u64),
    /// Looks up and adds the step number to the payload.
    LookupMut(usize, u64),
    Probe(usize, u64),
    Insert(usize, u64),
    Invalidate(usize, u64),
    /// Keeps the keys that are not `0 mod m` (m in 2..=4).
    Retain(u64),
    Flush,
}

/// Operation scripts over every set of a `num_sets x ways` array, with
/// `ways + 3` distinct keys per set so sets fill and evict.
fn arb_assoc_ops(num_sets: usize, ways: usize, len: usize) -> impl Strategy<Value = Vec<AssocOp>> {
    let target = (0..num_sets, 0..ways as u64 + 3);
    // Whole-structure operations are rare enough that sets refill between.
    let op = (0u16..400, target, 2u64..5).prop_map(|(kind, (set, key), m)| match kind {
        0 => AssocOp::Flush,
        1..=3 => AssocOp::Retain(m),
        4..=43 => AssocOp::Invalidate(set, key),
        44..=123 => AssocOp::Probe(set, key),
        124..=203 => AssocOp::Lookup(set, key),
        204..=243 => AssocOp::LookupMut(set, key),
        _ => AssocOp::Insert(set, key),
    });
    proptest::collection::vec(op, len)
}

/// Runs `ops` on a `SetAssoc` and the model, comparing every return value,
/// `len()` after every step and the contents (as a multiset) every
/// `iter_every` steps and at the end.
fn run_assoc(
    num_sets: usize,
    ways: usize,
    ops: &[AssocOp],
    iter_every: usize,
) -> Result<(), TestCaseError> {
    let mut array: SetAssoc<u64, u64> = SetAssoc::new(num_sets, ways);
    let mut model = StampAssoc::new(num_sets, ways);
    for (step, &op) in ops.iter().enumerate() {
        let value = step as u64;
        match op {
            AssocOp::Lookup(set, key) => prop_assert_eq!(
                array.lookup(set, &key).copied(),
                model.lookup_mut(set, key).map(|v| *v),
                "{:?}",
                op
            ),
            AssocOp::LookupMut(set, key) => {
                let got = array.lookup_mut(set, &key).map(|v| {
                    *v += value;
                    *v
                });
                let want = model.lookup_mut(set, key).map(|v| {
                    *v += value;
                    *v
                });
                prop_assert_eq!(got, want, "{:?}", op);
            }
            AssocOp::Probe(set, key) => {
                prop_assert_eq!(
                    array.probe(set, &key).copied(),
                    model.probe(set, key),
                    "{:?}",
                    op
                )
            }
            AssocOp::Insert(set, key) => prop_assert_eq!(
                array.insert(set, key, value),
                model
                    .insert(set, key, value)
                    .map(|(key, value)| Eviction { key, value }),
                "{:?}",
                op
            ),
            AssocOp::Invalidate(set, key) => prop_assert_eq!(
                array.invalidate(set, &key),
                model.invalidate(set, key),
                "{:?}",
                op
            ),
            AssocOp::Retain(m) => prop_assert_eq!(
                array.retain(|&k, _| k % m != 0),
                model.retain(|k| k % m != 0),
                "{:?}",
                op
            ),
            AssocOp::Flush => {
                array.flush();
                model.flush();
            }
        }
        prop_assert_eq!(array.len(), model.len(), "len after step {}", step);
        prop_assert_eq!(array.is_empty(), model.len() == 0);
        if (step + 1) % iter_every == 0 || step + 1 == ops.len() {
            let mut entries: Vec<_> = array.iter().map(|(s, &k, &v)| (s, k, v)).collect();
            entries.sort_unstable();
            prop_assert_eq!(entries, model.entries(), "contents after step {}", step);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn one_way_set_assoc_matches_stamp_lru(ops in arb_assoc_ops(1, 1, 200)) {
        run_assoc(1, 1, &ops, 1)?;
    }

    #[test]
    fn two_by_two_set_assoc_matches_stamp_lru(ops in arb_assoc_ops(2, 2, 300)) {
        run_assoc(2, 2, &ops, 1)?;
    }

    #[test]
    fn four_by_eight_set_assoc_matches_stamp_lru(ops in arb_assoc_ops(4, 8, 600)) {
        run_assoc(4, 8, &ops, 10)?;
    }

    #[test]
    fn fully_associative_twenty_way_set_assoc_matches_stamp_lru(ops in arb_assoc_ops(1, 20, 600)) {
        run_assoc(1, 20, &ops, 10)?;
    }
}
