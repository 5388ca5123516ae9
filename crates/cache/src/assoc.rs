//! A generic set-associative container.
//!
//! This is the common structural core of every tagged hardware structure in
//! the simulator: data caches, L1/L2 TLBs, page-walk caches and the clustered
//! TLB all wrap [`SetAssoc`] with their own tag and payload types.

/// An entry evicted by an insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction<K, V> {
    /// The evicted tag.
    pub key: K,
    /// The evicted payload.
    pub value: V,
}

#[derive(Debug, Clone)]
struct Way<K, V> {
    key: K,
    value: V,
}

/// A set-associative array mapping tags `K` to payloads `V`.
///
/// The caller chooses the set for each operation (different structures index
/// with different address bits), while `SetAssoc` owns way management,
/// replacement and eviction.
///
/// Storage is a single set-major arena of `Option` slots
/// (`slots[set * ways + r]`), each set kept in recency order: its valid
/// entries lead, most recent first, and its empty slots trail. A hit
/// rotates its entry to the front; an insertion shifts the set right by one
/// and takes the front, so the entry shifted off the end is the exact-LRU
/// victim (or an empty slot). Lookups stop at the first empty slot.
///
/// # Examples
///
/// ```
/// use asap_cache::SetAssoc;
///
/// let mut tlb: SetAssoc<u64, &str> = SetAssoc::new(2, 2);
/// tlb.insert(0, 100, "a");
/// tlb.insert(0, 200, "b");
/// assert_eq!(tlb.lookup(0, &100), Some(&"a"));
/// // Set 0 is full and 200 is now LRU; inserting evicts it.
/// let evicted = tlb.insert(0, 300, "c").unwrap();
/// assert_eq!(evicted.key, 200);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssoc<K, V> {
    slots: Vec<Option<Way<K, V>>>,
    num_sets: usize,
    ways: usize,
}

impl<K: Eq + Copy, V> SetAssoc<K, V> {
    /// Creates a structure with `num_sets` sets of `ways` ways each,
    /// replaced in exact LRU order.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` or `ways` is zero.
    #[must_use]
    pub fn new(num_sets: usize, ways: usize) -> Self {
        assert!(num_sets > 0, "need at least one set");
        assert!(ways > 0, "need at least one way");
        Self {
            slots: (0..num_sets * ways).map(|_| None).collect(),
            num_sets,
            ways,
        }
    }

    /// Number of sets.
    #[must_use]
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Associativity.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total capacity in entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.num_sets * self.ways
    }

    /// The slots of `set`, most recent first.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    fn set(&self, set: usize) -> &[Option<Way<K, V>>] {
        assert!(set < self.num_sets, "set {set} out of range");
        &self.slots[set * self.ways..(set + 1) * self.ways]
    }

    fn set_mut(&mut self, set: usize) -> &mut [Option<Way<K, V>>] {
        assert!(set < self.num_sets, "set {set} out of range");
        &mut self.slots[set * self.ways..(set + 1) * self.ways]
    }

    /// The recency position of `key` in `set`, scanning the valid prefix.
    fn find(&self, set: usize, key: &K) -> Option<usize> {
        self.set(set)
            .iter()
            .map_while(Option::as_ref)
            .position(|way| way.key == *key)
    }

    /// Moves the entry at `pos` of `set` to the front and returns it.
    fn promote(&mut self, set: usize, pos: usize) -> Option<&mut Way<K, V>> {
        let slots = self.set_mut(set);
        slots[..=pos].rotate_right(1);
        slots[0].as_mut()
    }

    /// Looks up `key` in `set`, updating recency on a hit.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    pub fn lookup(&mut self, set: usize, key: &K) -> Option<&V> {
        self.lookup_mut(set, key).map(|v| &*v)
    }

    /// Looks up `key` in `set` returning a mutable payload, updating recency.
    pub fn lookup_mut(&mut self, set: usize, key: &K) -> Option<&mut V> {
        let pos = self.find(set, key)?;
        self.promote(set, pos).map(|way| &mut way.value)
    }

    /// Checks for `key` in `set` without updating replacement state.
    #[must_use]
    pub fn probe(&self, set: usize, key: &K) -> Option<&V> {
        let pos = self.find(set, key)?;
        self.set(set)[pos].as_ref().map(|way| &way.value)
    }

    /// Inserts `key -> value` into `set`, returning any eviction.
    ///
    /// If `key` is already present its payload is replaced (no eviction is
    /// reported) and its recency refreshed.
    pub fn insert(&mut self, set: usize, key: K, value: V) -> Option<Eviction<K, V>> {
        if let Some(pos) = self.find(set, &key) {
            if let Some(way) = self.promote(set, pos) {
                way.value = value;
            }
            return None;
        }
        let slots = self.set_mut(set);
        slots.rotate_right(1);
        slots[0].replace(Way { key, value }).map(|way| Eviction {
            key: way.key,
            value: way.value,
        })
    }

    /// Removes `key` from `set`, returning its payload if present. The freed
    /// slot moves behind the set's valid entries.
    pub fn invalidate(&mut self, set: usize, key: &K) -> Option<V> {
        let pos = self.find(set, key)?;
        let slots = &mut self.set_mut(set)[pos..];
        slots.rotate_left(1);
        slots.last_mut()?.take().map(|way| way.value)
    }

    /// Clears every entry.
    pub fn flush(&mut self) {
        self.slots.fill_with(|| None);
    }

    /// Number of valid entries across all sets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Whether the structure holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over `(set, key, value)` for all valid entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &K, &V)> {
        let ways = self.ways;
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, slot)| slot.as_ref().map(|way| (i / ways, &way.key, &way.value)))
    }

    /// Removes all entries failing `keep`, returning how many were dropped.
    /// Each set's survivors keep their recency order.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) -> usize {
        let mut dropped = 0;
        for slots in self.slots.chunks_mut(self.ways) {
            // Survivors swap forward into the slots freed ahead of them, so
            // they keep their order and the empty slots trail.
            let mut kept = 0;
            for pos in 0..slots.len() {
                let Some(way) = &slots[pos] else { break };
                if keep(&way.key, &way.value) {
                    slots.swap(kept, pos);
                    kept += 1;
                } else {
                    slots[pos] = None;
                    dropped += 1;
                }
            }
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssoc<u64, u64> {
        SetAssoc::new(4, 2)
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let mut c = small();
        assert!(c.is_empty());
        assert_eq!(c.insert(1, 10, 100), None);
        assert_eq!(c.lookup(1, &10), Some(&100));
        assert_eq!(c.lookup(1, &11), None);
        assert_eq!(c.lookup(0, &10), None, "keys are per-set");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn eviction_on_full_set() {
        let mut c = small();
        c.insert(2, 1, 1);
        c.insert(2, 2, 2);
        c.lookup(2, &1); // make key 2 the LRU
        let ev = c.insert(2, 3, 3).expect("must evict");
        assert_eq!(ev.key, 2);
        assert_eq!(ev.value, 2);
        assert!(c.probe(2, &1).is_some());
        assert!(c.probe(2, &3).is_some());
    }

    #[test]
    fn reinsert_same_key_updates_value_without_eviction() {
        let mut c = small();
        c.insert(0, 7, 70);
        c.insert(0, 8, 80);
        assert_eq!(c.insert(0, 7, 71), None);
        assert_eq!(c.probe(0, &7), Some(&71));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = small();
        c.insert(0, 1, 1);
        c.insert(0, 2, 2);
        // Probing key 1 must NOT refresh it...
        assert_eq!(c.probe(0, &1), Some(&1));
        // ...so it is still the LRU victim.
        let ev = c.insert(0, 3, 3).unwrap();
        assert_eq!(ev.key, 1);
    }

    #[test]
    fn invalidate_and_flush() {
        let mut c = small();
        c.insert(0, 1, 10);
        c.insert(1, 2, 20);
        assert_eq!(c.invalidate(0, &1), Some(10));
        assert_eq!(c.invalidate(0, &1), None);
        assert_eq!(c.len(), 1);
        c.flush();
        assert!(c.is_empty());
    }

    #[test]
    fn lookup_mut_mutates() {
        let mut c = small();
        c.insert(3, 9, 90);
        *c.lookup_mut(3, &9).unwrap() += 1;
        assert_eq!(c.probe(3, &9), Some(&91));
    }

    #[test]
    fn retain_filters() {
        let mut c = small();
        for k in 0..8u64 {
            c.insert((k % 4) as usize, k, k);
        }
        let dropped = c.retain(|k, _| k % 2 == 0);
        assert_eq!(dropped + c.len(), 8);
        assert!(c.iter().all(|(_, k, _)| k % 2 == 0));
    }

    #[test]
    fn capacity_accessors() {
        let c = small();
        assert_eq!(c.num_sets(), 4);
        assert_eq!(c.ways(), 2);
        assert_eq!(c.capacity(), 8);
    }

    #[test]
    fn sets_are_independent_in_flat_layout() {
        // Fill two adjacent sets and verify each set's LRU decisions ignore
        // the other's state (guards the set-major slot indexing).
        let mut c = small();
        c.insert(0, 1, 1);
        c.insert(1, 2, 2);
        c.insert(0, 3, 3);
        c.insert(1, 4, 4);
        c.lookup(0, &1); // refresh set 0's key 1; set 1 untouched
        let ev0 = c.insert(0, 5, 5).unwrap();
        assert_eq!(ev0.key, 3);
        let ev1 = c.insert(1, 6, 6).unwrap();
        assert_eq!(ev1.key, 2, "set 1 LRU order unaffected by set 0 traffic");
    }
}
