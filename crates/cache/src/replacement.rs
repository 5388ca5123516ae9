//! Exact LRU replacement as per-set move-to-front ranks.
//!
//! Every way holds one `u8` rank: its position in its set's recency order,
//! 0 being the most recently used. Touching a way moves it to the front and
//! ages every way that was ahead of it by one; the victim of a full set is
//! the way ranked `ways - 1`. That is the same order recency stamps give, so
//! victims are the same ones a stamp-per-way LRU picks — with one byte per
//! way instead of eight and no structure-wide clock.
//!
//! The ranks start all zero, so the array comes from one zeroed allocation.
//! A way that was never touched shares the rank `k` of its untouched peers
//! (`k` being the number of ways touched so far), which sits behind every
//! touched way; the update below keeps that true. A set can only be full
//! once each of its ways has been filled, and a fill touches, so the ranks
//! of a full set are always a permutation of `0..ways`.

/// Most ways one set may have: ranks are `u8`.
pub(crate) const MAX_WAYS: usize = 1 << u8::BITS;

/// Per-set move-to-front ranks for a structure of `num_sets * ways` ways,
/// set-major (`ranks[set * ways + w]`).
#[derive(Debug, Clone)]
pub(crate) struct RankLru {
    ranks: Vec<u8>,
    ways: usize,
}

impl RankLru {
    /// Ranks for `num_sets` sets of `ways` ways (`1..=MAX_WAYS`).
    pub(crate) fn new(num_sets: usize, ways: usize) -> Self {
        Self {
            ranks: vec![0; num_sets * ways],
            ways,
        }
    }

    /// Records a use of `way` in `set`: it becomes the most recent.
    #[inline]
    pub(crate) fn touch(&mut self, set: usize, way: usize) {
        let base = set * self.ways;
        let ranks = &mut self.ranks[base..base + self.ways];
        let r = ranks[way];
        // Ages every way at or ahead of `way` (untouched peers share its
        // rank); `way` itself is then reset, so its wrap cannot matter.
        for x in ranks.iter_mut() {
            *x = x.wrapping_add(u8::from(*x <= r));
        }
        ranks[way] = 0;
    }

    /// The least recently used way of `set`. Only meaningful for a full
    /// set, whose ranks are a permutation of `0..ways`. Like the tag scan,
    /// it reads every rank instead of stopping at an unpredictable way.
    #[inline]
    pub(crate) fn victim(&self, set: usize) -> usize {
        let base = set * self.ways;
        let last = (self.ways - 1) as u8;
        let mut victim = 0;
        for (w, &r) in self.ranks[base..base + self.ways].iter().enumerate() {
            if r == last {
                victim = w;
            }
        }
        victim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_picks_least_recent() {
        let mut p = RankLru::new(2, 4);
        // Touch order 1, 0, 3, 2: way 1 is the least recent.
        for way in [1, 0, 3, 2] {
            p.touch(1, way);
        }
        assert_eq!(p.victim(1), 1);
        p.touch(1, 1);
        assert_eq!(p.victim(1), 0);
        // Sets are independent: a sweep of touches in set 0 picks its own
        // oldest way and leaves set 1's order alone.
        for way in 0..4 {
            p.touch(0, way);
        }
        assert_eq!(p.victim(0), 0);
        assert_eq!(p.victim(1), 0);
    }

    #[test]
    fn ranks_become_a_permutation_once_every_way_is_touched() {
        let mut p = RankLru::new(1, 5);
        for way in [3, 3, 0, 4, 1, 0, 2] {
            p.touch(0, way);
        }
        let mut ranks = p.ranks.clone();
        ranks.sort_unstable();
        assert_eq!(ranks, [0, 1, 2, 3, 4]);
        // Last touches in order: 3, 4, 1, 0, 2.
        assert_eq!(p.ranks, [1, 2, 0, 4, 3]);
        assert_eq!(p.victim(0), 3);
    }

    #[test]
    fn max_ways_ranks_do_not_overflow() {
        let mut p = RankLru::new(1, MAX_WAYS);
        for way in 0..MAX_WAYS {
            p.touch(0, way);
        }
        assert_eq!(p.victim(0), 0);
        // Touching the victim (rank 255) ages every other way to <= 255.
        p.touch(0, 0);
        assert_eq!(p.victim(0), 1);
        assert_eq!(p.ranks[0], 0);
    }
}
