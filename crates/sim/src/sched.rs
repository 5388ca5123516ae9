//! The event-queue core scheduler: O(log n) arbitration for the
//! multi-core driver.
//!
//! The driver arbitrates cores by the key `(local_clock, core_idx)` —
//! lowest clock first, ties broken by core index. Through PR 6 the winner
//! and runner-up were found with a linear scan over every core at each
//! batch boundary, which made arbitration cost O(cores) per epoch and
//! capped the machine at 8 cores. This module replaces the scan with a
//! binary min-heap ([`EventQueue`]): the winner pops in O(log n), bursts
//! until its key passes the new heap top, and re-pushes.
//!
//! **The event-queue invariant:** heap order ≡ scan order. Keys are unique
//! (no two cores share an index), tuple comparison orders them exactly as
//! the scan's `key < best` test did, and only the popped core's clock ever
//! moves — so every key resident in the heap always equals its core's
//! current `(now, idx)`, and the pop sequence replays the scan's winner
//! sequence bit-for-bit. [`linear_scan`] keeps the PR-6 scan alive as an
//! independent reference implementation: the lockstep driver path uses it
//! as the per-access oracle, and the `arbitration_scaling` criterion bench
//! uses it as the O(n) contrast row.

/// An arbitration key: `(local_clock, core_idx)`. Tuple order gives
/// lowest-clock-first with ties broken by the lower core index.
pub type ArbKey = (u64, usize);

/// A binary min-heap of arbitration keys — the event queue the batched
/// multi-core driver schedules from.
///
/// Hand-rolled rather than `std::collections::BinaryHeap` so the ordering
/// is visibly min-first (no `Reverse` wrappers at every call site) and the
/// sift loops stay simple enough to audit against the scheduling
/// invariant.
///
/// # Examples
///
/// ```
/// use asap_sim::sched::EventQueue;
///
/// let mut q = EventQueue::with_capacity(3);
/// q.push((40, 2));
/// q.push((10, 1));
/// q.push((10, 0));
/// assert_eq!(q.pop(), Some((10, 0))); // ties break by core index
/// assert_eq!(q.peek(), Some((10, 1)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct EventQueue {
    heap: Vec<ArbKey>,
}

impl EventQueue {
    /// An empty queue with room for `n` keys.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        Self {
            heap: Vec::with_capacity(n),
        }
    }

    /// Number of queued keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The minimum key without removing it — the next arbitration winner,
    /// or (after a pop) the bound the current winner bursts against.
    #[must_use]
    pub fn peek(&self) -> Option<ArbKey> {
        self.heap.first().copied()
    }

    /// Inserts a key in O(log n).
    pub fn push(&mut self, key: ArbKey) {
        self.heap.push(key);
        let mut i = self.heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent] <= self.heap[i] {
                break;
            }
            self.heap.swap(parent, i);
            i = parent;
        }
    }

    /// Removes and returns the minimum key in O(log n).
    pub fn pop(&mut self) -> Option<ArbKey> {
        let last = self.heap.len().checked_sub(1)?;
        self.heap.swap(0, last);
        let min = self.heap.pop();
        let mut i = 0;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            if l < self.heap.len() && self.heap[l] < self.heap[smallest] {
                smallest = l;
            }
            if r < self.heap.len() && self.heap[r] < self.heap[smallest] {
                smallest = r;
            }
            if smallest == i {
                return min;
            }
            self.heap.swap(i, smallest);
            i = smallest;
        }
    }
}

/// The PR-6 linear arbitration scan, kept verbatim as the independent
/// reference implementation: one pass over the ready keys returning the
/// winner and the runner-up's key (the winner's burst bound). The lockstep
/// driver path rescans with this after every access — that is the oracle
/// schedule `prop_smp_determinism` pins the event queue against — and the
/// `arbitration_scaling` bench charts it as the O(n) baseline.
#[must_use]
pub fn linear_scan(keys: impl IntoIterator<Item = ArbKey>) -> (Option<ArbKey>, Option<ArbKey>) {
    let mut best: Option<ArbKey> = None;
    let mut bound: Option<ArbKey> = None;
    for key in keys {
        match best {
            None => best = Some(key),
            Some(b) if key < b => {
                bound = best;
                best = Some(key);
            }
            _ => {
                if bound.map_or(true, |r| key < r) {
                    bound = Some(key);
                }
            }
        }
    }
    (best, bound)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny deterministic LCG so the tests need no RNG dependency.
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    #[test]
    fn pops_in_sorted_order() {
        let mut state = 7u64;
        let keys: Vec<ArbKey> = (0..257).map(|i| (lcg(&mut state) % 1000, i)).collect();
        let mut q = EventQueue::with_capacity(keys.len());
        for &k in &keys {
            q.push(k);
        }
        assert_eq!(q.len(), keys.len());
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let mut popped = Vec::new();
        while let Some(k) = q.pop() {
            popped.push(k);
        }
        assert_eq!(popped, sorted);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn ties_break_by_core_index() {
        let mut q = EventQueue::default();
        for i in (0..8).rev() {
            q.push((500, i));
        }
        for i in 0..8 {
            assert_eq!(q.pop(), Some((500, i)));
        }
    }

    #[test]
    fn peek_matches_scan_winner_and_bound() {
        // The invariant in miniature: for random key sets, (pop, peek)
        // equals linear_scan's (winner, bound).
        let mut state = 99u64;
        for round in 0..50 {
            let n = 1 + (round % 16);
            let keys: Vec<ArbKey> = (0..n).map(|i| (lcg(&mut state) % 64, i)).collect();
            let mut q = EventQueue::with_capacity(n);
            for &k in &keys {
                q.push(k);
            }
            let (winner, bound) = linear_scan(keys.iter().copied());
            assert_eq!(q.pop(), winner);
            assert_eq!(q.peek(), bound);
        }
    }

    #[test]
    fn replays_the_scan_schedule_exactly() {
        // Synthetic cores whose clocks advance by pseudo-random strides:
        // the heap scheduler (pop, burst to bound, re-push) must visit
        // cores in exactly the order the per-step linear rescan does.
        let n = 12usize;
        let steps_per_core = 200u32;

        let stride = |core: usize, step: u32| -> u64 {
            let mut s = (core as u64) << 32 | u64::from(step) | 0xA5A5;
            1 + lcg(&mut s) % 97
        };

        // Reference: rescan every step.
        let mut clocks = vec![0u64; n];
        let mut done = vec![0u32; n];
        let mut scan_order: Vec<usize> = Vec::new();
        loop {
            let ready = clocks
                .iter()
                .enumerate()
                .filter(|(i, _)| done[*i] < steps_per_core)
                .map(|(i, t)| (*t, i));
            let (best, _) = linear_scan(ready);
            let Some((_, i)) = best else { break };
            clocks[i] += stride(i, done[i]);
            done[i] += 1;
            scan_order.push(i);
        }

        // Event queue: pop, burst until passing the bound, re-push.
        let mut clocks = vec![0u64; n];
        let mut done = vec![0u32; n];
        let mut heap_order: Vec<usize> = Vec::new();
        let mut q = EventQueue::with_capacity(n);
        for i in 0..n {
            q.push((0, i));
        }
        while let Some((_, i)) = q.pop() {
            let bound = q.peek();
            loop {
                clocks[i] += stride(i, done[i]);
                done[i] += 1;
                heap_order.push(i);
                if done[i] == steps_per_core {
                    break;
                }
                let key = (clocks[i], i);
                if bound.is_some_and(|b| key >= b) {
                    q.push(key);
                    break;
                }
            }
        }

        assert_eq!(heap_order, scan_order);
    }
}
