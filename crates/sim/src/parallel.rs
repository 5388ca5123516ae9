//! Deterministic parallel fan-out of independent runs.
//!
//! Workers claim items from one shared atomic index over single-take
//! slots, so no thread ever owns a fixed chunk and a straggler item
//! delays only the one thread running it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Applies `f` to every item on a pool of host threads, preserving input
/// order in the output. Each run is internally deterministic (seeded), so
/// the parallel result is identical to the sequential one.
///
/// # Examples
///
/// ```
/// let squares = asap_sim::parallel_map(vec![1, 2, 3, 4], |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
///
/// # Panics
///
/// Propagates panics from `f` (the experiment harness prefers failing loudly
/// over reporting partial tables).
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    // `f` never runs under a slot lock, so a lock poisoned by a panicking
    // worker guards intact data; the panic itself propagates from the scope.
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                #[expect(clippy::expect_used, reason = "each index is claimed once")]
                let item = work[i]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take()
                    .expect("each slot taken once");
                let r = f(item);
                *results[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
            });
        }
    });
    #[expect(clippy::expect_used, reason = "every index was claimed")]
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("all slots filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::thread::ThreadId;
    use std::time::Duration;

    #[test]
    fn preserves_order() {
        let out = parallel_map((0..100).collect::<Vec<_>>(), |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn matches_sequential_for_stateful_work() {
        let seq: Vec<u64> = (0..16u64).map(|x| x.wrapping_mul(x) ^ 7).collect();
        let par = parallel_map((0..16u64).collect(), |x| x.wrapping_mul(x) ^ 7);
        assert_eq!(seq, par);
    }

    /// One pathological straggler (100× every other item) must not
    /// serialize the cheap tail behind it. With the shared-index executor
    /// the thread that claims the straggler processes (almost) nothing
    /// else, and the fan-out completes in ~max(item), not ~sum(chunk) —
    /// asserted structurally by counting per-thread items processed
    /// rather than by timing.
    #[test]
    fn straggler_does_not_serialize_a_chunk() {
        let workers = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        if workers < 2 {
            return; // single-threaded host: nothing to schedule around
        }
        // Item 0 costs 100 ticks, 63 others cost 1 tick each; input order
        // starts the straggler first.
        let n = 64usize;
        let tick = Duration::from_millis(1);
        let processed: Mutex<HashMap<ThreadId, Vec<usize>>> = Mutex::new(HashMap::new());
        let out = parallel_map((0..n).collect(), |i| {
            std::thread::sleep(tick * if i == 0 { 100 } else { 1 });
            processed
                .lock()
                .unwrap()
                .entry(std::thread::current().id())
                .or_default()
                .push(i);
            i
        });
        assert_eq!(out, (0..n).collect::<Vec<_>>());
        let processed = processed.into_inner().unwrap();
        let straggler_thread: Vec<usize> = processed
            .values()
            .find(|items| items.contains(&0))
            .expect("someone ran the straggler")
            .clone();
        // The straggler's thread was busy for ~the whole fan-out, so the
        // cheap items ran elsewhere. A fixed-chunk split at 2 threads
        // would hand it 32 items; allow generous slack for slow CI hosts
        // while still ruling any chunked schedule out.
        assert!(
            straggler_thread.len() <= 8,
            "straggler thread also processed {} cheap items — \
             the schedule serialized a chunk behind it",
            straggler_thread.len() - 1
        );
        // Work conservation: every item ran exactly once.
        let mut all: Vec<usize> = processed.values().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>());
    }
}
