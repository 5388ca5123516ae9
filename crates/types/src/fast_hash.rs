//! A fast, deterministic hasher for the simulator's integer-keyed maps.
//!
//! `std`'s default SipHash is DoS-resistant but costs tens of nanoseconds
//! per lookup, which is pure overhead for a single-process simulator hashing
//! its own frame numbers. This multiply-xor hasher (the Fx/fxhash scheme) is
//! a handful of instructions and — unlike the randomly-keyed default — fully
//! deterministic across runs, which the reproducibility story relies on
//! anyway. Only map *lookup cost* changes; nothing in the simulator depends
//! on map iteration order.
//!
//! `clippy.toml` bans the std `HashMap` and `HashSet` (`disallowed-types`),
//! so [`FastMap`] and [`FastSet`], the rule's two exceptions, are the only
//! hash containers library code can name.

use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier from the golden ratio, as used by rustc's FxHasher.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-xor hasher specialized for small integer keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    state: u64,
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.state = (self.state.rotate_left(5) ^ n).wrapping_mul(SEED);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// `BuildHasher` for [`FastHasher`] — drop-in `S` parameter for `HashMap`.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed with the fast deterministic hasher.
///
/// Unlike the `RandomState` default, lookup *and iteration order* are
/// identical across runs and across processes.
#[expect(clippy::disallowed_types, reason = "the deterministic wrapper")]
pub type FastMap<K, V> = std::collections::HashMap<K, V, FastBuildHasher>;

/// A `HashSet` keyed with the fast deterministic hasher — the companion
/// to [`FastMap`] for membership-only state.
#[expect(clippy::disallowed_types, reason = "the deterministic wrapper")]
pub type FastSet<T> = std::collections::HashSet<T, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = FastMap::default();
        let mut b = FastMap::default();
        for k in 0u64..100 {
            a.insert(k, k * 2);
            b.insert(k, k * 2);
        }
        for k in 0u64..100 {
            assert_eq!(a.get(&k), Some(&(k * 2)));
            assert_eq!(a.get(&k), b.get(&k));
        }
    }

    #[test]
    fn distinct_keys_distinct_hashes() {
        use std::hash::BuildHasher;
        let bh = FastBuildHasher::default();
        let h1 = bh.hash_one(0x1000u64);
        let h2 = bh.hash_one(0x2000u64);
        assert_ne!(h1, h2);
    }
}
