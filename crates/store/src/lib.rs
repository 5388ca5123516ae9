//! Content-addressed on-disk result cache.
//!
//! The store knows nothing about simulations: it maps a 128-bit
//! [`CacheKey`] (a hash of canonical bytes the *caller* produces) to an
//! opaque blob on disk, and keeps a sidecar *cost profile* — a map from
//! caller-chosen labels to observed wall-clock nanoseconds — that the
//! scenario executor uses for longest-expected-first scheduling. The two
//! halves have different lifetimes by design: objects are invalidated by
//! key (bump the engine fingerprint and every key changes), while cost
//! hints survive invalidation because a stale estimate is still a useful
//! schedule.
//!
//! Durability model: `put` writes a temporary file in the same directory
//! and renames it into place, so readers never observe a partially
//! written object and concurrent writers of the same key are safe (the
//! content is identical by construction — the key is the content hash of
//! the inputs). All I/O errors degrade to cache misses; a broken cache
//! directory can slow a run down but never fail or corrupt it.
//!
//! Hit/miss/byte counters are exposed through the workspace telemetry
//! [`Collect`] trait so `asap --cache-stats` reports through the same
//! `MetricSet` machinery as every other stats source.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use asap_telemetry::{Collect, MetricSet};

/// FNV-1a 128-bit offset basis.
const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// FNV-1a 128-bit prime.
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// Hashes `bytes` with 128-bit FNV-1a. Not cryptographic — the cache is
/// a trusted-input content store, and 128 bits makes accidental
/// collisions across a few thousand run specs vanishingly unlikely.
#[must_use]
pub fn fnv1a_128(bytes: &[u8]) -> u128 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u128::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A content-addressed key: the 128-bit digest of the caller's canonical
/// byte encoding. Rendered as 32 lowercase hex characters on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheKey(u128);

impl CacheKey {
    /// Digests `bytes` into a key.
    #[must_use]
    pub fn of(bytes: &[u8]) -> Self {
        Self(fnv1a_128(bytes))
    }

    /// Wraps a raw digest (for tests and key-composition callers).
    #[must_use]
    pub fn from_raw(raw: u128) -> Self {
        Self(raw)
    }

    /// The raw 128-bit digest.
    #[must_use]
    pub fn raw(&self) -> u128 {
        self.0
    }

    /// The on-disk object name: 32 lowercase hex characters.
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }
}

/// Monotonic hit/miss/byte counters for one [`CacheHandle`], shared
/// across the fan-out threads. Collected as `{prefix}hits_total`,
/// `{prefix}misses_total` and `{prefix}stored_bytes_total`.
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    stored_bytes: AtomicU64,
}

impl CacheStats {
    /// Lookups served from the store.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that fell through to a fresh run (absent key or any I/O
    /// error — errors degrade to misses).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Payload bytes written by `put` over this handle's lifetime.
    #[must_use]
    pub fn stored_bytes(&self) -> u64 {
        self.stored_bytes.load(Ordering::Relaxed)
    }

    /// Total lookups (hits + misses).
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits() + self.misses()
    }
}

impl Collect for CacheStats {
    fn collect(&self, prefix: &str, out: &mut MetricSet) {
        out.counter(
            format!("{prefix}hits_total"),
            "result-cache lookups served from the store",
            self.hits(),
        );
        out.counter(
            format!("{prefix}misses_total"),
            "result-cache lookups that ran fresh",
            self.misses(),
        );
        out.counter(
            format!("{prefix}stored_bytes_total"),
            "payload bytes written to the result cache",
            self.stored_bytes(),
        );
    }
}

/// Observed wall-clock costs, keyed by a caller-chosen stable label
/// (for the simulator: workload + variant + window size). Persisted as a
/// sorted `costs.tsv` sidecar so a later run — even one whose result
/// keys were all invalidated — can still schedule longest-first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CostProfile {
    entries: BTreeMap<String, u64>,
}

impl CostProfile {
    /// An empty profile.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `nanos` for `label`, keeping the larger of the old and new
    /// observation (costs schedule stragglers, so over-estimates are the
    /// safe direction; a cache-hit "run" must never shrink the estimate).
    pub fn record(&mut self, label: &str, nanos: u64) {
        let slot = self.entries.entry(label.to_string()).or_insert(0);
        *slot = (*slot).max(nanos);
    }

    /// The recorded cost for `label`, if any.
    #[must_use]
    pub fn get(&self, label: &str) -> Option<u64> {
        self.entries.get(label).copied()
    }

    /// Number of labels with a recorded cost.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no costs are recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Folds every entry of `other` into `self` (max-merge).
    pub fn merge(&mut self, other: &CostProfile) {
        for (label, nanos) in &other.entries {
            self.record(label, *nanos);
        }
    }

    /// Parses the `costs.tsv` format: one `nanos<TAB>label` line per
    /// entry. Malformed lines are skipped — the profile is advisory.
    #[must_use]
    pub fn parse(text: &str) -> Self {
        let mut profile = Self::new();
        for line in text.lines() {
            if let Some((nanos, label)) = line.split_once('\t') {
                if let Ok(nanos) = nanos.parse::<u64>() {
                    profile.record(label, nanos);
                }
            }
        }
        profile
    }

    /// Renders the sorted `costs.tsv` text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (label, nanos) in &self.entries {
            out.push_str(&nanos.to_string());
            out.push('\t');
            out.push_str(label);
            out.push('\n');
        }
        out
    }
}

/// A handle to one on-disk cache directory.
///
/// Layout under the root:
///
/// ```text
/// objects/<32-hex-key>   one blob per key (atomic rename on write)
/// costs.tsv              advisory cost profile (sorted, line-oriented)
/// tmp-<pid>-<seq>        in-flight writes, renamed into place
/// ```
#[derive(Debug)]
pub struct CacheHandle {
    root: PathBuf,
    stats: CacheStats,
    tmp_seq: AtomicU64,
}

impl CacheHandle {
    /// Opens (creating if needed) the cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the directory cannot be
    /// created — the only fatal condition a cache has; everything later
    /// degrades to misses.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let root = dir.into();
        fs::create_dir_all(root.join("objects"))?;
        Ok(Self {
            root,
            stats: CacheStats::default(),
            tmp_seq: AtomicU64::new(0),
        })
    }

    /// The cache root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// This handle's hit/miss/byte counters.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn object_path(&self, key: &CacheKey) -> PathBuf {
        self.root.join("objects").join(key.hex())
    }

    /// Reads the blob stored under `key`, counting a hit or a miss. Any
    /// read error (absent, unreadable, truncated directory) is a miss.
    #[must_use]
    pub fn get(&self, key: &CacheKey) -> Option<Vec<u8>> {
        match fs::read(self.object_path(key)) {
            Ok(bytes) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(bytes)
            }
            Err(_) => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores `bytes` under `key` via write-to-temp + atomic rename.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; callers are expected to treat a
    /// failed store as "cache disabled for this entry" and carry on.
    pub fn put(&self, key: &CacheKey, bytes: &[u8]) -> std::io::Result<()> {
        let tmp = self.temp_path();
        fs::write(&tmp, bytes)?;
        let renamed = fs::rename(&tmp, self.object_path(key));
        if renamed.is_err() {
            // Leave nothing behind on failure; removal errors are moot.
            let _ = fs::remove_file(&tmp);
        }
        renamed?;
        self.stats
            .stored_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn temp_path(&self) -> PathBuf {
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        self.root.join(format!("tmp-{}-{seq}", std::process::id()))
    }

    fn costs_path(&self) -> PathBuf {
        self.root.join("costs.tsv")
    }

    /// Loads the advisory cost profile (empty when absent or unreadable).
    #[must_use]
    pub fn load_costs(&self) -> CostProfile {
        match fs::read_to_string(self.costs_path()) {
            Ok(text) => CostProfile::parse(&text),
            Err(_) => CostProfile::new(),
        }
    }

    /// Max-merges `observed` into the stored cost profile and atomically
    /// rewrites `costs.tsv`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error from the rewrite; the profile is
    /// advisory, so callers may ignore it.
    pub fn save_costs(&self, observed: &CostProfile) -> std::io::Result<()> {
        let mut merged = self.load_costs();
        merged.merge(observed);
        let tmp = self.temp_path();
        fs::write(&tmp, merged.render())?;
        let renamed = fs::rename(&tmp, self.costs_path());
        if renamed.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        renamed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// A unique scratch directory per test, removed on drop.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Self {
            static SEQ: AtomicU32 = AtomicU32::new(0);
            let seq = SEQ.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir().join(format!(
                "asap-store-test-{}-{tag}-{seq}",
                std::process::id()
            ));
            fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // FNV-1a 128: hash of "" is the offset basis.
        assert_eq!(fnv1a_128(b""), FNV_OFFSET);
        // One manual step: h = (basis ^ 'a') * prime.
        let expect = (FNV_OFFSET ^ u128::from(b'a')).wrapping_mul(FNV_PRIME);
        assert_eq!(fnv1a_128(b"a"), expect);
        assert_ne!(fnv1a_128(b"ab"), fnv1a_128(b"ba"), "order matters");
    }

    #[test]
    fn key_hex_is_32_lowercase_chars() {
        let key = CacheKey::from_raw(0xAB);
        assert_eq!(key.hex(), "000000000000000000000000000000ab");
        assert_eq!(CacheKey::of(b"x").hex().len(), 32);
    }

    #[test]
    fn get_put_roundtrip_and_stats() {
        let scratch = Scratch::new("roundtrip");
        let cache = CacheHandle::open(&scratch.0).unwrap();
        let key = CacheKey::of(b"spec");
        assert!(cache.get(&key).is_none());
        cache.put(&key, b"payload").unwrap();
        assert_eq!(cache.get(&key).as_deref(), Some(&b"payload"[..]));
        assert_eq!(cache.stats().hits(), 1);
        assert_eq!(cache.stats().misses(), 1);
        assert_eq!(cache.stats().stored_bytes(), 7);
        assert_eq!(cache.stats().lookups(), 2);
        // No stray temp files.
        let stray: Vec<_> = fs::read_dir(&scratch.0)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with("tmp-"))
            .collect();
        assert!(stray.is_empty(), "{stray:?}");
    }

    #[test]
    fn second_handle_sees_stored_objects() {
        let scratch = Scratch::new("reopen");
        let key = CacheKey::of(b"persisted");
        {
            let cache = CacheHandle::open(&scratch.0).unwrap();
            cache.put(&key, b"v1").unwrap();
        }
        let cache = CacheHandle::open(&scratch.0).unwrap();
        assert_eq!(cache.get(&key).as_deref(), Some(&b"v1"[..]));
        assert_eq!(cache.stats().hits(), 1);
    }

    #[test]
    fn cost_profile_parse_render_roundtrip() {
        let mut profile = CostProfile::new();
        profile.record("b label with spaces", 250);
        profile.record("a", 10);
        profile.record("a", 7); // smaller observation never shrinks
        let text = profile.render();
        assert_eq!(text, "10\ta\n250\tb label with spaces\n");
        assert_eq!(CostProfile::parse(&text), profile);
        // Malformed lines are skipped, not fatal.
        let sloppy = CostProfile::parse("garbage\nnot-a-number\tx\n5\tok\n");
        assert_eq!(sloppy.get("ok"), Some(5));
        assert_eq!(sloppy.len(), 1);
    }

    #[test]
    fn save_costs_max_merges_across_handles() {
        let scratch = Scratch::new("costs");
        let cache = CacheHandle::open(&scratch.0).unwrap();
        let mut first = CostProfile::new();
        first.record("slow", 100);
        first.record("fast", 5);
        cache.save_costs(&first).unwrap();

        let mut second = CostProfile::new();
        second.record("slow", 40); // stale smaller sample
        second.record("new", 60);
        cache.save_costs(&second).unwrap();

        let loaded = cache.load_costs();
        assert_eq!(loaded.get("slow"), Some(100), "max-merge keeps the peak");
        assert_eq!(loaded.get("fast"), Some(5));
        assert_eq!(loaded.get("new"), Some(60));
    }

    #[test]
    fn collect_exposes_telemetry_counters() {
        let scratch = Scratch::new("collect");
        let cache = CacheHandle::open(&scratch.0).unwrap();
        let key = CacheKey::of(b"k");
        assert!(cache.get(&key).is_none());
        cache.put(&key, b"abc").unwrap();
        assert!(cache.get(&key).is_some());
        let mut set = MetricSet::new();
        cache.stats().collect("cache_", &mut set);
        let value = |name: &str| match set.get(name).map(|m| &m.value) {
            Some(asap_telemetry::MetricValue::Counter(v)) => *v,
            other => panic!("{name}: {other:?}"),
        };
        assert_eq!(value("cache_hits_total"), 1);
        assert_eq!(value("cache_misses_total"), 1);
        assert_eq!(value("cache_stored_bytes_total"), 3);
    }
}
