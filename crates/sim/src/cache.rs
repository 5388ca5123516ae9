//! Content-addressed caching of run results: the canonical [`RunSpec`]
//! byte encoding, the engine fingerprint, and [`RunSpec::run_cached`].
//!
//! # Key derivation
//!
//! A run's cache key is `fnv1a_128(canonical spec bytes || engine
//! fingerprint)`. The canonical encoding is a versioned, explicit byte
//! serialization of every axis and knob that influences simulated
//! statistics: workload (all calibration fields, floats as IEEE bit
//! patterns), engine (prefetch level *sets* — order-insensitive, since
//! `AsapHwConfig` has set semantics), machine, cores, NUMA nodes, the
//! boolean knobs, PWC geometry, paging mode, the scatter override, and
//! the window configuration. The [`TelemetryConfig`] is deliberately
//! excluded: telemetry is proven observer-effect-free (CI pins that
//! `BENCH_results.json` is produced with telemetry off and stays
//! byte-identical), so tracing a run must not change its identity —
//! but runs that *ask* for telemetry bypass the cache entirely, because
//! their artifacts (traces, profiles) are live by definition.
//!
//! # `SIM_SEMVER` bump discipline
//!
//! [`SIM_SEMVER`] names the *semantics* version of the simulator. Any PR
//! that intentionally changes simulated statistics — a new engine model,
//! a calibration fix, a driver-loop change that moves numbers — must
//! bump it, which rewrites every cache key and invalidates all stored
//! results at once. The existing drift gate enforces the discipline from
//! the other side: a semantics change without a bump still fails CI,
//! because the regenerated `BENCH_results.json` (produced cold under a
//! fresh CI cache dir) diffs against the committed rows. Refactors that
//! keep statistics byte-identical must NOT bump it — warm caches staying
//! valid across no-op changes is the whole point.

use crate::codec;
use crate::driver::DriverError;
use crate::{EngineSelect, MachineSelect, RunOutput, RunResult, RunSpec};
use asap_store::{CacheHandle, CacheKey};
use asap_types::{PageSize, PtLevel};

/// The simulation-semantics version. Bump on any intentional change to
/// simulated statistics (see the module docs for the discipline); never
/// bump for refactors that keep `BENCH_results.json` byte-identical.
pub const SIM_SEMVER: &str = "1.0.0";

/// Version byte of the canonical encoding itself; bump when the byte
/// layout below changes (also rewrites every key, which is safe).
const CANON_VERSION: u8 = 1;

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_f64_bits(out: &mut Vec<u8>, v: f64) {
    push_u64(out, v.to_bits());
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Prefetch levels as an order-insensitive bitmask: `AsapHwConfig` and
/// `NestedAsapConfig` treat their level vectors as sets (`contains`
/// queries), so `[Pl1, Pl2]` and `[Pl2, Pl1]` must produce one key.
fn level_mask(levels: &[PtLevel]) -> u8 {
    levels
        .iter()
        .fold(0u8, |mask, level| mask | 1 << (level.depth() - 1))
}

fn page_size_tag(size: PageSize) -> u8 {
    match size {
        PageSize::Size4K => 0,
        PageSize::Size2M => 1,
        PageSize::Size1G => 2,
    }
}

impl RunSpec {
    /// The stable canonical byte serialization of every
    /// statistics-relevant axis and knob (telemetry excluded — see the
    /// module docs).
    #[must_use]
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(160);
        out.push(CANON_VERSION);

        // Workload: every calibration field.
        let w = &self.workload;
        push_str(&mut out, w.name);
        push_u64(&mut out, w.footprint.bytes());
        push_u64(&mut out, w.big_vmas as u64);
        push_u64(&mut out, w.libs as u64);
        match &w.pattern {
            asap_workloads::PatternKind::Uniform {
                hot_fraction,
                seq_run,
            } => {
                out.push(0);
                push_f64_bits(&mut out, *hot_fraction);
                push_u64(&mut out, *seq_run);
            }
            asap_workloads::PatternKind::Zipfian { s } => {
                out.push(1);
                push_f64_bits(&mut out, *s);
            }
            asap_workloads::PatternKind::PointerChase {
                reuse,
                capacity,
                scan_mean,
            } => {
                out.push(2);
                push_f64_bits(&mut out, *reuse);
                push_u64(&mut out, *capacity as u64);
                push_u64(&mut out, *scan_mean);
            }
            asap_workloads::PatternKind::Graph(mode) => {
                out.push(match mode {
                    asap_workloads::GraphMode::Bfs => 3,
                    asap_workloads::GraphMode::PageRank => 4,
                });
            }
        }
        push_f64_bits(&mut out, w.pt_scatter_run);
        push_f64_bits(&mut out, w.data_cluster_fraction);

        // Engine axis.
        match &self.engine {
            EngineSelect::Baseline => out.push(0),
            EngineSelect::Asap(cfg) => {
                out.push(1);
                out.push(level_mask(&cfg.levels));
            }
            EngineSelect::NestedAsap(cfg) => {
                out.push(2);
                out.push(level_mask(&cfg.guest));
                out.push(level_mask(&cfg.host));
            }
            EngineSelect::Victima => out.push(3),
            EngineSelect::Revelator => out.push(4),
        }

        // Machine axis.
        match self.machine {
            MachineSelect::Native => out.push(0),
            MachineSelect::Virt { host_page_size } => {
                out.push(1);
                out.push(page_size_tag(host_page_size));
            }
        }

        push_u64(&mut out, self.cores as u64);
        push_u64(&mut out, self.numa_nodes as u64);
        out.push(
            u8::from(self.colocated)
                | u8::from(self.clustered_tlb) << 1
                | u8::from(self.perfect_tlb) << 2,
        );

        push_u64(&mut out, self.pwc.pl4_entries as u64);
        push_u64(&mut out, self.pwc.pl3_entries as u64);
        push_u64(&mut out, self.pwc.pl2_entries as u64);
        push_u64(&mut out, self.pwc.pl2_ways as u64);
        push_u64(&mut out, self.pwc.latency);

        out.push(self.paging_mode.depth() as u8);
        match self.pt_scatter_run_override {
            None => out.push(0),
            Some(run) => {
                out.push(1);
                push_f64_bits(&mut out, run);
            }
        }

        push_u64(&mut out, self.sim.warmup_accesses);
        push_u64(&mut out, self.sim.measure_accesses);
        push_u64(&mut out, self.sim.seed);
        out.push(u8::from(self.sim.lockstep));
        out
    }

    /// The content-addressed cache key: digest of the canonical bytes
    /// followed by the engine fingerprint.
    #[must_use]
    pub fn cache_key(&self) -> CacheKey {
        let mut bytes = self.canonical_bytes();
        bytes.extend_from_slice(&engine_fingerprint().to_le_bytes());
        CacheKey::of(&bytes)
    }

    /// The advisory cost-profile label for this spec: stable across cache
    /// invalidations (it names *what* runs, not the semantics version),
    /// so stale wall-clock estimates keep scheduling longest-first even
    /// after a [`SIM_SEMVER`] bump rewrites every result key.
    #[must_use]
    pub fn cost_label(&self) -> String {
        format!(
            "{} | {} | {}+{}",
            self.workload.name,
            self.label(),
            self.sim.warmup_accesses,
            self.sim.measure_accesses
        )
    }

    /// Cache-aware [`RunSpec::run_split`]: returns the decoded stored
    /// output on hit, runs and stores on miss. Specs with any telemetry
    /// enabled bypass the cache entirely (their artifacts are live by
    /// definition); a corrupt or version-skewed stored entry degrades to
    /// a fresh run that overwrites it. Store failures are swallowed —
    /// a broken cache directory slows runs down but never fails them.
    ///
    /// # Errors
    ///
    /// Exactly [`RunSpec::run_split`]'s errors; the cache adds none.
    pub fn run_split_cached(&self, cache: &CacheHandle) -> Result<RunOutput, DriverError> {
        self.run_split_cached_timed(cache).map(|(output, _)| output)
    }

    /// [`RunSpec::run_split_cached`] plus the wall-clock cost hint: the
    /// stored producer cost on a hit, the measured cost on a miss, and
    /// `None` for telemetry bypasses (live runs feed no cost profile —
    /// tracing overhead would pollute the estimate).
    pub(crate) fn run_split_cached_timed(
        &self,
        cache: &CacheHandle,
    ) -> Result<(RunOutput, Option<u64>), DriverError> {
        if self.telemetry.any() {
            return self.run_split().map(|output| (output, None));
        }
        let key = self.cache_key();
        if let Some(bytes) = cache.get(&key) {
            if let Some((output, stored_nanos)) = std::str::from_utf8(&bytes)
                .ok()
                .and_then(|text| codec::decode_payload(text).ok())
            {
                return Ok((output, Some(stored_nanos)));
            }
        }
        let (output, elapsed_nanos) = self.run_split_timed()?;
        let payload = codec::encode_payload(&output, elapsed_nanos);
        let _ = cache.put(&key, payload.as_bytes());
        Ok((output, Some(elapsed_nanos)))
    }

    /// Cache-aware [`RunSpec::run`]: the aggregate row of
    /// [`RunSpec::run_split_cached`].
    ///
    /// # Errors
    ///
    /// Exactly [`RunSpec::run`]'s errors; the cache adds none.
    pub fn run_cached(&self, cache: &CacheHandle) -> Result<RunResult, DriverError> {
        self.run_split_cached(cache).map(|o| o.aggregate)
    }

    /// Runs the spec and measures its wall-clock (the executor's cost
    /// hint — advisory only, never part of any reported statistic).
    pub(crate) fn run_split_timed(&self) -> Result<(RunOutput, u64), DriverError> {
        #[expect(clippy::disallowed_methods, reason = "advisory cost hint only")]
        let start = std::time::Instant::now();
        let output = self.run_split()?;
        let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        Ok((output, elapsed.max(1)))
    }
}

/// The engine fingerprint folded into every cache key: the digest of
/// [`SIM_SEMVER`]. One constant, one bump, every key rewritten.
#[must_use]
pub fn engine_fingerprint() -> u128 {
    asap_store::fnv1a_128(SIM_SEMVER.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimConfig;
    use asap_core::{AsapHwConfig, NestedAsapConfig};
    use asap_telemetry::TelemetryConfig;
    use asap_tlb::PwcConfig;
    use asap_workloads::WorkloadSpec;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Self {
            static SEQ: AtomicU32 = AtomicU32::new(0);
            let seq = SEQ.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir().join(format!(
                "asap-sim-cache-test-{}-{tag}-{seq}",
                std::process::id()
            ));
            std::fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn smoke_spec() -> RunSpec {
        RunSpec::new(WorkloadSpec::mcf()).with_sim(SimConfig::smoke_test())
    }

    #[test]
    fn level_masks_are_order_insensitive() {
        assert_eq!(
            level_mask(&[PtLevel::Pl1, PtLevel::Pl2]),
            level_mask(&[PtLevel::Pl2, PtLevel::Pl1])
        );
        assert_ne!(level_mask(&[PtLevel::Pl1]), level_mask(&[PtLevel::Pl2]));
    }

    #[test]
    fn telemetry_does_not_change_the_key() {
        let plain = smoke_spec();
        let traced = smoke_spec().with_telemetry(TelemetryConfig {
            trace: true,
            metrics: true,
            profile: true,
        });
        assert_eq!(plain.cache_key(), traced.cache_key());
    }

    #[test]
    fn every_axis_flip_changes_the_key() {
        let base = smoke_spec();
        let variants = [
            base.clone().with_workload(WorkloadSpec::mc80()),
            base.clone().with_asap(AsapHwConfig::p1()),
            base.clone().with_asap(AsapHwConfig::p1_p2()),
            base.clone().with_engine(EngineSelect::Victima),
            base.clone().with_engine(EngineSelect::Revelator),
            base.clone().virt(),
            base.clone().host_2m_pages(),
            base.clone()
                .virt()
                .with_nested_asap(NestedAsapConfig::all()),
            base.clone().with_cores(2),
            base.clone().with_cores(4).with_numa_nodes(2),
            base.clone().colocated(),
            base.clone().with_clustered_tlb(),
            base.clone().perfect_tlb(),
            base.clone().with_pwc(PwcConfig::split_doubled()),
            base.clone().five_level(),
            base.clone().with_pt_scatter_run(4.0),
            base.clone().with_sim(SimConfig::default()),
            base.clone().with_sim(SimConfig::smoke_test().with_seed(7)),
        ];
        let base_key = base.cache_key();
        let mut seen = vec![base_key];
        for variant in variants {
            let key = variant.cache_key();
            assert!(
                !seen.contains(&key),
                "key collision for {variant:?} (canonical encoding missed an axis)"
            );
            seen.push(key);
        }
    }

    #[test]
    fn canonical_bytes_are_stable_across_clones() {
        let a = smoke_spec().with_asap(AsapHwConfig::p1_p2()).colocated();
        let b = a.clone();
        assert_eq!(a.canonical_bytes(), b.canonical_bytes());
        assert_eq!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn cold_then_warm_returns_identical_results() {
        let scratch = Scratch::new("warm");
        let cache = CacheHandle::open(&scratch.0).unwrap();
        let spec = smoke_spec();
        let direct = spec.run().unwrap();
        let cold = spec.run_cached(&cache).unwrap();
        let warm = spec.run_cached(&cache).unwrap();
        assert_eq!(cold, direct, "cold cached run matches a direct run");
        assert_eq!(warm, direct, "warm cached run matches a direct run");
        assert_eq!(cache.stats().hits(), 1);
        assert_eq!(cache.stats().misses(), 1);
    }

    #[test]
    fn telemetry_specs_bypass_the_cache() {
        let scratch = Scratch::new("bypass");
        let cache = CacheHandle::open(&scratch.0).unwrap();
        let spec = smoke_spec().with_telemetry(TelemetryConfig {
            trace: false,
            metrics: true,
            profile: false,
        });
        let out = spec.run_split_cached(&cache).unwrap();
        assert!(out.telemetry.is_some(), "live telemetry still harvested");
        assert_eq!(cache.stats().lookups(), 0, "no cache traffic at all");
    }

    #[test]
    fn corrupt_entries_degrade_to_fresh_runs() {
        let scratch = Scratch::new("corrupt");
        let cache = CacheHandle::open(&scratch.0).unwrap();
        let spec = smoke_spec();
        cache.put(&spec.cache_key(), b"not a payload").unwrap();
        let out = spec.run_cached(&cache).unwrap();
        assert_eq!(out, spec.run().unwrap());
        // The fresh run overwrote the corrupt entry; next lookup decodes.
        let again = spec.run_cached(&cache).unwrap();
        assert_eq!(again, out);
    }
}
