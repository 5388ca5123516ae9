//! Run-length scattering: a statistical model of buddy-allocator layout.
//!
//! Table 2 of the paper shows that the PT pages of real applications occupy
//! *hundreds to thousands* of contiguous physical regions — neither fully
//! contiguous nor fully random. The ratio `PT pages / regions` gives a mean
//! run length per workload (e.g. memcached-80GB: 45878 pages in 1976
//! regions ≈ 23 pages/run). [`ScatterAllocator`] reproduces exactly that
//! statistic: allocations come out in runs of geometrically-distributed
//! length placed at random positions, which is also the paper's own
//! methodology for the host PT ("randomly scattering the PT pages across
//! the host physical memory", §4).
//!
//! The same model supplies *data-page* contiguity, which is what the
//! clustered-TLB comparison (§5.4.1, Table 7) keys on.

use crate::{AllocError, FrameAllocator};
use asap_types::FastSet;
use asap_types::PhysFrameNum;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`ScatterAllocator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScatterConfig {
    /// Mean contiguous run length in frames (≥ 1.0). `1.0` degenerates to
    /// fully random placement; `f64::INFINITY` is not supported.
    pub mean_run_len: f64,
    /// Size of the physical space runs are scattered over, in frames.
    pub phys_frames: u64,
    /// RNG seed (simulations are deterministic per seed).
    pub seed: u64,
}

impl ScatterConfig {
    /// A scatter profile matching a Table 2 row: `pt_pages` pages in
    /// `regions` regions over `phys_frames` of physical memory.
    #[must_use]
    pub fn from_table2(pt_pages: u64, regions: u64, phys_frames: u64, seed: u64) -> Self {
        let mean = if regions == 0 {
            1.0
        } else {
            (pt_pages as f64 / regions as f64).max(1.0)
        };
        Self {
            mean_run_len: mean,
            phys_frames,
            seed,
        }
    }
}

/// A frame allocator producing runs of consecutive frames with
/// geometrically-distributed length at uniformly random positions.
///
/// # Examples
///
/// ```
/// use asap_alloc::{FrameAllocator, ScatterAllocator, ScatterConfig};
///
/// let mut alloc = ScatterAllocator::new(ScatterConfig {
///     mean_run_len: 8.0,
///     phys_frames: 1 << 24,
///     seed: 1,
/// });
/// let frames: Vec<_> = (0..100).map(|_| alloc.alloc_frame().unwrap()).collect();
/// // All frames are distinct.
/// let set: std::collections::HashSet<_> = frames.iter().collect();
/// assert_eq!(set.len(), frames.len());
/// ```
#[derive(Debug, Clone)]
pub struct ScatterAllocator {
    config: ScatterConfig,
    rng: SmallRng,
    used: FastSet<u64>,
    run_next: u64,
    run_remaining: u64,
    allocated: u64,
}

impl ScatterAllocator {
    /// Creates an allocator from `config`.
    ///
    /// # Panics
    ///
    /// Panics if `mean_run_len < 1.0` or `phys_frames == 0`.
    #[must_use]
    pub fn new(config: ScatterConfig) -> Self {
        assert!(config.mean_run_len >= 1.0, "mean run length must be >= 1");
        assert!(config.phys_frames > 0, "physical space must be non-empty");
        Self {
            rng: SmallRng::seed_from_u64(config.seed),
            config,
            used: FastSet::default(),
            run_next: 0,
            run_remaining: 0,
            allocated: 0,
        }
    }

    /// Frames allocated so far.
    #[must_use]
    pub fn allocated(&self) -> u64 {
        self.allocated
    }

    fn sample_run_len(&mut self) -> u64 {
        // Geometric distribution with mean `m`: P(continue) = 1 - 1/m.
        let m = self.config.mean_run_len;
        if m <= 1.0 {
            return 1;
        }
        let p_stop = 1.0 / m;
        let mut len = 1u64;
        // Cap runs at 4 MiB (the Linux MAX_ORDER block) — the buddy
        // allocator cannot produce longer physically-contiguous runs.
        while len < 1024 && self.rng.gen::<f64>() > p_stop {
            len += 1;
        }
        len
    }

    fn start_new_run(&mut self) -> Result<(), AllocError> {
        if self.allocated >= self.config.phys_frames {
            return Err(AllocError::OutOfMemory);
        }
        let len = self.sample_run_len();
        // Rejection-sample a start position whose first frame is unused.
        for _ in 0..64 {
            let start = self.rng.gen_range(0..self.config.phys_frames);
            if !self.used.contains(&start) {
                self.run_next = start;
                self.run_remaining = len;
                return Ok(());
            }
        }
        // Space is nearly full: fall back to a linear probe.
        for start in 0..self.config.phys_frames {
            if !self.used.contains(&start) {
                self.run_next = start;
                self.run_remaining = 1;
                return Ok(());
            }
        }
        Err(AllocError::OutOfMemory)
    }
}

impl FrameAllocator for ScatterAllocator {
    fn alloc_frame(&mut self) -> Result<PhysFrameNum, AllocError> {
        // A run also terminates early if it collides with an existing
        // allocation or the end of physical space — just as a buddy run
        // ends at an occupied neighbour.
        if self.run_remaining == 0
            || self.run_next >= self.config.phys_frames
            || self.used.contains(&self.run_next)
        {
            self.start_new_run()?;
        }
        let frame = self.run_next;
        self.used.insert(frame);
        self.run_next += 1;
        self.run_remaining -= 1;
        self.allocated += 1;
        Ok(PhysFrameNum::new(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_pt_test_util::contiguity;
    use std::collections::HashSet;

    fn draw(config: ScatterConfig, n: usize) -> Vec<u64> {
        let mut a = ScatterAllocator::new(config);
        (0..n).map(|_| a.alloc_frame().unwrap().raw()).collect()
    }

    #[test]
    fn frames_are_unique() {
        let frames = draw(
            ScatterConfig {
                mean_run_len: 4.0,
                phys_frames: 1 << 22,
                seed: 3,
            },
            10_000,
        );
        let set: HashSet<_> = frames.iter().collect();
        assert_eq!(set.len(), frames.len());
    }

    #[test]
    fn mean_run_length_tracks_config() {
        for target in [1.0f64, 8.0, 23.0, 40.0] {
            let frames = draw(
                ScatterConfig {
                    mean_run_len: target,
                    phys_frames: 1 << 26,
                    seed: 9,
                },
                20_000,
            );
            let (_, mean) = contiguity(&frames);
            // Within 25% of target (runs merge by chance, collisions split).
            assert!(
                (mean - target).abs() / target < 0.25,
                "target {target}, measured {mean}"
            );
        }
    }

    #[test]
    fn random_mode_is_fully_scattered() {
        let frames = draw(
            ScatterConfig {
                mean_run_len: 1.0,
                phys_frames: 1 << 26,
                seed: 11,
            },
            5_000,
        );
        let (regions, mean) = contiguity(&frames);
        // Nearly every frame is its own region in a sparse space.
        assert!(regions > 4_800, "regions = {regions}");
        assert!(mean < 1.1);
    }

    #[test]
    fn deterministic_per_seed() {
        let c = ScatterConfig {
            mean_run_len: 6.0,
            phys_frames: 1 << 20,
            seed: 77,
        };
        assert_eq!(draw(c, 1000), draw(c, 1000));
        let c2 = ScatterConfig { seed: 78, ..c };
        assert_ne!(draw(c, 1000), draw(c2, 1000));
    }

    #[test]
    fn exhausts_cleanly() {
        let mut a = ScatterAllocator::new(ScatterConfig {
            mean_run_len: 2.0,
            phys_frames: 64,
            seed: 5,
        });
        let mut got = HashSet::new();
        for _ in 0..64 {
            got.insert(a.alloc_frame().unwrap().raw());
        }
        assert_eq!(got.len(), 64);
        assert_eq!(a.alloc_frame(), Err(AllocError::OutOfMemory));
    }

    #[test]
    fn from_table2_derives_mean() {
        // memcached-80GB row: 45878 PT pages, 1976 regions.
        let c = ScatterConfig::from_table2(45878, 1976, 1 << 25, 0);
        assert!((c.mean_run_len - 23.2).abs() < 0.1);
        // Degenerate rows fall back sanely.
        assert_eq!(
            ScatterConfig::from_table2(10, 0, 1 << 20, 0).mean_run_len,
            1.0
        );
    }
}
