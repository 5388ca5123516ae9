//! Page-table census: footprints and physical contiguity (paper Table 2).
//!
//! The paper motivates ASAP with two measurements over real page tables:
//! the per-level footprint ("for a 100GB dataset ... 8B, 800B, 400KB and
//! 200MB for PL4, PL3, PL2 and PL1", §3.1) and the number of contiguous
//! physical regions the PT pages occupy under the stock buddy allocator
//! (Table 2). [`PtCensus`] computes both from a live simulated page table.

use crate::FlatMirror;
use asap_types::{ByteSize, PhysFrameNum, PtLevel, PTE_SIZE};

/// Contiguity statistics over a set of physical frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ContigStats {
    /// Number of maximal runs of consecutive frames.
    pub regions: usize,
    /// Total frames examined.
    pub frames: usize,
    /// Length of the longest run.
    pub max_run: usize,
}

impl ContigStats {
    /// Computes contiguity over an arbitrary frame set (order irrelevant).
    #[must_use]
    pub fn from_frames(frames: &[PhysFrameNum]) -> Self {
        if frames.is_empty() {
            return Self::default();
        }
        let mut sorted: Vec<u64> = frames.iter().map(|f| f.raw()).collect();
        sorted.sort_unstable();
        sorted.dedup();
        let mut regions = 1;
        let mut run = 1usize;
        let mut max_run = 1usize;
        for pair in sorted.windows(2) {
            if pair[1] == pair[0] + 1 {
                run += 1;
            } else {
                regions += 1;
                max_run = max_run.max(run);
                run = 1;
            }
        }
        max_run = max_run.max(run);
        Self {
            regions,
            frames: sorted.len(),
            max_run,
        }
    }

    /// Mean run length (frames per region).
    #[must_use]
    pub fn mean_run(&self) -> f64 {
        if self.regions == 0 {
            0.0
        } else {
            self.frames as f64 / self.regions as f64
        }
    }
}

/// Per-level census of one page table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PtCensus {
    /// Table pages per level, indexed by `PtLevel::depth() - 1`.
    pub pages: [u64; 5],
    /// Present entries per level.
    pub entries: [u64; 5],
    /// Frames backing each level (sorted), for contiguity analysis.
    frames_per_level: [Vec<PhysFrameNum>; 5],
}

impl PtCensus {
    /// Collects the census of `table`.
    #[must_use]
    pub fn collect(table: &FlatMirror) -> Self {
        Self::from_nodes(table.nodes())
    }

    /// Builds a census from every node of a table as `(level, frame,
    /// present entries)`, in any order: each level's frames are kept
    /// sorted, so censuses of the same table compare equal whatever order
    /// their nodes came in.
    #[must_use]
    pub fn from_nodes(nodes: impl IntoIterator<Item = (PtLevel, PhysFrameNum, u64)>) -> Self {
        let mut census = Self::default();
        for (level, frame, entries) in nodes {
            let idx = (level.depth() - 1) as usize;
            census.pages[idx] += 1;
            census.entries[idx] += entries;
            census.frames_per_level[idx].push(frame);
        }
        for frames in &mut census.frames_per_level {
            frames.sort_unstable();
        }
        census
    }

    /// Table pages at `level`.
    #[must_use]
    pub fn pages_at(&self, level: PtLevel) -> u64 {
        self.pages[(level.depth() - 1) as usize]
    }

    /// Present entries at `level`.
    #[must_use]
    pub fn entries_at(&self, level: PtLevel) -> u64 {
        self.entries[(level.depth() - 1) as usize]
    }

    /// *Populated* footprint of `level` in bytes: present entries × 8 B.
    ///
    /// This matches the paper's §3.1 arithmetic (e.g. "8B" for a PL4 level
    /// holding a single entry).
    #[must_use]
    pub fn footprint_at(&self, level: PtLevel) -> ByteSize {
        ByteSize(self.entries_at(level) * PTE_SIZE)
    }

    /// Total table pages across all levels (Table 2's "PT page count").
    #[must_use]
    pub fn total_pages(&self) -> u64 {
        self.pages.iter().sum()
    }

    /// Contiguity of the frames backing `level`.
    #[must_use]
    pub fn contiguity_at(&self, level: PtLevel) -> ContigStats {
        ContigStats::from_frames(&self.frames_per_level[(level.depth() - 1) as usize])
    }

    /// Contiguity over **all** PT frames (Table 2's "contiguous physical
    /// regions" column).
    #[must_use]
    pub fn contiguity_total(&self) -> ContigStats {
        let all: Vec<PhysFrameNum> = self
            .frames_per_level
            .iter()
            .flat_map(|v| v.iter().copied())
            .collect();
        ContigStats::from_frames(&all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BumpNodeAllocator, PteFlags};
    use asap_types::{PageSize, PagingMode, VirtAddr};

    fn table(first_frame: u64) -> (FlatMirror, BumpNodeAllocator) {
        let mut alloc = BumpNodeAllocator::new(PhysFrameNum::new(first_frame));
        (FlatMirror::new(PagingMode::FourLevel, &mut alloc), alloc)
    }

    #[test]
    fn contig_stats_basics() {
        let f = |xs: &[u64]| {
            ContigStats::from_frames(&xs.iter().map(|&x| PhysFrameNum::new(x)).collect::<Vec<_>>())
        };
        assert_eq!(f(&[]).regions, 0);
        assert_eq!(f(&[5]).regions, 1);
        let s = f(&[1, 2, 3, 10, 11, 20]);
        assert_eq!(s.regions, 3);
        assert_eq!(s.frames, 6);
        assert_eq!(s.max_run, 3);
        assert!((s.mean_run() - 2.0).abs() < 1e-12);
        // Order and duplicates do not matter.
        assert_eq!(f(&[20, 3, 1, 2, 11, 10, 10]).regions, 3);
    }

    #[test]
    fn census_counts_match_small_table() {
        let (mut pt, mut alloc) = table(0x100);
        // Map 3 pages in one 2 MiB region and 1 page in another 1 GiB region.
        let base = VirtAddr::new(0x10_0000_0000).unwrap();
        for i in 0..3u64 {
            pt.map(
                &mut alloc,
                base.checked_add(i * 0x1000).unwrap(),
                PhysFrameNum::new(100 + i),
                PageSize::Size4K,
                PteFlags::user_data(),
            )
            .unwrap();
        }
        let far = VirtAddr::new(0x10_4000_0000).unwrap();
        pt.map(
            &mut alloc,
            far,
            PhysFrameNum::new(200),
            PageSize::Size4K,
            PteFlags::user_data(),
        )
        .unwrap();

        let c = PtCensus::collect(&pt);
        assert_eq!(c.pages_at(PtLevel::Pl4), 1);
        assert_eq!(c.pages_at(PtLevel::Pl3), 1); // both VAs share the PL4 entry
        assert_eq!(c.pages_at(PtLevel::Pl2), 2); // different 1 GiB regions
        assert_eq!(c.pages_at(PtLevel::Pl1), 2);
        assert_eq!(c.entries_at(PtLevel::Pl1), 4);
        assert_eq!(c.total_pages(), 6);
        assert_eq!(c.footprint_at(PtLevel::Pl1).bytes(), 4 * 8);
        // Bump allocation makes all PT frames one contiguous region.
        assert_eq!(c.contiguity_total().regions, 1);
    }

    #[test]
    fn census_skips_large_page_leaves() {
        let (mut pt, mut alloc) = table(0x100);
        pt.map(
            &mut alloc,
            VirtAddr::new(0x4000_0000).unwrap(),
            PhysFrameNum::new(512),
            PageSize::Size2M,
            PteFlags::user_data(),
        )
        .unwrap();
        let c = PtCensus::collect(&pt);
        assert_eq!(c.pages_at(PtLevel::Pl1), 0, "no PL1 page under a 2MiB leaf");
        assert_eq!(c.entries_at(PtLevel::Pl2), 1);
        assert_eq!(c.total_pages(), 3);
    }

    #[test]
    fn paper_footprint_shape_for_dense_region() {
        // Map a dense 32 MiB region and check the PL1/PL2 footprint ratio is
        // 512:1, the paper's geometric shape.
        let (mut pt, mut alloc) = table(0x10_0000);
        let base = VirtAddr::new(0x40_0000_0000).unwrap();
        let pages = 512 * 16; // 16 full PL1 tables = 32 MiB
        for i in 0..pages {
            pt.map(
                &mut alloc,
                base.checked_add(i * 0x1000).unwrap(),
                PhysFrameNum::new(i),
                PageSize::Size4K,
                PteFlags::user_data(),
            )
            .unwrap();
        }
        let c = PtCensus::collect(&pt);
        assert_eq!(c.pages_at(PtLevel::Pl1), 16);
        assert_eq!(c.entries_at(PtLevel::Pl1), pages);
        assert_eq!(c.entries_at(PtLevel::Pl2), 16);
        assert_eq!(
            c.footprint_at(PtLevel::Pl1).bytes() / c.footprint_at(PtLevel::Pl2).bytes(),
            512
        );
    }
}
