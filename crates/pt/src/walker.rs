//! A software model of the hardware page-walker state machine.
//!
//! Unlike [`crate::PageTable::translate`], the walker records the physical
//! address of **every node it touches**, leaf-ward from the root. That trace
//! is the input to the walk-timing model in `asap-core`: each step becomes a
//! (possibly PWC-elided, possibly prefetch-overlapped) memory-hierarchy
//! access, exactly as in the paper's Fig. 4.

use crate::{PageTable, Pte, SimPhysMem, Translation};
use asap_types::{PageSize, PhysAddr, PtLevel, VirtAddr};

/// The deepest walk any paging mode performs (5-level paging).
pub const MAX_WALK_DEPTH: usize = 5;

/// One node access performed by the walker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkStep {
    /// The page-table level of the node read.
    pub level: PtLevel,
    /// Physical address of the 8-byte entry that was read.
    pub entry_addr: PhysAddr,
    /// The entry value observed.
    pub entry: Pte,
}

/// Terminal state of a walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkOutcome {
    /// The walk found a present leaf.
    Mapped(Translation),
    /// The walk hit a not-present entry at the given level (page fault).
    Fault {
        /// Level at which the not-present entry was found.
        level: PtLevel,
    },
}

/// The full record of one page walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkTrace {
    /// The virtual address that triggered the walk.
    pub va: VirtAddr,
    /// Node accesses in walk order (root first). A faulting walk still
    /// contains the step that read the not-present entry — the hardware
    /// performs that read before raising the fault, and ASAP accelerates
    /// fault detection the same way it accelerates successful walks
    /// (paper §3.7.1).
    pub steps: Vec<WalkStep>,
    /// How the walk ended.
    pub outcome: WalkOutcome,
}

impl WalkTrace {
    /// The translation if the walk succeeded.
    #[must_use]
    pub fn translation(&self) -> Option<Translation> {
        match self.outcome {
            WalkOutcome::Mapped(t) => Some(t),
            WalkOutcome::Fault { .. } => None,
        }
    }

    /// The step that accessed `level`, if the walk got that far.
    #[must_use]
    pub fn step_at(&self, level: PtLevel) -> Option<&WalkStep> {
        self.steps.iter().find(|s| s.level == level)
    }

    /// Whether the walk faulted.
    #[must_use]
    pub fn is_fault(&self) -> bool {
        matches!(self.outcome, WalkOutcome::Fault { .. })
    }
}

/// A walk record with inline step storage: the allocation-free twin of
/// [`WalkTrace`], used on the simulator hot path where a per-walk `Vec`
/// would dominate the cost of the walk itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedWalk {
    va: VirtAddr,
    steps: [WalkStep; MAX_WALK_DEPTH],
    len: u8,
    outcome: WalkOutcome,
}

impl FixedWalk {
    const FILLER: WalkStep = WalkStep {
        level: PtLevel::Pl1,
        entry_addr: PhysAddr::new(0),
        entry: Pte::not_present(),
    };

    /// An empty walk that faulted before touching any node (VA outside the
    /// paging mode's range).
    #[must_use]
    pub(crate) fn empty_fault(va: VirtAddr, level: PtLevel) -> Self {
        Self {
            va,
            steps: [Self::FILLER; MAX_WALK_DEPTH],
            len: 0,
            outcome: WalkOutcome::Fault { level },
        }
    }

    pub(crate) fn push(&mut self, step: WalkStep) {
        self.steps[self.len as usize] = step;
        self.len += 1;
    }

    pub(crate) fn set_outcome(&mut self, outcome: WalkOutcome) {
        self.outcome = outcome;
    }

    /// The virtual address that triggered the walk.
    #[must_use]
    pub fn va(&self) -> VirtAddr {
        self.va
    }

    /// Node accesses in walk order (root first), as in [`WalkTrace::steps`].
    #[must_use]
    pub fn steps(&self) -> &[WalkStep] {
        &self.steps[..self.len as usize]
    }

    /// How the walk ended.
    #[must_use]
    pub fn outcome(&self) -> WalkOutcome {
        self.outcome
    }

    /// The translation if the walk succeeded.
    #[must_use]
    pub fn translation(&self) -> Option<Translation> {
        match self.outcome {
            WalkOutcome::Mapped(t) => Some(t),
            WalkOutcome::Fault { .. } => None,
        }
    }

    /// The step that accessed `level`, if the walk got that far.
    #[must_use]
    pub fn step_at(&self, level: PtLevel) -> Option<&WalkStep> {
        self.steps().iter().find(|s| s.level == level)
    }

    /// Whether the walk faulted.
    #[must_use]
    pub fn is_fault(&self) -> bool {
        matches!(self.outcome, WalkOutcome::Fault { .. })
    }

    /// The heap-allocated [`WalkTrace`] equivalent, for cold paths that
    /// store or transform traces.
    #[must_use]
    pub fn to_trace(&self) -> WalkTrace {
        WalkTrace {
            va: self.va,
            steps: self.steps().to_vec(),
            outcome: self.outcome,
        }
    }
}

/// The page-walker state machine.
///
/// Stateless: hardware walkers keep their state in flight, and every walk
/// here is fully described by its [`WalkTrace`].
///
/// # Examples
///
/// ```
/// use asap_pt::{BumpNodeAllocator, PageTable, PteFlags, SimPhysMem, Walker};
/// use asap_types::{PageSize, PagingMode, PhysFrameNum, PtLevel, VirtAddr};
///
/// let mut mem = SimPhysMem::new();
/// let mut alloc = BumpNodeAllocator::new(PhysFrameNum::new(0x100));
/// let mut pt = PageTable::new(PagingMode::FourLevel, &mut mem, &mut alloc);
/// let va = VirtAddr::new(0x12_3456_7000).unwrap();
/// pt.map(&mut mem, &mut alloc, va, PhysFrameNum::new(5), PageSize::Size4K,
///        PteFlags::user_data()).unwrap();
///
/// let trace = Walker::walk(&mem, &pt, va);
/// assert_eq!(trace.steps.len(), 4); // PL4, PL3, PL2, PL1
/// assert_eq!(trace.steps[0].level, PtLevel::Pl4);
/// assert!(trace.translation().is_some());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Walker;

impl Walker {
    /// Walks the page table for `va`, recording every node access.
    #[must_use]
    pub fn walk(mem: &SimPhysMem, pt: &PageTable, va: VirtAddr) -> WalkTrace {
        Self::walk_fixed(mem, pt, va).to_trace()
    }

    /// [`Walker::walk`] without the heap allocation: the hot-path form.
    #[must_use]
    pub fn walk_fixed(mem: &SimPhysMem, pt: &PageTable, va: VirtAddr) -> FixedWalk {
        let mut walk = FixedWalk::empty_fault(va, pt.mode().root_level());
        if !pt.mode().contains(va) {
            return walk;
        }
        let mut node = pt.root();
        for level in pt.mode().levels() {
            let entry_addr = PageTable::entry_addr(node, level, va);
            let entry = mem.read_entry(entry_addr);
            walk.push(WalkStep {
                level,
                entry_addr,
                entry,
            });
            if !entry.is_present() {
                walk.set_outcome(WalkOutcome::Fault { level });
                return walk;
            }
            if level == PtLevel::Pl1 || entry.is_large_leaf() {
                // A PS bit at PL4/PL5 is architecturally reserved;
                // from_leaf_level is None there and the walk faults.
                let outcome = match PageSize::from_leaf_level(level) {
                    Some(size) => WalkOutcome::Mapped(Translation {
                        frame: entry.frame(),
                        size,
                        flags: entry.flags(),
                    }),
                    None => WalkOutcome::Fault { level },
                };
                walk.set_outcome(outcome);
                return walk;
            }
            node = entry.frame();
        }
        unreachable!("walk always terminates at PL1 or a leaf");
    }

    /// Walks starting from a mid-tree node, as a hardware walker does after
    /// a page-walk-cache hit: `start_level` is the level of the entry that
    /// `node` holds (e.g. a PWC hit on the PL2 *entry* yields the PL1 table
    /// frame, so the resumed walk starts at PL1 with that frame).
    #[must_use]
    pub fn walk_from(
        mem: &SimPhysMem,
        va: VirtAddr,
        node: asap_types::PhysFrameNum,
        start_level: PtLevel,
    ) -> WalkTrace {
        let mut steps = Vec::with_capacity(start_level.depth() as usize);
        let mut node = node;
        let mut level = start_level;
        loop {
            let entry_addr = PageTable::entry_addr(node, level, va);
            let entry = mem.read_entry(entry_addr);
            steps.push(WalkStep {
                level,
                entry_addr,
                entry,
            });
            if !entry.is_present() {
                return WalkTrace {
                    va,
                    steps,
                    outcome: WalkOutcome::Fault { level },
                };
            }
            if level == PtLevel::Pl1 || entry.is_large_leaf() {
                let size = PageSize::from_leaf_level(level);
                let outcome = match size {
                    Some(s) => WalkOutcome::Mapped(Translation {
                        frame: entry.frame(),
                        size: s,
                        flags: entry.flags(),
                    }),
                    None => WalkOutcome::Fault { level },
                };
                return WalkTrace { va, steps, outcome };
            }
            node = entry.frame();
            #[expect(clippy::expect_used, reason = "a PL1 entry ends the walk above")]
            let child = level.child().expect("descending from non-leaf");
            level = child;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BumpNodeAllocator, PteFlags};
    use asap_types::{PagingMode, PhysFrameNum};

    fn setup_mapped() -> (SimPhysMem, PageTable, VirtAddr) {
        let mut mem = SimPhysMem::new();
        let mut alloc = BumpNodeAllocator::new(PhysFrameNum::new(0x100));
        let mut pt = PageTable::new(PagingMode::FourLevel, &mut mem, &mut alloc);
        let va = VirtAddr::new(0x7fff_1234_5000).unwrap();
        pt.map(
            &mut mem,
            &mut alloc,
            va,
            PhysFrameNum::new(0x9999),
            PageSize::Size4K,
            PteFlags::user_data(),
        )
        .unwrap();
        (mem, pt, va)
    }

    #[test]
    fn full_walk_visits_all_levels_in_order() {
        let (mem, pt, va) = setup_mapped();
        let trace = Walker::walk(&mem, &pt, va);
        let levels: Vec<_> = trace.steps.iter().map(|s| s.level).collect();
        assert_eq!(
            levels,
            [PtLevel::Pl4, PtLevel::Pl3, PtLevel::Pl2, PtLevel::Pl1]
        );
        assert_eq!(
            trace.translation().unwrap().frame,
            PhysFrameNum::new(0x9999)
        );
    }

    #[test]
    fn walk_matches_translate() {
        let (mem, pt, va) = setup_mapped();
        assert_eq!(
            Walker::walk(&mem, &pt, va).translation(),
            pt.translate(&mem, va)
        );
    }

    #[test]
    fn fault_records_partial_trace() {
        let (mem, pt, va) = setup_mapped();
        // Same PL4/PL3/PL2 chain, different PL1 slot that was never mapped.
        let cousin = VirtAddr::new(va.raw() ^ 0x1000).unwrap();
        let trace = Walker::walk(&mem, &pt, cousin);
        assert!(trace.is_fault());
        assert_eq!(
            trace.outcome,
            WalkOutcome::Fault {
                level: PtLevel::Pl1
            }
        );
        // The faulting read itself is part of the trace (§3.7.1).
        assert_eq!(trace.steps.len(), 4);
        assert!(!trace.steps.last().unwrap().entry.is_present());
    }

    #[test]
    fn fault_at_root_for_distant_address() {
        let (mem, pt, _) = setup_mapped();
        let far = VirtAddr::new(0x0000_0abc_0000_0000).unwrap();
        let trace = Walker::walk(&mem, &pt, far);
        assert!(trace.is_fault());
        assert_eq!(trace.steps.len(), 1);
        assert_eq!(trace.steps[0].level, PtLevel::Pl4);
    }

    #[test]
    fn large_page_walk_is_shorter() {
        let mut mem = SimPhysMem::new();
        let mut alloc = BumpNodeAllocator::new(PhysFrameNum::new(0x100));
        let mut pt = PageTable::new(PagingMode::FourLevel, &mut mem, &mut alloc);
        let va = VirtAddr::new(0x4000_0000).unwrap();
        pt.map(
            &mut mem,
            &mut alloc,
            va,
            PhysFrameNum::new(512),
            PageSize::Size2M,
            PteFlags::user_data(),
        )
        .unwrap();
        let trace = Walker::walk(&mem, &pt, va.checked_add(0x1234).unwrap());
        assert_eq!(trace.steps.len(), 3); // PL4, PL3, PL2 leaf
        let t = trace.translation().unwrap();
        assert_eq!(t.size, PageSize::Size2M);
    }

    #[test]
    fn entry_addresses_are_within_their_nodes() {
        let (mem, pt, va) = setup_mapped();
        let trace = Walker::walk(&mem, &pt, va);
        for step in &trace.steps {
            assert!(
                mem.is_table_frame(step.entry_addr.frame_number()),
                "step at {} reads inside a table frame",
                step.level
            );
            assert_eq!(step.entry_addr.frame_offset() % 8, 0);
        }
    }

    #[test]
    fn walk_from_resumes_mid_tree() {
        let (mem, pt, va) = setup_mapped();
        let full = Walker::walk(&mem, &pt, va);
        // Resume from the PL1 table frame, as after a PL2-entry PWC hit.
        let pl2_step = full.step_at(PtLevel::Pl2).unwrap();
        let resumed = Walker::walk_from(&mem, va, pl2_step.entry.frame(), PtLevel::Pl1);
        assert_eq!(resumed.steps.len(), 1);
        assert_eq!(resumed.steps[0], *full.step_at(PtLevel::Pl1).unwrap());
        assert_eq!(resumed.translation(), full.translation());
    }

    #[test]
    fn five_level_walk_has_five_steps() {
        let mut mem = SimPhysMem::new();
        let mut alloc = BumpNodeAllocator::new(PhysFrameNum::new(0x100));
        let mut pt = PageTable::new(PagingMode::FiveLevel, &mut mem, &mut alloc);
        let va = VirtAddr::new(1 << 52).unwrap();
        pt.map(
            &mut mem,
            &mut alloc,
            va,
            PhysFrameNum::new(3),
            PageSize::Size4K,
            PteFlags::user_data(),
        )
        .unwrap();
        let trace = Walker::walk(&mem, &pt, va);
        assert_eq!(trace.steps.len(), 5);
        assert_eq!(trace.steps[0].level, PtLevel::Pl5);
    }
}
