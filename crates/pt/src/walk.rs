//! Walk records: the translation a walk resolves and every node it reads.
//!
//! A page walk records the physical address of **every node it touches**,
//! leaf-ward from the root. That trace is the input to the walk-timing
//! model in `asap-core`: each step becomes a (possibly PWC-elided, possibly
//! prefetch-overlapped) memory-hierarchy access, exactly as in the paper's
//! Fig. 4.

use crate::{Pte, PteFlags};
use asap_types::{PageSize, PhysAddr, PhysFrameNum, PtLevel, VirtAddr};

/// The result of a successful translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// Base frame of the mapped page (aligned to `size`).
    pub frame: PhysFrameNum,
    /// The mapping's page size.
    pub size: PageSize,
    /// Flags of the leaf entry.
    pub flags: PteFlags,
}

impl Translation {
    /// The full physical address for `va` under this translation.
    #[must_use]
    pub fn phys_addr(&self, va: VirtAddr) -> PhysAddr {
        let page_mask = self.size.bytes() - 1;
        PhysAddr::new(self.frame.base_addr().raw() | (va.raw() & page_mask))
    }
}

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
    /// paging mode's range). [`crate::WalkSource`] implementations start
    /// from it, [`FixedWalk::push`] each node they read and set the final
    /// [`FixedWalk::set_outcome`].
    #[must_use]
    pub fn empty_fault(va: VirtAddr, level: PtLevel) -> Self {
        Self {
            va,
            steps: [Self::FILLER; MAX_WALK_DEPTH],
            len: 0,
            outcome: WalkOutcome::Fault { level },
        }
    }

    /// Appends the next node access.
    ///
    /// # Panics
    ///
    /// Panics if the walk already holds [`MAX_WALK_DEPTH`] steps.
    pub fn push(&mut self, step: WalkStep) {
        self.steps[self.len as usize] = step;
        self.len += 1;
    }

    /// Records how the walk ended.
    pub fn set_outcome(&mut self, outcome: WalkOutcome) {
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
