//! The two-dimensional page walk (paper Fig. 7).

use crate::Ept;
use asap_pt::{Pte, Translation, WalkSource};
use asap_types::{PhysAddr, PtLevel, VirtAddr};

/// Which dimension an access belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dim {
    /// A guest page-table node read (accesses 5, 10, 15, 20 in Fig. 7).
    Guest,
    /// A host page-table node read within a 1D walk.
    Host,
}

/// One access of the 2D walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NestedStep {
    /// Guest or host dimension.
    pub dim: Dim,
    /// The page-table level read *within its dimension*.
    pub level: PtLevel,
    /// For host steps: the guest level whose node translation this 1D walk
    /// serves; `None` for the final data-address walk (accesses 21–24).
    /// For guest steps: the step's own level.
    pub for_guest_level: Option<PtLevel>,
    /// Host-physical address of the 8-byte entry read — what the memory
    /// hierarchy sees.
    pub host_entry_addr: PhysAddr,
    /// The guest-physical address this access helps translate: for host
    /// steps, the gPA their 1D walk is resolving (the input to host-ASAP
    /// base-plus-offset arithmetic and to the host PWC tags); for guest
    /// steps, the gPA of the entry being read.
    pub translating_gpa: PhysAddr,
    /// The entry value observed.
    pub entry: Pte,
}

/// Outcome of a nested walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NestedOutcome {
    /// Full translation: the guest mapping and the final host-physical
    /// address of the data.
    Mapped {
        /// The guest-dimension translation (gVA page → guest frame).
        guest: Translation,
        /// Host-physical address of the data.
        data_hpa: PhysAddr,
    },
    /// A guest-dimension fault (guest page not mapped) at the given level.
    GuestFault {
        /// Guest level holding the not-present entry.
        level: PtLevel,
    },
    /// A host-dimension fault (gPA not backed) while serving the given
    /// guest level (`None` = final data walk).
    HostFault {
        /// The guest level whose node translation faulted.
        for_guest_level: Option<PtLevel>,
    },
}

/// The full record of one 2D walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NestedWalkTrace {
    /// The guest virtual address.
    pub va: VirtAddr,
    /// All accesses in Fig. 7 order.
    pub steps: Vec<NestedStep>,
    /// How the walk ended.
    pub outcome: NestedOutcome,
}

impl NestedWalkTrace {
    /// Whether the walk produced a full translation.
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        matches!(self.outcome, NestedOutcome::Mapped { .. })
    }

    /// The final data host-physical address, if mapped.
    #[must_use]
    pub fn data_hpa(&self) -> Option<PhysAddr> {
        match self.outcome {
            NestedOutcome::Mapped { data_hpa, .. } => Some(data_hpa),
            _ => None,
        }
    }

    /// The guest translation, if mapped.
    #[must_use]
    pub fn guest_translation(&self) -> Option<Translation> {
        match self.outcome {
            NestedOutcome::Mapped { guest, .. } => Some(guest),
            _ => None,
        }
    }

    /// Steps in the guest dimension (4 on a successful 4-level walk).
    pub fn guest_steps(&self) -> impl Iterator<Item = &NestedStep> {
        self.steps.iter().filter(|s| s.dim == Dim::Guest)
    }

    /// Steps in the host dimension.
    pub fn host_steps(&self) -> impl Iterator<Item = &NestedStep> {
        self.steps.iter().filter(|s| s.dim == Dim::Host)
    }
}

/// Executes 2D walks, lazily backing guest-physical pages in the EPT (the
/// hypervisor's fault-in path).
#[derive(Debug, Clone, Copy, Default)]
pub struct NestedWalker;

impl NestedWalker {
    /// Performs the 2D walk of Fig. 7 for `va`.
    ///
    /// `guest` supplies the guest-dimension walk (the guest process's page
    /// table, or in tests the radix oracle); `ept` supplies and lazily
    /// extends the host dimension.
    #[must_use]
    pub fn walk<S: WalkSource + ?Sized>(guest: &S, ept: &mut Ept, va: VirtAddr) -> NestedWalkTrace {
        let mut steps = Vec::with_capacity(24);
        let outcome = Self::walk_into(guest, ept, va, &mut steps);
        NestedWalkTrace { va, steps, outcome }
    }

    /// [`NestedWalker::walk`] into a caller-owned step buffer, cleared
    /// first: the allocation-free form the nested MMU reuses across walks.
    pub fn walk_into<S: WalkSource + ?Sized>(
        guest: &S,
        ept: &mut Ept,
        va: VirtAddr,
        steps: &mut Vec<NestedStep>,
    ) -> NestedOutcome {
        steps.clear();
        if !guest.mode().contains(va) {
            return NestedOutcome::GuestFault {
                level: guest.mode().root_level(),
            };
        }
        let gwalk = guest.walk_fixed(va);
        for gstep in gwalk.steps() {
            let g_level = gstep.level;
            // Guest-physical address of the gPT entry to read.
            let entry_gpa = gstep.entry_addr;
            // 1D host walk translating that gPA (accesses 1-4, 6-9, ...).
            let Some(entry_hpa) = Self::host_1d(ept, entry_gpa, Some(g_level), steps) else {
                return NestedOutcome::HostFault {
                    for_guest_level: Some(g_level),
                };
            };
            // The gPT node read itself (access 5, 10, 15, 20).
            let entry = gstep.entry;
            steps.push(NestedStep {
                dim: Dim::Guest,
                level: g_level,
                for_guest_level: Some(g_level),
                host_entry_addr: entry_hpa,
                translating_gpa: entry_gpa,
                entry,
            });
            if !entry.is_present() {
                return NestedOutcome::GuestFault { level: g_level };
            }
            if g_level == PtLevel::Pl1 || entry.is_large_leaf() {
                #[expect(clippy::expect_used, reason = "only PL1-PL3 leaves get here")]
                let size =
                    asap_types::PageSize::from_leaf_level(g_level).expect("leaf at PL1/PL2/PL3");
                let guest_t = Translation {
                    frame: entry.frame(),
                    size,
                    flags: entry.flags(),
                };
                // Final host walk for the data address (accesses 21-24).
                let data_gpa = guest_t.phys_addr(va);
                let Some(data_hpa) = Self::host_1d(ept, data_gpa, None, steps) else {
                    return NestedOutcome::HostFault {
                        for_guest_level: None,
                    };
                };
                return NestedOutcome::Mapped {
                    guest: guest_t,
                    data_hpa,
                };
            }
        }
        unreachable!("guest walk terminates at PL1 or a leaf");
    }

    /// One 1D host walk: appends its steps and returns the host-physical
    /// translation of `gpa`. Backs the page lazily (hypervisor fault-in);
    /// `None` — a host fault — when the walk or the fault-in fails.
    fn host_1d(
        ept: &mut Ept,
        gpa: PhysAddr,
        for_guest_level: Option<PtLevel>,
        steps: &mut Vec<NestedStep>,
    ) -> Option<PhysAddr> {
        ept.ensure_mapped(gpa).ok()?;
        let trace = ept.walk_fixed(gpa);
        for s in trace.steps() {
            steps.push(NestedStep {
                dim: Dim::Host,
                level: s.level,
                for_guest_level,
                host_entry_addr: s.entry_addr,
                translating_gpa: gpa,
                entry: s.entry,
            });
        }
        let t = trace.translation()?;
        Some(t.phys_addr(Ept::gpa_as_va(gpa)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EptConfig;
    use asap_os::{AsapOsConfig, Process, ProcessConfig, VmaKind};
    use asap_types::{Asid, ByteSize};

    fn setup(guest_asap: AsapOsConfig, ept_cfg: EptConfig) -> (Process, Ept, VirtAddr) {
        let mut guest = Process::new(
            ProcessConfig::new(Asid(1))
                .with_heap(ByteSize::mib(32))
                .with_asap(guest_asap)
                .with_compact_phys()
                .with_seed(11),
        );
        let va = guest.vma_of_kind(VmaKind::Heap).unwrap().start();
        guest.touch(va).unwrap();
        (guest, Ept::new(ept_cfg), va)
    }

    #[test]
    fn full_2d_walk_is_24_accesses() {
        let (guest, mut ept, va) = setup(AsapOsConfig::disabled(), EptConfig::default());
        let trace = NestedWalker::walk(guest.flat_mirror(), &mut ept, va);
        assert!(trace.is_mapped());
        assert_eq!(trace.steps.len(), 24);
        assert_eq!(trace.guest_steps().count(), 4);
        assert_eq!(trace.host_steps().count(), 20);
        // Fig. 7 ordering: 4 host steps, then a guest step, repeated; the
        // final 4 host steps translate the data address.
        for (i, chunk) in trace.steps.chunks(5).enumerate().take(4) {
            assert!(chunk[..4].iter().all(|s| s.dim == Dim::Host), "group {i}");
            assert_eq!(chunk[4].dim, Dim::Guest);
            let expect_level = PtLevel::from_depth(4 - i as u32).unwrap();
            assert_eq!(chunk[4].level, expect_level);
        }
        let tail = &trace.steps[20..];
        assert!(tail
            .iter()
            .all(|s| s.dim == Dim::Host && s.for_guest_level.is_none()));
    }

    #[test]
    fn host_2m_pages_shorten_walk_to_16() {
        let (guest, mut ept, va) = setup(
            AsapOsConfig::disabled(),
            EptConfig::default().host_2m_pages(),
        );
        let trace = NestedWalker::walk(guest.flat_mirror(), &mut ept, va);
        assert!(trace.is_mapped());
        // 5 host walks of 3 steps + 4 guest reads = 19 accesses
        // (the paper: 2 MiB host pages eliminate "up to five long-latency
        // accesses", one per 1D walk).
        assert_eq!(trace.steps.len(), 19);
    }

    #[test]
    fn data_hpa_is_identity_backed() {
        let (guest, mut ept, va) = setup(AsapOsConfig::disabled(), EptConfig::default());
        let trace = NestedWalker::walk(guest.flat_mirror(), &mut ept, va);
        let data_gpa = guest.translate(va).unwrap().phys_addr(va);
        assert_eq!(trace.data_hpa(), Some(data_gpa));
    }

    #[test]
    fn guest_fault_stops_after_partial_walk() {
        let (guest, mut ept, va) = setup(AsapOsConfig::disabled(), EptConfig::default());
        // An address sharing the PL4/PL3/PL2 chain but with no PL1 mapping.
        let cousin = VirtAddr::new(va.raw() ^ 0x1000).unwrap();
        let trace = NestedWalker::walk(guest.flat_mirror(), &mut ept, cousin);
        assert_eq!(
            trace.outcome,
            NestedOutcome::GuestFault {
                level: PtLevel::Pl1
            }
        );
        // 4 host walks + 4 guest reads happened; no final data walk.
        assert_eq!(trace.steps.len(), 20);
    }

    #[test]
    fn guest_asap_regions_are_host_contiguous() {
        // §3.6: the vmcall protocol guarantees guest PT regions are
        // contiguous in host physical memory; with identity backing, the
        // gPT PL1 node lines seen by the hierarchy are base+index exactly.
        let (mut guest, mut ept, _) = setup(AsapOsConfig::pl1_and_pl2(), EptConfig::default());
        let heap = *guest.vma_of_kind(VmaKind::Heap).unwrap();
        for region in [3u64, 0, 2] {
            let va = VirtAddr::new(heap.start().raw() + region * (2 << 20)).unwrap();
            guest.touch(va).unwrap();
        }
        let desc = guest
            .vma_descriptors()
            .iter()
            .find(|d| d.covers(heap.start()))
            .copied()
            .unwrap();
        let pl1_base = desc.pl1_base.unwrap();
        for region in [0u64, 2, 3] {
            let va = VirtAddr::new(heap.start().raw() + region * (2 << 20)).unwrap();
            let trace = NestedWalker::walk(guest.flat_mirror(), &mut ept, va);
            let gpt_pl1 = trace
                .guest_steps()
                .find(|s| s.level == PtLevel::Pl1)
                .unwrap();
            // The host-physical frame of the gPT PL1 node = descriptor base
            // + region (identity backing models the vmcall guarantee).
            assert_eq!(
                gpt_pl1.host_entry_addr.frame_number().raw(),
                pl1_base.frame_number().raw() + region
            );
        }
    }
}
