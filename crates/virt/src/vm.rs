//! A virtual machine: guest process behind a nested page table.

use crate::{Ept, EptConfig, NestedOutcome, NestedStep, NestedWalkTrace, NestedWalker};
use asap_os::{OsError, Process, ProcessConfig, TouchOutcome, VmaDescriptor};
use asap_types::{PhysAddr, PtLevel, VirtAddr};

/// One guest [`Process`] plus the hypervisor's [`Ept`].
///
/// The guest's big-memory process is the unit the paper virtualizes; from
/// the host's perspective the whole VM is a single process with one VMA
/// (§3.6), which is why a single set of host range registers suffices.
#[derive(Debug)]
pub struct VirtualMachine {
    guest: Process,
    ept: Ept,
}

impl VirtualMachine {
    /// Boots a VM: builds the guest process and an empty nested table.
    ///
    /// # Panics
    ///
    /// Panics unless the guest config uses the compact physical map — the
    /// sparse host map would overflow the 4-level nested table's span.
    #[must_use]
    pub fn new(guest_config: ProcessConfig, ept_config: EptConfig) -> Self {
        assert!(
            guest_config.compact_phys,
            "guest processes must use ProcessConfig::with_compact_phys()"
        );
        Self {
            guest: Process::new(guest_config),
            ept: Ept::new(ept_config),
        }
    }

    /// Demand-faults the guest page containing `va`, then eagerly backs the
    /// touched guest-PT node pages and the data page in the EPT (the
    /// hypervisor fault-in that would otherwise interrupt the first nested
    /// walk).
    ///
    /// # Errors
    ///
    /// Propagates guest [`OsError`]s (e.g. segfaults outside every VMA),
    /// and an EPT fault-in failure as [`OsError::PageTable`].
    pub fn touch(&mut self, va: VirtAddr) -> Result<TouchOutcome, OsError> {
        let outcome = self.guest.touch(va)?;
        if outcome == TouchOutcome::AlreadyMapped {
            return Ok(outcome);
        }
        let trace = self.guest.walk_fixed(va);
        for step in trace.steps() {
            self.ept.ensure_mapped(step.entry_addr)?;
        }
        if let Some(t) = trace.translation() {
            self.ept.ensure_mapped(t.phys_addr(va))?;
        }
        Ok(outcome)
    }

    /// Performs the full 2D walk for `va` (Fig. 7).
    #[must_use]
    pub fn nested_walk(&mut self, va: VirtAddr) -> NestedWalkTrace {
        NestedWalker::walk(self.guest.flat_mirror(), &mut self.ept, va)
    }

    /// [`VirtualMachine::nested_walk`] into a reused step buffer.
    pub fn nested_walk_into(&mut self, va: VirtAddr, steps: &mut Vec<NestedStep>) -> NestedOutcome {
        NestedWalker::walk_into(self.guest.flat_mirror(), &mut self.ept, va, steps)
    }

    /// The guest's ASAP VMA descriptors. Thanks to the §3.6 vmcall
    /// contiguity guarantee (modelled by identity backing), their region
    /// bases are valid host-physical prefetch bases.
    #[must_use]
    pub fn guest_descriptors(&self) -> &[VmaDescriptor] {
        self.guest.vma_descriptors()
    }

    /// Host-dimension reserved-region base for `level` (the host range
    /// register), if host ASAP covers that level.
    #[must_use]
    pub fn host_region_base(&self, level: PtLevel) -> Option<PhysAddr> {
        self.ept.host_region_base(level)
    }

    /// The guest process.
    #[must_use]
    pub fn guest(&self) -> &Process {
        &self.guest
    }

    /// The guest process, mutably (dataset loading, heap growth).
    pub fn guest_mut(&mut self) -> &mut Process {
        &mut self.guest
    }

    /// The nested table.
    #[must_use]
    pub fn ept(&self) -> &Ept {
        &self.ept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_os::{AsapOsConfig, ProcessConfig, VmaKind};
    use asap_types::{Asid, ByteSize};

    fn vm(guest_asap: AsapOsConfig, ept: EptConfig) -> VirtualMachine {
        VirtualMachine::new(
            ProcessConfig::new(Asid(1))
                .with_heap(ByteSize::mib(32))
                .with_asap(guest_asap)
                .with_compact_phys()
                .with_seed(5),
            ept,
        )
    }

    #[test]
    fn touch_then_nested_walk_succeeds() {
        let mut vm = vm(AsapOsConfig::disabled(), EptConfig::default());
        let va = vm.guest().vma_of_kind(VmaKind::Heap).unwrap().start();
        vm.touch(va).unwrap();
        let trace = vm.nested_walk(va);
        assert!(trace.is_mapped());
        assert_eq!(trace.steps.len(), 24);
    }

    #[test]
    #[should_panic(expected = "compact_phys")]
    fn sparse_guest_rejected() {
        let _ = VirtualMachine::new(
            ProcessConfig::new(Asid(1)).with_heap(ByteSize::mib(1)),
            EptConfig::default(),
        );
    }

    #[test]
    fn host_bases_follow_ept_config() {
        let vm1 = vm(AsapOsConfig::disabled(), EptConfig::default());
        assert!(vm1.host_region_base(PtLevel::Pl1).is_none());
        let vm2 = vm(
            AsapOsConfig::disabled(),
            EptConfig::default().host_pl1_and_pl2(),
        );
        assert!(vm2.host_region_base(PtLevel::Pl1).is_some());
        assert!(vm2.host_region_base(PtLevel::Pl2).is_some());
    }

    #[test]
    fn guest_descriptors_surface_through_vm() {
        let mut vm = vm(AsapOsConfig::pl1_and_pl2(), EptConfig::default());
        let va = vm.guest().vma_of_kind(VmaKind::Heap).unwrap().start();
        vm.touch(va).unwrap();
        let descs = vm.guest_descriptors();
        assert!(descs.iter().any(|d| d.covers(va) && d.pl1_base.is_some()));
    }
}
