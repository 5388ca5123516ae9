//! The virtualized MMU: 2D walks with per-dimension ASAP (Fig. 7).

use crate::engine::{EngineCore, EngineOutcome, EngineStats, TranslationEngine, TranslationPath};
use crate::{NestedAsapConfig, NestedMmuConfig, RangeRegisterFile, ServedByMatrix, ServedSource};
use asap_os::VmaDescriptor;
use asap_tlb::{PageWalkCaches, TlbEntry, TlbLevel};
use asap_types::{Asid, PhysAddr, PtLevel, VirtAddr};
use asap_virt::{Dim, NestedStep, NestedWalkTrace, VirtualMachine};

/// ASID used to tag host-dimension structures (one VM per core in the
/// evaluated scenarios).
const HOST_ASID: Asid = Asid(u16::MAX);

/// How a virtualized translation was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NestedPath {
    /// L1 TLB hit (gVA → hPA cached).
    TlbL1,
    /// L2 TLB hit.
    TlbL2,
    /// Full 2D walk.
    Walk,
}

/// Details of one 2D walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NestedWalkReport {
    /// 2D-walk latency in cycles.
    pub latency: u64,
    /// Hierarchy accesses actually performed (≤ 24; PWC hits elide some).
    pub accesses: u32,
    /// Prefetches issued (guest + host dimensions).
    pub prefetches_issued: u8,
    /// Prefetches dropped for lack of an MSHR.
    pub prefetches_dropped: u8,
    /// Whether the walk faulted in either dimension.
    pub fault: bool,
}

/// Outcome of one virtualized translation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NestedAccessOutcome {
    /// How it was served.
    pub path: NestedPath,
    /// Translation latency in cycles.
    pub latency: u64,
    /// Final host-physical address (`None` on fault).
    pub hpa: Option<PhysAddr>,
    /// Walk details when `path == Walk`.
    pub walk: Option<NestedWalkReport>,
}

/// The virtualized translation machine: nested TLBs, one PWC per dimension,
/// and ASAP range registers for both dimensions. The host dimension needs
/// only a single descriptor because the whole guest is one host VMA (§3.6).
/// The TLB fast path, hierarchy clock and walk accounting live in the
/// shared `EngineCore`.
#[derive(Debug)]
pub struct NestedMmu {
    core: EngineCore,
    asap: NestedAsapConfig,
    gpwc: PageWalkCaches,
    hpwc: PageWalkCaches,
    guest_regs: RangeRegisterFile,
    host_desc: Option<VmaDescriptor>,
    guest_served: ServedByMatrix,
    host_served: ServedByMatrix,
    /// The 2D walk's step buffer, reused so a walk does not allocate.
    walk_steps: Vec<NestedStep>,
}

impl NestedMmu {
    /// Builds the nested MMU from `config`.
    #[must_use]
    pub fn new(config: NestedMmuConfig) -> Self {
        let NestedMmuConfig {
            l1_tlb,
            l2_tlb,
            guest_pwc,
            host_pwc,
            hierarchy,
            asap,
            range_registers,
            seed: _,
        } = config;
        Self {
            core: EngineCore::new(l1_tlb, l2_tlb, hierarchy),
            gpwc: PageWalkCaches::new(guest_pwc),
            hpwc: PageWalkCaches::new(host_pwc),
            guest_regs: RangeRegisterFile::new(range_registers),
            host_desc: None,
            asap,
            guest_served: ServedByMatrix::new(),
            host_served: ServedByMatrix::new(),
            walk_steps: Vec::new(),
        }
    }

    /// Loads both dimensions' range registers from the VM's OS/hypervisor
    /// state.
    pub fn load_context(&mut self, vm: &VirtualMachine) {
        self.guest_regs.load_context(vm.guest_descriptors());
        let pl1 = vm.host_region_base(PtLevel::Pl1);
        let pl2 = vm.host_region_base(PtLevel::Pl2);
        self.host_desc = if pl1.is_some() || pl2.is_some() {
            Some(VmaDescriptor {
                start: VirtAddr::new_unchecked(0),
                // The single host VMA spans the whole guest-physical space.
                end: VirtAddr::new_unchecked(1 << 47),
                pl1_base: pl1,
                pl2_base: pl2,
            })
        } else {
            None
        };
    }

    /// Translates guest-virtual `va`, simulating the 2D walk of Fig. 7 with
    /// the configured per-dimension prefetching.
    pub fn translate(&mut self, vm: &mut VirtualMachine, va: VirtAddr) -> NestedAccessOutcome {
        let asid = vm.guest().asid();
        let vpn = va.page_number();
        if let Some((level, latency, entry)) = self.core.tlb_lookup(asid, vpn) {
            let path = match level {
                TlbLevel::L1 => NestedPath::TlbL1,
                TlbLevel::L2 => NestedPath::TlbL2,
            };
            return NestedAccessOutcome {
                path,
                latency,
                hpa: Some(entry.phys_addr(va)),
                walk: None,
            };
        }
        let mut steps = std::mem::take(&mut self.walk_steps);
        let outcome = vm.nested_walk_into(va, &mut steps);
        let trace = NestedWalkTrace { va, steps, outcome };
        let t0 = self.core.now();
        let mut issued = 0u8;
        let mut dropped = 0u8;

        // Guest-dimension prefetches launch at 2D-walk start: the gPT
        // node addresses are computable immediately, and the vmcall
        // contiguity guarantee (§3.6) makes the descriptor bases valid
        // host-physical targets.
        if !self.asap.guest.is_empty() {
            if let Some(desc) = self.guest_regs.lookup(va).copied() {
                self.core.issue_prefetches(
                    &desc,
                    &self.asap.guest,
                    va,
                    t0,
                    &mut issued,
                    &mut dropped,
                );
            }
        }

        // Guest PWC: a hit at depth d elides every guest node above the
        // resume level *and* the host 1D walks serving them.
        let g_hit = self.gpwc.lookup(asid, va);
        let g_start = g_hit.map_or(PtLevel::Pl4, |h| h.next_level);
        let mut t = t0 + self.gpwc.latency();
        let mut accesses = 0u32;

        // Process the trace as (host 1D walk, guest node read) segments in
        // Fig. 7 order, then the final data walk.
        let mut i = 0;
        while i < trace.steps.len() {
            let seg_guest_level = trace.steps[i].for_guest_level;
            // Collect this segment (all steps sharing for_guest_level).
            let seg_start = i;
            while i < trace.steps.len() && trace.steps[i].for_guest_level == seg_guest_level {
                i += 1;
            }
            let segment = &trace.steps[seg_start..i];
            // Skip segments whose guest level the gPWC covered.
            if let Some(gl) = seg_guest_level {
                if gl.depth() > g_start.depth() {
                    self.guest_served.record(gl, ServedSource::Pwc);
                    continue;
                }
            }
            let gpa = segment[0].translating_gpa;
            // Host-dimension prefetches for this 1D walk, issued as it
            // starts ("using the guest physical address", §3.6).
            let gpa_va = VirtAddr::new_unchecked(gpa.raw());
            if !self.asap.host.is_empty() {
                if let Some(host_desc) = self.host_desc {
                    self.core.issue_prefetches(
                        &host_desc,
                        &self.asap.host,
                        gpa_va,
                        t,
                        &mut issued,
                        &mut dropped,
                    );
                }
            }
            // Host PWC probe for this 1D walk.
            let h_hit = self.hpwc.lookup(HOST_ASID, gpa_va);
            let h_start = h_hit.map_or(PtLevel::Pl4, |h| h.next_level);
            t += self.hpwc.latency();
            for step in segment {
                match step.dim {
                    Dim::Host => {
                        if step.level.depth() > h_start.depth() {
                            self.host_served.record(step.level, ServedSource::Pwc);
                            continue;
                        }
                        let src = self
                            .core
                            .walk_access(step.host_entry_addr.cache_line(), &mut t);
                        accesses += 1;
                        self.host_served.record(step.level, src);
                        // Fill the host PWC with intermediate entries.
                        if step.level != PtLevel::Pl1
                            && step.entry.is_present()
                            && !step.entry.is_large_leaf()
                        {
                            self.hpwc
                                .fill(HOST_ASID, gpa_va, step.level, step.entry.frame());
                        }
                    }
                    Dim::Guest => {
                        let src = self
                            .core
                            .walk_access(step.host_entry_addr.cache_line(), &mut t);
                        accesses += 1;
                        self.guest_served.record(step.level, src);
                        // Fill the guest PWC with intermediate gPT entries.
                        if step.level != PtLevel::Pl1
                            && step.entry.is_present()
                            && !step.entry.is_large_leaf()
                        {
                            self.gpwc.fill(asid, va, step.level, step.entry.frame());
                        }
                    }
                }
            }
        }
        let latency = self.core.finish_walk(t0, t);

        let fault = !trace.is_mapped();
        let hpa = trace.data_hpa();
        if let (Some(guest_t), Some(data_hpa)) = (trace.guest_translation(), hpa) {
            // Install gVA → hPA: the entry frame is the host frame of the
            // page base.
            let base = data_hpa.raw() & !(guest_t.size.bytes() - 1);
            let entry = TlbEntry::new(PhysAddr::new(base).frame_number(), guest_t.size);
            self.core.tlbs.fill(asid, vpn, entry);
        } else {
            self.core.walk_faults += 1;
        }
        self.walk_steps = trace.steps;
        NestedAccessOutcome {
            path: NestedPath::Walk,
            latency,
            hpa,
            walk: Some(NestedWalkReport {
                latency,
                accesses,
                prefetches_issued: issued,
                prefetches_dropped: dropped,
                fault,
            }),
        }
    }

    /// A demand data access in the guest (advances the clock).
    pub fn data_access(&mut self, hpa: PhysAddr) -> asap_cache::AccessResult {
        self.core.data_access(hpa)
    }

    /// Cache pressure from the SMT co-runner (does not consume cycles).
    pub fn corunner_access(&mut self, line: asap_types::CacheLineAddr) {
        self.core.corunner_access(line);
    }

    /// Walk-latency statistics (Fig. 10/12 metric).
    #[must_use]
    pub fn walk_stats(&self) -> &crate::WalkLatencyStats {
        &self.core.walk_stats
    }

    /// Guest-dimension served-by matrix.
    #[must_use]
    pub fn guest_served_matrix(&self) -> &ServedByMatrix {
        &self.guest_served
    }

    /// Host-dimension served-by matrix.
    #[must_use]
    pub fn host_served_matrix(&self) -> &ServedByMatrix {
        &self.host_served
    }

    /// L2 TLB statistics.
    #[must_use]
    pub fn l2_tlb_stats(&self) -> &asap_tlb::TlbStats {
        self.core.tlbs.l2_stats()
    }

    /// Walks that faulted.
    #[must_use]
    pub fn walk_faults(&self) -> u64 {
        self.core.walk_faults
    }

    /// Current cycle count.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.core.now()
    }

    /// Advances the clock.
    pub fn advance(&mut self, cycles: u64) {
        self.core.advance(cycles);
    }

    /// Resets statistics, keeping state warm.
    pub fn reset_stats(&mut self) {
        self.core.reset_stats();
        self.guest_served = ServedByMatrix::new();
        self.host_served = ServedByMatrix::new();
        self.gpwc.reset_stats();
        self.hpwc.reset_stats();
        self.guest_regs.reset_stats();
    }
}

impl TranslationEngine for NestedMmu {
    type Machine = VirtualMachine;

    fn load_context(&mut self, machine: &VirtualMachine) {
        NestedMmu::load_context(self, machine);
    }

    fn translate_access(&mut self, machine: &mut VirtualMachine, va: VirtAddr) -> EngineOutcome {
        let out = self.translate(machine, va);
        let path = match out.path {
            NestedPath::TlbL1 => TranslationPath::TlbL1,
            NestedPath::TlbL2 => TranslationPath::TlbL2,
            NestedPath::Walk => TranslationPath::Walk,
        };
        EngineOutcome {
            path,
            latency: out.latency,
            phys: out.hpa,
            prefetches_issued: out.walk.as_ref().map_or(0, |w| w.prefetches_issued),
            prefetches_dropped: out.walk.as_ref().map_or(0, |w| w.prefetches_dropped),
        }
    }

    fn data_access(&mut self, pa: PhysAddr) -> asap_cache::AccessResult {
        NestedMmu::data_access(self, pa)
    }

    fn corunner_access(&mut self, line: asap_types::CacheLineAddr) {
        NestedMmu::corunner_access(self, line);
    }

    fn now(&self) -> u64 {
        NestedMmu::now(self)
    }

    fn advance(&mut self, cycles: u64) {
        NestedMmu::advance(self, cycles);
    }

    fn reset_stats(&mut self) {
        NestedMmu::reset_stats(self);
    }

    fn stats_snapshot(&self) -> EngineStats {
        EngineStats {
            walks: self.core.walk_stats.clone(),
            served: self.guest_served,
            host_served: Some(self.host_served),
            l2_tlb: *self.core.tlbs.l2_stats(),
            walk_faults: self.core.walk_faults,
        }
    }

    /// The 2D walk reads only the guest and host paths of the address;
    /// `VirtualMachine::touch` backs both in the EPT, so the walker's lazy
    /// host fill never allocates for a demand-paged address.
    fn translation_is_path_local(&self) -> bool {
        true
    }

    fn set_tracer(&mut self, sink: asap_telemetry::TraceSink) {
        self.core.set_tracer(sink);
    }

    fn take_tracer(&mut self) -> Option<asap_telemetry::TraceSink> {
        self.core.take_tracer()
    }

    fn collect_metrics(&self, prefix: &str, out: &mut asap_telemetry::MetricSet) {
        use asap_telemetry::Collect;
        self.stats_snapshot().collect(prefix, out);
        self.core.collect_fabric_metrics(prefix, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_os::{AsapOsConfig, ProcessConfig, VmaKind};
    use asap_types::{Asid, ByteSize};
    use asap_virt::EptConfig;

    fn vm(guest_asap: AsapOsConfig, ept: EptConfig) -> VirtualMachine {
        let mut vm = VirtualMachine::new(
            ProcessConfig::new(Asid(1))
                .with_heap(ByteSize::mib(128))
                .with_asap(guest_asap)
                .with_compact_phys()
                .with_pt_scatter_run(1.0)
                .with_seed(21),
            ept,
        );
        let va = vm.guest().vma_of_kind(VmaKind::Heap).unwrap().start();
        vm.touch(va).unwrap();
        vm
    }

    fn heap_va(vm: &VirtualMachine) -> VirtAddr {
        vm.guest().vma_of_kind(VmaKind::Heap).unwrap().start()
    }

    #[test]
    fn cold_2d_walk_then_tlb_hit() {
        let mut vm = vm(AsapOsConfig::disabled(), EptConfig::default());
        let va = heap_va(&vm);
        let mut mmu = NestedMmu::new(NestedMmuConfig::default());
        mmu.load_context(&vm);
        let first = mmu.translate(&mut vm, va);
        assert_eq!(first.path, NestedPath::Walk);
        let walk = first.walk.unwrap();
        // Up to 24 accesses (Fig. 7); the host PWC warms up *within* the
        // walk (the gPT node pages share upper host-PT levels), eliding a
        // few of the later host steps even on a cold machine.
        assert!(
            (15..=24).contains(&walk.accesses),
            "accesses = {}",
            walk.accesses
        );
        // Cold: most accesses come from memory, serialized (later steps may
        // hit lines fetched by earlier steps of the same walk — e.g. shared
        // upper host-PT nodes).
        assert!(walk.latency >= 10 * 191, "latency = {}", walk.latency);
        let second = mmu.translate(&mut vm, va);
        assert_eq!(second.path, NestedPath::TlbL1);
        assert_eq!(second.hpa, first.hpa);
    }

    #[test]
    fn virtualized_walks_cost_more_than_native() {
        // The headline Fig. 3 shape: nested baseline ≈ several × native.
        let mut vm = vm(AsapOsConfig::disabled(), EptConfig::default());
        let va = heap_va(&vm);
        let mut nested = NestedMmu::new(NestedMmuConfig::default());
        nested.load_context(&vm);
        let nested_out = nested.translate(&mut vm, va);
        let mut native = crate::Mmu::new(crate::MmuConfig::default());
        let native_out = native.translate(
            vm.guest().mem(),
            vm.guest().page_table(),
            vm.guest().asid(),
            va,
            None,
        );
        assert!(nested_out.latency > 3 * native_out.latency);
    }

    #[test]
    fn guest_pwc_elides_host_walks() {
        let mut vm = vm(AsapOsConfig::disabled(), EptConfig::default());
        let a = heap_va(&vm);
        let b = VirtAddr::new(a.raw() + 0x1000).unwrap();
        vm.touch(b).unwrap();
        let mut mmu = NestedMmu::new(NestedMmuConfig::default());
        mmu.load_context(&vm);
        let _ = mmu.translate(&mut vm, a);
        let out = mmu.translate(&mut vm, b);
        let walk = out.walk.unwrap();
        // gPWC hit at gPL2: only the gPL1 segment (host walk + node read)
        // and the final data walk remain = at most 4 + 1 + 4 accesses, and
        // the host PWC trims the host walks further.
        assert!(walk.accesses <= 9, "accesses = {}", walk.accesses);
    }

    #[test]
    fn full_asap_beats_nested_baseline_cold() {
        let mk = |ept: EptConfig, guest_asap| vm(guest_asap, ept);
        // Baseline.
        let mut vm_b = mk(EptConfig::default(), AsapOsConfig::disabled());
        let mut base = NestedMmu::new(NestedMmuConfig::default());
        base.load_context(&vm_b);
        let va = heap_va(&vm_b);
        let b = base.translate(&mut vm_b, va);
        // Full ASAP (OS + hypervisor + hardware).
        let mut vm_a = mk(
            EptConfig::default().host_pl1_and_pl2(),
            AsapOsConfig::pl1_and_pl2(),
        );
        let mut asap =
            NestedMmu::new(NestedMmuConfig::default().with_asap(NestedAsapConfig::all()));
        asap.load_context(&vm_a);
        let va_a = heap_va(&vm_a);
        let a = asap.translate(&mut vm_a, va_a);
        assert!(a.walk.as_ref().unwrap().prefetches_issued > 0);
        assert!(
            a.latency < b.latency,
            "ASAP {} !< baseline {}",
            a.latency,
            b.latency
        );
    }

    #[test]
    fn asap_preserves_translations_under_virtualization() {
        let mut vm_a = vm(
            AsapOsConfig::pl1_and_pl2(),
            EptConfig::default().host_pl1_and_pl2(),
        );
        let heap = heap_va(&vm_a);
        let vas: Vec<VirtAddr> = (0..16)
            .map(|i| VirtAddr::new(heap.raw() + i * 0x3000).unwrap())
            .collect();
        for va in &vas {
            vm_a.touch(*va).unwrap();
        }
        let mut base = NestedMmu::new(NestedMmuConfig::default());
        base.load_context(&vm_a);
        let mut asap =
            NestedMmu::new(NestedMmuConfig::default().with_asap(NestedAsapConfig::all()));
        asap.load_context(&vm_a);
        for va in &vas {
            let b = base.translate(&mut vm_a, *va);
            let a = asap.translate(&mut vm_a, *va);
            assert_eq!(b.hpa, a.hpa);
        }
    }

    #[test]
    fn host_2m_pages_shorten_walks() {
        let mut vm4k = vm(AsapOsConfig::disabled(), EptConfig::default());
        let mut mmu4k = NestedMmu::new(NestedMmuConfig::default());
        mmu4k.load_context(&vm4k);
        let va = heap_va(&vm4k);
        let out4k = mmu4k.translate(&mut vm4k, va);

        let mut vm2m = vm(
            AsapOsConfig::disabled(),
            EptConfig::default().host_2m_pages(),
        );
        let mut mmu2m = NestedMmu::new(NestedMmuConfig::default());
        mmu2m.load_context(&vm2m);
        let va2 = heap_va(&vm2m);
        let out2m = mmu2m.translate(&mut vm2m, va2);
        assert!(out2m.walk.as_ref().unwrap().accesses < out4k.walk.as_ref().unwrap().accesses);
        assert!(out2m.latency < out4k.latency);
    }

    #[test]
    fn engine_trait_exposes_host_dimension() {
        let mut vm_t = vm(AsapOsConfig::disabled(), EptConfig::default());
        let va = heap_va(&vm_t);
        let mut mmu = NestedMmu::new(NestedMmuConfig::default());
        TranslationEngine::load_context(&mut mmu, &vm_t);
        let out = mmu.translate_access(&mut vm_t, va);
        assert_eq!(out.path, TranslationPath::Walk);
        assert!(out.phys.is_some());
        let snap = mmu.stats_snapshot();
        assert_eq!(snap.walks.count(), 1);
        assert!(snap.host_served.is_some());
    }
}
