//! Virtualized machine assembly: builds a [`NestedMmu`] +
//! `VirtualMachine` for a unified [`RunSpec`] whose machine axis is
//! virtualized, and hands it to the native assembly's shared `drive`
//! tail. Reached only through [`RunSpec::run_split`]'s internal dispatch.

use crate::driver::DriverError;
use crate::native::{drive, os_asap};
use crate::observe::RunObserver;
use crate::{EngineSelect, RunOutput, RunSpec};
use asap_core::{NestedAsapConfig, NestedMmu, NestedMmuConfig};
use asap_types::{Asid, PageSize, PtLevel};
use asap_virt::{EptConfig, VirtualMachine};

/// The per-dimension prefetch levels the engine axis selects.
fn nested_asap(spec: &RunSpec) -> NestedAsapConfig {
    match &spec.engine {
        EngineSelect::NestedAsap(cfg) => cfg.clone(),
        _ => NestedAsapConfig::off(),
    }
}

/// Runs one virtualized configuration over `host_page_size` host pages
/// and returns its measurements.
///
/// The guest process runs the workload; every TLB miss triggers the full 2D
/// walk of Fig. 7 with the configured per-dimension prefetching. The guest
/// OS reserves sorted regions for the guest prefetch levels (negotiated
/// with the hypervisor via the §3.6 vmcall protocol), and the hypervisor
/// keeps the host PT levels sorted for the host prefetch levels.
pub(crate) fn run_virt(spec: &RunSpec, host_page_size: PageSize) -> Result<RunOutput, DriverError> {
    let obs = RunObserver::begin(spec.telemetry);
    let workload = spec.effective_workload();
    let asap = nested_asap(spec);
    let seed = spec.sim.seed;
    let mut ept_config = EptConfig {
        host_levels: asap.host.clone(),
        host_page_size,
        scatter_run: workload.pt_scatter_run,
        seed: seed ^ 0xE9,
    };
    if host_page_size == PageSize::Size2M {
        // With 2 MiB host pages the host PT has no PL1 level to reserve.
        ept_config.host_levels.retain(|l| *l != PtLevel::Pl1);
    }
    let guest_config = workload
        .process_config(Asid(1), os_asap(&asap.guest), seed)
        .with_compact_phys();
    let vm = VirtualMachine::new(guest_config, ept_config);
    let stream = workload.build_stream(vm.guest(), seed ^ 0x11);
    let mmu = NestedMmu::new(NestedMmuConfig::default().with_asap(asap));
    let name = spec.workload.name.to_string();
    drive(spec, vec![mmu], vec![vm], vec![stream], vec![name], obs)
}

#[cfg(test)]
mod tests {
    use crate::scenarios::smoke_workload as small;
    use crate::{RunSpec, SimConfig};
    use asap_core::NestedAsapConfig;

    #[test]
    fn virtualization_multiplies_walk_latency() {
        let sim = SimConfig::smoke_test();
        let native = RunSpec::new(small()).with_sim(sim).run().unwrap();
        let virt = RunSpec::new(small()).virt().with_sim(sim).run().unwrap();
        // Table 1 / Fig. 3 shape: virt baseline is several times native.
        let ratio = virt.avg_walk_latency() / native.avg_walk_latency();
        assert!(
            ratio > 2.5,
            "virt/native walk-latency ratio {ratio:.2} too low"
        );
        assert_eq!(virt.faults, 0);
    }

    #[test]
    fn full_asap_beats_guest_only() {
        let sim = SimConfig::smoke_test();
        let base = RunSpec::new(small()).virt().with_sim(sim).run().unwrap();
        let p1g = RunSpec::new(small())
            .virt()
            .with_nested_asap(NestedAsapConfig::p1g())
            .with_sim(sim)
            .run()
            .unwrap();
        let all = RunSpec::new(small())
            .virt()
            .with_nested_asap(NestedAsapConfig::all())
            .with_sim(sim)
            .run()
            .unwrap();
        assert!(p1g.avg_walk_latency() < base.avg_walk_latency());
        assert!(
            all.avg_walk_latency() < p1g.avg_walk_latency(),
            "all {} !< p1g {}",
            all.avg_walk_latency(),
            p1g.avg_walk_latency()
        );
        assert!(all.prefetches_issued > p1g.prefetches_issued);
    }

    #[test]
    fn host_2m_pages_shorten_baseline_walks() {
        let sim = SimConfig::smoke_test();
        let b4k = RunSpec::new(small()).virt().with_sim(sim).run().unwrap();
        let b2m = RunSpec::new(small())
            .host_2m_pages()
            .with_sim(sim)
            .run()
            .unwrap();
        assert!(b2m.avg_walk_latency() < b4k.avg_walk_latency());
    }

    #[test]
    fn virt_runs_are_deterministic() {
        let spec = RunSpec::new(small())
            .virt()
            .with_sim(SimConfig::smoke_test());
        let a = spec.run().unwrap();
        let b = spec.run().unwrap();
        assert_eq!(a.walks, b.walks);
    }
}
