//! The shared verifying 1D walk both contender backends run.
//!
//! Neither contender modifies the radix walk itself (that is ASAP's trick);
//! they attack the miss *before* the walk (Victima) or overlap the *data*
//! fetch with it (Revelator). Both therefore need the stock walk timeline:
//! PWC probe, PWC-elided prefix, hierarchy accesses for the rest, PWC and
//! TLB fills — exactly the baseline path of `asap_core::Mmu`, shared here
//! so the two backends cannot drift apart.

use asap_core::{EngineCore, ServedByMatrix};
use asap_pt::{Translation, WalkSource};
use asap_tlb::PageWalkCaches;
use asap_types::{Asid, PtLevel, VirtAddr};

/// What one verifying walk produced.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VerifiedWalk {
    /// Walk latency in cycles (charged to the engine clock).
    pub latency: u64,
    /// The verified translation (`None` on a page fault).
    pub translation: Option<Translation>,
}

/// Runs one baseline page walk for `va` over the shared core: PWC probe,
/// timed hierarchy accesses, PWC fills, walk/fault accounting and the
/// served-by matrix. Does **not** fill the TLB — the caller owns that step
/// (Victima needs the eviction hook, Revelator a plain fill).
pub(crate) fn verified_walk<S: WalkSource + ?Sized>(
    core: &mut EngineCore,
    pwc: &mut PageWalkCaches,
    served: &mut ServedByMatrix,
    src: &S,
    asid: Asid,
    va: VirtAddr,
) -> VerifiedWalk {
    let t0 = core.now();
    let pwc_hit = pwc.lookup(asid, va);
    let start_level = pwc_hit.map_or(src.mode().root_level(), |h| h.next_level);

    let trace = src.walk_fixed(va);
    let mut t = t0 + pwc.latency();
    for step in trace.steps() {
        if step.level.depth() > start_level.depth() {
            served.record(step.level, asap_core::ServedSource::Pwc);
            continue;
        }
        let served_by = core.walk_access(step.entry_addr.cache_line(), &mut t);
        served.record(step.level, served_by);
    }
    let latency = core.finish_walk(t0, t);

    for step in trace.steps() {
        if step.level != PtLevel::Pl1 && step.entry.is_present() && !step.entry.is_large_leaf() {
            pwc.fill(asid, va, step.level, step.entry.frame());
        }
    }
    let translation = trace.translation();
    if translation.is_none() {
        core.walk_faults += 1;
    }
    VerifiedWalk {
        latency,
        translation,
    }
}
