//! Competitor translation backends for head-to-head comparison with ASAP.
//!
//! The paper's evaluation (§5) positions ASAP against alternative ways of
//! attacking translation overhead. This crate models two of the strongest
//! alternatives from the literature as full
//! [`TranslationEngine`](asap_core::TranslationEngine) backends,
//! so the scenario registry can run workload × {baseline, ASAP, Victima,
//! Revelator} matrices through the one generic driver loop:
//!
//! * [`VictimaMmu`] — a Victima-style design (Kanellopoulos et al., MICRO
//!   2023): evicted L2 S-TLB entries are transparently parked as *TLB
//!   blocks* in the L2 data cache, gated by a [`PtwCostPredictor`] so only
//!   translations that are costly to re-walk spend cache capacity. Extends
//!   *reach* — walks are eliminated when the block survives cache pressure.
//! * [`RevelatorMmu`] — a Revelator-style design (Kanellopoulos et al.,
//!   2025): system software publishes its hash-placement parameters
//!   ([`asap_os::SpeculationHint`]); on a TLB miss the core computes a
//!   speculative physical address in a few cycles and fetches *data* from
//!   it while the conventional radix walk verifies the guess. Walks are not
//!   shortened — the data fetch is overlapped with them.
//!
//! Both are [`Backend`](asap_core::Backend)s of the same
//! [`Engine`](asap_core::Engine) shell as the paper's own MMUs: they supply
//! only their S-TLB-miss path, and neither modifies the radix walk itself
//! (that is ASAP's trick) — both run the stock
//! [`EngineCore::walk_1d`](asap_core::EngineCore::walk_1d). Both are
//! architecturally invisible: every committed translation comes from the
//! verifying page walk, never from a block or a hash guess alone (pinned
//! by `tests/prop_contenders_correctness.rs`).
//!
//! # Examples
//!
//! ```
//! use asap_contenders::{VictimaConfig, VictimaMmu};
//! use asap_core::{SimMachine, TranslationEngine};
//! use asap_os::{Process, ProcessConfig, VmaKind};
//! use asap_types::{Asid, ByteSize, VirtAddr};
//!
//! let mut process = Process::new(
//!     ProcessConfig::new(Asid(1)).with_heap(ByteSize::mib(64)),
//! );
//! let va = process.vma_of_kind(VmaKind::Heap).unwrap().start();
//! process.touch(va).unwrap();
//!
//! let mut mmu = VictimaMmu::new(VictimaConfig::default());
//! TranslationEngine::load_context(&mut mmu, &process);
//! let out = mmu.translate_access(&mut process, va);
//! assert_eq!(out.phys, process.reference_translate(va));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod predictor;
mod revelator;
mod victima;

pub use predictor::{PtwCostPredictor, PtwCostPredictorConfig};
pub use revelator::{Revelator, RevelatorConfig, RevelatorMmu, RevelatorStats};
pub use victima::{Victima, VictimaConfig, VictimaMmu, VictimaStats, TLB_BLOCK_PAGES};

/// Which contender backend a run specification selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContenderKind {
    /// Victima-style cache-resident TLB blocks.
    Victima,
    /// Revelator-style hash-based speculative translation.
    Revelator,
}

impl ContenderKind {
    /// All contender backends, in report order.
    pub const ALL: [ContenderKind; 2] = [ContenderKind::Victima, ContenderKind::Revelator];

    /// The report label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ContenderKind::Victima => "Victima",
            ContenderKind::Revelator => "Revelator",
        }
    }
}

impl core::fmt::Display for ContenderKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}
