//! ASAP — Address Translation with Prefetching (the paper's contribution).
//!
//! On every TLB miss, ASAP checks the faulting virtual address against a
//! small file of architecturally-exposed **range registers** holding per-VMA
//! descriptors (Fig. 6). On a hit it computes, with pure base-plus-offset
//! arithmetic, the physical addresses of the PL1/PL2 page-table nodes that
//! the walk will eventually read — possible because the OS keeps those
//! levels physically contiguous and sorted by virtual address — and issues
//! best-effort prefetches for them. The conventional page walk still runs
//! and validates everything; the prefetches only *overlap* its long-latency
//! accesses (Fig. 4b), typically exposing a single access to the memory
//! hierarchy per walk.
//!
//! This crate composes the substrates into the two machines the paper
//! evaluates. Both are the one [`Engine`] shell — TLB fast path, core
//! clock, fabric access, accounting, and the one [`TranslationEngine`]
//! implementation — over a [`Backend`] that supplies only the S-TLB-miss
//! path:
//!
//! * [`Mmu`] = `Engine<`[`Native`]`>` — native translation: L1/L2 TLBs →
//!   split PWCs → hardware walk over the cache hierarchy, with the ASAP
//!   prefetcher attached; optional clustered TLB (§5.4.1);
//! * [`NestedMmu`] = `Engine<`[`Nested`]`>` — virtualized translation: the
//!   24-access 2D walk of Fig. 7 with dedicated guest/host PWCs and ASAP
//!   applied per dimension (`P1g`, `P2g`, `P1h`, `P2h`).
//!
//! The [`TranslationEngine`]/[`SimMachine`] pair is what the simulation
//! driver in `asap-sim` speaks, so new translation backends drop in
//! without touching the driver loop.
//!
//! # Examples
//!
//! ```
//! use asap_core::{AsapHwConfig, Mmu, MmuConfig, TranslationEngine, TranslationPath};
//! use asap_os::{AsapOsConfig, Process, ProcessConfig, VmaKind};
//! use asap_types::{Asid, ByteSize};
//!
//! let mut process = Process::new(ProcessConfig::new(Asid(1))
//!     .with_heap(ByteSize::mib(64))
//!     .with_asap(AsapOsConfig::pl1_and_pl2()));
//! let va = process.vma_of_kind(VmaKind::Heap).unwrap().start();
//! process.touch(va).unwrap();
//!
//! let mut mmu = Mmu::new(MmuConfig::default().with_asap(AsapHwConfig::p1_p2()));
//! mmu.load_context(&process);
//!
//! let out = mmu.translate(process.flat_mirror(), process.asid(), va, None);
//! assert!(matches!(out.path, TranslationPath::Walk));
//! let walk = out.walk.unwrap();
//! assert!(walk.prefetches_issued > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod config;
mod engine;
mod mmu;
mod nested_mmu;
mod prefetcher;
mod range_regs;
mod stats;

pub use cluster::ClusterSource;
pub use config::{AsapHwConfig, MmuConfig, NestedAsapConfig, NestedMmuConfig};
pub use engine::{
    AddressSpace, Backend, CoreConfig, Engine, EngineCore, EngineOutcome, EngineStats, SimMachine,
    TranslationEngine, TranslationPath, Walk1d, WalkSources, L2_TLB_HIT_CYCLES,
};
pub use mmu::{AccessOutcome, Mmu, Native, WalkReport};
pub use nested_mmu::{Nested, NestedAccessOutcome, NestedMmu, NestedWalkReport};
pub use prefetcher::prefetch_target;
pub use range_regs::RangeRegisterFile;
pub use stats::{ServedByMatrix, ServedSource, WalkLatencyStats};
