//! # ASAP — Prefetched Address Translation
//!
//! A full-system Rust reproduction of *"Prefetched Address Translation"*
//! (Margaritov, Ustiugov, Bugnion, Grot — MICRO-52, 2019, DOI
//! [10.1145/3352460.3358294](https://doi.org/10.1145/3352460.3358294)).
//!
//! ASAP cuts page-walk latency by prefetching the deep levels (PL1/PL2) of
//! the radix page table with pure base-plus-offset arithmetic, enabled by
//! an OS policy that keeps those levels physically contiguous and sorted by
//! virtual address. The conventional walk still runs and validates every
//! entry, so the mechanism changes no architectural behaviour.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `asap-types` | addresses, pages, PT levels |
//! | [`cache`] | `asap-cache` | caches, MSHRs, hierarchy timing |
//! | [`pt`] | `asap-pt` | x86-64 radix page table + walker |
//! | [`alloc`] | `asap-alloc` | buddy/scatter allocators, reservations |
//! | [`tlb`] | `asap-tlb` | TLBs, page-walk caches, clustered TLB |
//! | [`os`] | `asap-os` | VMAs, demand paging, ASAP OS policy |
//! | [`virt`] | `asap-virt` | nested (2D) translation |
//! | [`core`] | `asap-core` | **the contribution**: range registers, prefetcher, MMUs |
//! | [`contenders`] | `asap-contenders` | competitor backends: Victima, Revelator |
//! | [`workloads`] | `asap-workloads` | the seven calibrated workloads |
//! | [`sim`] | `asap-sim` | scenario drivers, reports |
//!
//! # Quickstart
//!
//! ```
//! use asap::core::{AsapHwConfig, Mmu, MmuConfig, TranslationEngine};
//! use asap::os::{AsapOsConfig, Process, ProcessConfig, VmaKind};
//! use asap::types::{Asid, ByteSize};
//!
//! // An ASAP-enabled process: the OS reserves sorted PL1/PL2 regions.
//! let mut process = Process::new(ProcessConfig::new(Asid(1))
//!     .with_heap(ByteSize::mib(64))
//!     .with_asap(AsapOsConfig::pl1_and_pl2()));
//! let va = process.vma_of_kind(VmaKind::Heap).unwrap().start();
//! process.touch(va).unwrap();
//!
//! // An ASAP-enabled MMU: range registers + prefetch on TLB miss.
//! let mut mmu = Mmu::new(MmuConfig::default().with_asap(AsapHwConfig::p1_p2()));
//! mmu.load_context(&process);
//! let out = mmu.translate(process.flat_mirror(), process.asid(), va, None);
//! assert!(out.phys.is_some());
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! harness that regenerates every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use asap_alloc as alloc;
pub use asap_cache as cache;
pub use asap_contenders as contenders;
pub use asap_core as core;
pub use asap_os as os;
pub use asap_pt as pt;
pub use asap_sim as sim;
pub use asap_tlb as tlb;
pub use asap_types as types;
pub use asap_virt as virt;
pub use asap_workloads as workloads;
