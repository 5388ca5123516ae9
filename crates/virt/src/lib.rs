//! Nested (two-dimensional) address translation for the ASAP reproduction.
//!
//! Under virtualization (paper §2.1, §3.6, Fig. 7), a guest TLB miss
//! triggers a 2D walk: each of the four guest-PT node reads first needs a
//! full 1D walk of the host page table to translate the node's
//! guest-physical address, and a final host walk translates the data
//! address — up to 24 memory accesses. This crate builds that machinery:
//!
//! * [`Ept`] — the host-dimension page table (nested/extended page table)
//!   mapping guest-physical to host-physical addresses, with lazy identity
//!   backing for data frames, scattered-vs-reserved placement for its own
//!   nodes (the host half of ASAP), and 2 MiB host pages for the Fig. 12
//!   configuration;
//! * [`NestedWalker`] / [`NestedWalkTrace`] — the exact Fig. 7 access
//!   sequence, each step carrying the host-physical address the memory
//!   hierarchy sees;
//! * [`VirtualMachine`] — a guest [`Process`](asap_os::Process) (with its own guest-side ASAP
//!   policy, negotiated with the hypervisor via vmcalls per §3.6) behind an
//!   [`Ept`].
//!
//! # Examples
//!
//! ```
//! use asap_os::{AsapOsConfig, ProcessConfig, VmaKind};
//! use asap_types::{Asid, ByteSize};
//! use asap_virt::{EptConfig, VirtualMachine};
//!
//! let guest_cfg = ProcessConfig::new(Asid(1))
//!     .with_heap(ByteSize::mib(32))
//!     .with_compact_phys();
//! let mut vm = VirtualMachine::new(guest_cfg, EptConfig::default());
//! let va = vm.guest().vma_of_kind(VmaKind::Heap).unwrap().start();
//! vm.touch(va).unwrap();
//! let trace = vm.nested_walk(va);
//! assert_eq!(trace.steps.len(), 24); // the full 2D walk of Fig. 7
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ept;
mod host_map;
mod nested;
mod vm;

pub use ept::{Ept, EptConfig};
pub use host_map::HostPtMap;
pub use nested::{Dim, NestedOutcome, NestedStep, NestedWalkTrace, NestedWalker};
pub use vm::VirtualMachine;
