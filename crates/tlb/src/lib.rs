//! TLBs and page-walk caches for the ASAP reproduction.
//!
//! Models the full ensemble of translation-caching hardware the paper's
//! baseline relies on (§2.1, Table 5):
//!
//! * [`Tlb`] / [`TlbHierarchy`] — the per-core L1 D-TLB (64 entries, 8-way)
//!   and L2 S-TLB (1536 entries, 6-way), with multi-page-size lookup;
//! * [`PageWalkCaches`] — the split, per-level paging-structure caches
//!   (PL4: 2 entries fully-assoc., PL3: 4 entries fully-assoc., PL2: 32
//!   entries 4-way, 2-cycle access), with longest-prefix skip semantics:
//!   a PL2-entry hit lets the walker go straight to the PL1 node;
//! * [`ClusteredTlb`] — the coalescing TLB of Pham et al. (up to 8 PTEs per
//!   entry) that §5.4.1 evaluates as complementary to ASAP.
//!
//! # Examples
//!
//! ```
//! use asap_tlb::{Tlb, TlbConfig, TlbEntry};
//! use asap_types::{Asid, PageSize, PhysFrameNum, VirtPageNum};
//!
//! let mut tlb = Tlb::new(TlbConfig::l1_dtlb());
//! let asid = Asid(1);
//! let vpn = VirtPageNum::new(0x1234);
//! assert!(tlb.lookup(asid, vpn).is_none());
//! tlb.insert(asid, vpn, TlbEntry::new(PhysFrameNum::new(7), PageSize::Size4K));
//! assert_eq!(tlb.lookup(asid, vpn).unwrap().frame, PhysFrameNum::new(7));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clustered;
mod config;
mod hierarchy;
mod pwc;
mod stats;
mod tlb;

pub use clustered::{ClusteredTlb, ClusteredTlbConfig, CLUSTER_PAGES};
pub use config::{PwcConfig, TlbConfig};
pub use hierarchy::{TlbHierarchy, TlbLevel, TlbLookup};
pub use pwc::{PageWalkCaches, PwcHit};
pub use stats::TlbStats;
pub use tlb::{Tlb, TlbEntry};
