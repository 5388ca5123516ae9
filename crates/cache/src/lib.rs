//! Cache-hierarchy simulation for the ASAP reproduction.
//!
//! The paper's evaluation metric — page-walk latency — is determined entirely
//! by *which level of the memory hierarchy serves each page-table-node
//! access* (§4, "Measuring page walk latency"). This crate provides that
//! machinery:
//!
//! * a generic set-associative container ([`SetAssoc`]) with exact LRU
//!   replacement, reused by the TLBs and page-walk caches in `asap-tlb`;
//! * a physical-line cache model ([`Cache`]): a compact array of line tags;
//! * a miss-status-holding-register file ([`MshrFile`]) that merges demand
//!   accesses with in-flight ASAP prefetches — the paper's §3.4 mechanism
//!   ("ASAP leverages existing machinery for buffering the outstanding
//!   prefetch requests in L1-D's MSHRs");
//! * a three-level hierarchy plus DRAM ([`CacheHierarchy`]) with the paper's
//!   Table 5 latencies, attributing every access to the level that served it
//!   ([`ServedBy`], the raw material of the paper's Figure 9). It is the
//!   machine's one memory system: it keeps no clock (every request carries
//!   the issuing core's local cycle), and it optionally homes DRAM windows
//!   on NUMA nodes ([`NumaConfig`]), charging a remote DRAM access the
//!   interconnect hop;
//! * [`SharedFabric`], the handle each of N per-core translation engines
//!   holds to that one hierarchy when simulating an SMP machine.
//!
//! `SetAssoc` and `Cache` keep each set in recency order, most recent
//! first, so exact LRU needs no state beyond the entries themselves: a hit
//! rotates its entry to the front, and an insertion shifts the set right by
//! one and evicts whatever falls off the end.
//!
//! # Examples
//!
//! ```
//! use asap_cache::{CacheHierarchy, HierarchyConfig, ServedBy};
//! use asap_types::CacheLineAddr;
//!
//! let mut hier = CacheHierarchy::new(HierarchyConfig::broadwell_like());
//! let line = CacheLineAddr::new(0x40);
//! // A demand access at cycle 0 from a core on node 0 ...
//! let first = hier.access(line, 0, 0);
//! assert_eq!(first.served_by, ServedBy::Memory);
//! // ... and the same line again once the first returned.
//! let second = hier.access(line, first.latency, 0);
//! assert_eq!(second.served_by, ServedBy::L1);
//! assert!(second.latency < first.latency);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assoc;
mod cache;
mod config;
mod fabric;
mod hierarchy;
mod mshr;
mod numa;
mod stats;

pub use assoc::{Eviction, SetAssoc};
pub use cache::Cache;
pub use config::{CacheConfig, HierarchyConfig};
pub use fabric::SharedFabric;
pub use hierarchy::{AccessResult, CacheHierarchy, ServedBy};
pub use mshr::{MshrFile, MshrOutcome};
pub use numa::{NumaConfig, NumaStats, NUMA_HOP_CYCLES};
pub use stats::{CacheStats, HierarchyStats};
