#![forbid(unsafe_code)]
//! # smtsim-mem — memory hierarchy for the MFLUSH reproduction
//!
//! Implements the Fig. 1 cache hierarchy of the paper:
//!
//! * per-core L1 I-cache (64 KB, 4-way, 8 banks) and D-cache
//!   (32 KB, 4-way, 8 banks), 3-cycle hits;
//! * per-core fully-associative 512-entry I/D TLBs with a 300-cycle miss
//!   penalty;
//! * a per-core 16-entry MSHR file tracking outstanding misses;
//! * a shared L1↔L2 **bus** (4-cycle transit; with the 3-cycle L1 probe
//!   and the 15-cycle L2 bank access this yields the paper's 22-cycle
//!   uncontended L1-miss/L2-hit latency);
//! * a shared **4 MB, 12-way L2 split into 4 single-ported banks** with a
//!   15-cycle bank occupancy per access — two consecutive accesses to the
//!   same bank cannot be served in less than 15 cycles, so "the fourth
//!   consecutive L2 hit to the same bank experiences a 45-cycle delay"
//!   (paper §3.2); this queueing is the source of the L2-hit-latency
//!   variability that breaks the static FLUSH trigger;
//! * a 250-cycle main memory.
//!
//! The crate is self-contained: cores talk to [`system::MemorySystem`]
//! through an access/completion interface and the system advances one
//! cycle at a time, in lock-step with the core models.
//!
//! ```
//! use smtsim_mem::{AccessKind, AccessResult, MemConfig, MemorySystem};
//!
//! let cfg = MemConfig::paper(4);
//! assert_eq!(cfg.l1_miss_nominal(), 22);      // 3 + 4 + 15
//! assert_eq!(cfg.l2_miss_nominal(), 272);     // + 250 DRAM
//! assert_eq!(cfg.multicore_traffic_delay(), 57); // (4+15)·3 — MFLUSH's MT
//!
//! let mut mem = MemorySystem::new(cfg);
//! let req = match mem.access(0, AccessKind::Load, 0x1000, 0) {
//!     AccessResult::Miss { req, .. } => req, // cold caches miss
//!     other => panic!("{other:?}"),
//! };
//! let mut done = Vec::new();
//! for now in 1..2_000 {
//!     mem.tick(now);
//!     mem.drain_completions_into(0, &mut done);
//!     if let Some(c) = done.drain(..).find(|c| c.req == req) {
//!         assert!(!c.l2_hit);
//!         return;
//!     }
//! }
//! panic!("load never completed");
//! ```

pub mod addr;
pub mod bus;
pub mod cache;
pub mod dram;
pub mod fastmem;
pub mod fault;
pub mod histogram;
pub mod l2bank;
pub mod metrics;
pub mod model;
pub mod mshr;
pub mod system;
pub mod tlb;
pub mod util;

pub use cache::{AccessOutcome, CacheGeometry, SetAssocCache};
pub use fastmem::FastMemory;
pub use fault::FaultPlan;
pub use histogram::LatencyHistogram;
pub use metrics::METRICS;
pub use model::{MemFidelity, MemoryModel};
pub use system::{
    AccessKind, AccessResult, Completion, CoreMemStats, MemConfig, MemEvent, MemStats,
    MemorySystem, ReqId, WarmRegion,
};
pub use tlb::Tlb;
