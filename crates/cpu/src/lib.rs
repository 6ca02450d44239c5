#![forbid(unsafe_code)]
//! # smtsim-cpu — the SMT out-of-order core model
//!
//! A trace-driven reimplementation of SMTsim's back-end with the paper's
//! Fig. 1 core: 11-stage pipeline, 2 hardware contexts, shared 64-entry
//! int/fp/ld-st issue queues, 4/3/2 execution units, 320 shared physical
//! registers, per-thread 256-entry ROB, perceptron branch predictor,
//! 4-way 256-entry BTB and a 100-entry per-thread RAS.
//!
//! The core executes the **mechanisms** the paper studies:
//!
//! * ICOUNT.2.8 fetch (up to 2 threads, 8 instructions per cycle),
//!   steered by a pluggable [`smtsim_policy::FetchPolicy`];
//! * resource sharing: a thread blocked on an L2 miss clogs issue-queue
//!   entries and physical registers that other threads need;
//! * the FLUSH response action: squash everything younger than the
//!   offending load, free its resources, replay from the trace when the
//!   load resolves (with per-stage energy accounting for Fig. 11);
//! * branch misprediction with wrong-path fetch from the basic-block
//!   dictionary (I-cache pollution), resolved at execute;
//! * loads/stores/ifetches travelling through [`smtsim_mem`]'s shared
//!   hierarchy.
//!
//! The pipeline above is [`SmtCore`]; cores talk to the memory
//! hierarchy through [`smtsim_mem::MemorySystem`].
//!
//! ```
//! use smtsim_cpu::thread::ThreadProgram;
//! use smtsim_cpu::{CoreConfig, SmtCore};
//! use smtsim_mem::{MemConfig, MemorySystem};
//! use smtsim_policy::{build_policy, PolicyEnv, PolicyKind};
//! use smtsim_trace::{spec, TraceGenerator};
//!
//! let programs = ["gzip", "eon"]
//!     .iter()
//!     .enumerate()
//!     .map(|(i, name)| {
//!         ThreadProgram::from_generator(TraceGenerator::new(
//!             spec::benchmark_by_name(name).unwrap(),
//!             1 + i as u64 * 1000,
//!         ))
//!     })
//!     .collect();
//! let mut core = SmtCore::new(
//!     0,
//!     CoreConfig::paper(),
//!     build_policy(PolicyKind::Mflush, &PolicyEnv::paper(1)),
//!     programs,
//! );
//! let mut mem = MemorySystem::new(MemConfig::paper(1));
//! core.prewarm(&mut mem);
//! for now in 0..5_000 {
//!     mem.tick(now);
//!     core.tick(now, &mut mem);
//! }
//! assert!(core.total_committed() > 1_000);
//! ```

pub mod bpred;
pub mod btb;
pub mod config;
pub mod core;
pub mod metrics;
pub mod ras;
pub mod regfile;
pub mod rob;
pub mod stats;
pub mod thread;
mod wheel;

pub use bpred::PerceptronPredictor;
pub use btb::Btb;
pub use config::CoreConfig;
pub use core::SmtCore;
pub use metrics::METRICS;
pub use ras::ReturnAddressStack;
pub use stats::{CoreStats, ThreadProbe, ThreadStats};
