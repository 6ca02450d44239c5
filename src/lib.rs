#![forbid(unsafe_code)]
//! # mflush — facade crate for the MFLUSH (ICPP 2008) reproduction
//!
//! Re-exports the whole simulator stack under one roof so that examples,
//! integration tests and downstream users need a single dependency.
//!
//! * [`trace`] — synthetic SPEC2000-like instruction traces
//! * [`mem`] — caches, shared banked L2, bus, DRAM
//! * [`cpu`] — the SMT out-of-order core model
//! * [`policy`] — ICOUNT / FLUSH / STALL / MFLUSH fetch policies
//! * [`energy`] — the Energy-Consumption-Factor model
//! * [`obs`] — trace events, event rings, metric registration
//! * [`sim`] — CMP+SMT simulator driver, workloads, experiment runner
//!
//! ## Quickstart
//!
//! ```
//! use mflush::prelude::*;
//!
//! // 1-core, 2-context SMT running the paper's 2W1 workload (vpr+vortex)
//! // under the MFLUSH fetch policy for 20k cycles. `build` rejects
//! // invalid configurations and `run` reports livelocks, so both
//! // return `Result`.
//! let workload = Workload::by_name("2W1").unwrap();
//! let cfg = SimConfig::for_workload(&workload, PolicyKind::Mflush);
//! let result = Simulator::build(&cfg).unwrap().run().unwrap();
//! assert!(result.total_committed() > 0);
//! ```

pub use smtsim_core as sim;
pub use smtsim_cpu as cpu;
pub use smtsim_energy as energy;
pub use smtsim_mem as mem;
pub use smtsim_obs as obs;
pub use smtsim_policy as policy;
pub use smtsim_trace as trace;

/// Most-used items in one import.
pub mod prelude {
    pub use smtsim_core::config::SimConfig;
    pub use smtsim_core::fidelity::Fidelity;
    pub use smtsim_core::sim::Simulator;
    pub use smtsim_core::workloads::Workload;
    pub use smtsim_policy::PolicyKind;
    pub use smtsim_trace::spec;
}
