//! The name of the retired fidelity selection (DESIGN.md §13).
//!
//! The simulator has one memory model, [`smtsim_mem::MemorySystem`].
//! [`Fidelity`] stays only because the benchmark package's traced
//! driver (`crates/bench/src/bin/benchmark/`) checks
//! `cfg.fidelity() == Fidelity::detailed()`; it goes with the next
//! benchmark change (ROADMAP item 2).
//!
//! ```
//! use smtsim_core::{Fidelity, SimConfig, Workload};
//! use smtsim_policy::PolicyKind;
//!
//! let cfg = SimConfig::for_workload(Workload::by_name("2W1").unwrap(), PolicyKind::Mflush);
//! assert_eq!(cfg.fidelity(), Fidelity::detailed());
//! ```

/// The one model every simulation runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fidelity;

impl Fidelity {
    /// The detailed memory hierarchy, the only one there is.
    pub fn detailed() -> Fidelity {
        Fidelity
    }
}
