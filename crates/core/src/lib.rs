#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # smtsim-core — CMP+SMT simulator driver for the MFLUSH reproduction
//!
//! Assembles the full machine of the paper: `N` two-context SMT cores
//! ([`smtsim_cpu::SmtCore`]) sharing one banked L2 behind
//! ([`smtsim_mem::MemorySystem`]), each core running a pluggable fetch
//! policy ([`smtsim_policy`]), fed by synthetic SPEC2000 traces
//! ([`smtsim_trace`]), with the paper's energy accounting
//! ([`smtsim_energy`]).
//!
//! * [`workloads`] — the paper's Fig. 1 workload table (2W1 … 8W5) plus
//!   the Fig. 5(b) special bzip2/twolf workload;
//! * [`config`] — one [`config::SimConfig`] describes a complete
//!   experiment (machine + workload + policy + interval);
//! * [`resolve`] — run parameters (workload or benchmark names,
//!   policy, cycles, seed, watchdog) → validated
//!   [`config::SimConfig`], shared by the CLI and serve;
//! * [`sim`] — the cycle-level driver;
//! * [`result`] — measurement snapshot with throughput/energy helpers;
//! * [`sweep`] — a `std::thread::scope` parallel runner for parameter
//!   sweeps (each simulation is independent, so sweeps scale with host
//!   cores);
//! * [`report`] — plain-text tables matching the paper's figures;
//! * [`json`] — dependency-free JSON emission ([`json::ToJson`]) for
//!   machine-readable results;
//! * [`obs`] — cycle-level observability: merged event traces (JSONL
//!   and Chrome `trace_event` export) and the interval metrics sampler
//!   behind METRICS.md.

pub mod cache;
pub mod calibration;
pub mod config;
pub mod error;
pub mod fidelity;
pub mod json;
pub mod obs;
pub mod report;
pub mod resolve;
pub mod result;
pub mod sim;
pub mod suggest;
pub mod sweep;
pub mod workloads;

pub use cache::{config_fingerprint, CacheEntry, ResultCache};
pub use calibration::{calibrate, calibrate_one, CalRow};
pub use config::SimConfig;
pub use error::{CoreDiagnostic, ProgressDiagnostic, SimError};
pub use fidelity::Fidelity;
pub use json::ToJson;
pub use obs::{MetricsRecorder, TraceRow};
pub use resolve::RunParams;
pub use result::SimResult;
pub use sim::Simulator;
pub use sweep::{run_sweep, run_sweep_journaled, run_sweep_ok, SweepJob};
pub use workloads::Workload;
