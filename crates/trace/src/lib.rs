#![forbid(unsafe_code)]
//! # smtsim-trace — synthetic instruction traces for the MFLUSH reproduction
//!
//! The original paper drives an SMTsim-derived simulator with traces of the
//! most representative 300M-instruction segments of SPEC2000 binaries
//! compiled for the DEC Alpha AXP-21264. Those traces (and the binaries)
//! are not available, so this crate provides the substitution documented in
//! `DESIGN.md` §4: a **deterministic synthetic trace generator** with one
//! calibrated profile per SPEC2000 benchmark.
//!
//! The generator models exactly the trace properties the paper's mechanisms
//! depend on:
//!
//! * **instruction mix** (loads / stores / branches / int / fp),
//! * **instruction-level parallelism**, via a geometric dependency-distance
//!   distribution and explicit pointer-chasing load chains,
//! * **branch predictability**, via per-static-branch biases and pattern
//!   behaviour that a real predictor can learn,
//! * **memory behaviour**, via a mixture of working sets sized to hit in
//!   L1, hit in L2, or miss to memory, with bursty phases,
//! * **code footprint**, via a basic-block dictionary that also serves
//!   wrong-path fetch (as SMTsim's separate basic-block dictionary does).
//!
//! Streams are infinite, deterministic for a given `(benchmark, seed)`
//! pair, and cheap to fork — which is what a trace-driven SMT pipeline
//! needs to replay instructions after a flush.
//!
//! ```
//! use smtsim_trace::{spec, InstrClass, InstrStream, TraceGenerator};
//!
//! let profile = spec::benchmark_by_key('d').unwrap(); // mcf
//! let mut gen = TraceGenerator::new(profile, 42);
//! let instr = gen.next_instr();
//! assert!(instr.pc % 4 == 0);
//! let frac_loads = (0..10_000)
//!     .filter(|_| gen.next_instr().class == InstrClass::Load)
//!     .count() as f64 / 10_000.0;
//! assert!(frac_loads > 0.15, "mcf is load heavy");
//! ```

pub mod analysis;
pub mod bbdict;
pub mod check;
pub mod gen;
pub mod instr;
pub mod memstream;
pub mod profile;
pub mod rng;
pub mod spec;
pub mod stream;

pub use analysis::{analyze, TraceStats};
pub use bbdict::{BasicBlock, BasicBlockDict};
pub use gen::TraceGenerator;
pub use instr::{DynInstr, InstrClass, LogReg, UncondKind, NUM_LOG_REGS};
pub use memstream::{MemRegion, MemStream};
pub use profile::{BenchProfile, InstrMix, MemProfile, Suite};
pub use rng::{SplitMix64, Xoshiro256pp};
pub use stream::{InstrStream, ReplayableStream};
