#![forbid(unsafe_code)]
//! # smtsim-bench — figure and table regeneration for the MFLUSH paper
//!
//! One renderer per table/figure of the paper's evaluation. A table the model states renders from nothing; a
//! simulated figure is its job list plus a pure renderer of those
//! jobs' results. [`figures::FIGURES`] names them all, and
//! [`figures::Plan`] turns a selection into one deduplicated sweep.
//!
//! | Paper artefact | Renderer |
//! |----------------|----------|
//! | Fig. 1 (parameters + workloads) | [`figures::fig1`] |
//! | Fig. 2 (single-core ICOUNT vs FLUSH) | [`figures::fig2`] |
//! | Fig. 3 (multicore average throughput) | [`figures::fig3`] |
//! | Fig. 4 (L2 hit time distribution) | [`figures::fig4`] |
//! | Fig. 5 (detection-moment sweep) | [`figures::fig5`] |
//! | Fig. 6 (MFLUSH operational environment) | [`figures::fig6`] |
//! | Fig. 7 (MCReg hardware example) | [`figures::fig7`] |
//! | Fig. 8 (throughput, 4 policies) | [`figures::fig8`] |
//! | Fig. 9 (energy distribution) | [`figures::fig9`] |
//! | Fig. 10 (energy consumption factor) | [`figures::fig10`] |
//! | Fig. 11 (FLUSH wasted energy) | [`figures::fig11`] |
//! | Extension study (beyond the paper) | [`figures::extension_study`] |
//! | Ablations (beyond the paper) | [`figures::ablations`] |
//!
//! The defaults use a scaled-down fixed interval (see
//! `smtsim_core::config::DEFAULT_CYCLES`); pass larger budgets for
//! tighter numbers.
//!
//! Host-time measurement is not here: the simulator's one benchmark is
//! the package under `src/bin/benchmark` (a package of its own, see its
//! README.md and PERFORMANCE.md).

pub mod figures;

pub use figures::*;
