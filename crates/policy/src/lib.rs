#![forbid(unsafe_code)]
//! # smtsim-policy — SMT instruction-fetch policies
//!
//! The paper frames every long-latency-aware fetch policy as a
//! *Detection Moment* (when do we decide a load will miss the L2?) plus
//! a *Response Action* (what do we do to the offending thread?). The
//! crate is laid out on those two axes: one detect-and-respond policy
//! (`trigger.rs`) pairs any detection moment with FLUSH or STALL, and
//! one priority policy (`priority.rs`) covers the policies that only
//! order threads for fetch.
//!
//! | Policy | Detection moment | Response action |
//! |--------|------------------|-----------------|
//! | ICOUNT, BRCOUNT, L1DMISSCOUNT, RR | — | — (priority only) |
//! | FLUSH-SX / STALL-SX | delay-after-issue (X cycles) | squash + fetch-gate / fetch-gate |
//! | FLUSH-NS / STALL-NS | actual L2 miss | squash + fetch-gate / fetch-gate |
//! | FLUSH-ADAPT | delay-after-issue, X hill-climbed per epoch | squash + fetch-gate |
//! | FLUSH-LMP | per-PC load-miss predictor at the L1 miss | squash + fetch-gate |
//! | MFLUSH | **dynamic per-bank prediction** (MCReg) with a *Preventive State* | gate early, squash only past the Barrier |
//! | ADTS | — | — (switches ICOUNT/BRCOUNT/L1DMISSCOUNT per epoch) |
//! | DCRA | — | fetch-gate threads over their resource entitlement |
//!
//! Every policy is built from a [`PolicyKind`] by [`build_policy`]; the
//! concrete types are private. Only MFLUSH's configuration
//! ([`mflush::MflushConfig`], [`mflush::McRegFile`] and its config
//! types) is public, for figures and ablations.
//!
//! Policies are decoupled from the core model: the core feeds them
//! per-cycle [`ThreadSnapshot`]s plus memory events, and executes the
//! [`PolicyAction`]s they emit. This mirrors how a fetch policy is just
//! a small front-end controller in real hardware.
//!
//! Extensions beyond the paper's evaluation: RR, BRCOUNT, L1DMISSCOUNT,
//! the ADTS-style adaptive meta-policy, the DCRA-style policy (the
//! paper's reference \[3\]), FLUSH-ADAPT and FLUSH-LMP.
//!
//! ```
//! use smtsim_policy::{build_policy, PolicyEnv, PolicyKind, ThreadSnapshot};
//!
//! // MFLUSH for the paper's 4-core machine.
//! let mut policy = build_policy(PolicyKind::Mflush, &PolicyEnv::paper(4));
//! assert_eq!(policy.name(), "MFLUSH");
//!
//! // A load issues, misses the L1 towards bank 2, and stays
//! // outstanding: past MIN+MT the thread enters the Preventive State.
//! policy.on_load_issue(0, 1, 0x4000, 0);
//! policy.on_l1d_miss(0, 1, 2, 3);
//! let snaps = [ThreadSnapshot::idle(0), ThreadSnapshot::idle(1)];
//! let mut actions = Vec::new();
//! policy.tick(79, &snaps, &mut actions); // 22 + (4+15)·3 = 79
//! assert_eq!(
//!     actions,
//!     vec![smtsim_policy::PolicyAction::Stall { tid: 0 }]
//! );
//! ```

mod adts;
mod builder;
mod dcra;
pub mod metrics;
pub mod mflush;
mod priority;
mod trigger;
mod types;

pub use builder::{build_policy, PolicyEnv, PolicyKind};
pub use metrics::METRICS;
pub use mflush::{McRegFile, McRegReducer, MflushConfig};
pub use types::{FetchPolicy, LoadToken, PolicyAction, ThreadSnapshot};
