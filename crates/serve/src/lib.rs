//! `smtsim-serve` — the fault-tolerant sweep service (DESIGN.md §15).
//!
//! A std-only HTTP/1.1 server (`std::net::TcpListener` + a
//! `std::thread` worker pool, persistent connections) that accepts
//! simulation config JSON on `POST /run`, validates it through the
//! existing
//! [`SimConfig::validate`](smtsim_core::SimConfig::validate) path
//! (400s with did-you-mean hints), and answers repeat queries
//! **byte-identically** from a persistent fingerprint-keyed result
//! cache ([`smtsim_core::cache::ResultCache`]). Identical concurrent
//! requests wait on their config's one cache slot for the first one's
//! answer and never re-simulate.
//!
//! Robustness model (proven in `tests/robustness.rs`):
//!
//! * per-request deadline via socket read/write timeouts (slow-loris
//!   clients get 408 and the worker moves on), plus the simulator's
//!   own forward-progress watchdog per job;
//! * one attempt per job: a panicking job is answered 500
//!   (`JobPanicked`) and never cached, so the next request for the
//!   same config simulates afresh; no wall-clock reads anywhere (the
//!   whole crate is D2-clean);
//! * bounded accept queue with load shedding (429 + `Retry-After`)
//!   and 503 while draining, instead of unbounded memory growth;
//! * graceful drain on `POST /shutdown`: in-flight jobs finish, the
//!   cache is fsynced, new work is refused;
//! * a tests-only [`fault::ServeFaultPlan`] (mirroring
//!   `smtsim-mem::FaultPlan`) injects mid-response drops, torn cache
//!   writes, poisoned jobs and stalled responses.
//!
//! Lint rule D13 holds the layering: `std::net` lives only in this
//! crate, and no function here is reachable from a simulator root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod client;
pub mod fault;
pub mod http;
pub mod metrics;
pub mod request;
pub mod server;

pub use client::{http_get, http_post, ClientResponse};
pub use fault::ServeFaultPlan;
pub use metrics::ServeCounters;
pub use server::{Server, ServerConfig, ServerHandle};
