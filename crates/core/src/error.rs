//! The simulator's failure model (DESIGN.md §11).
//!
//! Every way a run can fail is a [`SimError`] variant, so that drivers
//! (the `smtsim` CLI, `run_sweep`, the figure harness) report failures
//! as machine-readable JSON instead of aborting the process. Errors are
//! values: a sweep with one failed job still returns every other job's
//! result, byte-identical to a fault-free sweep.

use crate::json::{JsonObject, JsonValue, ToJson};
use smtsim_cpu::ThreadProbe;
use std::fmt;

/// Everything that can go wrong building or running one simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The [`crate::config::SimConfig`] failed validation.
    InvalidConfig(String),
    /// The forward-progress watchdog fired: no core committed an
    /// instruction and no memory transaction retired for
    /// `watchdog_cycles` consecutive cycles (a livelocked machine —
    /// e.g. an MSHR leak, a swallowed DRAM response, or a policy that
    /// fences every thread forever).
    NoForwardProgress {
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// The core that has gone longest without committing.
        core: u32,
        /// That core's last commit cycle (0 = never committed).
        last_commit_cycle: u64,
        /// Structured machine-state snapshot at the firing cycle.
        diagnostic: ProgressDiagnostic,
    },
    /// A sweep job panicked. Jobs run once: a simulation is a pure
    /// function of its config, so a second attempt would panic again.
    JobPanicked {
        /// The job's sweep label.
        label: String,
        /// The panic payload, when it was a string.
        payload: String,
    },
}

/// Machine-state snapshot attached to a `NoForwardProgress` error:
/// enough to diagnose *which* resource wedged without re-running under
/// a debugger. Deterministic — built purely from simulated state.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressDiagnostic {
    /// Fetch-policy label in force (e.g. `"MFLUSH"`).
    pub policy: String,
    /// The watchdog interval that fired.
    pub watchdog_cycles: u64,
    /// Memory requests still in flight system-wide.
    pub inflight: u64,
    /// Per-core pipeline and MSHR state.
    pub cores: Vec<CoreDiagnostic>,
}

/// One core's slice of a [`ProgressDiagnostic`].
#[derive(Debug, Clone, PartialEq)]
pub struct CoreDiagnostic {
    /// Core id.
    pub core: u32,
    /// Cycle of this core's most recent commit (0 = never).
    pub last_commit_cycle: u64,
    /// Occupied MSHR entries.
    pub mshr_occupancy: u64,
    /// Whether the MSHR file is full (no new misses can issue).
    pub mshr_full: bool,
    /// Per-thread fetch/ROB state.
    pub threads: Vec<ThreadProbe>,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SimError::NoForwardProgress {
                cycle,
                core,
                last_commit_cycle,
                ..
            } => write!(
                f,
                "no forward progress by cycle {cycle}: core {core} last committed at cycle {last_commit_cycle}"
            ),
            SimError::JobPanicked { label, payload } => {
                write!(f, "job '{label}' panicked: {payload}")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl ToJson for ThreadProbe {
    fn write_json(&self, out: &mut String) {
        let mut o = JsonObject::begin(out);
        o.field("tid", &self.tid)
            .field("gate", &self.gate)
            .field("frontend", &self.frontend)
            .field("rob", &self.rob)
            .field("icache_wait", &self.icache_wait)
            .field("committed", &self.committed);
        o.end();
    }
}

impl ToJson for CoreDiagnostic {
    fn write_json(&self, out: &mut String) {
        let mut o = JsonObject::begin(out);
        o.field("core", &self.core)
            .field("last_commit_cycle", &self.last_commit_cycle)
            .field("mshr_occupancy", &self.mshr_occupancy)
            .field("mshr_full", &self.mshr_full)
            .field("threads", &self.threads);
        o.end();
    }
}

impl ToJson for ProgressDiagnostic {
    fn write_json(&self, out: &mut String) {
        let mut o = JsonObject::begin(out);
        o.field("policy", &self.policy)
            .field("watchdog_cycles", &self.watchdog_cycles)
            .field("inflight", &self.inflight)
            .field("cores", &self.cores);
        o.end();
    }
}

impl ToJson for SimError {
    fn write_json(&self, out: &mut String) {
        let mut o = JsonObject::begin(out);
        match self {
            SimError::InvalidConfig(msg) => {
                o.field("error", &"invalid_config").field("detail", msg);
            }
            SimError::NoForwardProgress {
                cycle,
                core,
                last_commit_cycle,
                diagnostic,
            } => {
                o.field("error", &"no_forward_progress")
                    .field("cycle", cycle)
                    .field("core", core)
                    .field("last_commit_cycle", last_commit_cycle)
                    .field("diagnostic", diagnostic);
            }
            SimError::JobPanicked { label, payload } => {
                o.field("error", &"job_panicked")
                    .field("label", label)
                    .field("payload", payload);
            }
        }
        o.end();
    }
}

// ---------------------------------------------------------------------
// JSON decoding — the inverse of the impls above, used by the result
// journal to replay recorded failures byte-identically.
// ---------------------------------------------------------------------

fn snapshot_from_json(v: &JsonValue) -> Result<ThreadProbe, String> {
    Ok(ThreadProbe {
        tid: v.req_u64("tid")? as u32,
        gate: v.req_str("gate")?.to_string(),
        frontend: v.req_u64("frontend")? as u32,
        rob: v.req_u64("rob")? as u32,
        icache_wait: v.req_bool("icache_wait")?,
        committed: v.req_u64("committed")?,
    })
}

fn core_diag_from_json(v: &JsonValue) -> Result<CoreDiagnostic, String> {
    Ok(CoreDiagnostic {
        core: v.req_u64("core")? as u32,
        last_commit_cycle: v.req_u64("last_commit_cycle")?,
        mshr_occupancy: v.req_u64("mshr_occupancy")?,
        mshr_full: v.req_bool("mshr_full")?,
        threads: v
            .req_arr("threads")?
            .iter()
            .map(snapshot_from_json)
            .collect::<Result<_, _>>()?,
    })
}

fn diag_from_json(v: &JsonValue) -> Result<ProgressDiagnostic, String> {
    Ok(ProgressDiagnostic {
        policy: v.req_str("policy")?.to_string(),
        watchdog_cycles: v.req_u64("watchdog_cycles")?,
        inflight: v.req_u64("inflight")?,
        cores: v
            .req_arr("cores")?
            .iter()
            .map(core_diag_from_json)
            .collect::<Result<_, _>>()?,
    })
}

impl SimError {
    /// Whether the error says nothing permanent about the config.
    /// True only for [`SimError::JobPanicked`]: a panic is a simulator
    /// bug, not an answer, so it is never persisted
    /// ([`crate::cache::ResultCache::store_outcome`]) and a later run
    /// simulates the config afresh. Every other failure is a
    /// deterministic function of the config (the watchdog counts
    /// simulated cycles, not wall time) and is as permanent as a
    /// result.
    pub fn is_transient(&self) -> bool {
        matches!(self, SimError::JobPanicked { .. })
    }

    /// Decode an error from its own JSON rendering (exact inverse of
    /// the [`ToJson`] impl — every field is an integer, bool or string,
    /// so `encode(decode(encode(e))) == encode(e)` holds byte-for-byte).
    pub fn from_json(v: &JsonValue) -> Result<SimError, String> {
        match v.req_str("error")? {
            "invalid_config" => Ok(SimError::InvalidConfig(v.req_str("detail")?.to_string())),
            "no_forward_progress" => Ok(SimError::NoForwardProgress {
                cycle: v.req_u64("cycle")?,
                core: v.req_u64("core")? as u32,
                last_commit_cycle: v.req_u64("last_commit_cycle")?,
                diagnostic: diag_from_json(v.get("diagnostic").ok_or("missing diagnostic")?)?,
            }),
            "job_panicked" => Ok(SimError::JobPanicked {
                label: v.req_str("label")?.to_string(),
                payload: v.req_str("payload")?.to_string(),
            }),
            other => Err(format!("unknown error kind {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;

    fn sample_npf() -> SimError {
        SimError::NoForwardProgress {
            cycle: 70_000,
            core: 1,
            last_commit_cycle: 19_988,
            diagnostic: ProgressDiagnostic {
                policy: "MFLUSH".into(),
                watchdog_cycles: 50_000,
                inflight: 3,
                cores: vec![CoreDiagnostic {
                    core: 1,
                    last_commit_cycle: 19_988,
                    mshr_occupancy: 16,
                    mshr_full: true,
                    threads: vec![ThreadProbe {
                        tid: 0,
                        gate: "Open".into(),
                        frontend: 4,
                        rob: 64,
                        icache_wait: false,
                        committed: 12_345,
                    }],
                }],
            },
        }
    }

    #[test]
    fn errors_roundtrip_through_json() {
        for e in [
            SimError::InvalidConfig("cycles == 0".into()),
            sample_npf(),
            SimError::JobPanicked {
                label: "fig8/6W4/MFLUSH".into(),
                payload: "index out of bounds".into(),
            },
        ] {
            let j = e.to_json();
            let v = parse_json(&j).unwrap();
            let back = SimError::from_json(&v).unwrap();
            assert_eq!(back, e);
            assert_eq!(back.to_json(), j, "re-encode must be byte-identical");
        }
    }

    #[test]
    fn display_names_the_stall_site() {
        let msg = sample_npf().to_string();
        assert!(msg.contains("cycle 70000"));
        assert!(msg.contains("core 1"));
    }
}
