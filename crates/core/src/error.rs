//! The simulator's failure model (DESIGN.md §11).
//!
//! Every way a run can fail is a [`SimError`] variant, so that drivers
//! (the `smtsim` CLI, `run_sweep`, the figure harness) report failures
//! as machine-readable JSON instead of aborting the process. Errors are
//! values: a sweep with one failed job still returns every other job's
//! result, byte-identical to a fault-free sweep.

use crate::json::{field, JsonObject, JsonValue, ToJson};
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

smtsim_obs::record! {
    /// Machine-state snapshot attached to a `NoForwardProgress` error:
    /// enough to diagnose *which* resource wedged without re-running under
    /// a debugger. Deterministic — built purely from simulated state.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ProgressDiagnostic {
        #[label]
        /// Fetch-policy label in force (e.g. `"MFLUSH"`).
        pub policy: String,
        #[gauge("cycles")]
        /// The watchdog interval that fired.
        pub watchdog_cycles: u64,
        #[gauge("requests")]
        /// Memory requests still in flight system-wide.
        pub inflight: u64,
        #[record]
        /// Per-core pipeline and MSHR state.
        pub cores: Vec<CoreDiagnostic>,
    }
    decode;
}

smtsim_obs::record! {
    /// One core's slice of a [`ProgressDiagnostic`].
    #[derive(Debug, Clone, PartialEq)]
    pub struct CoreDiagnostic {
        #[label]
        /// Core id.
        pub core: u32,
        #[gauge("cycle")]
        /// Cycle of this core's most recent commit (0 = never).
        pub last_commit_cycle: u64,
        #[gauge("entries")]
        /// Occupied MSHR entries.
        pub mshr_occupancy: u64,
        #[label]
        /// Whether the MSHR file is full (no new misses can issue).
        pub mshr_full: bool,
        #[record]
        /// Per-thread fetch/ROB state.
        pub threads: Vec<ThreadProbe>,
    }
    decode;
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
            "invalid_config" => Ok(SimError::InvalidConfig(field(v, "detail")?)),
            "no_forward_progress" => Ok(SimError::NoForwardProgress {
                cycle: field(v, "cycle")?,
                core: field(v, "core")?,
                last_commit_cycle: field(v, "last_commit_cycle")?,
                diagnostic: field(v, "diagnostic")?,
            }),
            "job_panicked" => Ok(SimError::JobPanicked {
                label: field(v, "label")?,
                payload: field(v, "payload")?,
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
    fn from_json_rejects_damaged_documents() {
        let good = sample_npf().to_json();
        let mut damaged = Vec::new();
        // A `u32` field holding 2^32 would read back as 0 if it were
        // truncated; it must not decode at all.
        // The error's `core` and its diagnostic's both.
        let core = "\"core\":";
        let keys = [
            good.find(core).unwrap(),
            good.rfind(core).unwrap(),
            good.find("\"tid\":").unwrap(),
            good.find("\"frontend\":").unwrap(),
            good.find("\"rob\":").unwrap(),
        ];
        assert_ne!(keys[0], keys[1]);
        for key in keys {
            let at = key + good[key..].find(':').unwrap() + 1;
            let len = good[at..].find([',', '}']).unwrap();
            assert_eq!(
                good[at..at + len].parse::<u64>().map(|n| n < 1 << 32),
                Ok(true)
            );
            damaged.push(format!("{}4294967296{}", &good[..at], &good[at + len..]));
        }
        damaged.push(good.replace("\"mshr_full\":true", "\"mshr_full\":1"));
        damaged.push(good.replace("\"gate\":\"Open\"", "\"gate\":null"));
        damaged.push(good.replace(",\"inflight\":3", ""));
        damaged.push(r#"{"error":"no_such_error"}"#.to_string());
        for bad in damaged {
            assert_ne!(bad, good);
            let v = parse_json(&bad).unwrap();
            assert!(SimError::from_json(&v).is_err(), "accepted {bad}");
        }
        assert_eq!(
            SimError::from_json(&parse_json(&good).unwrap()),
            Ok(sample_npf())
        );
    }

    #[test]
    fn display_names_the_stall_site() {
        let msg = sample_npf().to_string();
        assert!(msg.contains("cycle 70000"));
        assert!(msg.contains("core 1"));
    }
}
