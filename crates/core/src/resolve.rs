//! Run parameters → validated [`SimConfig`].
//!
//! The one place a run's user-level parameters — workload or benchmark
//! list, policy, cycles, seed, watchdog — are turned into an
//! experiment. The `smtsim` CLI (`run`, `sweep`) and serve (`POST
//! /run`) only spell their own flags or keys into a [`RunParams`];
//! defaults, name lookup, did-you-mean hints and validation live here,
//! so the two front ends cannot drift. An `Err` is the complete
//! user-facing message: the CLI prints it and exits 2, serve answers
//! it with a 400.
//!
//! ```
//! use smtsim_core::resolve::RunParams;
//!
//! let cfg = RunParams {
//!     workload: Some("4W3"),
//!     ..RunParams::default()
//! }
//! .resolve()
//! .unwrap();
//! assert_eq!(cfg.cores(), 2);
//!
//! let err = RunParams { workload: Some("4W3"), policy: Some("mflsh"), ..RunParams::default() }
//!     .resolve()
//!     .unwrap_err();
//! assert!(err.contains("did you mean 'mflush'"));
//! ```

use crate::config::{SimConfig, DEFAULT_CYCLES, DEFAULT_SEED, DEFAULT_WATCHDOG};
use crate::suggest::unknown_name;
use crate::workloads::{Workload, ALL_WORKLOADS, FIG5B_WORKLOAD};
use smtsim_policy::PolicyKind;

/// A run's user-level parameters; `None` selects the default.
#[derive(Debug, Default)]
pub struct RunParams<'a> {
    /// Paper workload name (`"2W1"` … `"8W5"`, or the Fig. 5(b) name).
    /// Exclusive with `benchmarks`.
    pub workload: Option<&'a str>,
    /// Benchmark names, one per hardware thread (consecutive pairs
    /// share a core). Exclusive with `workload`.
    pub benchmarks: Option<Vec<&'a str>>,
    /// Fetch-policy name, e.g. `flush-s30` (default MFLUSH).
    pub policy: Option<&'a str>,
    /// Simulated cycles (default [`DEFAULT_CYCLES`]).
    pub cycles: Option<u64>,
    /// Base RNG seed (default [`DEFAULT_SEED`]).
    pub seed: Option<u64>,
    /// Watchdog interval in cycles, `0` disables (default
    /// [`DEFAULT_WATCHDOG`]).
    pub watchdog: Option<u64>,
}

impl RunParams<'_> {
    /// Resolve every name, apply the defaults and validate the result.
    pub fn resolve(&self) -> Result<SimConfig, String> {
        let policy = match self.policy {
            None => PolicyKind::Mflush,
            Some(name) => PolicyKind::parse_name(name).ok_or_else(|| {
                unknown_name(
                    "policy",
                    name,
                    &PolicyKind::SUGGESTED_NAMES,
                    "try `smtsim policies`",
                )
            })?,
        };
        let base = match (self.workload, &self.benchmarks) {
            (Some(_), Some(_)) => {
                return Err("give either a workload or a benchmark list, not both".into())
            }
            (Some(name), None) => {
                let w = Workload::by_name(name).ok_or_else(|| {
                    unknown_name(
                        "workload",
                        name,
                        &workload_names(),
                        "try `smtsim workloads`",
                    )
                })?;
                SimConfig::for_workload(w, policy)
            }
            (None, Some(names)) => SimConfig::for_benchmarks(names, policy),
            (None, None) => return Err("need a workload or a benchmark list".into()),
        };
        let cfg = base
            .with_cycles(self.cycles.unwrap_or(DEFAULT_CYCLES))
            .with_seed(self.seed.unwrap_or(DEFAULT_SEED))
            .with_watchdog(self.watchdog.unwrap_or(DEFAULT_WATCHDOG));
        cfg.validate()?;
        Ok(cfg)
    }
}

/// Every workload name [`Workload::by_name`] accepts (hint candidates;
/// built only on the error path).
fn workload_names() -> Vec<&'static str> {
    ALL_WORKLOADS
        .iter()
        .chain([&FIG5B_WORKLOAD])
        .map(|w| w.name)
        .collect()
}

/// Every SPEC2000 benchmark name (hint candidates; built only on the
/// error path).
pub(crate) fn benchmark_names() -> Vec<&'static str> {
    smtsim_trace::spec::ALL_BENCHMARKS
        .iter()
        .map(|b| b.name)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suggest::did_you_mean;

    #[test]
    fn suggestions_catch_close_typos() {
        assert_eq!(
            did_you_mean("mflsh", &PolicyKind::SUGGESTED_NAMES),
            Some("mflush")
        );
        assert_eq!(
            did_you_mean("icont", &PolicyKind::SUGGESTED_NAMES),
            Some("icount")
        );
        assert_eq!(
            did_you_mean("FLUSH-NS", &PolicyKind::SUGGESTED_NAMES),
            Some("flush-ns")
        );
        assert_eq!(did_you_mean("8W2", &workload_names()), Some("8W2"));
        assert!(did_you_mean("8w9", &workload_names()).is_some());
        assert_eq!(did_you_mean("mfc", &benchmark_names()), Some("mcf"));
    }

    #[test]
    fn defaults_match_the_paper_workload_config() {
        let cfg = RunParams {
            workload: Some("2W2"),
            ..RunParams::default()
        }
        .resolve()
        .unwrap();
        let w = Workload::by_name("2W2").unwrap();
        assert_eq!(
            format!("{cfg:?}"),
            format!("{:?}", SimConfig::for_workload(w, PolicyKind::Mflush))
        );
    }

    #[test]
    fn every_parameter_reaches_the_config() {
        let cfg = RunParams {
            benchmarks: Some(vec!["mcf", "gzip"]),
            policy: Some("flush-s30"),
            cycles: Some(1234),
            seed: Some(99),
            watchdog: Some(0),
            ..RunParams::default()
        }
        .resolve()
        .unwrap();
        assert_eq!(cfg.benchmarks, ["mcf", "gzip"]);
        assert_eq!(cfg.policy, PolicyKind::FlushSpec(30));
        assert_eq!((cfg.cycles, cfg.seed, cfg.watchdog_cycles), (1234, 99, 0));
    }

    #[test]
    fn bad_parameters_are_errors_with_hints() {
        let wl = |w| RunParams {
            workload: Some(w),
            ..RunParams::default()
        };
        let benches = |b| RunParams {
            benchmarks: Some(b),
            ..RunParams::default()
        };
        for (params, want) in [
            (wl("2w9"), "did you mean"),
            (
                RunParams {
                    policy: Some("mflsh"),
                    ..wl("2W1")
                },
                "did you mean 'mflush'",
            ),
            (
                RunParams {
                    cycles: Some(0),
                    ..wl("2W1")
                },
                "cycles == 0",
            ),
            (
                RunParams {
                    benchmarks: Some(vec!["mcf", "gzip"]),
                    ..wl("2W1")
                },
                "not both",
            ),
            (RunParams::default(), "need a workload"),
            (benches(vec!["mfc", "gzip"]), "did you mean 'mcf'"),
            (benches(vec!["mcf", "gzip", "swim"]), "3 benchmarks"),
            (benches(vec![]), "no benchmarks"),
        ] {
            let err = params.resolve().unwrap_err();
            assert!(err.contains(want), "{params:?}: {err}");
        }
    }
}
