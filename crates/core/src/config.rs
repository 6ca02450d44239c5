//! Experiment configuration.

use crate::fidelity::Fidelity;
use crate::resolve::benchmark_names;
use crate::suggest::unknown_name;
use crate::workloads::Workload;
use smtsim_cpu::CoreConfig;
use smtsim_mem::MemConfig;
use smtsim_policy::{PolicyEnv, PolicyKind};

/// Default measurement interval in cycles.
///
/// The paper simulates a fixed 120M-cycle interval; with warmed caches
/// our synthetic traces reach steady state quickly, so the default is
/// scaled down to keep full figure sweeps tractable. Every driver knob
/// remains overridable.
pub const DEFAULT_CYCLES: u64 = 150_000;

/// Default base RNG seed: what `smtsim run` and a serve request use
/// when no seed is given, so their answers byte-match.
pub const DEFAULT_SEED: u64 = 0x5eed;

/// Default forward-progress watchdog interval in cycles.
///
/// If no core commits an instruction and no memory transaction retires
/// for this many consecutive cycles, the run aborts with
/// `SimError::NoForwardProgress` instead of silently spinning to the
/// cycle budget. The longest legitimate stall in the Fig. 1 machine is
/// a few thousand cycles (TLB miss + L2 miss + full bus contention),
/// so 50k is an order of magnitude of headroom.
pub const DEFAULT_WATCHDOG: u64 = 50_000;

/// Default event-ring capacity per component when tracing is enabled
/// (`--trace-events`).
///
/// Rings keep the most recent events, so the tail of a run — where a
/// FLUSH storm or a livelock lives — always survives; 64Ki records per
/// component bounds memory at a few MB per core while covering tens of
/// thousands of cycles of dense activity.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Default interval metrics sampling period in cycles
/// (`--metrics-interval`).
///
/// Coarse enough that sampling cost is invisible, fine enough to
/// resolve policy phase behaviour within the default
/// [`DEFAULT_CYCLES`]-cycle run (15 samples).
pub const DEFAULT_METRICS_INTERVAL: u64 = 10_000;

/// One complete experiment: machine + workload + policy + interval.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Per-core configuration (Fig. 1 defaults); `contexts` is the
    /// machine's threads per core.
    pub core: CoreConfig,
    /// Memory hierarchy configuration; `num_cores` and `l2_clusters`
    /// are the machine's core count and L2 partitioning.
    pub mem: MemConfig,
    /// Fetch policy for every core.
    pub policy: PolicyKind,
    /// Benchmark names, one per hardware thread, in thread order
    /// (consecutive pairs share a core).
    pub benchmarks: Vec<String>,
    /// Simulated cycles (fixed interval, as in the paper).
    pub cycles: u64,
    /// Base RNG seed; thread `i` uses `seed + i * 7919`.
    pub seed: u64,
    /// Warm caches/TLBs to the trace-driven starting condition.
    pub warmup: bool,
    /// Forward-progress watchdog interval in cycles; `0` disables the
    /// watchdog entirely.
    pub watchdog_cycles: u64,
    /// Stall skip-ahead: when every component reports a quiescent
    /// window (DESIGN.md §16), jump the cycle counter to the next
    /// event instead of ticking through provable no-ops. Results are
    /// byte-identical either way (pinned by the `skip_ahead` property
    /// tests); the switch exists for A/B verification and debugging.
    pub skip_ahead: bool,
}

impl SimConfig {
    /// Experiment on a paper workload with Fig. 1 machine defaults.
    pub fn for_workload(workload: &Workload, policy: PolicyKind) -> Self {
        SimConfig {
            core: CoreConfig::paper(),
            mem: MemConfig::paper(workload.cores()),
            policy,
            benchmarks: workload
                .benchmark_names()
                .into_iter()
                .map(String::from)
                .collect(),
            cycles: DEFAULT_CYCLES,
            seed: DEFAULT_SEED,
            warmup: true,
            watchdog_cycles: DEFAULT_WATCHDOG,
            skip_ahead: true,
        }
    }

    /// Ad-hoc experiment from benchmark names (must be an even count).
    pub fn for_benchmarks(benchmarks: &[&str], policy: PolicyKind) -> Self {
        let cores = (benchmarks.len() / 2).max(1) as u32;
        SimConfig {
            core: CoreConfig::paper(),
            mem: MemConfig::paper(cores),
            policy,
            benchmarks: benchmarks.iter().map(|s| s.to_string()).collect(),
            cycles: DEFAULT_CYCLES,
            seed: DEFAULT_SEED,
            warmup: true,
            watchdog_cycles: DEFAULT_WATCHDOG,
            skip_ahead: true,
        }
    }

    /// Builder-style override of the measurement interval.
    pub fn with_cycles(mut self, cycles: u64) -> Self {
        self.cycles = cycles;
        self
    }

    /// Builder-style override of the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style override of the watchdog interval (0 disables).
    pub fn with_watchdog(mut self, watchdog_cycles: u64) -> Self {
        self.watchdog_cycles = watchdog_cycles;
        self
    }

    /// Builder-style override of stall skip-ahead (on by default).
    pub fn with_skip_ahead(mut self, skip_ahead: bool) -> Self {
        self.skip_ahead = skip_ahead;
        self
    }

    /// Always [`Fidelity::detailed`]. Stays only for the benchmark
    /// package's traced driver (see [`crate::fidelity`]).
    pub fn fidelity(&self) -> Fidelity {
        Fidelity::detailed()
    }

    /// Number of SMT cores — `mem.num_cores`, not a division of the
    /// benchmark list (`validate` checks the list fills the machine
    /// exactly).
    pub fn cores(&self) -> u32 {
        self.mem.num_cores
    }

    /// The policy environment the machine parameters imply (feeds
    /// MFLUSH's MIN/MAX/MT operational environment).
    pub fn policy_env(&self) -> PolicyEnv {
        PolicyEnv {
            min_latency: self.mem.l1_miss_nominal(),
            max_latency: self.mem.l2_miss_nominal(),
            bus_delay: self.mem.bus_latency,
            bank_delay: self.mem.l2_bank_cycles,
            // MFLUSH's MT term scales with the cores sharing *one* L2.
            num_cores: self.mem.cores_per_cluster(),
            num_banks: self.mem.l2_banks,
            shared_queue_entries: self.core.int_queue,
        }
    }

    /// Validate the experiment.
    pub fn validate(&self) -> Result<(), String> {
        self.core.validate()?;
        self.mem.validate()?;
        if self.benchmarks.is_empty() {
            return Err("no benchmarks".into());
        }
        let contexts = self.core.contexts as usize;
        if !self.benchmarks.len().is_multiple_of(contexts) {
            // Reported before any cores-vs-benchmarks comparison: a
            // truncating division here used to let e.g. 5 benchmarks
            // masquerade as 2 cores' worth.
            return Err(format!(
                "{} benchmarks cannot be split into {}-context cores: \
                 give a multiple of {} benchmark names (one per hardware thread)",
                self.benchmarks.len(),
                contexts,
                contexts
            ));
        }
        let threads = self.mem.num_cores as usize * contexts;
        if self.benchmarks.len() != threads {
            return Err(format!(
                "{} benchmarks but the machine has {threads} threads ({} cores x {contexts} contexts)",
                self.benchmarks.len(),
                self.mem.num_cores,
            ));
        }
        if let Some(b) = self
            .benchmarks
            .iter()
            .find(|b| smtsim_trace::spec::benchmark_by_name(b).is_none())
        {
            return Err(unknown_name(
                "benchmark",
                b,
                &benchmark_names(),
                "see the SPEC2000 names in DESIGN.md §4",
            ));
        }
        if self.cycles == 0 {
            return Err("cycles == 0".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_config_is_consistent() {
        let w = Workload::by_name("6W3").unwrap();
        let cfg = SimConfig::for_workload(w, PolicyKind::Mflush);
        cfg.validate().unwrap();
        assert_eq!(cfg.cores(), 3);
        assert_eq!(cfg.mem.num_cores, 3);
        assert_eq!(cfg.benchmarks.len(), 6);
    }

    #[test]
    fn policy_env_matches_fig1_machine() {
        let w = Workload::by_name("8W1").unwrap();
        let cfg = SimConfig::for_workload(w, PolicyKind::Mflush);
        let env = cfg.policy_env();
        assert_eq!(env.min_latency, 22);
        assert_eq!(env.max_latency, 272);
        assert_eq!(env.num_cores, 4);
        assert_eq!(env.num_banks, 4);
    }

    #[test]
    fn mismatched_core_count_rejected() {
        let w = Workload::by_name("4W1").unwrap();
        let mut cfg = SimConfig::for_workload(w, PolicyKind::Icount);
        cfg.mem = MemConfig::paper(3);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn unknown_benchmark_rejected() {
        let mut cfg = SimConfig::for_benchmarks(&["gzip", "nosuch"], PolicyKind::Icount);
        assert!(cfg.validate().is_err());
        cfg.benchmarks[1] = "mcf".into();
        cfg.validate().unwrap();
    }

    #[test]
    fn unknown_benchmark_gets_typo_hint() {
        let cfg = SimConfig::for_benchmarks(&["gzip", "mfc"], PolicyKind::Icount);
        let err = cfg.validate().unwrap_err();
        assert!(
            err.contains("did you mean 'mcf'?"),
            "expected a suggestion, got: {err}"
        );
        // Garbage far from any name still errors, just without a hint.
        let cfg = SimConfig::for_benchmarks(&["gzip", "zzzzzzzz"], PolicyKind::Icount);
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("unknown benchmark") && !err.contains("did you mean"));
    }

    #[test]
    fn odd_benchmark_count_rejected_with_clear_message() {
        let w = Workload::by_name("4W1").unwrap();
        let mut cfg = SimConfig::for_workload(w, PolicyKind::Icount);
        cfg.benchmarks.pop();
        let err = cfg.validate().unwrap_err();
        assert!(
            err.contains("3 benchmarks") && err.contains("2-context"),
            "message must name the count and the context width, got: {err}"
        );
    }

    #[test]
    fn benchmark_count_must_fill_the_machine() {
        let w = Workload::by_name("4W1").unwrap();
        let mut cfg = SimConfig::for_workload(w, PolicyKind::Icount);
        // Even count (passes the multiple-of-contexts gate) but one
        // whole core short of the 2-core machine.
        cfg.benchmarks.truncate(2);
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("machine has 4 threads"), "{err}");
    }

    #[test]
    fn builders_override() {
        let w = Workload::by_name("2W1").unwrap();
        let cfg = SimConfig::for_workload(w, PolicyKind::Icount)
            .with_cycles(42)
            .with_seed(7)
            .with_watchdog(1000);
        assert_eq!(cfg.cycles, 42);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.watchdog_cycles, 1000);
    }

    #[test]
    fn watchdog_defaults_on() {
        let w = Workload::by_name("2W1").unwrap();
        let cfg = SimConfig::for_workload(w, PolicyKind::Icount);
        assert_eq!(cfg.watchdog_cycles, DEFAULT_WATCHDOG);
        assert!(cfg.watchdog_cycles > 0);
    }
}
