//! The cycle-level CMP+SMT simulator.
//!
//! A [`Simulator`] owns `N` [`SmtCore`]s and the shared
//! [`MemoryModel`]. Each cycle the memory system advances first, then
//! every core, in id order — matching the in-order tick protocol the
//! component crates document. Which memory model sits behind the
//! [`MemoryModel`] facade — the detailed golden-figure hierarchy or the
//! fast scouting one — is chosen by the config's
//! [`crate::fidelity::Fidelity`] (DESIGN.md §13);
//! the driver itself is fidelity-agnostic.
//!
//! The cycle loop carries a forward-progress watchdog: if no core
//! commits an instruction and no memory transaction retires for
//! `SimConfig::watchdog_cycles` consecutive cycles, the run aborts with
//! [`SimError::NoForwardProgress`] carrying a structured snapshot of the
//! wedged machine. The watchdog counts only simulated events — no wall
//! clock — so same-seed runs stay byte-identical.

use crate::config::SimConfig;
use crate::error::{CoreDiagnostic, ProgressDiagnostic, SimError};
use crate::obs::{self, MetricsRecorder, TraceRow};
use crate::result::SimResult;
use smtsim_cpu::thread::ThreadProgram;
use smtsim_cpu::SmtCore;
use smtsim_mem::MemoryModel;
use smtsim_obs::MetricSample;

use smtsim_policy::build_policy;
use smtsim_trace::{spec, TraceGenerator};

/// A built machine ready to run.
pub struct Simulator {
    cfg: SimConfig,
    cores: Vec<SmtCore>,
    mem: MemoryModel,
    now: u64,
    /// Per-core committed-instruction count at the last observation.
    last_committed: Vec<u64>,
    /// Cycle of each core's most recent commit (0 = never committed).
    last_commit_cycle: Vec<u64>,
    /// Memory-system completion count at the last observation.
    last_completions: u64,
    /// Last cycle in which *anything* progressed (commit or memory
    /// completion).
    last_progress_cycle: u64,
    /// Interval metrics sampler (`None` unless enabled — sampling off
    /// must not perturb anything, DESIGN.md §12).
    metrics: Option<MetricsRecorder>,
    /// Cycles elided by stall skip-ahead so far (host-work saved;
    /// simulated results are identical with or without them).
    skipped_cycles: u64,
    /// The first `step` has prewarmed the caches (a `step(0)` does not
    /// advance `now`, so the cycle count cannot tell).
    warmed: bool,
}

impl Simulator {
    /// Build the machine for an experiment. Rejects an invalid
    /// configuration with [`SimError::InvalidConfig`].
    pub fn build(cfg: &SimConfig) -> Result<Self, SimError> {
        cfg.validate().map_err(SimError::InvalidConfig)?;
        let env = cfg.policy_env();
        let contexts = cfg.core.contexts as usize;
        let mem = MemoryModel::new(cfg.mem, cfg.fidelity().mem);
        let num_cores = cfg.cores() as usize;
        let mut cores = Vec::with_capacity(num_cores);
        for core_id in 0..cfg.cores() {
            let mut programs: Vec<ThreadProgram> = Vec::with_capacity(contexts);
            for slot in 0..contexts {
                let global = core_id as usize * contexts + slot;
                let profile = spec::benchmark_by_name(&cfg.benchmarks[global]).ok_or_else(
                    // Unreachable after validate(), but kept as an error
                    // rather than a panic: build is fallible now.
                    || {
                        SimError::InvalidConfig(format!(
                            "unknown benchmark {}",
                            cfg.benchmarks[global]
                        ))
                    },
                )?;
                let seed = cfg.seed + global as u64 * 7919;
                programs.push(ThreadProgram::from_generator(TraceGenerator::new(
                    profile, seed,
                )));
            }
            cores.push(SmtCore::new(
                core_id,
                cfg.core,
                build_policy(cfg.policy, &env),
                programs,
            ));
        }
        Ok(Simulator {
            cfg: cfg.clone(),
            last_committed: vec![0; num_cores],
            last_commit_cycle: vec![0; num_cores],
            last_completions: mem.total_completions(),
            last_progress_cycle: 0,
            metrics: None,
            skipped_cycles: 0,
            warmed: false,
            cores,
            mem,
            now: 0,
        })
    }

    /// Advance `cycles` cycles (without collecting a result). Returns
    /// [`SimError::NoForwardProgress`] if the watchdog fires.
    pub fn step(&mut self, cycles: u64) -> Result<(), SimError> {
        if !self.warmed && self.cfg.warmup {
            for c in &mut self.cores {
                c.prewarm(&mut self.mem);
            }
        }
        self.warmed = true;
        let watchdog = self.cfg.watchdog_cycles;
        let end = self.now.saturating_add(cycles);
        while self.now < end {
            self.mem.tick(self.now);
            for c in &mut self.cores {
                c.tick(self.now, &mut self.mem);
            }
            self.now += 1;
            if let Some(rec) = self.metrics.as_mut() {
                if rec.due(self.now) {
                    rec.sample(self.now, &self.cores, &self.mem);
                }
            }
            self.observe_progress();
            if watchdog > 0 && self.now - self.last_progress_cycle >= watchdog {
                return Err(self.no_forward_progress());
            }
            if self.cfg.skip_ahead {
                self.try_skip_ahead(end, watchdog);
            }
        }
        Ok(())
    }

    /// Stall skip-ahead (DESIGN.md §16): when every component reports
    /// its next possible observable event strictly after `self.now`,
    /// the intervening ticks are provable no-ops — jump straight to the
    /// earliest event. The jump target is additionally clamped so that
    /// every cycle the *driver* observes still happens at its exact
    /// time: the end of this `step` call, the watchdog's firing cycle
    /// (`last_progress + watchdog - 1` must still be ticked so the
    /// abort carries an identical cycle number), and the cycle before
    /// the next metrics sample (samples read state *after* a tick of
    /// `due - 1`).
    fn try_skip_ahead(&mut self, end: u64, watchdog: u64) {
        if let Some(target) = self.skip_target(end, watchdog) {
            self.apply_skip(target);
        }
    }

    /// The skip-ahead target from `self.now`, or `None` when some
    /// component could do observable work before then. Pure — shared
    /// by [`try_skip_ahead`](Self::try_skip_ahead) and the test hook
    /// so the tested horizon is the shipped one.
    fn skip_target(&self, end: u64, watchdog: u64) -> Option<u64> {
        let from = self.now;
        // Cores first: on busy cycles (the common case) the first core
        // answers `from` after a couple of probes and the attempt costs
        // almost nothing; the memory-system scan only runs once every
        // core is quiescent.
        let mut target = u64::MAX;
        for c in &self.cores {
            target = target.min(c.next_event_cycle(from));
            if target <= from {
                return None;
            }
        }
        target = target.min(self.mem.next_event_cycle(from));
        if target <= from {
            return None;
        }
        target = target.min(end);
        if watchdog > 0 {
            // Fire cycle is last_progress + watchdog; its tick (a
            // no-op) must run so the abort snapshot is identical.
            target = target.min(self.last_progress_cycle + watchdog - 1);
        }
        if let Some(rec) = &self.metrics {
            let interval = rec.interval();
            let next_due = (from / interval + 1) * interval;
            target = target.min(next_due - 1);
        }
        (target > from).then_some(target)
    }

    /// Jump to `target`, compensating the cores' time-based accounting
    /// for the cycles that will never be ticked. The memory side is
    /// purely event-timed: a window it has no event in (which implies
    /// no bus input awaits a grant) needs no repair.
    fn apply_skip(&mut self, target: u64) {
        let from = self.now;
        let skipped = target - from;
        debug_assert!(
            self.mem.next_event_cycle(from) > from,
            "skip over pending memory work"
        );
        for c in &mut self.cores {
            c.notify_skip(from, skipped);
        }
        self.skipped_cycles += skipped;
        self.now = target;
    }

    /// Test-only: the skip target the engine would pick right now for a
    /// run ending at `end` (clamps included), without applying it.
    #[doc(hidden)]
    pub fn skip_target_for_test(&self, end: u64) -> Option<u64> {
        self.skip_target(end, self.cfg.watchdog_cycles)
    }

    /// Test-only: unconditionally jump to `target` with the real skip
    /// accounting. Lets the mutation suite plant an off-by-one past the
    /// computed horizon and prove the byte-identity gate catches it.
    #[doc(hidden)]
    pub fn force_skip_for_test(&mut self, target: u64) {
        assert!(target > self.now, "skip target must be in the future");
        self.apply_skip(target);
    }

    /// Update the progress trackers after a cycle. Progress is "any
    /// core committed" or "any memory transaction completed" — both are
    /// monotonic counters, so this is a pair of compares per cycle.
    fn observe_progress(&mut self) {
        let mut progressed = false;
        for (i, c) in self.cores.iter().enumerate() {
            let committed = c.total_committed();
            if committed != self.last_committed[i] {
                self.last_committed[i] = committed;
                self.last_commit_cycle[i] = self.now;
                progressed = true;
            }
        }
        let completions = self.mem.total_completions();
        if completions != self.last_completions {
            self.last_completions = completions;
            progressed = true;
        }
        if progressed {
            self.last_progress_cycle = self.now;
        }
    }

    /// Build the structured livelock report. The headline core is the
    /// one that has gone longest without committing (first such core on
    /// ties — deterministic).
    // lint: allow(D10) -- watchdog abort diagnostics: runs at most once, after the simulation is already dead
    fn no_forward_progress(&self) -> SimError {
        let mut worst = 0usize;
        for (i, &cycle) in self.last_commit_cycle.iter().enumerate() {
            if cycle < self.last_commit_cycle[worst] {
                worst = i;
            }
        }
        let cores = self
            .cores
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let (mshr_occupancy, mshr_full) = self.mem.debug_mshr(i as u32);
                CoreDiagnostic {
                    core: i as u32,
                    last_commit_cycle: self.last_commit_cycle[i],
                    mshr_occupancy: mshr_occupancy as u64,
                    mshr_full,
                    threads: c.thread_snapshots(),
                }
            })
            .collect();
        SimError::NoForwardProgress {
            cycle: self.now,
            core: worst as u32,
            last_commit_cycle: self.last_commit_cycle[worst],
            diagnostic: ProgressDiagnostic {
                policy: self
                    .cores
                    .first()
                    .map(|c| c.policy_name())
                    .unwrap_or_default(),
                watchdog_cycles: self.cfg.watchdog_cycles,
                inflight: self.mem.inflight_count() as u64,
                cores,
            },
        }
    }

    /// Run the configured fixed interval and return the measurements.
    pub fn run(mut self) -> Result<SimResult, SimError> {
        let cycles = self.cfg.cycles;
        self.step(cycles)?;
        Ok(self.snapshot())
    }

    /// Current measurement snapshot (cumulative since cycle 0).
    pub fn snapshot(&self) -> SimResult {
        SimResult {
            policy: self
                .cores
                .first()
                .map(|c| c.policy_name())
                .unwrap_or_default(),
            workload: self.cfg.benchmarks.clone(),
            cycles: self.now,
            cores: self.cores.iter().map(|c| c.stats()).collect(),
            mem: self.mem.stats(),
            l2_hit_hist: self.mem.l2_hit_histogram().clone(),
        }
    }

    /// Cycle counter.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Cycles elided by stall skip-ahead so far. Purely a host-side
    /// throughput diagnostic: simulated results are byte-identical
    /// whether these cycles were skipped or ticked.
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// Start event tracing on every component (the memory system and
    /// each core), each with a ring keeping the most recent `capacity`
    /// records. Tracing is off by default and reads only simulated
    /// time, so enabling it never changes simulation results.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.mem.enable_trace(capacity);
        for c in &mut self.cores {
            c.enable_trace(capacity);
        }
    }

    /// Start sampling every registered metric every `interval` cycles
    /// (see [`crate::obs::all_metrics`]).
    pub fn enable_metrics(&mut self, interval: u64) {
        self.metrics = Some(MetricsRecorder::new(interval));
    }

    /// The merged machine-wide event stream, ordered by
    /// `(cycle, rank, seq)` — empty unless [`Self::enable_tracing`]
    /// was called.
    pub fn trace_rows(&self) -> Vec<TraceRow> {
        obs::collect_rows(&self.cores, &self.mem)
    }

    /// All metric samples recorded so far — empty unless
    /// [`Self::enable_metrics`] was called.
    pub fn metrics_samples(&self) -> &[MetricSample] {
        self.metrics.as_ref().map(|m| m.samples()).unwrap_or(&[])
    }

    /// Record `(tid, trace_seq)` for every commit on every core — the
    /// hook behind the golden trace-order property tests.
    pub fn enable_commit_logs(&mut self) {
        for c in &mut self.cores {
            c.enable_commit_log();
        }
    }

    /// Per-core commit logs (empty unless enabled).
    pub fn commit_logs(&self) -> Vec<&[(usize, u64)]> {
        self.cores.iter().map(|c| c.commit_log()).collect()
    }

    /// The cores (read access, e.g. for policy introspection).
    pub fn cores(&self) -> &[SmtCore] {
        &self.cores
    }

    /// The shared memory model.
    pub fn mem(&self) -> &MemoryModel {
        &self.mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use smtsim_policy::PolicyKind;

    fn quick(workload: &str, policy: PolicyKind, cycles: u64) -> SimResult {
        let w = Workload::by_name(workload).unwrap();
        let cfg = SimConfig::for_workload(w, policy).with_cycles(cycles);
        Simulator::build(&cfg).unwrap().run().unwrap()
    }

    #[test]
    fn single_core_workload_runs() {
        let r = quick("2W1", PolicyKind::Icount, 10_000);
        assert!(r.total_committed() > 1_000, "got {}", r.total_committed());
        assert_eq!(r.cores.len(), 1);
        assert_eq!(r.per_thread_ipc().len(), 2);
    }

    #[test]
    fn four_core_workload_runs_all_cores() {
        let r = quick("8W2", PolicyKind::Icount, 8_000);
        assert_eq!(r.cores.len(), 4);
        for (i, c) in r.cores.iter().enumerate() {
            assert!(
                c.total_committed() > 100,
                "core {i} barely progressed: {}",
                c.total_committed()
            );
        }
    }

    #[test]
    fn invalid_config_is_an_error_not_a_panic() {
        let w = Workload::by_name("2W1").unwrap();
        let mut cfg = SimConfig::for_workload(w, PolicyKind::Icount);
        cfg.cycles = 0;
        match Simulator::build(&cfg) {
            Err(SimError::InvalidConfig(msg)) => assert!(msg.contains("cycles")),
            Err(other) => panic!("expected InvalidConfig, got {other:?}"),
            Ok(_) => panic!("expected InvalidConfig, got a simulator"),
        }
    }

    #[test]
    fn deterministic_runs() {
        // Byte-identical JSON, not just matching headline counters:
        // any nondeterminism anywhere in the stats would show up here.
        use crate::json::ToJson;
        let a = quick("4W3", PolicyKind::FlushSpec(30), 6_000);
        let b = quick("4W3", PolicyKind::FlushSpec(30), 6_000);
        assert_eq!(a.total_committed(), b.total_committed());
        assert_eq!(a.total_flushes(), b.total_flushes());
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn deterministic_across_sweep_workers() {
        // The same configs run serially, through a parallel sweep, and
        // through a differently-sized parallel sweep must produce
        // byte-identical JSON — worker count and scheduling are not
        // allowed to leak into results.
        use crate::json::ToJson;
        use crate::sweep::{run_sweep, SweepJob};
        let jobs: Vec<SweepJob> = [
            ("a", "2W2", PolicyKind::Icount),
            ("b", "4W3", PolicyKind::Mflush),
            ("c", "2W5", PolicyKind::FlushSpec(30)),
        ]
        .into_iter()
        .map(|(label, wl, p)| {
            let w = Workload::by_name(wl).unwrap();
            SweepJob::new(label, SimConfig::for_workload(w, p).with_cycles(4_000))
        })
        .collect();
        let serial: Vec<String> = jobs
            .iter()
            .map(|j| {
                Simulator::build(&j.config)
                    .unwrap()
                    .run()
                    .unwrap()
                    .to_json()
            })
            .collect();
        for workers in [1, 2, 3] {
            let swept: Vec<String> = run_sweep(&jobs, workers)
                .iter()
                .map(|(_, r)| r.as_ref().unwrap().to_json())
                .collect();
            assert_eq!(serial, swept, "sweep with {workers} workers diverged");
        }
    }

    #[test]
    fn seeds_matter() {
        let w = Workload::by_name("2W2").unwrap();
        let a = Simulator::build(
            &SimConfig::for_workload(w, PolicyKind::Icount)
                .with_cycles(6_000)
                .with_seed(1),
        )
        .unwrap()
        .run()
        .unwrap();
        let b = Simulator::build(
            &SimConfig::for_workload(w, PolicyKind::Icount)
                .with_cycles(6_000)
                .with_seed(2),
        )
        .unwrap()
        .run()
        .unwrap();
        assert_ne!(a.total_committed(), b.total_committed());
    }

    #[test]
    fn policy_label_propagates() {
        let r = quick("2W1", PolicyKind::FlushSpec(100), 2_000);
        assert_eq!(r.policy, "FLUSH-S100");
    }

    #[test]
    fn l2_hit_histogram_populates_on_shared_l2_traffic() {
        let r = quick("8W3", PolicyKind::Icount, 20_000);
        assert!(
            r.l2_hit_hist.count() > 50,
            "8-thread memory-bound workload must produce L2 hits, got {}",
            r.l2_hit_hist.count()
        );
    }

    #[test]
    fn step_accumulates() {
        let w = Workload::by_name("2W1").unwrap();
        let cfg = SimConfig::for_workload(w, PolicyKind::Icount).with_cycles(4_000);
        let mut sim = Simulator::build(&cfg).unwrap();
        sim.step(2_000).unwrap();
        let early = sim.snapshot().total_committed();
        sim.step(2_000).unwrap();
        let late = sim.snapshot().total_committed();
        assert!(late > early);
        assert_eq!(sim.now(), 4_000);
    }

    #[test]
    fn zero_cycle_step_does_not_prewarm_twice() {
        use crate::json::ToJson;
        for name in ["2W1", "4W3"] {
            let w = Workload::by_name(name).unwrap();
            for policy in PolicyKind::fig8_set() {
                let cfg = SimConfig::for_workload(w, policy).with_cycles(3_000);
                let mut once = Simulator::build(&cfg).unwrap();
                once.step(3_000).unwrap();
                let mut twice = Simulator::build(&cfg).unwrap();
                twice.step(0).unwrap();
                twice.step(3_000).unwrap();
                assert_eq!(
                    twice.snapshot().to_json(),
                    once.snapshot().to_json(),
                    "{name}/{policy:?}: step(0) changed the run"
                );
            }
        }
    }

    #[test]
    fn healthy_runs_never_trip_a_tight_watchdog() {
        // The longest legitimate stall is far below 5k cycles; a
        // healthy run with a much tighter-than-default watchdog must
        // complete and match the watchdog-off result byte-for-byte
        // (the watchdog only observes, it never perturbs).
        use crate::json::ToJson;
        let w = Workload::by_name("4W1").unwrap();
        let base = SimConfig::for_workload(w, PolicyKind::Mflush).with_cycles(20_000);
        let strict = Simulator::build(&base.clone().with_watchdog(5_000))
            .unwrap()
            .run()
            .unwrap();
        let off = Simulator::build(&base.with_watchdog(0))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(strict.to_json(), off.to_json());
    }
}
