//! The traced driver: one simulation rebuilt from the layers' public
//! parts exactly as `Simulator::build` builds it, with a timing
//! decorator around every call into the trace generator, the fetch
//! policy, the memory model and the core.
//!
//! The decorators only read the clock and forward; no clock value ever
//! reaches simulator state. The benchmark checks that claim on every
//! traced job: its `SimResult` JSON must be byte-identical to the
//! untraced `Simulator` run's, or the job counts as failed.
//!
//! Caveats, also stated in README.md: the traced loop ticks every
//! cycle (no stall skip-ahead), and `MemoryModel::access` runs inside
//! `SmtCore::tick`, so L1/TLB lookup time is part of `cpu` self time.

use crate::stats::{now, Span};
use smtsim_core::{Fidelity, SimConfig, SimResult, ToJson};
use smtsim_cpu::thread::ThreadProgram;
use smtsim_cpu::SmtCore;
use smtsim_mem::MemoryModel;
use smtsim_policy::{build_policy, FetchPolicy, LoadToken, PolicyAction, ThreadSnapshot};
use smtsim_trace::{spec, DynInstr, InstrStream, TraceGenerator};
use std::cell::Cell;

/// A timed layer of the simulator.
#[derive(Debug, Clone, Copy)]
enum Layer {
    /// `SmtCore::tick` (encloses `Trace` and `Policy`).
    Cpu = 0,
    /// `MemoryModel::tick`.
    Mem = 1,
    /// `InstrStream::next_instr` of every thread.
    Trace = 2,
    /// Every `FetchPolicy` method the core calls.
    Policy = 3,
}

thread_local! {
    /// Per-layer accumulators. The traced job runs on one thread, and a
    /// thread-local keeps the per-call cost to a clock read and an add.
    static SPANS: [Cell<Span>; 4] = const { [const { Cell::new(Span::ZERO) }; 4] };
}

/// Run `f` inside a span of `layer`.
#[inline(always)]
fn timed<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let start = now();
    let out = f();
    let ns = start.elapsed().as_nanos() as u64;
    SPANS.with(|s| {
        let cell = &s[layer as usize];
        let mut span = cell.get();
        span.ns += ns;
        span.calls += 1;
        cell.set(span);
    });
    out
}

/// Take and reset this thread's per-layer spans.
fn take_spans() -> [Span; 4] {
    SPANS.with(|s| [0, 1, 2, 3].map(|i| s[i].replace(Span::ZERO)))
}

/// Time one empty span through the real code path (for
/// [`crate::stats::calibrate`]), leaving the accumulators as they were.
pub fn empty_span_ns() -> u64 {
    timed(Layer::Mem, || ());
    SPANS.with(|s| {
        let cell = &s[Layer::Mem as usize];
        let span = cell.replace(Span::ZERO);
        span.ns
    })
}

/// Timing decorator for a thread's instruction stream.
struct TimedStream(Box<dyn InstrStream + Send>);

impl InstrStream for TimedStream {
    // lint: allow(D12) -- benchmark-only decorator: the clock value is accumulated in a bench-side counter and never reaches simulator state; byte-identity to the untraced run is asserted per job
    fn next_instr(&mut self) -> DynInstr {
        timed(Layer::Trace, || self.0.next_instr())
    }
}

/// Timing decorator for a fetch policy. Forwards every trait method,
/// including the ones with default bodies, so the wrapped policy's own
/// overrides (`on_load_l1_hit`, `next_wake`, `on_cycles_skipped`) stay
/// in force.
struct TimedPolicy(Box<dyn FetchPolicy>);

impl FetchPolicy for TimedPolicy {
    fn name(&self) -> String {
        self.0.name()
    }

    // lint: allow(D12) -- benchmark-only decorator: the clock value never reaches simulator state; byte-identity is asserted per job
    fn tick(&mut self, cycle: u64, snaps: &[ThreadSnapshot], actions: &mut Vec<PolicyAction>) {
        timed(Layer::Policy, || self.0.tick(cycle, snaps, actions))
    }

    // lint: allow(D12) -- benchmark-only decorator: the clock value never reaches simulator state; byte-identity is asserted per job
    fn fetch_priority(&mut self, cycle: u64, snaps: &[ThreadSnapshot], out: &mut Vec<usize>) {
        timed(Layer::Policy, || self.0.fetch_priority(cycle, snaps, out))
    }

    // lint: allow(D12) -- benchmark-only decorator: the clock value never reaches simulator state; byte-identity is asserted per job
    fn on_load_issue(&mut self, tid: usize, token: LoadToken, pc: u64, cycle: u64) {
        timed(Layer::Policy, || {
            self.0.on_load_issue(tid, token, pc, cycle)
        })
    }

    // lint: allow(D12) -- benchmark-only decorator: the clock value never reaches simulator state; byte-identity is asserted per job
    fn on_l1d_miss(&mut self, tid: usize, token: LoadToken, bank: u32, cycle: u64) {
        timed(Layer::Policy, || {
            self.0.on_l1d_miss(tid, token, bank, cycle)
        })
    }

    // lint: allow(D12) -- benchmark-only decorator: the clock value never reaches simulator state; byte-identity is asserted per job
    fn on_load_l1_hit(&mut self, tid: usize, token: LoadToken, pc: u64, cycle: u64) {
        timed(Layer::Policy, || {
            self.0.on_load_l1_hit(tid, token, pc, cycle)
        })
    }

    // lint: allow(D12) -- benchmark-only decorator: the clock value never reaches simulator state; byte-identity is asserted per job
    fn on_l2_miss(&mut self, tid: usize, token: LoadToken, cycle: u64) {
        timed(Layer::Policy, || self.0.on_l2_miss(tid, token, cycle))
    }

    // lint: allow(D12) -- benchmark-only decorator: the clock value never reaches simulator state; byte-identity is asserted per job
    fn on_load_complete(
        &mut self,
        tid: usize,
        token: LoadToken,
        bank: u32,
        l2_hit: Option<bool>,
        latency: u64,
        cycle: u64,
    ) {
        timed(Layer::Policy, || {
            self.0
                .on_load_complete(tid, token, bank, l2_hit, latency, cycle)
        })
    }

    // lint: allow(D12) -- benchmark-only decorator: the clock value never reaches simulator state; byte-identity is asserted per job
    fn on_load_squashed(&mut self, tid: usize, token: LoadToken) {
        timed(Layer::Policy, || self.0.on_load_squashed(tid, token))
    }

    // lint: allow(D12) -- benchmark-only decorator: the clock value never reaches simulator state; byte-identity is asserted per job
    fn on_thread_resumed(&mut self, tid: usize, cycle: u64) {
        timed(Layer::Policy, || self.0.on_thread_resumed(tid, cycle))
    }

    // lint: allow(D12) -- benchmark-only decorator: the clock value never reaches simulator state; byte-identity is asserted per job
    fn next_wake(&self, from: u64) -> u64 {
        timed(Layer::Policy, || self.0.next_wake(from))
    }

    // lint: allow(D12) -- benchmark-only decorator: the clock value never reaches simulator state; byte-identity is asserted per job
    fn on_cycles_skipped(&mut self, from: u64, cycles: u64) {
        timed(Layer::Policy, || self.0.on_cycles_skipped(from, cycles))
    }
}

/// Host time of one traced job, by layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// Building the machine (memory model, trace generators, policies,
    /// cores), seconds.
    pub build_s: f64,
    /// Prewarming caches and TLBs, seconds.
    pub prewarm_s: f64,
    /// The cycle loop, seconds, timer cost included.
    pub loop_s: f64,
    /// `SmtCore::tick` spans.
    pub cpu: Span,
    /// `MemoryModel::tick` spans.
    pub mem: Span,
    /// `InstrStream::next_instr` spans.
    pub trace: Span,
    /// `FetchPolicy` spans.
    pub policy: Span,
    /// Building the `SimResult`, seconds.
    pub snapshot_s: f64,
    /// Rendering it as JSON, seconds.
    pub json_s: f64,
}

impl LayerTimes {
    /// Accumulate another job's times.
    pub fn add(&mut self, o: &LayerTimes) {
        self.build_s += o.build_s;
        self.prewarm_s += o.prewarm_s;
        self.loop_s += o.loop_s;
        self.cpu.add(o.cpu);
        self.mem.add(o.mem);
        self.trace.add(o.trace);
        self.policy.add(o.policy);
        self.snapshot_s += o.snapshot_s;
        self.json_s += o.json_s;
    }
}

/// Run `cfg` through the traced driver. Returns the result's JSON (to
/// be compared with the untraced run) and the per-layer host times.
pub fn run_traced(cfg: &SimConfig) -> Result<(String, LayerTimes), String> {
    cfg.validate()?;
    if cfg.fidelity() != Fidelity::detailed() {
        return Err("the traced driver rebuilds detailed-fidelity machines only".into());
    }
    let mut t = LayerTimes::default();

    let start = now();
    let env = cfg.policy_env();
    let contexts = cfg.core.contexts as usize;
    let mut mem = MemoryModel::detailed(cfg.mem);
    let mut cores = Vec::with_capacity(cfg.cores() as usize);
    for core_id in 0..cfg.cores() {
        let mut programs = Vec::with_capacity(contexts);
        for slot in 0..contexts {
            let global = core_id as usize * contexts + slot;
            let name = &cfg.benchmarks[global];
            let profile =
                spec::benchmark_by_name(name).ok_or_else(|| format!("unknown benchmark {name}"))?;
            let seed = cfg.seed + global as u64 * 7919;
            let mut program = ThreadProgram::from_generator(TraceGenerator::new(profile, seed));
            program.stream = Box::new(TimedStream(program.stream));
            programs.push(program);
        }
        let policy = Box::new(TimedPolicy(build_policy(cfg.policy, &env)));
        cores.push(SmtCore::new(core_id, cfg.core, policy, programs));
    }
    t.build_s = start.elapsed().as_secs_f64();

    let start = now();
    if cfg.warmup {
        for c in &mut cores {
            c.prewarm(&mut mem);
        }
    }
    t.prewarm_s = start.elapsed().as_secs_f64();

    take_spans();
    let start = now();
    for cycle in 0..cfg.cycles {
        timed(Layer::Mem, || mem.tick(cycle));
        for c in &mut cores {
            timed(Layer::Cpu, || c.tick(cycle, &mut mem));
        }
    }
    t.loop_s = start.elapsed().as_secs_f64();
    [t.cpu, t.mem, t.trace, t.policy] = take_spans();

    let start = now();
    let result = SimResult {
        policy: cores.first().map(|c| c.policy_name()).unwrap_or_default(),
        workload: cfg.benchmarks.clone(),
        cycles: cfg.cycles,
        cores: cores.iter().map(|c| c.stats()).collect(),
        mem: mem.stats(),
        l2_hit_hist: mem.l2_hit_histogram().clone(),
    };
    t.snapshot_s = start.elapsed().as_secs_f64();
    let start = now();
    let json = result.to_json();
    t.json_s = start.elapsed().as_secs_f64();
    Ok((json, t))
}
