//! Per-hardware-context state.

use crate::config::CoreConfig;
use crate::ras::ReturnAddressStack;
use crate::rob::Rob;
use smtsim_energy::EnergyAccount;
use smtsim_mem::ReqId;
use smtsim_trace::{BasicBlockDict, DynInstr, InstrStream, ReplayableStream, TraceGenerator};
use std::collections::VecDeque;
use std::sync::Arc;

/// Everything needed to run one thread on a core: its instruction
/// source, its static code (for wrong-path fetch) and the memory
/// regions a driver should warm before measurement (`(base, bytes)`
/// for the L1-resident and L2-resident working sets; the main-memory
/// stream stays cold by design).
pub struct ThreadProgram {
    pub stream: Box<dyn InstrStream + Send>,
    pub dict: Arc<BasicBlockDict>,
    /// `[(l1_base, l1_bytes), (l2_base, l2_bytes)]`.
    pub warm_regions: [(u64, u64); 2],
}

impl ThreadProgram {
    /// Bundle a synthetic-trace generator (the common case).
    // lint: allow(D5) -- construction-time Box of the stream; the crate clippy.toml bans Box::new for the cycle loop
    #[allow(clippy::disallowed_methods)]
    pub fn from_generator(gen: TraceGenerator) -> Self {
        let dict = gen.dict_arc();
        let bases = gen.data_region_bases();
        let mem = gen.profile().mem;
        ThreadProgram {
            dict,
            warm_regions: [(bases[0], mem.l1_ws_bytes), (bases[1], mem.l2_ws_bytes)],
            stream: Box::new(gen),
        }
    }

    /// Bundle an arbitrary stream with no data to warm (unit tests,
    /// recorded traces).
    pub fn from_stream(stream: Box<dyn InstrStream + Send>, dict: Arc<BasicBlockDict>) -> Self {
        ThreadProgram {
            stream,
            dict,
            warm_regions: [(0, 0), (0, 0)],
        }
    }
}

/// An instruction sitting in the front-end (fetched, not yet renamed).
#[derive(Debug, Clone, Copy)]
pub struct FrontendEntry {
    pub token: u64,
    pub instr: DynInstr,
    pub wrong_path: bool,
    /// Correct-path branch detected (at fetch) as mispredicted; it will
    /// squash and redirect when it executes.
    pub mispredicted: bool,
    pub fetched_at: u64,
}

/// Wrong-path fetch mode: active after a detected misprediction until
/// the branch resolves at execute.
#[derive(Debug, Clone)]
pub struct WrongPathMode {
    /// Token of the mispredicted branch that will redirect.
    pub resolver: u64,
    /// Next wrong-path instruction to fetch, as a `(block, slot)`
    /// position in the basic-block dictionary
    /// ([`BasicBlockDict::synth_wrong_path`]).
    pub cursor: (u32, u32),
}

/// Why a thread's fetch is currently gated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchGate {
    /// Fetching normally.
    Open,
    /// Policy stall (STALL response action / MFLUSH preventive state).
    PolicyStall,
    /// Flushed: gated until the offending load (token) completes.
    Flushed { offender: u64 },
}

/// One hardware context.
pub struct ThreadCtx {
    /// Instruction source (rewindable for FLUSH replay).
    pub stream: ReplayableStream<Box<dyn InstrStream + Send>>,
    /// Static code, for wrong-path synthesis.
    pub dict: Arc<BasicBlockDict>,
    /// Data regions to warm before measurement.
    pub warm_regions: [(u64, u64); 2],
    /// Fetched-but-not-renamed instructions.
    pub frontend: VecDeque<FrontendEntry>,
    /// Reorder buffer.
    pub rob: Rob,
    /// Return address stack (structural fidelity to Fig. 1).
    pub ras: ReturnAddressStack,
    /// Wrong-path mode, if active.
    pub wrong_path: Option<WrongPathMode>,
    /// Outstanding I-cache miss blocking fetch.
    pub icache_wait: Option<ReqId>,
    /// Fetch gating state.
    pub gate: FetchGate,
    /// Cycle fetch may resume after a branch redirect.
    pub redirect_at: u64,
    /// Energy ledger.
    pub energy: EnergyAccount,
    /// Committed instructions.
    pub committed: u64,
    /// Fetched instructions (correct + wrong path).
    pub fetched: u64,
    /// Conditional branches committed / mispredicted.
    pub branches: u64,
    pub mispredicts: u64,
    /// Unresolved branches currently in flight (BRCOUNT metric).
    pub branches_in_flight: u32,
    /// Outstanding L1D misses (L1DMISSCOUNT metric).
    pub l1d_misses_in_flight: u32,
    /// Loads issued to memory / L2 misses suffered.
    pub loads_issued: u64,
    /// Flush events affecting this thread.
    pub flushes: u64,
}

impl ThreadCtx {
    /// New context over a thread program. The stream's replay ring
    /// covers everything the thread can hold fetched but uncommitted:
    /// a full ROB plus a full front-end queue.
    pub fn new(program: ThreadProgram, cfg: &CoreConfig) -> Self {
        let rob = cfg.rob_per_thread as usize;
        ThreadCtx {
            stream: ReplayableStream::new(program.stream, rob + cfg.fetch_queue as usize),
            dict: program.dict,
            warm_regions: program.warm_regions,
            frontend: VecDeque::new(),
            rob: Rob::new(rob),
            ras: ReturnAddressStack::new(cfg.ras_entries as usize),
            wrong_path: None,
            icache_wait: None,
            gate: FetchGate::Open,
            redirect_at: 0,
            energy: EnergyAccount::new(),
            committed: 0,
            fetched: 0,
            branches: 0,
            mispredicts: 0,
            branches_in_flight: 0,
            l1d_misses_in_flight: 0,
            loads_issued: 0,
            flushes: 0,
        }
    }

    /// True when the policy currently gates fetch.
    pub fn is_gated(&self) -> bool {
        self.gate != FetchGate::Open
    }

    /// Instructions fetched but not yet renamed (the front-end queue).
    /// ICOUNT's metric adds the thread's issue-queue residents, which
    /// the core counts (`ThreadSnapshot::in_queues`).
    pub fn in_frontend(&self) -> u32 {
        self.frontend.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smtsim_trace::{spec, TraceGenerator};

    fn ctx() -> ThreadCtx {
        let gen = TraceGenerator::new(spec::benchmark_by_name("gzip").unwrap(), 1);
        ThreadCtx::new(ThreadProgram::from_generator(gen), &CoreConfig::paper())
    }

    #[test]
    fn fresh_context_is_open_and_empty() {
        let t = ctx();
        assert_eq!(t.gate, FetchGate::Open);
        assert!(!t.is_gated());
        assert_eq!(t.in_frontend(), 0);
        assert!(t.rob.is_empty());
    }

    #[test]
    fn gates_report_gated() {
        let mut t = ctx();
        t.gate = FetchGate::PolicyStall;
        assert!(t.is_gated());
        t.gate = FetchGate::Flushed { offender: 7 };
        assert!(t.is_gated());
        t.gate = FetchGate::Open;
        assert!(!t.is_gated());
    }

    #[test]
    fn stream_is_rewindable() {
        let mut t = ctx();
        let a = t.stream.fetch();
        let b = t.stream.fetch();
        t.stream.rewind_to(a.seq);
        assert_eq!(t.stream.fetch(), a);
        assert_eq!(t.stream.fetch(), b);
    }
}
