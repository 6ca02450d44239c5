//! Commit-rate ("IPC approx") core backend.
//!
//! [`IpcApproxCore`] replaces the detailed ROB/IQ pipeline with a
//! single in-order commit window per thread: instructions are fetched
//! straight into the window and commit from its head at up to
//! `commit_width` per cycle, except that a load whose miss is still
//! outstanding blocks the head — the one mechanism this paper is
//! about. Everything else (rename, issue queues, execution units,
//! branch prediction, wrong-path fetch, store-to-load forwarding) is
//! elided, which is what makes the backend an order of magnitude
//! cheaper than [`crate::DetailedCore`].
//!
//! Crucially the backend still *drives the fetch policy*: it publishes
//! per-thread [`ThreadSnapshot`]s each cycle, forwards every memory
//! event ([`FetchPolicy::on_load_issue`] / `on_l1d_miss` / `on_l2_miss`
//! / `on_load_complete`), and executes [`PolicyAction::Flush`] /
//! `Stall` / `Resume` with the same replay semantics as the detailed
//! core (squashed correct-path work is un-fetched back into the stream
//! and re-fetched later). A policy study run at this fidelity sees the
//! same interface, only a coarser machine.
//!
//! Deliberate approximations, documented for consumers:
//!
//! * branch prediction is perfect ([`IpcApproxCore::branch_accuracy`]
//!   reports 1.0, `mispredicts` stays 0) and there is no wrong path;
//! * stores are fire-and-forget at fetch time (no store queue);
//! * non-memory execution latency is folded into the commit rate;
//! * squash energy is accounted at a flat [`PipelineStage::Queue`]
//!   depth rather than per-stage.

use crate::config::CoreConfig;
use crate::stats::{CoreStats, ThreadProbe, ThreadStats};
use crate::thread::{FetchGate, ThreadProgram};
use smtsim_energy::{EnergyAccount, PipelineStage, SquashCause};
use smtsim_mem::addr::bank_of;
use smtsim_mem::{AccessKind, AccessResult, Completion, MemEvent, MemoryModel, ReqId};
use smtsim_obs::{EventRing, TraceEvent};
use smtsim_policy::{FetchPolicy, PolicyAction, ThreadSnapshot};
use smtsim_trace::{BasicBlockDict, DynInstr, InstrClass, InstrStream, ReplayableStream};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// One instruction in a thread's commit window.
struct WindowEntry {
    token: u64,
    instr: DynInstr,
    /// A load whose miss is still outstanding (the request id lives in
    /// [`IpcApproxCore::waiters`], keyed back to this token).
    waiting: bool,
}

/// Per-thread state of the approximate backend.
struct ApproxThread {
    stream: ReplayableStream<Box<dyn InstrStream + Send>>,
    dict: Arc<BasicBlockDict>,
    warm_regions: [(u64, u64); 2],
    /// In-order commit window (the ROB stand-in), oldest at the front.
    window: VecDeque<WindowEntry>,
    gate: FetchGate,
    energy: EnergyAccount,
    committed: u64,
    fetched: u64,
    branches: u64,
    loads_issued: u64,
    flushes: u64,
    branches_in_flight: u32,
    l1d_misses_in_flight: u32,
}

impl ApproxThread {
    /// Outstanding loads in the window. Every `waiting` entry is one
    /// L1D miss in flight, so the incrementally-maintained counter is
    /// the window scan's answer at O(1).
    fn waiting_count(&self) -> u32 {
        self.l1d_misses_in_flight
    }
}

/// The reduced-fidelity core backend (see module docs).
pub struct IpcApproxCore {
    core_id: u32,
    cfg: CoreConfig,
    threads: Vec<ApproxThread>,
    policy: Box<dyn FetchPolicy>,
    next_token: u64,
    /// Outstanding memory request → (thread, window token). Kept in
    /// lock-step with the windows' `waiting` slots so completions
    /// resolve without scanning every window.
    waiters: BTreeMap<ReqId, (usize, u64)>,
    commit_log: Option<Vec<(usize, u64)>>,
    trace: Option<EventRing>,
    snaps: Vec<ThreadSnapshot>,
    prio: Vec<usize>,
    actions: Vec<PolicyAction>,
    /// FLUSH-path scratch (D10: flushes happen inside the cycle loop
    /// and must not allocate).
    replay_scratch: Vec<DynInstr>,
    squashed_loads_scratch: Vec<u64>,
    /// Drain buffers for the memory system's per-core outboxes (D10).
    mem_events: Vec<MemEvent>,
    mem_done: Vec<Completion>,
    fetch_active_cycles: u64,
    rob_full_stalls: u64,
    mshr_retries: u64,
    flushes_executed: u64,
    stalls_executed: u64,
}

impl IpcApproxCore {
    /// Build a core running `programs` (one per hardware context) under
    /// `policy`. Same contract as [`crate::DetailedCore::new`].
    pub fn new(
        core_id: u32,
        cfg: CoreConfig,
        policy: Box<dyn FetchPolicy>,
        programs: Vec<ThreadProgram>,
    ) -> Self {
        cfg.validate().expect("invalid CoreConfig");
        assert_eq!(
            programs.len(),
            cfg.contexts as usize,
            "one program per hardware context"
        );
        let threads = programs
            .into_iter()
            .map(|p| ApproxThread {
                stream: ReplayableStream::new(p.stream),
                dict: p.dict,
                warm_regions: p.warm_regions,
                window: VecDeque::new(),
                gate: FetchGate::Open,
                energy: EnergyAccount::new(),
                committed: 0,
                fetched: 0,
                branches: 0,
                loads_issued: 0,
                flushes: 0,
                branches_in_flight: 0,
                l1d_misses_in_flight: 0,
            })
            .collect();
        IpcApproxCore {
            core_id,
            cfg,
            threads,
            policy,
            next_token: 1,
            waiters: BTreeMap::new(),
            commit_log: None,
            trace: None,
            snaps: Vec::new(),
            prio: Vec::new(),
            actions: Vec::new(),
            replay_scratch: Vec::new(),
            squashed_loads_scratch: Vec::new(),
            mem_events: Vec::new(),
            mem_done: Vec::new(),
            fetch_active_cycles: 0,
            rob_full_stalls: 0,
            mshr_retries: 0,
            flushes_executed: 0,
            stalls_executed: 0,
        }
    }

    /// This core's id (its port index on the shared memory system).
    pub fn id(&self) -> u32 {
        self.core_id
    }

    /// Name of the active fetch policy.
    pub fn policy_name(&self) -> String {
        self.policy.name()
    }

    /// Access the policy (e.g. for MFLUSH statistics downcasts).
    pub fn policy(&self) -> &dyn FetchPolicy {
        self.policy.as_ref()
    }

    /// Warm caches and TLBs exactly like the detailed core: each
    /// thread's code, its L1-resident and its L2-resident working set.
    pub fn prewarm(&mut self, mem: &mut MemoryModel) {
        const LINE: u64 = 64;
        const PAGE: u64 = 8192;
        for t in &self.threads {
            let base = t.dict.entry_pc();
            let bytes = t.dict.code_bytes();
            let mut a = base;
            while a < base + bytes {
                mem.prewarm_line(self.core_id, AccessKind::IFetch, a);
                a += LINE;
            }
            let mut p = base & !(PAGE - 1);
            while p < base + bytes {
                mem.prewarm_tlb(self.core_id, AccessKind::IFetch, p);
                p += PAGE;
            }
            let [(l1b, l1s), (l2b, l2s)] = t.warm_regions;
            let mut a = l1b;
            while a < l1b + l1s {
                mem.prewarm_line(self.core_id, AccessKind::Load, a);
                a += LINE;
            }
            let mut a = l2b;
            while a < l2b + l2s {
                mem.prewarm_l2_line(self.core_id, a);
                a += LINE;
            }
            for (rb, rs) in [(l1b, l1s), (l2b, l2s)] {
                let mut p = rb & !(PAGE - 1);
                while p < rb + rs {
                    mem.prewarm_tlb(self.core_id, AccessKind::Load, p);
                    p += PAGE;
                }
            }
        }
    }

    /// Advance one cycle. The caller must have ticked `mem` for `now`
    /// already (same protocol as the detailed core).
    pub fn tick(&mut self, now: u64, mem: &mut MemoryModel) {
        self.process_mem(now, mem);
        self.commit(now);
        let acted = self.run_policy(now);
        self.fetch(now, mem, acted);
    }

    /// This backend opts out of stall skip-ahead: it returns `from`
    /// ("could act every cycle"), so the simulator never skips. It is
    /// already an order of magnitude cheaper than the detailed core,
    /// and the commit-window model has no cheap quiescence proof (the
    /// window head may unblock any cycle a completion lands).
    pub fn next_event_cycle(&self, from: u64) -> u64 {
        from
    }

    /// No-op: with [`Self::next_event_cycle`] pinned to `from`, cycles
    /// are never skipped at this fidelity.
    pub fn notify_skip(&mut self, _from: u64, _cycles: u64) {}

    fn process_mem(&mut self, now: u64, mem: &mut MemoryModel) {
        let mut events = std::mem::take(&mut self.mem_events);
        mem.drain_events_into(self.core_id, &mut events);
        for ev in events.drain(..) {
            match ev {
                MemEvent::L2MissDetected { req, at } => {
                    if let Some(&(tid, token)) = self.waiters.get(&req) {
                        self.policy.on_l2_miss(tid, token, at);
                    }
                }
            }
        }
        self.mem_events = events;
        let mut done = std::mem::take(&mut self.mem_done);
        mem.drain_completions_into(self.core_id, &mut done);
        for c in done.drain(..) {
            let Some((tid, token)) = self.waiters.remove(&c.req) else {
                continue; // stores and squash orphans complete silently
            };
            let t = &mut self.threads[tid];
            if let Some(e) = t.window.iter_mut().find(|e| e.token == token) {
                e.waiting = false;
            }
            t.l1d_misses_in_flight = t.l1d_misses_in_flight.saturating_sub(1);
            let mut resume = false;
            if let FetchGate::Flushed { offender } = t.gate {
                if offender == token {
                    t.gate = FetchGate::Open;
                    resume = true;
                }
            }
            self.policy
                .on_load_complete(tid, token, c.bank, Some(c.l2_hit), c.latency(), now);
            if resume {
                self.policy.on_thread_resumed(tid, now);
            }
        }
        self.mem_done = done;
    }

    fn commit(&mut self, _now: u64) {
        let log = &mut self.commit_log;
        for (tid, t) in self.threads.iter_mut().enumerate() {
            let mut budget = self.cfg.commit_width;
            while budget > 0 {
                match t.window.front() {
                    Some(e) if !e.waiting => {
                        // lint: allow(D3) -- front() above proved the window is non-empty
                        let e = t.window.pop_front().expect("window head");
                        t.committed += 1;
                        t.energy.commit();
                        if e.instr.class == InstrClass::BranchCond {
                            t.branches += 1;
                            t.branches_in_flight = t.branches_in_flight.saturating_sub(1);
                        }
                        if let Some(log) = log.as_mut() {
                            log.push((tid, e.instr.seq));
                        }
                        budget -= 1;
                    }
                    _ => break, // empty, or the head load is outstanding
                }
            }
        }
    }

    fn build_snapshots(&mut self) {
        self.snaps.clear();
        for (tid, t) in self.threads.iter().enumerate() {
            self.snaps.push(ThreadSnapshot {
                tid,
                in_frontend: 0,
                // Un-executed window residents play the issue-queue
                // role for ICOUNT-style priority.
                in_queues: t.waiting_count(),
                in_rob: t.window.len() as u32,
                branches_in_flight: t.branches_in_flight,
                l1d_misses_in_flight: t.l1d_misses_in_flight,
                gated: t.gate != FetchGate::Open,
                committed: t.committed,
            });
        }
    }

    /// Run the policy. Returns `true` if any action was executed (so
    /// the snapshots built here are stale for the fetch stage).
    fn run_policy(&mut self, now: u64) -> bool {
        self.build_snapshots();
        self.actions.clear();
        let mut actions = std::mem::take(&mut self.actions);
        self.policy.tick(now, &self.snaps, &mut actions);
        let acted = !actions.is_empty();
        for a in actions.drain(..) {
            match a {
                PolicyAction::Flush { tid, token } => self.execute_flush(tid, token, now),
                PolicyAction::Stall { tid } => {
                    if self.threads[tid].gate == FetchGate::Open {
                        self.threads[tid].gate = FetchGate::PolicyStall;
                        self.stalls_executed += 1;
                        if let Some(ring) = &mut self.trace {
                            ring.emit(
                                now,
                                TraceEvent::Stall {
                                    core: self.core_id,
                                    tid: tid as u32,
                                },
                            );
                        }
                    }
                }
                PolicyAction::Resume { tid } => {
                    if self.threads[tid].gate == FetchGate::PolicyStall {
                        self.threads[tid].gate = FetchGate::Open;
                    }
                }
            }
        }
        self.actions = actions;
        acted
    }

    /// FLUSH response action: drop every window entry younger than the
    /// offending load, replay them into the stream, gate fetch until
    /// the load completes.
    fn execute_flush(&mut self, tid: usize, token: u64, now: u64) {
        let outstanding = self.threads[tid]
            .window
            .iter()
            .any(|e| e.token == token && e.waiting);
        if !outstanding {
            // Raced with the completion; tell the policy the thread runs.
            self.policy.on_thread_resumed(tid, now);
            return;
        }
        let mut squashed: u32 = 0;
        let mut replay = std::mem::take(&mut self.replay_scratch);
        replay.clear();
        let mut squashed_loads = std::mem::take(&mut self.squashed_loads_scratch);
        squashed_loads.clear();
        {
            let t = &mut self.threads[tid];
            while let Some(e) = t.window.back() {
                if e.token <= token {
                    break;
                }
                // lint: allow(D3) -- back() above proved the window is non-empty
                let e = t.window.pop_back().expect("window tail");
                squashed += 1;
                if e.instr.class == InstrClass::BranchCond {
                    t.branches_in_flight = t.branches_in_flight.saturating_sub(1);
                }
                if e.waiting {
                    t.l1d_misses_in_flight = t.l1d_misses_in_flight.saturating_sub(1);
                }
                if e.instr.class == InstrClass::Load {
                    squashed_loads.push(e.token);
                }
                t.energy.squash(SquashCause::Flush, PipelineStage::Queue);
                replay.push(e.instr);
            }
            replay.reverse(); // back-to-front pops → program order
            t.stream.unfetch(replay.drain(..));
            // Squashed loads' requests stay in flight in the memory
            // system; dropping their waiter entries makes each
            // completion a silent squash orphan. Flushes are rare and
            // the map is small, so the scan is off the hot path.
            self.waiters
                .retain(|_, &mut (wtid, wtok)| wtid != tid || wtok <= token);
            t.gate = FetchGate::Flushed { offender: token };
            t.flushes += 1;
        }
        for lt in squashed_loads.drain(..) {
            self.policy.on_load_squashed(tid, lt);
        }
        self.replay_scratch = replay;
        self.squashed_loads_scratch = squashed_loads;
        self.flushes_executed += 1;
        if let Some(ring) = &mut self.trace {
            ring.emit(
                now,
                TraceEvent::Flush {
                    core: self.core_id,
                    tid: tid as u32,
                    squashed,
                },
            );
        }
    }

    fn fetch(&mut self, now: u64, mem: &mut MemoryModel, snaps_stale: bool) {
        // Nothing between run_policy's snapshot build and here mutates
        // thread state unless an action was executed, so the common
        // (no-action) cycle reuses the snapshots as-is.
        if snaps_stale {
            self.build_snapshots();
        }
        let mut prio = std::mem::take(&mut self.prio);
        self.policy.fetch_priority(now, &self.snaps, &mut prio);
        let mut budget = self.cfg.fetch_width;
        let mut threads_used = 0;
        let mut fetched_any_cycle = false;
        for &tid in prio.iter() {
            if budget == 0 || threads_used == self.cfg.fetch_threads {
                break;
            }
            if self.threads[tid].gate != FetchGate::Open {
                continue;
            }
            let fetched = self.fetch_thread(tid, now, mem, &mut budget);
            if fetched > 0 {
                fetched_any_cycle = true;
                threads_used += 1;
                if let Some(ring) = &mut self.trace {
                    ring.emit(
                        now,
                        TraceEvent::FetchSlots {
                            core: self.core_id,
                            tid: tid as u32,
                            slots: fetched,
                        },
                    );
                }
            }
        }
        if fetched_any_cycle {
            self.fetch_active_cycles += 1;
        }
        self.prio = prio;
    }

    /// Fetch up to `budget` instructions into `tid`'s window. Returns
    /// the number fetched.
    fn fetch_thread(&mut self, tid: usize, now: u64, mem: &mut MemoryModel, budget: &mut u32) -> u32 {
        let mut fetched = 0;
        // Field-disjoint borrows: the thread, the policy and the waiter
        // map are separate fields, so one bounds check serves the whole
        // loop (this runs once per fetched instruction).
        let t = &mut self.threads[tid];
        let policy = &mut *self.policy;
        while *budget > 0 {
            if t.window.len() >= self.cfg.rob_per_thread as usize {
                self.rob_full_stalls += 1;
                break;
            }
            let instr = t.stream.fetch();
            let token = self.next_token;
            self.next_token += 1;
            let mut waiting = false;
            match instr.class {
                InstrClass::Load => match mem.access(self.core_id, AccessKind::Load, instr.mem_addr, now) {
                    AccessResult::L1Hit { .. } => {
                        t.loads_issued += 1;
                        policy.on_load_l1_hit(tid, token, instr.pc, now);
                    }
                    AccessResult::Miss { req, .. } => {
                        let bank = bank_of(instr.mem_addr, mem.config().l2_banks);
                        waiting = true;
                        self.waiters.insert(req, (tid, token));
                        t.loads_issued += 1;
                        t.l1d_misses_in_flight += 1;
                        policy.on_load_issue(tid, token, instr.pc, now);
                        policy.on_l1d_miss(tid, token, bank, now);
                    }
                    AccessResult::MshrFull => {
                        // Put the load back and retry next cycle.
                        t.stream.unfetch([instr]);
                        self.next_token -= 1;
                        self.mshr_retries += 1;
                        break;
                    }
                },
                InstrClass::Store => {
                    // Fire-and-forget: warms the hierarchy, never blocks.
                    let _ = mem.access(self.core_id, AccessKind::Store, instr.mem_addr, now);
                }
                InstrClass::BranchCond => {
                    t.branches_in_flight += 1;
                }
                _ => {}
            }
            t.fetched += 1;
            t.window.push_back(WindowEntry {
                token,
                instr,
                waiting,
            });
            *budget -= 1;
            fetched += 1;
        }
        fetched
    }

    /// Snapshot the core's statistics. Counters the backend does not
    /// model (mispredicts, queue/register stalls, store forwards) stay
    /// zero — consumers see "none happened", not garbage.
    pub fn stats(&self) -> CoreStats {
        CoreStats {
            threads: self
                .threads
                .iter()
                .map(|t| ThreadStats {
                    committed: t.committed,
                    fetched: t.fetched,
                    branches: t.branches,
                    mispredicts: 0,
                    loads_issued: t.loads_issued,
                    flushes: t.flushes,
                    energy: t.energy.clone(),
                })
                .collect(),
            fetch_active_cycles: self.fetch_active_cycles,
            iq_full_stalls: 0,
            reg_full_stalls: 0,
            rob_full_stalls: self.rob_full_stalls,
            mshr_retries: self.mshr_retries,
            flushes_executed: self.flushes_executed,
            stalls_executed: self.stalls_executed,
            store_forwards: 0,
        }
    }

    /// Branch prediction is perfect at this fidelity.
    pub fn branch_accuracy(&self) -> f64 {
        1.0
    }

    /// One-line diagnostic snapshot of window occupancy.
    pub fn debug_state(&self) -> String {
        use std::fmt::Write;
        let mut s = String::from("ipc-approx ");
        for (tid, t) in self.threads.iter().enumerate() {
            let _ = write!(
                s,
                "| t{tid}: window={} waiting={} gate={:?} ",
                t.window.len(),
                t.waiting_count(),
                t.gate,
            );
        }
        s
    }

    /// Start recording `(tid, trace_seq)` for every commit.
    pub fn enable_commit_log(&mut self) {
        self.commit_log = Some(Vec::new());
    }

    /// Start recording trace events into a ring keeping the most
    /// recent `capacity` records.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(EventRing::new(capacity));
    }

    /// The core's event ring (`None` unless [`Self::enable_trace`] was
    /// called).
    pub fn trace(&self) -> Option<&EventRing> {
        self.trace.as_ref()
    }

    /// The recorded commit log (empty when not enabled).
    pub fn commit_log(&self) -> &[(usize, u64)] {
        self.commit_log.as_deref().unwrap_or(&[])
    }

    /// Total committed instructions.
    pub fn total_committed(&self) -> u64 {
        self.threads.iter().map(|t| t.committed).sum()
    }

    /// Structured per-thread pipeline snapshots (window depth reported
    /// as ROB occupancy).
    pub fn thread_snapshots(&self) -> Vec<ThreadProbe> {
        self.threads
            .iter()
            .enumerate()
            .map(|(tid, t)| ThreadProbe {
                tid: tid as u32,
                gate: format!("{:?}", t.gate),
                frontend: 0,
                rob: t.window.len() as u32,
                icache_wait: false,
                committed: t.committed,
            })
            .collect()
    }
}
