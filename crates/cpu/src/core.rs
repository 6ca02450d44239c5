//! The SMT core: fetch → decode/rename → issue → execute → commit, with
//! policy-driven fetch gating and the FLUSH response action.
//!
//! One [`SmtCore::tick`] advances a cycle in reverse pipeline order
//! (memory returns, execute completions, commit, stores, issue,
//! dispatch, policy, fetch), matching SMTsim's structure. The core talks
//! to the shared [`MemorySystem`] for instruction fetches, loads and
//! stores, and to its [`FetchPolicy`] through snapshots, events and
//! actions.
//!
//! A squash (a FLUSH, or a mispredicted branch resolving) copies
//! nothing: it drains the thread's front end, pops the ROB tail newest
//! first, and rewinds the thread's stream to the oldest squashed
//! correct-path instruction ([`smtsim_trace::ReplayableStream::rewind_to`]),
//! which fetch then hands out again. Wrong-path fetch synthesises one
//! instruction at a time at a `(block, slot)` cursor into the thread's
//! code dictionary ([`smtsim_trace::BasicBlockDict::synth_wrong_path`]).

use crate::bpred::PerceptronPredictor;
use crate::btb::Btb;
use crate::config::{CoreConfig, MAX_QUEUE_ENTRIES};
use crate::regfile::{PhysReg, RegFile};
use crate::rob::{InstrState, QueueKind, RobEntry};
use crate::stats::{CoreStats, ThreadProbe, ThreadStats};
use crate::thread::{FetchGate, FrontendEntry, ThreadCtx, ThreadProgram, WrongPathMode};
use crate::wheel::{CompletionWheel, Due};
use smtsim_energy::{PipelineStage, SquashCause};
use smtsim_mem::addr::{bank_of, line_base};
use smtsim_mem::{AccessKind, AccessResult, Completion, MemEvent, MemorySystem, ReqId, WarmRegion};

use smtsim_obs::{EventRing, TraceEvent};
use smtsim_policy::{FetchPolicy, PolicyAction, ThreadSnapshot};
use smtsim_trace::{DynInstr, InstrClass, UncondKind};
use std::collections::VecDeque;

/// What an in-flight memory request resolves to. A load carries its
/// ROB position next to its token (see [`crate::rob::Rob::at`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemTarget {
    Load { tid: usize, token: u64, pos: u64 },
    IFetch { tid: usize },
    Store,
}

/// The dispatch record of one issue-queue resident.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    token: u64,
    /// ROB position ([`crate::rob::Rob::push`]).
    pos: u64,
    tid: u32,
    /// Distinct source registers not yet ready; the slot is ready at 0.
    pending: u32,
}

/// One shared issue queue as [`MAX_QUEUE_ENTRIES`] fixed slots
/// (DESIGN.md §16). `free` and `ready` are bit masks over the slots;
/// each physical register's `SmtCore::reg_waiting` entry names the
/// slots still waiting on it, so a wakeup touches only its waiters and
/// the issue stage reads only `ready`. Slots leave at issue and,
/// eagerly, at squash, so every occupied slot is a live `InQueue`
/// instruction (its ROB entry records the slot in `iq_slot`).
///
/// Waiting is exact because source readiness is monotone: a source
/// register can be rolled back or released only after every `InQueue`
/// reader of it has itself been squashed or has issued.
#[derive(Debug, Clone)]
struct IssueQueue {
    slots: [Slot; MAX_QUEUE_ENTRIES as usize],
    /// Unoccupied slots below the queue's capacity.
    free: u64,
    /// Occupied slots with every source ready.
    ready: u64,
}

/// Mask of the first `entries` slots (`entries == 0` shifts by 64: none).
fn slot_mask(entries: u32) -> u64 {
    u64::MAX
        .checked_shr(MAX_QUEUE_ENTRIES - entries)
        .unwrap_or(0)
}

impl IssueQueue {
    fn new(entries: u32) -> Self {
        IssueQueue {
            slots: [Slot::default(); MAX_QUEUE_ENTRIES as usize],
            free: slot_mask(entries),
            ready: 0,
        }
    }

    fn release(&mut self, slot: u8) {
        let bit = 1u64 << slot;
        self.free |= bit;
        self.ready &= !bit;
    }
}

/// One SMT core.
pub struct SmtCore {
    core_id: u32,
    cfg: CoreConfig,
    threads: Vec<ThreadCtx>,
    policy: Box<dyn FetchPolicy>,
    regs: RegFile,
    bpred: PerceptronPredictor,
    btb: Btb,
    /// Issue-queue occupancy [int, fp, ls] (shared).
    iq_used: [u32; 3],
    /// Per-thread issue-queue residency (for ICOUNT snapshots).
    iq_per_thread: Vec<u32>,
    /// Outstanding memory requests → what they complete.
    req_map: Vec<(ReqId, MemTarget)>,
    /// Committed stores awaiting their L1D access.
    store_queue: VecDeque<u64>,
    /// Per-thread in-flight ROB stores as `(token, word)` (word =
    /// address & !7), kept in token order: pushed at dispatch, popped
    /// from the front at commit, truncated from the back on squash.
    /// Store-to-load forwarding scans this instead of the ROB.
    store_fwd: Vec<VecDeque<(u64, u64)>>,
    /// Scheduled execution completions, drained in
    /// `(done_at, tid, token)` order.
    wheel: CompletionWheel,
    /// Reusable drain buffer for [`Self::wheel`] (D10).
    exec_due: Vec<Due>,
    next_token: u64,
    /// Optional commit log: (tid, trace seq) per committed instruction.
    /// Used by tests to verify the golden property that every thread
    /// commits its trace in order, exactly once, across flushes and
    /// mispredicts.
    commit_log: Option<Vec<(usize, u64)>>,
    /// Optional event trace (None unless enabled: the disabled path is
    /// one branch, zero allocation — see DESIGN.md §12).
    trace: Option<EventRing>,
    /// Per-thread ROB-occupancy high-water marks (tracked only while
    /// tracing, to emit `rob_high_water` events).
    rob_high: Vec<u32>,
    /// Shared-IQ occupancy high-water mark (tracing only).
    iq_high: u32,
    // Reusable scratch.
    snaps: Vec<ThreadSnapshot>,
    /// True when `snaps` still reflects the core state (set by
    /// `run_policy` when the policy executed no actions, so `fetch`
    /// can reuse the snapshots it just built instead of rebuilding).
    snaps_fresh: bool,
    prio: Vec<usize>,
    actions: Vec<PolicyAction>,
    /// The shared issue queues [int, fp, ls] (see [`IssueQueue`]).
    iq: [IssueQueue; 3],
    /// Per physical register, per queue: the slots waiting on it.
    reg_waiting: Vec<[u64; 3]>,
    /// Drain buffers for the memory system's per-core outboxes (D10:
    /// a delivery every few cycles must not allocate).
    mem_events: Vec<MemEvent>,
    mem_done: Vec<Completion>,
    // Core-level stats.
    fetch_active_cycles: u64,
    iq_full_stalls: u64,
    reg_full_stalls: u64,
    rob_full_stalls: u64,
    mshr_retries: u64,
    flushes_executed: u64,
    stalls_executed: u64,
    store_forwards: u64,
}

impl SmtCore {
    /// Build a core running `programs` (one per hardware context) under
    /// `policy`.
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
        let threads: Vec<ThreadCtx> = programs
            .into_iter()
            .map(|p| ThreadCtx::new(p, &cfg))
            .collect();
        let issue_width = (cfg.int_units + cfg.fp_units + cfg.ls_units) as usize;
        SmtCore {
            core_id,
            regs: RegFile::new(cfg.phys_regs, cfg.contexts),
            bpred: PerceptronPredictor::new(
                cfg.perceptrons,
                cfg.local_history_entries,
                cfg.contexts,
            ),
            btb: Btb::new(cfg.btb_entries, cfg.btb_ways),
            iq_used: [0; 3],
            iq_per_thread: vec![0; threads.len()],
            req_map: Vec::new(),
            store_queue: VecDeque::new(),
            store_fwd: (0..threads.len()).map(|_| VecDeque::new()).collect(),
            wheel: CompletionWheel::new(issue_width),
            exec_due: Vec::with_capacity(issue_width),
            next_token: 1,
            commit_log: None,
            trace: None,
            rob_high: vec![0; threads.len()],
            iq_high: 0,
            snaps: Vec::new(),
            snaps_fresh: false,
            prio: Vec::new(),
            actions: Vec::new(),
            iq: [
                IssueQueue::new(cfg.int_queue),
                IssueQueue::new(cfg.fp_queue),
                IssueQueue::new(cfg.ls_queue),
            ],
            reg_waiting: vec![[0; 3]; cfg.phys_regs as usize],
            mem_events: Vec::new(),
            mem_done: Vec::new(),
            fetch_active_cycles: 0,
            iq_full_stalls: 0,
            reg_full_stalls: 0,
            rob_full_stalls: 0,
            mshr_retries: 0,
            flushes_executed: 0,
            stalls_executed: 0,
            store_forwards: 0,
            threads,
            policy,
            cfg,
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

    /// Warm caches and TLBs to the trace-driven starting condition:
    /// each thread's code (L1I + L2 + I-TLB), its L1-resident working
    /// set (L1D + L2 + D-TLB) and its L2-resident working set (L2 +
    /// D-TLB). The main-memory stream stays cold — those accesses are
    /// *supposed* to miss. Call once before the measurement loop.
    pub fn prewarm(&mut self, mem: &mut MemorySystem) {
        let core = self.core_id;
        for t in &self.threads {
            let [(l1b, l1s), (l2b, l2s)] = t.warm_regions;
            mem.prewarm_range(
                core,
                WarmRegion::Code,
                t.dict.entry_pc(),
                t.dict.code_bytes(),
            );
            mem.prewarm_range(core, WarmRegion::L1Data, l1b, l1s);
            mem.prewarm_range(core, WarmRegion::L2Data, l2b, l2s);
        }
    }

    /// Advance one cycle. The caller must have ticked `mem` for `now`
    /// already.
    pub fn tick(&mut self, now: u64, mem: &mut MemorySystem) {
        self.process_mem(now, mem);
        self.exec_complete(now);
        self.commit(now);
        self.drain_stores(now, mem);
        self.issue(now, mem);
        self.dispatch(now);
        self.run_policy(now);
        self.fetch(now, mem);
    }

    /// Earliest cycle ≥ `from` at which a tick could do observable work,
    /// assuming the memory system delivers nothing in between (the
    /// caller intersects this with [`MemorySystem::next_event_cycle`]).
    /// The core half of the stall skip-ahead horizon (DESIGN.md §16).
    ///
    /// The pipeline acts every cycle unless *every* stage is provably
    /// idle:
    ///
    /// * **drain_stores** retries each cycle while the committed-store
    ///   queue is non-empty;
    /// * **commit** acts whenever a ROB head is `Done`;
    /// * **exec_complete** acts when the earliest scheduled completion
    ///   is due;
    /// * **issue** re-arbitrates every cycle some issue-queue slot is
    ///   ready (including MSHR-full retry loops, which touch the cache
    ///   and count `mshr_retries`); waiting slots only become ready
    ///   through completions the other horizon terms already cover;
    /// * **dispatch** acts when the *front* front-end entry has cleared
    ///   the front-end pipe and the ROB, its issue queue, and the
    ///   rename free list all have room. A front entry that is blocked
    ///   on a full resource only charges a stall counter — replayed
    ///   exactly by [`Self::notify_skip`] — and wakes via an event the
    ///   other horizon terms already cover (commit frees ROB slots and
    ///   rename registers, issue frees queue slots);
    /// * **fetch** touches the I-cache whenever some thread is un-gated,
    ///   not waiting on an I-fetch miss, past its redirect timer, *and*
    ///   has fetch-queue room (a full fetch queue blocks `fetch_thread`
    ///   before any access).
    ///
    /// What remains are pure waits with known wake-ups: scheduled
    /// completions (`wheel`), front-end pipe maturation
    /// (`fetched_at + frontend_latency`), fetch redirect timers, and
    /// the policy's own clock ([`FetchPolicy::next_wake`]).
    pub fn next_event_cycle(&self, from: u64) -> u64 {
        if !self.store_queue.is_empty() {
            return from;
        }
        let next_done = self.wheel.next_due();
        if next_done.is_some_and(|at| at <= from) {
            return from;
        }
        let fetch_cap = self.cfg.fetch_queue as usize;
        for t in &self.threads {
            if let Some(head) = t.rob.head() {
                if head.state == InstrState::Done {
                    return from;
                }
            }
            if t.gate == FetchGate::Open
                && t.icache_wait.is_none()
                && t.frontend.len() < fetch_cap
                && t.redirect_at <= from
            {
                return from;
            }
            if let Some(fe) = t.frontend.front() {
                if fe.fetched_at + self.cfg.frontend_latency <= from
                    && t.rob.has_room()
                    && self.iq_has_room(QueueKind::of(fe.instr.class))
                    && (fe.instr.dst.is_none() || self.regs.free_count() > 0)
                {
                    return from;
                }
            }
        }
        if self.iq.iter().any(|q| q.ready != 0) {
            return from;
        }
        // Quiescent at `from`: gather the scheduled wake-ups.
        let mut at = self.policy.next_wake(from);
        if let Some(done_at) = next_done {
            at = at.min(done_at);
        }
        for t in &self.threads {
            if let Some(fe) = t.frontend.front() {
                let matures = fe.fetched_at + self.cfg.frontend_latency;
                if matures > from {
                    at = at.min(matures);
                }
            }
            if t.gate == FetchGate::Open && t.icache_wait.is_none() && t.frontend.len() < fetch_cap
            {
                // redirect_at > from here, else the loop above returned.
                at = at.min(t.redirect_at);
            }
        }
        at
    }

    /// Does `queue` have a free slot for one more dispatch?
    fn iq_has_room(&self, queue: QueueKind) -> bool {
        let cap = [self.cfg.int_queue, self.cfg.fp_queue, self.cfg.ls_queue][queue.index()];
        self.iq_used[queue.index()] < cap
    }

    /// The simulator skipped `cycles` cycles starting at `from` (no
    /// tick ran for them). Event-driven state needs no repair, but the
    /// cycle-by-cycle loop would have charged two kinds of per-cycle
    /// bookkeeping that must be replayed for byte-identity:
    ///
    /// * dispatch stall counters: a thread whose matured front entry is
    ///   blocked on a full ROB / issue queue / rename file charges one
    ///   stall per cycle, with the *first* full resource (in dispatch's
    ///   check order) taking the blame. The pipeline is frozen for the
    ///   whole window, so the reason — and hence the counter — is
    ///   constant: charge it `cycles` times.
    /// * per-call policy state ([`FetchPolicy::on_cycles_skipped`]).
    pub fn notify_skip(&mut self, from: u64, cycles: u64) {
        let (mut rob_s, mut iq_s, mut reg_s) = (0u64, 0u64, 0u64);
        for t in &self.threads {
            let Some(fe) = t.frontend.front() else {
                continue;
            };
            if fe.fetched_at + self.cfg.frontend_latency > from {
                continue; // still in the front-end pipe: no stall charged
            }
            if !t.rob.has_room() {
                rob_s += cycles;
            } else if !self.iq_has_room(QueueKind::of(fe.instr.class)) {
                iq_s += cycles;
            } else {
                // A skippable window with a matured, unblocked-by-ROB/IQ
                // front entry can only be pinned by rename exhaustion
                // (next_event_cycle returned > from, so dispatch could
                // not act).
                debug_assert!(fe.instr.dst.is_some() && self.regs.free_count() == 0);
                reg_s += cycles;
            }
        }
        self.rob_full_stalls += rob_s;
        self.iq_full_stalls += iq_s;
        self.reg_full_stalls += reg_s;
        self.policy.on_cycles_skipped(from, cycles);
    }

    // ----------------------------------------------------------------
    // Memory returns
    // ----------------------------------------------------------------

    fn process_mem(&mut self, now: u64, mem: &mut MemorySystem) {
        let mut events = std::mem::take(&mut self.mem_events);
        mem.drain_events_into(self.core_id, &mut events);
        for ev in events.drain(..) {
            match ev {
                MemEvent::L2MissDetected { req, at } => {
                    if let Some(&(_, MemTarget::Load { tid, token, pos })) =
                        self.req_map.iter().find(|(r, _)| *r == req)
                    {
                        // Only correct-path tracked loads reach the policy.
                        if self.threads[tid]
                            .rob
                            .at(pos, token)
                            .is_some_and(|e| e.load_tracked && !e.wrong_path)
                        {
                            self.policy.on_l2_miss(tid, token, at);
                        }
                    }
                }
            }
        }
        self.mem_events = events;
        let mut done = std::mem::take(&mut self.mem_done);
        mem.drain_completions_into(self.core_id, &mut done);
        for c in done.drain(..) {
            let Some(i) = self.req_map.iter().position(|(r, _)| *r == c.req) else {
                continue; // orphaned by a squash
            };
            let (_, target) = self.req_map.swap_remove(i);
            match target {
                MemTarget::Load { tid, token, pos } => {
                    let mut resume = false;
                    let mut notify = false;
                    let mut ready_reg = None;
                    if let Some(e) = self.threads[tid].rob.at_mut(pos, token) {
                        e.state = InstrState::Done;
                        notify = e.load_tracked && !e.wrong_path;
                        if let Some((newr, _)) = e.dst {
                            self.regs.mark_ready(newr);
                            ready_reg = Some(newr);
                        }
                    }
                    if let Some(newr) = ready_reg {
                        self.wake_reg(newr);
                    }
                    let t = &mut self.threads[tid];
                    t.l1d_misses_in_flight = t.l1d_misses_in_flight.saturating_sub(1);
                    if let FetchGate::Flushed { offender } = t.gate {
                        if offender == token {
                            t.gate = FetchGate::Open;
                            t.redirect_at = now + 1;
                            resume = true;
                        }
                    }
                    if notify {
                        self.policy.on_load_complete(
                            tid,
                            token,
                            c.bank,
                            Some(c.l2_hit),
                            c.latency(),
                            now,
                        );
                    }
                    if resume {
                        self.policy.on_thread_resumed(tid, now);
                    }
                }
                MemTarget::IFetch { tid } => {
                    self.threads[tid].icache_wait = None;
                }
                MemTarget::Store => {}
            }
        }
        self.mem_done = done;
    }

    // ----------------------------------------------------------------
    // Execute completions (non-memory latencies + L1-hit loads)
    // ----------------------------------------------------------------

    fn exec_complete(&mut self, now: u64) {
        let mut due = std::mem::take(&mut self.exec_due);
        self.wheel.drain_due(now, &mut due);
        for &Due {
            tid, token, pos, ..
        } in &due
        {
            let (resolve_mispredict, load_complete, is_cond_branch, dst) =
                match self.threads[tid].rob.at_mut(pos, token) {
                    Some(e) if matches!(e.state, InstrState::Executing { .. }) => {
                        e.state = InstrState::Done;
                        (
                            e.mispredicted && !e.wrong_path,
                            e.instr.class == InstrClass::Load && e.load_tracked && !e.wrong_path,
                            e.instr.class == InstrClass::BranchCond && !e.wrong_path,
                            e.dst,
                        )
                    }
                    _ => continue, // squashed
                };
            if let Some((newr, _)) = dst {
                self.regs.mark_ready(newr);
                self.wake_reg(newr);
            }
            if is_cond_branch {
                let t = &mut self.threads[tid];
                t.branches_in_flight = t.branches_in_flight.saturating_sub(1);
            }
            if load_complete {
                // An L1-hit load: report completion with no L2 verdict.
                self.policy.on_load_complete(tid, token, 0, None, 3, now);
            }
            if resolve_mispredict {
                self.resolve_mispredict(tid, token, now);
            }
        }
        self.exec_due = due;
    }

    /// A mispredicted branch resolved: squash its wrong-path shadow and
    /// redirect fetch to the correct path.
    fn resolve_mispredict(&mut self, tid: usize, branch_token: u64, now: u64) {
        self.squash_younger(tid, branch_token, SquashCause::BranchMispredict, now);
        let t = &mut self.threads[tid];
        t.wrong_path = None;
        t.redirect_at = now + 1;
    }

    // ----------------------------------------------------------------
    // Commit
    // ----------------------------------------------------------------

    fn commit(&mut self, _now: u64) {
        for tid in 0..self.threads.len() {
            let mut budget = self.cfg.commit_width;
            while budget > 0 {
                let Some(head) = self.threads[tid].rob.head() else {
                    break;
                };
                if head.state != InstrState::Done {
                    break;
                }
                debug_assert!(!head.wrong_path, "wrong-path instruction at ROB head");
                let is_store = head.instr.class == InstrClass::Store;
                if is_store && self.store_queue.len() >= self.cfg.store_buffer as usize {
                    break; // store buffer backpressure
                }
                let Some(e) = self.threads[tid].rob.pop_head() else {
                    break; // unreachable: head() above returned Some
                };
                if let Some(log) = &mut self.commit_log {
                    log.push((tid, e.instr.seq));
                }
                if let Some((_, prev)) = e.dst {
                    self.regs.release(prev);
                }
                let t = &mut self.threads[tid];
                t.committed += 1;
                t.energy.commit();
                if e.instr.class == InstrClass::BranchCond {
                    t.branches += 1;
                    if e.mispredicted {
                        t.mispredicts += 1;
                    }
                }
                if is_store {
                    self.store_queue.push_back(e.instr.mem_addr);
                    let fwd = self.store_fwd[tid].pop_front();
                    debug_assert_eq!(fwd, Some((e.token, e.instr.mem_addr & !7)));
                }
                budget -= 1;
            }
        }
    }

    // ----------------------------------------------------------------
    // Store drain (committed stores access the L1D)
    // ----------------------------------------------------------------

    fn drain_stores(&mut self, now: u64, mem: &mut MemorySystem) {
        for _ in 0..2 {
            let Some(&addr) = self.store_queue.front() else {
                break;
            };
            match mem.access(self.core_id, AccessKind::Store, addr, now) {
                AccessResult::L1Hit { .. } => {
                    self.store_queue.pop_front();
                }
                AccessResult::Miss { req, .. } => {
                    self.store_queue.pop_front();
                    debug_assert!(
                        !self.req_map.iter().any(|(r, _)| *r == req),
                        "duplicate req id {req} in req_map (store)"
                    );
                    self.req_map.push((req, MemTarget::Store));
                }
                AccessResult::MshrFull => break,
            }
        }
    }

    // ----------------------------------------------------------------
    // Issue
    // ----------------------------------------------------------------

    fn issue(&mut self, now: u64, mem: &mut MemorySystem) {
        // Per queue, the ready slots oldest (smallest token) first
        // across both threads: sorting `token << 6 | slot` keys orders
        // by token, and tokens are unique. Entries that cannot issue
        // (MSHR full) stay ready for the next cycle.
        let units = [self.cfg.int_units, self.cfg.fp_units, self.cfg.ls_units];
        for (qi, &width) in units.iter().enumerate() {
            let mut ready = self.iq[qi].ready;
            if ready == 0 {
                continue;
            }
            let mut keys = [0u64; MAX_QUEUE_ENTRIES as usize];
            let mut n = 0;
            while ready != 0 {
                let slot = ready.trailing_zeros();
                ready &= ready - 1;
                keys[n] = self.iq[qi].slots[slot as usize].token << 6 | slot as u64;
                n += 1;
            }
            let keys = &mut keys[..n];
            keys.sort_unstable();
            let mut issued = 0;
            for &key in keys.iter() {
                if issued == width {
                    break;
                }
                let slot = (key & 63) as u8;
                let r = self.iq[qi].slots[slot as usize];
                if self.try_issue_one(r.tid as usize, r.token, r.pos, now, mem) {
                    self.iq[qi].release(slot);
                    issued += 1;
                }
            }
        }
    }

    /// `p` was just marked ready: every slot waiting on it has one
    /// source fewer to wait for, and those left with none become ready.
    fn wake_reg(&mut self, p: PhysReg) {
        let waiting = std::mem::take(&mut self.reg_waiting[p as usize]);
        for (q, mut slots) in self.iq.iter_mut().zip(waiting) {
            while slots != 0 {
                let slot = slots.trailing_zeros() as usize;
                slots &= slots - 1;
                q.slots[slot].pending -= 1;
                if q.slots[slot].pending == 0 {
                    q.ready |= 1 << slot;
                }
            }
        }
    }

    /// Issue one instruction; returns false when it must stay queued
    /// (MSHR full). The entry is resolved by its ROB position: once to
    /// read it, once to record the outcome. Nothing in between squashes,
    /// so both resolve.
    fn try_issue_one(
        &mut self,
        tid: usize,
        token: u64,
        pos: u64,
        now: u64,
        mem: &mut MemorySystem,
    ) -> bool {
        let (class, addr, queue, addr_pc, wrong_path) = {
            let e = self.threads[tid]
                .rob
                .at(pos, token)
                // lint: allow(D3) -- occupied issue-queue slots are live InQueue entries: squash frees them eagerly
                .expect("issue candidate resident in ROB");
            debug_assert!(
                e.srcs.iter().flatten().all(|&p| self.regs.is_ready(p)),
                "ready issue-queue slot with a not-ready source"
            );
            (
                e.instr.class,
                e.instr.mem_addr,
                e.queue,
                e.instr.pc,
                e.wrong_path,
            )
        };

        // The new state, and whether the fetch policy now tracks the
        // load (every entry dispatches untracked).
        let (state, load_tracked) = match class {
            // Wrong-path loads execute without touching the data cache
            // (SMTsim models wrong-path effects on the I-cache and
            // branch predictor only; junk data accesses would fabricate
            // MSHR/bank traffic at made-up addresses).
            InstrClass::Load if wrong_path => (InstrState::Executing { done_at: now + 1 }, false),
            // Store-to-load forwarding: an older in-flight store of the
            // same thread to the same word supplies the data directly
            // (no cache access).
            InstrClass::Load if self.store_forward_hit(tid, token, addr) => {
                self.store_forwards += 1;
                (InstrState::Executing { done_at: now + 1 }, false)
            }
            InstrClass::Load => match mem.access(self.core_id, AccessKind::Load, addr, now) {
                AccessResult::L1Hit { ready_at, .. } => {
                    self.threads[tid].loads_issued += 1;
                    self.policy.on_load_issue(tid, token, addr_pc, now);
                    (InstrState::Executing { done_at: ready_at }, true)
                }
                AccessResult::Miss { req, .. } => {
                    let bank = bank_of(addr, mem.config().l2_banks);
                    debug_assert!(
                        !self.req_map.iter().any(|(r, _)| *r == req),
                        "duplicate req id {req} in req_map"
                    );
                    self.req_map
                        .push((req, MemTarget::Load { tid, token, pos }));
                    self.threads[tid].l1d_misses_in_flight += 1;
                    self.threads[tid].loads_issued += 1;
                    self.policy.on_load_issue(tid, token, addr_pc, now);
                    self.policy.on_l1d_miss(tid, token, bank, now);
                    (InstrState::WaitingMem { req }, true)
                }
                AccessResult::MshrFull => {
                    self.mshr_retries += 1;
                    return false;
                }
            },
            // Stores only generate their address here; the memory
            // access happens at commit via the store queue.
            InstrClass::Store => (InstrState::Executing { done_at: now + 1 }, false),
            _ => (
                InstrState::Executing {
                    done_at: now + class.exec_latency() as u64,
                },
                false,
            ),
        };
        if let Some(e) = self.threads[tid].rob.at_mut(pos, token) {
            e.state = state;
            e.load_tracked = load_tracked;
        }
        if let InstrState::Executing { done_at } = state {
            self.wheel.push(Due {
                done_at,
                tid,
                token,
                pos,
            });
        }
        // The instruction left its issue queue.
        self.iq_used[queue.index()] -= 1;
        self.iq_per_thread[tid] = self.iq_per_thread[tid].saturating_sub(1);
        true
    }

    /// True when an older same-thread store to the same 8-byte word is
    /// still in flight (in the ROB or the committed-store queue) — the
    /// load's data can be forwarded. Scans the compact per-thread
    /// [`Self::store_fwd`] list, not the ROB.
    fn store_forward_hit(&self, tid: usize, load_token: u64, addr: u64) -> bool {
        let word = addr & !7;
        let in_rob = self.store_fwd[tid]
            .iter()
            .any(|&(t, w)| t < load_token && w == word);
        in_rob || self.store_queue.iter().any(|&a| (a & !7) == word)
    }

    // ----------------------------------------------------------------
    // Dispatch (rename + ROB/IQ allocation)
    // ----------------------------------------------------------------

    fn dispatch(&mut self, now: u64) {
        let mut budget = self.cfg.dispatch_width;
        let n = self.threads.len();
        // Alternate the scan start for fairness.
        let start = (now as usize) % n;
        for k in 0..n {
            let tid = (start + k) % n;
            while budget > 0 {
                let Some(fe) = self.threads[tid].frontend.front().copied() else {
                    break;
                };
                if fe.fetched_at + self.cfg.frontend_latency > now {
                    break; // still in the front-end pipe
                }
                if !self.threads[tid].rob.has_room() {
                    self.rob_full_stalls += 1;
                    break;
                }
                let queue = QueueKind::of(fe.instr.class);
                let cap = [self.cfg.int_queue, self.cfg.fp_queue, self.cfg.ls_queue][queue.index()];
                if self.iq_used[queue.index()] >= cap {
                    self.iq_full_stalls += 1;
                    break;
                }
                // Rename: read sources first, then allocate the dest.
                let srcs = {
                    let mut s = [None, None];
                    for (i, lr) in fe.instr.srcs.iter().enumerate() {
                        if let Some(lr) = lr {
                            s[i] = Some(self.regs.lookup(tid, *lr));
                        }
                    }
                    s
                };
                let dst = if let Some(lr) = fe.instr.dst {
                    match self.regs.alloc(tid, lr) {
                        Some(pair) => Some(pair),
                        None => {
                            self.reg_full_stalls += 1;
                            break;
                        }
                    }
                } else {
                    None
                };
                self.threads[tid].frontend.pop_front();
                let qi = queue.index();
                let slot = self.iq[qi].free.trailing_zeros() as u8;
                let pos = self.threads[tid].rob.push(RobEntry {
                    token: fe.token,
                    instr: fe.instr,
                    wrong_path: fe.wrong_path,
                    state: InstrState::InQueue,
                    queue,
                    iq_slot: slot,
                    srcs,
                    dst,
                    mispredicted: fe.mispredicted,
                    load_tracked: false,
                });
                // Wait once per distinct not-ready source: both operands
                // may name the same register, and it wakes the slot once.
                let bit = 1u64 << slot;
                let mut pending = 0;
                for &src in srcs.iter().flatten() {
                    let waiting = &mut self.reg_waiting[src as usize][qi];
                    if !self.regs.is_ready(src) && *waiting & bit == 0 {
                        *waiting |= bit;
                        pending += 1;
                    }
                }
                let q = &mut self.iq[qi];
                q.slots[slot as usize] = Slot {
                    token: fe.token,
                    pos,
                    tid: tid as u32,
                    pending,
                };
                q.free &= !bit;
                if pending == 0 {
                    q.ready |= bit;
                }
                if fe.instr.class == InstrClass::Store {
                    self.store_fwd[tid].push_back((fe.token, fe.instr.mem_addr & !7));
                }
                self.iq_used[queue.index()] += 1;
                self.iq_per_thread[tid] += 1;
                if let Some(ring) = &mut self.trace {
                    let rob_occ = self.threads[tid].rob.len() as u32;
                    if rob_occ > self.rob_high[tid] {
                        self.rob_high[tid] = rob_occ;
                        ring.emit(
                            now,
                            TraceEvent::RobHighWater {
                                core: self.core_id,
                                tid: tid as u32,
                                occupancy: rob_occ,
                            },
                        );
                    }
                    let iq_occ: u32 = self.iq_used.iter().sum();
                    if iq_occ > self.iq_high {
                        self.iq_high = iq_occ;
                        ring.emit(
                            now,
                            TraceEvent::IqHighWater {
                                core: self.core_id,
                                occupancy: iq_occ,
                            },
                        );
                    }
                }
                budget -= 1;
            }
        }
    }

    // ----------------------------------------------------------------
    // Policy
    // ----------------------------------------------------------------

    fn build_snapshots(&mut self) {
        self.snaps.clear();
        for (tid, t) in self.threads.iter().enumerate() {
            self.snaps.push(ThreadSnapshot {
                tid,
                in_frontend: t.in_frontend(),
                in_queues: self.iq_per_thread[tid],
                in_rob: t.rob.len() as u32,
                branches_in_flight: t.branches_in_flight,
                l1d_misses_in_flight: t.l1d_misses_in_flight,
                gated: t.is_gated(),
                committed: t.committed,
            });
        }
    }

    fn run_policy(&mut self, now: u64) {
        self.build_snapshots();
        self.actions.clear();
        let mut actions = std::mem::take(&mut self.actions);
        self.policy.tick(now, &self.snaps, &mut actions);
        // Actions mutate gates / ROBs; the snapshots stay valid only
        // when there are none (the common cycle — fetch reuses them).
        self.snaps_fresh = actions.is_empty();
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
    }

    /// Execute the FLUSH response action on `tid`, keeping the offending
    /// load `token` and squashing everything younger.
    fn execute_flush(&mut self, tid: usize, token: u64, now: u64) {
        // Validate: the load must still be outstanding. The policy hands
        // over a bare token, so this is the one lookup by search.
        let rob = &self.threads[tid].rob;
        let outstanding = rob.index_of(token).is_some_and(|i| {
            matches!(
                rob.entry_at(i).state,
                InstrState::WaitingMem { .. } | InstrState::Executing { .. }
            )
        });
        if !outstanding {
            // Raced with the completion; tell the policy the thread runs.
            self.policy.on_thread_resumed(tid, now);
            return;
        }
        let squashed = self.squash_younger(tid, token, SquashCause::Flush, now);
        let t = &mut self.threads[tid];
        t.gate = FetchGate::Flushed { offender: token };
        t.flushes += 1;
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

    // ----------------------------------------------------------------
    // Squash machinery (branch recovery + FLUSH)
    // ----------------------------------------------------------------

    /// Squash every instruction of `tid` younger than `keep_token`:
    /// restore rename state, free queue slots, rewind the stream to the
    /// oldest squashed correct-path instruction, account squash energy.
    /// Returns the number of instructions removed (front-end + ROB,
    /// wrong-path included) — the `flush` trace event's cost figure.
    fn squash_younger(&mut self, tid: usize, keep_token: u64, cause: SquashCause, now: u64) -> u32 {
        let mut squashed: u32 = 0;
        // The oldest squashed correct-path instruction; fetch resumes there.
        let mut rewind = None;
        // Front-end entries are all younger than anything in the ROB;
        // they drain oldest first.
        let t = &mut self.threads[tid];
        for fe in t.frontend.drain(..) {
            debug_assert!(fe.token > keep_token);
            squashed += 1;
            let stage = if now >= fe.fetched_at + 2 {
                PipelineStage::Decode
            } else {
                PipelineStage::Fetch
            };
            t.energy.squash(cause, stage);
            if !fe.wrong_path {
                if fe.instr.class == InstrClass::BranchCond {
                    t.branches_in_flight = t.branches_in_flight.saturating_sub(1);
                }
                rewind.get_or_insert(fe.instr.seq);
            }
        }
        // ROB entries pop newest first: rename rollback order is correct.
        while let Some(e) = self.threads[tid].rob.pop_younger(keep_token) {
            squashed += 1;
            if let (Some(lr), Some((newr, prev))) = (e.instr.dst, e.dst) {
                self.regs.rollback(tid, lr, newr, prev);
            }
            match e.state {
                InstrState::InQueue => {
                    let qi = e.queue.index();
                    for &src in e.srcs.iter().flatten() {
                        self.reg_waiting[src as usize][qi] &= !(1u64 << e.iq_slot);
                    }
                    self.iq[qi].release(e.iq_slot);
                    self.iq_used[qi] -= 1;
                    self.iq_per_thread[tid] = self.iq_per_thread[tid].saturating_sub(1);
                }
                InstrState::WaitingMem { req } => {
                    if let Some(pos) = self.req_map.iter().position(|(r, _)| *r == req) {
                        self.req_map.swap_remove(pos);
                    }
                    self.threads[tid].l1d_misses_in_flight =
                        self.threads[tid].l1d_misses_in_flight.saturating_sub(1);
                }
                _ => {}
            }
            if e.instr.class == InstrClass::BranchCond && !e.wrong_path {
                self.threads[tid].branches_in_flight =
                    self.threads[tid].branches_in_flight.saturating_sub(1);
            }
            if e.load_tracked && !e.wrong_path {
                self.policy.on_load_squashed(tid, e.token);
            }
            self.threads[tid].energy.squash(cause, e.deepest_stage());
            if !e.wrong_path {
                rewind = Some(e.instr.seq);
            }
        }
        while self.store_fwd[tid]
            .back()
            .is_some_and(|&(t, _)| t > keep_token)
        {
            self.store_fwd[tid].pop_back();
        }
        let t = &mut self.threads[tid];
        if let Some(seq) = rewind {
            t.stream.rewind_to(seq);
        }

        // If the wrong-path resolver died, the thread is back on the
        // correct path.
        if t.wrong_path
            .as_ref()
            .is_some_and(|wp| wp.resolver > keep_token)
        {
            t.wrong_path = None;
        }
        // If a flush offender died (mispredict squashing past it), the
        // gate must open.
        if let FetchGate::Flushed { offender } = t.gate {
            if offender > keep_token {
                t.gate = FetchGate::Open;
                self.policy.on_thread_resumed(tid, now);
            }
        }
        squashed
    }

    // ----------------------------------------------------------------
    // Fetch
    // ----------------------------------------------------------------

    fn fetch(&mut self, now: u64, mem: &mut MemorySystem) {
        if !self.snaps_fresh {
            self.build_snapshots();
        }
        self.snaps_fresh = false;
        let mut prio = std::mem::take(&mut self.prio);
        self.policy.fetch_priority(now, &self.snaps, &mut prio);
        let mut budget = self.cfg.fetch_width;
        let mut threads_used = 0;
        let mut fetched_any_cycle = false;
        for &tid in prio.iter() {
            if budget == 0 || threads_used == self.cfg.fetch_threads {
                break;
            }
            let t = &self.threads[tid];
            if t.is_gated() || t.icache_wait.is_some() || now < t.redirect_at {
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

    /// Fetch up to `budget` instructions for one thread. Returns the
    /// number fetched.
    fn fetch_thread(
        &mut self,
        tid: usize,
        now: u64,
        mem: &mut MemorySystem,
        budget: &mut u32,
    ) -> u32 {
        let mut fetched = 0;
        let mut line: Option<u64> = None;
        let mut crossed_lines = 0;
        while *budget > 0 {
            if self.threads[tid].frontend.len() >= self.cfg.fetch_queue as usize {
                break; // fetch queue full: bounded run-ahead
            }
            // Next PC on the active path.
            let t = &mut self.threads[tid];
            let pc = match &t.wrong_path {
                Some(wp) => t.dict.pc_at(wp.cursor),
                None => t.stream.peek().pc,
            };
            // I-cache: at most one new line per thread per cycle.
            let l = line_base(pc);
            if line != Some(l) {
                if crossed_lines == 1 {
                    break;
                }
                match mem.access(self.core_id, AccessKind::IFetch, pc, now) {
                    AccessResult::L1Hit { .. } => {
                        line = Some(l);
                        crossed_lines += 1;
                    }
                    AccessResult::Miss { req, .. } => {
                        self.threads[tid].icache_wait = Some(req);
                        debug_assert!(
                            !self.req_map.iter().any(|(r, _)| *r == req),
                            "duplicate req id {req} in req_map (ifetch)"
                        );
                        self.req_map.push((req, MemTarget::IFetch { tid }));
                        break;
                    }
                    AccessResult::MshrFull => break,
                }
            }
            // Pull the instruction.
            let t = &mut self.threads[tid];
            let (instr, is_wrong_path) = match &mut t.wrong_path {
                Some(wp) => (t.dict.synth_wrong_path(&mut wp.cursor), true),
                None => (t.stream.fetch(), false),
            };
            let token = self.next_token;
            self.next_token += 1;

            let mut branch_redirects = false;
            let mut mispredicted = false;
            if !is_wrong_path && instr.class.is_branch() {
                let (redirects, mispred) = self.predict_branch(tid, token, &instr);
                branch_redirects = redirects;
                mispredicted = mispred;
            } else if is_wrong_path && instr.class == InstrClass::BranchUncond {
                branch_redirects = true; // junk jump: stop the run
            }

            self.threads[tid].frontend.push_back(FrontendEntry {
                token,
                instr,
                wrong_path: is_wrong_path,
                mispredicted,
                fetched_at: now,
            });
            self.threads[tid].fetched += 1;
            *budget -= 1;
            fetched += 1;
            if branch_redirects {
                break;
            }
        }
        fetched
    }

    /// Predict a correct-path branch at fetch. Returns
    /// `(stop_fetch_run, mispredicted)`.
    fn predict_branch(&mut self, tid: usize, token: u64, instr: &DynInstr) -> (bool, bool) {
        let (predicted_taken, predicted_target) = match instr.class {
            InstrClass::BranchCond => {
                let dir = self.bpred.predict(instr.pc, tid);
                self.bpred.update(instr.pc, tid, instr.taken);
                (dir, self.btb.lookup(instr.pc))
            }
            InstrClass::BranchUncond => match instr.uncond_kind {
                // Calls push their return address; the target comes
                // from the BTB like any direct jump.
                UncondKind::Call => {
                    self.threads[tid].ras.push(instr.fallthrough());
                    (true, self.btb.lookup(instr.pc))
                }
                // Returns predict their (dynamic) target by popping the
                // RAS; an empty stack falls back to the BTB. Squashes
                // do not repair the stack — RAS corruption on the wrong
                // path is a real, modelled effect.
                UncondKind::Ret => {
                    let ras = self.threads[tid].ras.pop();
                    (true, ras.or_else(|| self.btb.lookup(instr.pc)))
                }
                UncondKind::Jump => (true, self.btb.lookup(instr.pc)),
            },
            // lint: allow(D11) -- fetch only calls predict_branch on branch-class instructions
            _ => unreachable!("predict_branch on non-branch"),
        };
        // Train the BTB with the resolved target (returns excluded:
        // their targets vary per dynamic instance and would only
        // pollute the BTB — the RAS is their predictor).
        if instr.taken && instr.uncond_kind != UncondKind::Ret {
            self.btb.update(instr.pc, instr.target);
        }
        if instr.class == InstrClass::BranchCond {
            self.threads[tid].branches_in_flight += 1;
        }

        // Decide misprediction and the wrong path the front-end follows.
        let actual_taken = instr.taken;
        let fallthrough = instr.fallthrough();
        let (mispredicted, wrong_pc) = match (predicted_taken, actual_taken) {
            (false, true) => (true, fallthrough),
            (true, false) => (true, predicted_target.unwrap_or(fallthrough)),
            (true, true) => match predicted_target {
                Some(t) if t == instr.target => (false, 0),
                Some(t) => (true, t),
                // BTB miss on a taken branch: misfetch down the
                // fall-through path.
                None => (true, fallthrough),
            },
            (false, false) => (false, 0),
        };
        if mispredicted {
            let t = &mut self.threads[tid];
            t.wrong_path = Some(WrongPathMode {
                resolver: token,
                cursor: t.dict.wrong_path_cursor(wrong_pc),
            });
            return (true, true);
        }
        // Correctly-predicted taken branches end the fetch run.
        (actual_taken, false)
    }

    // ----------------------------------------------------------------
    // Statistics
    // ----------------------------------------------------------------

    /// Snapshot the core's statistics.
    pub fn stats(&self) -> CoreStats {
        CoreStats {
            threads: self
                .threads
                .iter()
                .map(|t| ThreadStats {
                    committed: t.committed,
                    fetched: t.fetched,
                    branches: t.branches,
                    mispredicts: t.mispredicts,
                    loads_issued: t.loads_issued,
                    flushes: t.flushes,
                    energy: t.energy.clone(),
                })
                .collect(),
            fetch_active_cycles: self.fetch_active_cycles,
            iq_full_stalls: self.iq_full_stalls,
            reg_full_stalls: self.reg_full_stalls,
            rob_full_stalls: self.rob_full_stalls,
            mshr_retries: self.mshr_retries,
            flushes_executed: self.flushes_executed,
            stalls_executed: self.stalls_executed,
            store_forwards: self.store_forwards,
        }
    }

    /// One-line diagnostic snapshot of pipeline occupancy (for
    /// debugging and tests).
    pub fn debug_state(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = write!(
            s,
            "iq={:?} regs_free={} stores={} ",
            self.iq_used,
            self.regs.free_count(),
            self.store_queue.len()
        );
        for (tid, t) in self.threads.iter().enumerate() {
            let _ = write!(
                s,
                "| t{tid}: fe={} rob={} head={:?} gate={:?} wp={} ic_wait={} ",
                t.frontend.len(),
                t.rob.len(),
                t.rob.head().map(|e| (e.instr.class, e.state)),
                t.gate,
                t.wrong_path.is_some(),
                t.icache_wait.is_some(),
            );
        }
        s
    }

    /// Check the issue-queue scheduler against the ROB and register
    /// file (for tests): each queue's `ready` mask is exactly its
    /// `InQueue` residents with every source ready, each resident waits
    /// on exactly its distinct not-ready sources, occupied slots equal
    /// `iq_used`, and no register's mask names a free slot.
    #[doc(hidden)]
    pub fn check_scheduler(&self) -> Result<(), String> {
        let caps = [self.cfg.int_queue, self.cfg.fp_queue, self.cfg.ls_queue];
        for (qi, q) in self.iq.iter().enumerate() {
            let occupied = !q.free & slot_mask(caps[qi]);
            if occupied.count_ones() != self.iq_used[qi] {
                return Err(format!(
                    "queue {qi}: {} occupied slots, iq_used {}",
                    occupied.count_ones(),
                    self.iq_used[qi]
                ));
            }
            let in_queue = self
                .threads
                .iter()
                .flat_map(|t| t.rob.iter())
                .filter(|e| e.state == InstrState::InQueue && e.queue.index() == qi)
                .count();
            if in_queue != occupied.count_ones() as usize {
                return Err(format!(
                    "queue {qi}: {in_queue} InQueue ROB entries, {} occupied slots",
                    occupied.count_ones()
                ));
            }
            let (mut expect_ready, mut total_waits) = (0u64, 0u32);
            for slot in 0..MAX_QUEUE_ENTRIES as usize {
                let bit = 1u64 << slot;
                if occupied & bit == 0 {
                    continue;
                }
                let r = q.slots[slot];
                let e = self.threads[r.tid as usize]
                    .rob
                    .at(r.pos, r.token)
                    .filter(|e| e.state == InstrState::InQueue && e.iq_slot as usize == slot)
                    .ok_or_else(|| format!("queue {qi} slot {slot}: no InQueue ROB entry"))?;
                let mut waits = 0;
                for (i, &src) in e.srcs.iter().enumerate() {
                    let Some(src) = src else { continue };
                    let listed = self.reg_waiting[src as usize][qi] & bit != 0;
                    if listed == self.regs.is_ready(src) {
                        return Err(format!(
                            "queue {qi} slot {slot}: source {src} ready={} but listed={listed}",
                            self.regs.is_ready(src)
                        ));
                    }
                    waits += u32::from(listed && (i == 0 || e.srcs[0] != Some(src)));
                }
                if waits != r.pending {
                    return Err(format!(
                        "queue {qi} slot {slot}: pending {} for {waits} waiting sources",
                        r.pending
                    ));
                }
                total_waits += waits;
                if waits == 0 {
                    expect_ready |= bit;
                }
            }
            if q.ready != expect_ready {
                return Err(format!(
                    "queue {qi}: ready {:#x}, expected {expect_ready:#x}",
                    q.ready
                ));
            }
            let mut mask_bits = 0;
            for (p, waiting) in self.reg_waiting.iter().enumerate() {
                if waiting[qi] & !occupied != 0 {
                    return Err(format!("register {p} waits in free slots of queue {qi}"));
                }
                mask_bits += waiting[qi].count_ones();
            }
            // Every listed source is one bit, so equal totals leave no
            // bit that names a slot not waiting on that register.
            if mask_bits != total_waits {
                return Err(format!(
                    "queue {qi}: {mask_bits} register-mask bits for {total_waits} waiting sources"
                ));
            }
        }
        Ok(())
    }

    /// Start recording `(tid, trace_seq)` for every commit.
    pub fn enable_commit_log(&mut self) {
        self.commit_log = Some(Vec::new());
    }

    /// Start recording trace events into a ring keeping the most
    /// recent `capacity` records (DESIGN.md §12). Tracing is off by
    /// default and costs one branch per instrumentation point when
    /// disabled.
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

    /// Structured per-thread pipeline snapshots (the machine-readable
    /// counterpart of [`Self::debug_state`], consumed by the driver's
    /// forward-progress watchdog diagnostics).
    pub fn thread_snapshots(&self) -> Vec<ThreadProbe> {
        self.threads
            .iter()
            .enumerate()
            .map(|(tid, t)| ThreadProbe {
                tid: tid as u32,
                gate: format!("{:?}", t.gate),
                frontend: t.frontend.len() as u32,
                rob: t.rob.len() as u32,
                icache_wait: t.icache_wait.is_some(),
                committed: t.committed,
            })
            .collect()
    }
}
