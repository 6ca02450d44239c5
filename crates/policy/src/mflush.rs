//! The MFLUSH policy (paper §4) — FLUSH/STALL adapted to CMP+SMT.
//!
//! Static triggers break when several SMT cores share a banked L2: the
//! L2-hit latency becomes workload- and traffic-dependent (Figs. 4, 5).
//! MFLUSH therefore *predicts* each access's resolution time from the
//! last observed L2-hit latency of the target bank (the per-core,
//! per-bank 8-bit **MCReg** registers of Fig. 7) and derives two
//! thresholds inside the `[MIN+MT, MAX+MT]` operational environment of
//! Fig. 6:
//!
//! * **Preventive State** at `MIN + MT`: the thread is fetch-gated (a
//!   STALL) but keeps executing what it already fetched;
//! * **Barrier** at `prediction + MIN/2 + MT`: the access is declared an
//!   L2 miss and the FLUSH response action fires.
//!
//! with `MT = (L1_L2_bus_delay + L2_bank_access_delay) × (num_cores−1)`,
//! `MIN` = nominal L1-miss/L2-hit latency and `MAX` = L2-miss latency.

use crate::types::{icount_order, FetchPolicy, LoadToken, PolicyAction, ThreadSnapshot};
use std::collections::VecDeque;

/// How a multi-entry MCReg history is reduced to one prediction
/// (paper §4.1: "more complex configurations, involving queues … and
/// more complex functions"; the paper itself uses a single register =
/// `history: 1`, `Last`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McRegReducer {
    /// Use the most recent observation (the paper's choice).
    Last,
    /// Mean of the history window.
    Mean,
    /// Maximum of the history window (most conservative).
    Max,
}

/// MCReg configuration (history length ≥ 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McRegConfig {
    pub history: usize,
    pub reducer: McRegReducer,
}

impl Default for McRegConfig {
    fn default() -> Self {
        McRegConfig {
            history: 1,
            reducer: McRegReducer::Last,
        }
    }
}

/// The per-core file of 8-bit MCReg registers, one per L2 bank (Fig. 7).
#[derive(Debug, Clone)]
pub struct McRegFile {
    cfg: McRegConfig,
    /// Per-bank history of observed L2-hit latencies (saturated to u8,
    /// as 8-bit registers).
    regs: Vec<VecDeque<u8>>,
    /// Prediction returned before any observation.
    default_prediction: u8,
}

impl McRegFile {
    /// File for `num_banks` banks; `default_prediction` is returned
    /// until a bank has been observed (we use the nominal MIN latency).
    pub fn new(num_banks: u32, default_prediction: u8, cfg: McRegConfig) -> Self {
        assert!(cfg.history >= 1);
        McRegFile {
            cfg,
            regs: (0..num_banks).map(|_| VecDeque::new()).collect(),
            default_prediction,
        }
    }

    /// Record an observed L2-hit latency for `bank` (a write access to
    /// the 8-bit register: saturating).
    pub fn update(&mut self, bank: u32, latency: u64) {
        let v = latency.min(u8::MAX as u64) as u8;
        let q = &mut self.regs[bank as usize];
        if q.len() == self.cfg.history {
            q.pop_front();
        }
        q.push_back(v);
    }

    /// Predict the next L2-hit latency for `bank`.
    pub fn predict(&self, bank: u32) -> u64 {
        let q = &self.regs[bank as usize];
        if q.is_empty() {
            return self.default_prediction as u64;
        }
        // The `unwrap_or` defaults never fire: the empty case returned
        // the default prediction above.
        match self.cfg.reducer {
            McRegReducer::Last => q.back().copied().unwrap_or(self.default_prediction) as u64,
            McRegReducer::Mean => q.iter().map(|&v| v as u64).sum::<u64>() / q.len() as u64,
            McRegReducer::Max => q.iter().max().copied().unwrap_or(self.default_prediction) as u64,
        }
    }
}

/// MFLUSH configuration, derived from the machine (see
/// [`crate::builder::PolicyEnv`]) plus ablation switches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MflushConfig {
    /// Nominal L1-miss / L2-hit latency (paper MIN; 22 on Fig. 1).
    pub min: u64,
    /// Nominal L2-miss latency (paper MAX; 272 on Fig. 1).
    pub max: u64,
    /// L1↔L2 bus transit delay (4).
    pub bus_delay: u64,
    /// L2 bank access occupancy (15).
    pub bank_delay: u64,
    /// Cores sharing the L2.
    pub num_cores: u32,
    /// L2 banks (number of MCRegs per core).
    pub num_banks: u32,
    /// MCReg shape.
    pub mcreg: McRegConfig,
    /// Enable the Preventive State (ablation switch; the paper has it
    /// always on).
    pub preventive: bool,
    /// Include the MT term (ablation switch; always on in the paper).
    pub mt_enabled: bool,
}

impl MflushConfig {
    /// Paper-default MFLUSH for a machine with the Fig. 1 hierarchy.
    pub fn paper(num_cores: u32, num_banks: u32) -> Self {
        MflushConfig {
            min: 22,
            max: 272,
            bus_delay: 4,
            bank_delay: 15,
            num_cores,
            num_banks,
            mcreg: McRegConfig::default(),
            preventive: true,
            mt_enabled: true,
        }
    }

    /// The Multicore Traffic delay:
    /// `MT = (bus + bank) × (num_cores − 1)` (0 when disabled).
    pub fn mt(&self) -> u64 {
        if self.mt_enabled {
            (self.bus_delay + self.bank_delay) * (self.num_cores.max(1) as u64 - 1)
        } else {
            0
        }
    }

    /// Age past which an in-flight access is *suspicious* and its thread
    /// enters the Preventive State: `MIN + MT`.
    pub fn preventive_threshold(&self) -> u64 {
        self.min + self.mt()
    }

    /// The Barrier for a given prediction:
    /// `BARRIER = L2prediction + MIN/2 + MT`, clamped into the
    /// operational environment `[MIN+MT, MAX+MT]` (Fig. 6).
    pub fn barrier(&self, prediction: u64) -> u64 {
        let raw = prediction + self.min / 2 + self.mt();
        raw.clamp(self.min + self.mt(), self.max + self.mt())
    }
}

#[derive(Debug, Clone, Copy)]
struct MfLoad {
    token: LoadToken,
    tid: usize,
    /// Set once the load misses L1 (enters the L2 path).
    bank: Option<u32>,
    /// Absolute cycle of the Barrier (issued_at + barrier(prediction)).
    barrier_at: Option<u64>,
    /// Absolute cycle the access becomes suspicious.
    preventive_at: Option<u64>,
    flush_fired: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct MfThread {
    stalled: bool,
    flushed: bool,
}

/// Decision counters, read by the unit tests.
#[derive(Debug, Clone, Copy, Default)]
struct MflushStats {
    preventive_entries: u64,
    flushes: u64,
    releases: u64,
    /// Flushes whose load turned out to be an L2 hit — MFLUSH's false
    /// misses.
    false_flushes: u64,
}

/// Capacity of [`MflushPolicy::recent_issues`] (power of two).
const RECENT_ISSUES: usize = 32;

/// The MFLUSH fetch policy.
pub(crate) struct MflushPolicy {
    cfg: MflushConfig,
    mcregs: McRegFile,
    loads: Vec<MfLoad>,
    threads: Vec<MfThread>,
    stats: MflushStats,
    /// Preventive-state releases awaiting the next tick.
    pending_resumes: Vec<usize>,
    /// Earliest cycle at which the per-tick scan could produce an
    /// action, given no intervening events. Ticks before it (with no
    /// pending resumes) are provably no-ops and return immediately;
    /// every event that can create an earlier opportunity lowers it.
    /// Purely an optimisation: decisions are byte-identical.
    next_deadline: u64,
    /// Issue cycles of recent loads, keyed by token low bits. Both
    /// cores notify the L1 miss in the same call sequence as the
    /// issue, so the slot is always still live when `on_l1d_miss`
    /// reads it; deadlines stay *issue*-relative without keeping a
    /// book-keeping entry for every L1-hit load.
    recent_issues: [(LoadToken, u64); RECENT_ISSUES],
    /// Per-tick decision scratch, reused across ticks (rule D10: the
    /// policy tick runs inside the cycle loop and must not allocate).
    stall_scratch: Vec<usize>,
    flush_scratch: Vec<(usize, LoadToken)>,
}

impl MflushPolicy {
    /// Build from a configuration.
    pub fn new(cfg: MflushConfig) -> Self {
        let default_pred = cfg.min.min(u8::MAX as u64) as u8;
        MflushPolicy {
            mcregs: McRegFile::new(cfg.num_banks, default_pred, cfg.mcreg),
            cfg,
            loads: Vec::new(),
            threads: Vec::new(),
            stats: MflushStats::default(),
            pending_resumes: Vec::new(),
            next_deadline: 0,
            recent_issues: [(LoadToken::MAX, 0); RECENT_ISSUES],
            stall_scratch: Vec::new(),
            flush_scratch: Vec::new(),
        }
    }

    fn thread_mut(&mut self, tid: usize) -> &mut MfThread {
        if self.threads.len() <= tid {
            self.threads.resize(tid + 1, MfThread::default());
        }
        &mut self.threads[tid]
    }

    fn thread(&self, tid: usize) -> MfThread {
        self.threads.get(tid).copied().unwrap_or_default()
    }

    /// Earliest deadline of any currently-eligible Barrier or
    /// Preventive-State candidate (`u64::MAX` when none). Candidates
    /// that are blocked on thread state (already flushed/stalled) are
    /// excluded; the callbacks that unblock them reset
    /// [`Self::next_deadline`].
    fn earliest_deadline(&self) -> u64 {
        let mut next = u64::MAX;
        for l in &self.loads {
            if l.bank.is_none() {
                continue;
            }
            let th = self.thread(l.tid);
            if th.flushed {
                continue;
            }
            if !l.flush_fired {
                if let Some(b) = l.barrier_at {
                    next = next.min(b);
                }
            }
            if self.cfg.preventive && !th.stalled {
                if let Some(p) = l.preventive_at {
                    next = next.min(p);
                }
            }
        }
        next
    }

    /// Any in-flight suspicious access for `tid` at `cycle`?
    fn has_suspicious(&self, tid: usize, cycle: u64) -> bool {
        self.loads.iter().any(|l| {
            l.tid == tid && l.bank.is_some() && l.preventive_at.map(|p| cycle >= p).unwrap_or(false)
        })
    }
}

impl FetchPolicy for MflushPolicy {
    fn name(&self) -> String {
        "MFLUSH".into()
    }

    fn tick(&mut self, cycle: u64, _snaps: &[ThreadSnapshot], actions: &mut Vec<PolicyAction>) {
        if self.pending_resumes.is_empty() && cycle < self.next_deadline {
            return; // no candidate can fire yet: the scan is a no-op
        }
        for tid in self.pending_resumes.drain(..) {
            actions.push(PolicyAction::Resume { tid });
        }
        // Scan loads in the L2 path; collect decisions first (borrow
        // discipline), then mutate.
        let mut to_stall = std::mem::take(&mut self.stall_scratch);
        to_stall.clear();
        let mut to_flush = std::mem::take(&mut self.flush_scratch);
        to_flush.clear();
        for l in &self.loads {
            if l.bank.is_none() {
                continue;
            }
            let th = self.thread(l.tid);
            if let Some(barrier_at) = l.barrier_at {
                if cycle >= barrier_at && !l.flush_fired && !th.flushed {
                    if !to_flush.iter().any(|f| f.0 == l.tid) {
                        to_flush.push((l.tid, l.token));
                    }
                    continue;
                }
            }
            if self.cfg.preventive {
                if let Some(p) = l.preventive_at {
                    if cycle >= p
                        && !th.stalled
                        && !th.flushed
                        && !to_stall.contains(&l.tid)
                        && !to_flush.iter().any(|f| f.0 == l.tid)
                    {
                        to_stall.push(l.tid);
                    }
                }
            }
        }
        for (tid, token) in to_flush.drain(..) {
            self.thread_mut(tid).flushed = true;
            if let Some(l) = self.loads.iter_mut().find(|l| l.token == token) {
                l.flush_fired = true;
            }
            self.stats.flushes += 1;
            actions.push(PolicyAction::Flush { tid, token });
        }
        for tid in to_stall.drain(..) {
            self.thread_mut(tid).stalled = true;
            self.stats.preventive_entries += 1;
            actions.push(PolicyAction::Stall { tid });
        }
        self.stall_scratch = to_stall;
        self.flush_scratch = to_flush;
        self.next_deadline = self.earliest_deadline();
    }

    fn fetch_priority(&mut self, _cycle: u64, snaps: &[ThreadSnapshot], out: &mut Vec<usize>) {
        icount_order(snaps, out);
    }

    fn on_load_issue(&mut self, _tid: usize, token: LoadToken, _pc: u64, cycle: u64) {
        // Only the issue cycle is remembered here; full tracking
        // starts at `on_l1d_miss`, so L1-hit loads (the vast majority)
        // never touch the load book-keeping.
        self.recent_issues[(token as usize) & (RECENT_ISSUES - 1)] = (token, cycle);
    }

    fn on_l1d_miss(&mut self, tid: usize, token: LoadToken, bank: u32, cycle: u64) {
        // Deadlines count from the *issue* cycle (the access's age per
        // the paper), recovered from the issue ring.
        let (t, at) = self.recent_issues[(token as usize) & (RECENT_ISSUES - 1)];
        let issued_at = if t == token { at } else { cycle };
        // Read the MCReg for the target bank and establish the Barrier.
        let prediction = self.mcregs.predict(bank);
        let barrier = self.cfg.barrier(prediction);
        let preventive = self.cfg.preventive_threshold();
        self.loads.push(MfLoad {
            token,
            tid,
            bank: Some(bank),
            barrier_at: Some(issued_at + barrier),
            preventive_at: Some(issued_at + preventive),
            flush_fired: false,
        });
        self.next_deadline = self.next_deadline.min(issued_at + barrier);
        if self.cfg.preventive {
            self.next_deadline = self.next_deadline.min(issued_at + preventive);
        }
    }

    fn on_load_complete(
        &mut self,
        tid: usize,
        token: LoadToken,
        bank: u32,
        l2_hit: Option<bool>,
        latency: u64,
        cycle: u64,
    ) {
        // Train the MCReg on L2 hits only (a write access; §4.1).
        if l2_hit == Some(true) {
            self.mcregs.update(bank, latency);
        }
        // Tokens are unique: one ordered pass finds and removes the load.
        let mut was_flush_cause = false;
        // rposition: completing loads are usually the newest entries
        // (L1 hits complete the cycle they issue).
        if let Some(i) = self.loads.iter().rposition(|l| l.token == token) {
            was_flush_cause = self.loads[i].flush_fired;
            self.loads.remove(i);
        }
        if was_flush_cause && l2_hit == Some(true) {
            self.stats.false_flushes += 1;
        }

        // Leave the Preventive State when nothing suspicious remains.
        let th = self.thread(tid);
        if th.stalled && !th.flushed && !self.has_suspicious(tid, cycle) {
            self.thread_mut(tid).stalled = false;
            self.stats.releases += 1;
            self.pending_resumes.push(tid);
        }
    }

    fn on_load_squashed(&mut self, tid: usize, token: LoadToken) {
        if let Some(i) = self.loads.iter().rposition(|l| l.token == token) {
            self.loads.remove(i);
        }
        let th = self.thread(tid);
        if th.stalled && !th.flushed && !self.has_suspicious(tid, u64::MAX) {
            self.thread_mut(tid).stalled = false;
            self.stats.releases += 1;
            self.pending_resumes.push(tid);
        }
    }

    fn on_thread_resumed(&mut self, tid: usize, _cycle: u64) {
        let t = self.thread_mut(tid);
        t.flushed = false;
        t.stalled = false;
        // Barriers that lapsed while the thread was flushed become
        // eligible again: force the next tick to scan.
        self.next_deadline = 0;
    }

    fn next_wake(&self, from: u64) -> u64 {
        // The tick's own early-return already encodes the schedule:
        // pending resumes fire next cycle, otherwise nothing happens
        // before `next_deadline` (maintained by every event hook).
        if !self.pending_resumes.is_empty() {
            return from;
        }
        self.next_deadline.max(from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg4() -> MflushConfig {
        MflushConfig::paper(4, 4)
    }

    fn snaps2() -> Vec<ThreadSnapshot> {
        vec![ThreadSnapshot::idle(0), ThreadSnapshot::idle(1)]
    }

    #[test]
    fn mt_equation_matches_paper() {
        // MT = (bus + bank) * (cores - 1)
        assert_eq!(cfg4().mt(), (4 + 15) * 3);
        assert_eq!(MflushConfig::paper(1, 4).mt(), 0);
        assert_eq!(MflushConfig::paper(2, 4).mt(), 19);
        let mut no_mt = cfg4();
        no_mt.mt_enabled = false;
        assert_eq!(no_mt.mt(), 0);
    }

    #[test]
    fn barrier_equation_and_clamping() {
        let c = cfg4(); // min 22, max 272, mt 57
                        // BARRIER = pred + MIN/2 + MT
        assert_eq!(c.barrier(55), 55 + 11 + 57);
        // Clamped below to MIN+MT…
        assert_eq!(c.barrier(0), 22 + 57);
        // …and above to MAX+MT.
        assert_eq!(c.barrier(10_000), 272 + 57);
    }

    #[test]
    fn preventive_threshold_is_min_plus_mt() {
        assert_eq!(cfg4().preventive_threshold(), 22 + 57);
    }

    #[test]
    fn mcreg_predicts_last_observation() {
        let mut f = McRegFile::new(4, 22, McRegConfig::default());
        assert_eq!(f.predict(2), 22, "default before any observation");
        f.update(2, 55);
        assert_eq!(f.predict(2), 55, "Fig. 7's bank-2 example");
        f.update(2, 31);
        assert_eq!(f.predict(2), 31, "history of 1 keeps only the last");
        assert_eq!(f.predict(0), 22, "other banks unaffected");
    }

    #[test]
    fn mcreg_saturates_at_8_bits() {
        let mut f = McRegFile::new(1, 22, McRegConfig::default());
        f.update(0, 10_000);
        assert_eq!(f.predict(0), 255);
    }

    #[test]
    fn mcreg_history_reducers() {
        let cfg = McRegConfig {
            history: 4,
            reducer: McRegReducer::Mean,
        };
        let mut f = McRegFile::new(1, 22, cfg);
        for v in [20, 40, 60, 80] {
            f.update(0, v);
        }
        assert_eq!(f.predict(0), 50);
        let mut f = McRegFile::new(
            1,
            22,
            McRegConfig {
                history: 4,
                reducer: McRegReducer::Max,
            },
        );
        for v in [20, 80, 40] {
            f.update(0, v);
        }
        assert_eq!(f.predict(0), 80);
    }

    #[test]
    fn suspicious_access_enters_preventive_state() {
        let mut p = MflushPolicy::new(cfg4());
        p.on_load_issue(0, 1, 0, 0);
        p.on_l1d_miss(0, 1, 2, 3);
        let mut a = Vec::new();
        // preventive at 22+57 = 79 cycles after issue.
        p.tick(78, &snaps2(), &mut a);
        assert!(a.is_empty());
        p.tick(79, &snaps2(), &mut a);
        assert_eq!(a, vec![PolicyAction::Stall { tid: 0 }]);
        assert_eq!(p.stats.preventive_entries, 1);
    }

    #[test]
    fn barrier_crossing_fires_flush() {
        let mut p = MflushPolicy::new(cfg4());
        p.on_load_issue(0, 1, 0, 0);
        p.on_l1d_miss(0, 1, 0, 3); // prediction = default 22 → barrier 22+11+57 = 90
        let mut a = Vec::new();
        p.tick(79, &snaps2(), &mut a); // preventive
        a.clear();
        p.tick(89, &snaps2(), &mut a);
        assert!(a.is_empty(), "before barrier");
        p.tick(90, &snaps2(), &mut a);
        assert_eq!(a, vec![PolicyAction::Flush { tid: 0, token: 1 }]);
        assert_eq!(p.stats.flushes, 1);
    }

    #[test]
    fn resolution_before_barrier_releases_preventive_state() {
        let mut p = MflushPolicy::new(cfg4());
        p.on_load_issue(0, 1, 0, 0);
        p.on_l1d_miss(0, 1, 0, 3);
        let mut a = Vec::new();
        p.tick(79, &snaps2(), &mut a); // stalled
                                       // L2 hit completes at 85, before the 90-cycle barrier.
        p.on_load_complete(0, 1, 0, Some(true), 85, 85);
        a.clear();
        p.tick(86, &snaps2(), &mut a);
        assert_eq!(a, vec![PolicyAction::Resume { tid: 0 }]);
        assert_eq!(p.stats.releases, 1);
        assert_eq!(p.stats.flushes, 0);
    }

    #[test]
    fn trained_mcreg_raises_barrier_for_slow_banks() {
        let mut p = MflushPolicy::new(cfg4());
        // Train bank 3 with a slow observed hit (120 cycles).
        p.on_load_issue(0, 1, 0, 0);
        p.on_l1d_miss(0, 1, 3, 3);
        p.on_load_complete(0, 1, 3, Some(true), 120, 120);
        // Next load to bank 3 gets barrier 120+11+57 = 188.
        p.on_load_issue(0, 2, 0, 200);
        p.on_l1d_miss(0, 2, 3, 203);
        let mut a = Vec::new();
        p.tick(200 + 187, &snaps2(), &mut a);
        assert!(
            !a.iter().any(|x| matches!(x, PolicyAction::Flush { .. })),
            "no flush before the raised barrier: {a:?}"
        );
        p.tick(200 + 188, &snaps2(), &mut a);
        assert!(a.iter().any(|x| matches!(x, PolicyAction::Flush { .. })));
    }

    #[test]
    fn false_flush_detected_when_late_hit_completes() {
        let mut p = MflushPolicy::new(cfg4());
        p.on_load_issue(0, 1, 0, 0);
        p.on_l1d_miss(0, 1, 0, 3);
        let mut a = Vec::new();
        for c in 0..=90 {
            p.tick(c, &snaps2(), &mut a);
        }
        assert!(a.iter().any(|x| matches!(x, PolicyAction::Flush { .. })));
        // The access finally resolves as a (very late) L2 hit.
        p.on_load_complete(0, 1, 0, Some(true), 140, 140);
        assert_eq!(p.stats.false_flushes, 1);
    }

    #[test]
    fn preventive_can_be_disabled() {
        let mut c = cfg4();
        c.preventive = false;
        let mut p = MflushPolicy::new(c);
        p.on_load_issue(0, 1, 0, 0);
        p.on_l1d_miss(0, 1, 0, 3);
        let mut a = Vec::new();
        p.tick(85, &snaps2(), &mut a);
        assert!(a.is_empty(), "no preventive stall when disabled");
        p.tick(90, &snaps2(), &mut a);
        assert!(a.iter().any(|x| matches!(x, PolicyAction::Flush { .. })));
    }

    #[test]
    fn l1_hits_never_gate_anyone() {
        let mut p = MflushPolicy::new(cfg4());
        p.on_load_issue(0, 1, 0, 0);
        // No l1d_miss: stays out of the L2 path.
        let mut a = Vec::new();
        for c in 0..400 {
            p.tick(c, &snaps2(), &mut a);
        }
        assert!(a.is_empty());
    }

    #[test]
    fn resume_clears_state_for_future_loads() {
        let mut p = MflushPolicy::new(cfg4());
        p.on_load_issue(0, 1, 0, 0);
        p.on_l1d_miss(0, 1, 0, 3);
        let mut a = Vec::new();
        for c in 0..=90 {
            p.tick(c, &snaps2(), &mut a);
        }
        p.on_load_complete(0, 1, 0, Some(false), 272, 272);
        p.on_thread_resumed(0, 272);
        a.clear();
        p.on_load_issue(0, 2, 0, 300);
        p.on_l1d_miss(0, 2, 0, 303);
        p.tick(300 + 90, &snaps2(), &mut a);
        assert!(
            a.iter().any(|x| matches!(x, PolicyAction::Flush { .. })),
            "thread must be flushable again after resume: {a:?}"
        );
    }
}
