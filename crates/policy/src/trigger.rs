//! The detect-and-respond policies: FLUSH and STALL (Tullsen & Brown,
//! MICRO'01) at every Detection Moment of the paper's §3 spectrum.
//!
//! A policy here is one [`Detect`] × one [`Respond`]:
//!
//! * **Detection moment**: when a tracked load is declared an L2 miss.
//!   - `DelayAfterIssue(X)` (*speculative*, FL-SX): the load has been
//!     outstanding X cycles since it left the load/store queue. Fast
//!     but unreliable: an L2 *hit* delayed past X by bank/bus contention
//!     becomes a "false miss", the failure mode that grows with core
//!     count (§3.2).
//!   - `OnL2Miss` (*non-speculative*, FL-NS): the L2 lookup actually
//!     missed. Totally reliable but late.
//!   - `Predicted`: a front-end load-miss predictor says the L1 miss
//!     will miss the L2 too — "the speed is higher, but the reliability
//!     is low due to predictor mispredictions" (§3). The paper evaluates
//!     only the delay variants; this one gives the spectrum's fast end.
//!   - `HillClimbed`: `DelayAfterIssue` with X retuned every epoch from
//!     committed throughput, after Fig. 5's finding that the best
//!     trigger depends on the workload. Adaptivity *of the threshold*,
//!     against MFLUSH's adaptivity *of the prediction*.
//! * **Response action**: what happens to the load's thread.
//!   - `Flush`: squash everything younger than the load, free the
//!     thread's resources and gate its fetch; the core resumes the
//!     thread when the load resolves.
//!   - `Stall`: only gate fetch. The in-flight instructions keep their
//!     resources, which is cheaper in energy (nothing is refetched) and
//!     weaker in throughput (resources stay clogged). The policy resumes
//!     the thread when the load completes or is squashed. MFLUSH's
//!     Preventive State borrows this response (§4).
//!
//! Each tick picks at most one victim load per thread, and never one of
//! a thread this policy already gated.

use crate::types::{icount_order, FetchPolicy, LoadToken, PolicyAction, ThreadSnapshot};

/// When a tracked load is declared an L2 miss.
pub(crate) enum Detect {
    /// Speculative: `X` cycles after the load issued.
    DelayAfterIssue(u64),
    /// Non-speculative: the L2 lookup missed.
    OnL2Miss,
    /// The predictor, consulted at the L1 miss, says the L2 will miss.
    Predicted(LoadMissPredictor),
    /// `DelayAfterIssue` with the delay hill-climbed per epoch.
    HillClimbed(HillClimb),
}

impl Detect {
    /// The delay-after-issue trigger of the delay-based moments; `None`
    /// for the event-based ones, which detect from the pending queue.
    fn delay(&self) -> Option<u64> {
        match self {
            Detect::DelayAfterIssue(x) => Some(*x),
            Detect::HillClimbed(h) => Some(h.trigger),
            Detect::OnL2Miss | Detect::Predicted(_) => None,
        }
    }
}

/// What happens to the thread whose load was detected.
#[derive(Clone, Copy)]
pub(crate) enum Respond {
    /// Squash everything younger than the load and gate fetch.
    Flush,
    /// Gate fetch only.
    Stall,
}

/// Two-bit saturating L2-miss predictor, indexed by load PC and trained
/// on actual L2 outcomes.
pub(crate) struct LoadMissPredictor {
    counters: Vec<u8>,
}

impl LoadMissPredictor {
    /// Table with `entries` counters, all weakly "no miss".
    pub(crate) fn new(entries: usize) -> Self {
        assert!(entries > 0);
        LoadMissPredictor {
            counters: vec![1; entries],
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) % self.counters.len()
    }

    /// Predict whether the load at `pc` will miss the L2.
    fn predict(&self, pc: u64) -> bool {
        self.counters[self.index(pc)] >= 2
    }

    /// Train with the actual outcome (`missed` = the load missed L2).
    fn update(&mut self, pc: u64, missed: bool) {
        let idx = self.index(pc);
        let c = &mut self.counters[idx];
        *c = if missed {
            (*c + 1).min(3)
        } else {
            c.saturating_sub(1)
        };
    }
}

/// Hill-climbing state of [`Detect::HillClimbed`]: at every epoch
/// boundary, compare committed throughput with the previous epoch's. If
/// the last move of the trigger helped, keep moving it by `step` in the
/// same direction; otherwise reverse. A trigger pinned at a bound
/// probes back inwards.
pub(crate) struct HillClimb {
    trigger: u64,
    min: u64,
    max: u64,
    step: u64,
    epoch: u64,
    /// +1 / −1.
    direction: i64,
    epoch_start: u64,
    last_committed: u64,
    /// Negative until the first epoch has been measured.
    last_epoch_throughput: f64,
}

impl HillClimb {
    /// Start at `initial` cycles and climb within `[min, max]` by `step`
    /// every `epoch` cycles.
    pub(crate) fn new(initial: u64, min: u64, max: u64, step: u64, epoch: u64) -> Self {
        assert!(min <= initial && initial <= max);
        assert!(step > 0 && epoch > 0);
        HillClimb {
            trigger: initial,
            min,
            max,
            step,
            epoch,
            direction: 1,
            epoch_start: 0,
            last_committed: 0,
            last_epoch_throughput: -1.0,
        }
    }

    fn maybe_adjust(&mut self, cycle: u64, snaps: &[ThreadSnapshot]) {
        if cycle.saturating_sub(self.epoch_start) < self.epoch {
            return;
        }
        let committed: u64 = snaps.iter().map(|s| s.committed).sum();
        let throughput =
            (committed - self.last_committed) as f64 / (cycle - self.epoch_start) as f64;
        if self.last_epoch_throughput >= 0.0 {
            if throughput < self.last_epoch_throughput {
                self.direction = -self.direction;
            }
            let next = (self.trigger as i64 + self.direction * self.step as i64)
                .clamp(self.min as i64, self.max as i64) as u64;
            if next != self.trigger {
                self.trigger = next;
            } else {
                self.direction = -self.direction;
            }
        }
        self.last_epoch_throughput = throughput;
        self.last_committed = committed;
        self.epoch_start = cycle;
    }
}

#[derive(Debug, Clone, Copy)]
struct TrackedLoad {
    token: LoadToken,
    tid: usize,
    pc: u64,
    issued_at: u64,
    triggered: bool,
}

/// One detection moment paired with one response action.
pub(crate) struct TriggerPolicy {
    detect: Detect,
    respond: Respond,
    /// Loads issued and not yet completed or squashed, in issue order.
    loads: Vec<TrackedLoad>,
    /// Threads gated by this policy's own response.
    gated: Vec<bool>,
    /// Miss verdicts of the event-based moments (the L2 missed, or the
    /// predictor says it will) awaiting the next tick, oldest first.
    pending: Vec<(usize, LoadToken)>,
    /// `Stall` only: per thread, the load whose completion or squash
    /// resumes it.
    cause: Vec<Option<LoadToken>>,
    /// `Stall` only: resumes to emit at the next tick.
    resumes: Vec<usize>,
    /// Victims `(tid, token, issued_at)`, reused every tick (rule D10:
    /// the tick runs inside the cycle loop and must not allocate).
    victims: Vec<(usize, LoadToken, u64)>,
}

impl TriggerPolicy {
    pub(crate) fn new(detect: Detect, respond: Respond) -> Self {
        TriggerPolicy {
            detect,
            respond,
            loads: Vec::new(),
            gated: Vec::new(),
            pending: Vec::new(),
            cause: Vec::new(),
            resumes: Vec::new(),
            victims: Vec::new(),
        }
    }

    fn gated(&self, tid: usize) -> bool {
        self.gated.get(tid).copied().unwrap_or(false)
    }

    fn set_gated(&mut self, tid: usize, v: bool) {
        if self.gated.len() <= tid {
            self.gated.resize(tid + 1, false);
        }
        self.gated[tid] = v;
    }

    /// Drop `token` from the books. A thread stalled on it resumes at
    /// the next tick.
    fn forget(&mut self, tid: usize, token: LoadToken) -> Option<TrackedLoad> {
        // rposition: completing loads are usually the newest entries
        // (L1 hits complete a few cycles after they issue).
        let load = self
            .loads
            .iter()
            .rposition(|l| l.token == token)
            .map(|i| self.loads.remove(i));
        self.pending.retain(|&(_, t)| t != token);
        if self.cause.get(tid).copied().flatten() == Some(token) {
            self.cause[tid] = None;
            self.set_gated(tid, false);
            self.resumes.push(tid);
        }
        load
    }
}

impl FetchPolicy for TriggerPolicy {
    fn name(&self) -> String {
        let response = match self.respond {
            Respond::Flush => "FLUSH",
            Respond::Stall => "STALL",
        };
        match self.detect {
            Detect::DelayAfterIssue(x) => format!("{response}-S{x}"),
            Detect::OnL2Miss => format!("{response}-NS"),
            Detect::Predicted(_) => format!("{response}-LMP"),
            Detect::HillClimbed(_) => format!("{response}-ADAPT"),
        }
    }

    fn tick(&mut self, cycle: u64, snaps: &[ThreadSnapshot], actions: &mut Vec<PolicyAction>) {
        for tid in self.resumes.drain(..) {
            actions.push(PolicyAction::Resume { tid });
        }
        if let Detect::HillClimbed(h) = &mut self.detect {
            h.maybe_adjust(cycle, snaps);
        }
        let mut victims = std::mem::take(&mut self.victims);
        victims.clear();
        match self.detect.delay() {
            // The oldest overdue load of each thread; equal issue
            // cycles go to the load that issued first.
            Some(x) => {
                for l in &self.loads {
                    if l.triggered || self.gated(l.tid) || cycle.saturating_sub(l.issued_at) < x {
                        continue;
                    }
                    match victims.iter_mut().find(|v| v.0 == l.tid) {
                        Some(v) if l.issued_at < v.2 => *v = (l.tid, l.token, l.issued_at),
                        Some(_) => {}
                        None => victims.push((l.tid, l.token, l.issued_at)),
                    }
                }
            }
            // The first pending verdict of each thread whose load is
            // still tracked (not completed or squashed meanwhile).
            None => {
                for &(tid, token) in &self.pending {
                    if self.gated(tid) || victims.iter().any(|v| v.0 == tid) {
                        continue;
                    }
                    if self.loads.iter().any(|l| l.token == token && !l.triggered) {
                        victims.push((tid, token, 0));
                    }
                }
                self.pending.clear();
            }
        }
        for &(tid, token, _) in &victims {
            self.set_gated(tid, true);
            if let Some(l) = self.loads.iter_mut().find(|l| l.token == token) {
                l.triggered = true;
            }
            actions.push(match self.respond {
                Respond::Flush => PolicyAction::Flush { tid, token },
                Respond::Stall => {
                    if self.cause.len() <= tid {
                        self.cause.resize(tid + 1, None);
                    }
                    self.cause[tid] = Some(token);
                    PolicyAction::Stall { tid }
                }
            });
        }
        self.victims = victims;
    }

    fn fetch_priority(&mut self, _cycle: u64, snaps: &[ThreadSnapshot], out: &mut Vec<usize>) {
        icount_order(snaps, out);
    }

    fn on_load_issue(&mut self, tid: usize, token: LoadToken, pc: u64, cycle: u64) {
        self.loads.push(TrackedLoad {
            token,
            tid,
            pc,
            issued_at: cycle,
            triggered: false,
        });
    }

    fn on_l1d_miss(&mut self, tid: usize, token: LoadToken, _bank: u32, _cycle: u64) {
        // The prediction fires when the load enters the L2 path: L1 hits
        // resolve too fast to be worth a response.
        if let Detect::Predicted(p) = &self.detect {
            if let Some(l) = self.loads.iter().find(|l| l.token == token) {
                if p.predict(l.pc) {
                    self.pending.push((tid, token));
                }
            }
        }
    }

    fn on_l2_miss(&mut self, tid: usize, token: LoadToken, _cycle: u64) {
        if matches!(self.detect, Detect::OnL2Miss) {
            self.pending.push((tid, token));
        }
    }

    fn on_load_complete(
        &mut self,
        tid: usize,
        token: LoadToken,
        _bank: u32,
        l2_hit: Option<bool>,
        _latency: u64,
        _cycle: u64,
    ) {
        let load = self.forget(tid, token);
        if let (Detect::Predicted(p), Some(l), Some(hit)) = (&mut self.detect, load, l2_hit) {
            p.update(l.pc, !hit);
        }
    }

    fn on_load_squashed(&mut self, tid: usize, token: LoadToken) {
        self.forget(tid, token);
    }

    fn on_thread_resumed(&mut self, tid: usize, _cycle: u64) {
        self.set_gated(tid, false);
    }

    /// Queued resumes fire next cycle. Otherwise the delay-based moments
    /// wake at the earliest `issued_at + X` over untriggered loads of
    /// un-gated threads (clamped forward to `from`: an overdue load
    /// fires on the very next tick), the event-based ones only while a
    /// verdict is pending, and `HillClimbed` also at its epoch boundary.
    fn next_wake(&self, from: u64) -> u64 {
        if !self.resumes.is_empty() {
            return from;
        }
        let detect_at = match self.detect.delay() {
            Some(x) => self
                .loads
                .iter()
                .filter(|l| !l.triggered && !self.gated(l.tid))
                .map(|l| l.issued_at.saturating_add(x))
                .min()
                .map_or(u64::MAX, |at| at.max(from)),
            None if self.pending.is_empty() => u64::MAX,
            None => from,
        };
        match &self.detect {
            Detect::HillClimbed(h) => {
                detect_at.min(h.epoch_start.saturating_add(h.epoch).max(from))
            }
            _ => detect_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flush(detect: Detect) -> TriggerPolicy {
        TriggerPolicy::new(detect, Respond::Flush)
    }

    fn stall(detect: Detect) -> TriggerPolicy {
        TriggerPolicy::new(detect, Respond::Stall)
    }

    /// FLUSH-ADAPT's climb with a 100-cycle epoch.
    fn adapt(initial: u64, step: u64) -> TriggerPolicy {
        flush(Detect::HillClimbed(HillClimb::new(
            initial, 30, 150, step, 100,
        )))
    }

    fn trigger(p: &TriggerPolicy) -> u64 {
        p.detect.delay().unwrap()
    }

    fn snaps2() -> Vec<ThreadSnapshot> {
        vec![ThreadSnapshot::idle(0), ThreadSnapshot::idle(1)]
    }

    fn committed(n: u64) -> Vec<ThreadSnapshot> {
        let mut a = ThreadSnapshot::idle(0);
        a.committed = n;
        vec![a, ThreadSnapshot::idle(1)]
    }

    /// A FLUSH-LMP policy whose predictor has learnt that `pc` misses.
    fn trained_lmp(pc: u64) -> TriggerPolicy {
        let mut p = flush(Detect::Predicted(LoadMissPredictor::new(16)));
        for token in 0..4u64 {
            p.on_load_issue(0, token, pc, 10);
            p.on_l1d_miss(0, token, 2, 10);
            p.on_load_complete(0, token, 2, Some(false), 272, 300);
        }
        p
    }

    #[test]
    fn names_are_response_then_detection() {
        assert_eq!(flush(Detect::DelayAfterIssue(30)).name(), "FLUSH-S30");
        assert_eq!(flush(Detect::OnL2Miss).name(), "FLUSH-NS");
        assert_eq!(stall(Detect::DelayAfterIssue(50)).name(), "STALL-S50");
        assert_eq!(stall(Detect::OnL2Miss).name(), "STALL-NS");
        assert_eq!(adapt(60, 10).name(), "FLUSH-ADAPT");
        assert_eq!(
            flush(Detect::Predicted(LoadMissPredictor::new(4))).name(),
            "FLUSH-LMP"
        );
    }

    #[test]
    fn speculative_triggers_after_delay() {
        let mut p = flush(Detect::DelayAfterIssue(30));
        p.on_load_issue(0, 99, 0, 100);
        let mut actions = Vec::new();
        p.tick(129, &snaps2(), &mut actions);
        assert!(actions.is_empty(), "29 cycles: too early");
        p.tick(130, &snaps2(), &mut actions);
        assert_eq!(actions, vec![PolicyAction::Flush { tid: 0, token: 99 }]);
    }

    #[test]
    fn no_double_trigger_while_gated() {
        let mut p = flush(Detect::DelayAfterIssue(30));
        p.on_load_issue(0, 1, 0, 0);
        p.on_load_issue(0, 2, 0, 5);
        let mut actions = Vec::new();
        p.tick(100, &snaps2(), &mut actions);
        assert_eq!(actions.len(), 1, "one flush per thread");
        actions.clear();
        p.tick(101, &snaps2(), &mut actions);
        assert!(actions.is_empty(), "thread is gated until resume");
    }

    #[test]
    fn oldest_overdue_load_is_the_victim() {
        let mut p = flush(Detect::DelayAfterIssue(10));
        p.on_load_issue(0, 7, 0, 50); // newer
        p.on_load_issue(0, 3, 0, 20); // older
        let mut actions = Vec::new();
        p.tick(100, &snaps2(), &mut actions);
        assert_eq!(actions, vec![PolicyAction::Flush { tid: 0, token: 3 }]);
    }

    #[test]
    fn equal_issue_cycles_go_to_the_first_issued() {
        let mut p = flush(Detect::DelayAfterIssue(10));
        p.on_load_issue(0, 8, 0, 20);
        p.on_load_issue(0, 4, 0, 20);
        let mut actions = Vec::new();
        p.tick(100, &snaps2(), &mut actions);
        assert_eq!(actions, vec![PolicyAction::Flush { tid: 0, token: 8 }]);
    }

    #[test]
    fn resume_reenables_detection() {
        let mut p = flush(Detect::DelayAfterIssue(30));
        p.on_load_issue(0, 1, 0, 0);
        let mut actions = Vec::new();
        p.tick(30, &snaps2(), &mut actions);
        assert_eq!(actions.len(), 1);
        // Offending load completes; core resumes the thread.
        p.on_load_complete(0, 1, 0, Some(false), 272, 272);
        p.on_thread_resumed(0, 272);
        // A new slow load triggers again.
        p.on_load_issue(0, 2, 0, 280);
        actions.clear();
        p.tick(310, &snaps2(), &mut actions);
        assert_eq!(actions, vec![PolicyAction::Flush { tid: 0, token: 2 }]);
    }

    #[test]
    fn completed_loads_never_trigger() {
        let mut p = flush(Detect::DelayAfterIssue(30));
        p.on_load_issue(0, 1, 0, 0);
        p.on_load_complete(0, 1, 2, Some(true), 25, 25);
        let mut actions = Vec::new();
        p.tick(100, &snaps2(), &mut actions);
        assert!(actions.is_empty());
    }

    #[test]
    fn squashed_loads_are_forgotten() {
        let mut p = flush(Detect::DelayAfterIssue(30));
        p.on_load_issue(0, 1, 0, 0);
        p.on_load_squashed(0, 1);
        let mut actions = Vec::new();
        p.tick(100, &snaps2(), &mut actions);
        assert!(actions.is_empty());
    }

    #[test]
    fn non_speculative_triggers_only_on_l2_miss() {
        let mut p = flush(Detect::OnL2Miss);
        p.on_load_issue(0, 1, 0, 0);
        let mut actions = Vec::new();
        p.tick(500, &snaps2(), &mut actions);
        assert!(actions.is_empty(), "no delay trigger in NS mode");
        p.on_l2_miss(0, 1, 22);
        p.tick(501, &snaps2(), &mut actions);
        assert_eq!(actions, vec![PolicyAction::Flush { tid: 0, token: 1 }]);
    }

    #[test]
    fn l2_miss_of_a_squashed_load_never_triggers() {
        let mut p = flush(Detect::OnL2Miss);
        p.on_load_issue(0, 1, 0, 0);
        p.on_l2_miss(0, 1, 22);
        p.on_load_squashed(0, 1);
        let mut actions = Vec::new();
        p.tick(23, &snaps2(), &mut actions);
        assert!(actions.is_empty());
    }

    #[test]
    fn threads_trigger_independently() {
        let mut p = flush(Detect::DelayAfterIssue(30));
        p.on_load_issue(0, 1, 0, 0);
        p.on_load_issue(1, 2, 0, 0);
        let mut actions = Vec::new();
        p.tick(30, &snaps2(), &mut actions);
        assert_eq!(
            actions,
            vec![
                PolicyAction::Flush { tid: 0, token: 1 },
                PolicyAction::Flush { tid: 1, token: 2 },
            ]
        );
    }

    #[test]
    fn stall_then_resume_on_completion() {
        let mut p = stall(Detect::DelayAfterIssue(30));
        p.on_load_issue(0, 9, 0, 0);
        let mut actions = Vec::new();
        p.tick(30, &snaps2(), &mut actions);
        assert_eq!(actions, vec![PolicyAction::Stall { tid: 0 }]);
        // Load completes: resume at next tick.
        p.on_load_complete(0, 9, 0, Some(false), 272, 272);
        actions.clear();
        p.tick(273, &snaps2(), &mut actions);
        assert_eq!(actions, vec![PolicyAction::Resume { tid: 0 }]);
    }

    #[test]
    fn unrelated_load_completion_does_not_resume() {
        let mut p = stall(Detect::DelayAfterIssue(30));
        p.on_load_issue(0, 1, 0, 0);
        p.on_load_issue(0, 2, 0, 5);
        let mut actions = Vec::new();
        p.tick(30, &snaps2(), &mut actions); // stalls on token 1
        actions.clear();
        p.on_load_complete(0, 2, 0, Some(true), 40, 45);
        p.tick(46, &snaps2(), &mut actions);
        assert!(
            !actions.contains(&PolicyAction::Resume { tid: 0 }),
            "must wait for the causing load"
        );
    }

    #[test]
    fn squash_of_cause_resumes() {
        let mut p = stall(Detect::DelayAfterIssue(30));
        p.on_load_issue(0, 1, 0, 0);
        let mut actions = Vec::new();
        p.tick(30, &snaps2(), &mut actions);
        p.on_load_squashed(0, 1); // e.g. older branch mispredicted
        actions.clear();
        p.tick(31, &snaps2(), &mut actions);
        assert_eq!(actions, vec![PolicyAction::Resume { tid: 0 }]);
    }

    #[test]
    fn can_stall_again_after_resume() {
        let mut p = stall(Detect::DelayAfterIssue(10));
        p.on_load_issue(0, 1, 0, 0);
        let mut a = Vec::new();
        p.tick(10, &snaps2(), &mut a);
        p.on_load_complete(0, 1, 0, Some(false), 272, 272);
        p.on_load_issue(0, 2, 0, 300);
        a.clear();
        p.tick(310, &snaps2(), &mut a);
        assert_eq!(
            a,
            vec![
                PolicyAction::Resume { tid: 0 },
                PolicyAction::Stall { tid: 0 }
            ],
            "the queued resume goes out before the new detection"
        );
    }

    #[test]
    fn hill_climb_starts_at_its_initial_trigger() {
        assert_eq!(trigger(&adapt(60, 10)), 60);
    }

    #[test]
    fn hill_climb_keeps_going_while_throughput_improves() {
        let mut p = adapt(60, 10);
        let mut actions = Vec::new();
        // Epoch 1 establishes the baseline, epoch 2 sees improvement →
        // keep direction (+10), epoch 3 improves again → +10 more.
        p.tick(100, &committed(100), &mut actions); // baseline (no move yet)
        assert_eq!(trigger(&p), 60);
        p.tick(200, &committed(300), &mut actions); // improved: move +10
        assert_eq!(trigger(&p), 70);
        p.tick(300, &committed(600), &mut actions); // improved again: +10
        assert_eq!(trigger(&p), 80);
    }

    #[test]
    fn hill_climb_reverses_when_throughput_drops() {
        let mut p = adapt(60, 10);
        let mut actions = Vec::new();
        p.tick(100, &committed(100), &mut actions); // baseline
        p.tick(200, &committed(300), &mut actions); // up → 70
        p.tick(300, &committed(350), &mut actions); // worse → reverse → 60
        assert_eq!(trigger(&p), 60);
    }

    #[test]
    fn hill_climb_stays_within_bounds() {
        let mut p = adapt(140, 20);
        let mut actions = Vec::new();
        let mut n = 0;
        for e in 1..20u64 {
            n += 100 * e; // monotonically improving
            p.tick(e * 100, &committed(n), &mut actions);
            assert!((30..=150).contains(&trigger(&p)), "trigger {}", trigger(&p));
        }
    }

    #[test]
    fn hill_climbed_trigger_still_flushes() {
        let mut p = flush(Detect::HillClimbed(HillClimb::new(60, 30, 150, 10, 8192)));
        p.on_load_issue(0, 9, 0, 0);
        let mut actions = Vec::new();
        p.tick(59, &committed(0), &mut actions);
        assert!(actions.is_empty());
        p.tick(60, &committed(0), &mut actions);
        assert_eq!(actions, vec![PolicyAction::Flush { tid: 0, token: 9 }]);
    }

    #[test]
    fn predictor_learns_missing_pcs() {
        let mut p = LoadMissPredictor::new(64);
        let pc = 0x1000;
        assert!(!p.predict(pc), "weakly not-miss initially");
        p.update(pc, true);
        p.update(pc, true);
        assert!(p.predict(pc), "two misses saturate towards miss");
        p.update(pc, false);
        p.update(pc, false);
        p.update(pc, false);
        assert!(!p.predict(pc), "hits train it back");
    }

    #[test]
    fn predicted_misses_flush_at_the_next_tick() {
        let mut p = trained_lmp(0x1000);
        // A fresh load at the trained PC triggers as soon as it misses L1.
        let mut actions = Vec::new();
        p.on_load_issue(0, 64, 0x1000, 399);
        p.on_l1d_miss(0, 64, 2, 400);
        p.tick(401, &snaps2(), &mut actions);
        assert_eq!(actions, vec![PolicyAction::Flush { tid: 0, token: 64 }]);
    }

    #[test]
    fn untrained_pcs_are_not_predicted() {
        let mut p = trained_lmp(0x1000);
        let mut actions = Vec::new();
        p.on_load_issue(0, 64, 0x1004, 399);
        p.on_l1d_miss(0, 64, 2, 400);
        p.tick(401, &snaps2(), &mut actions);
        assert!(actions.is_empty());
    }

    #[test]
    fn predicted_loads_that_complete_first_never_trigger() {
        let mut p = trained_lmp(0x2000);
        p.on_load_issue(0, 65, 0x2000, 399);
        p.on_l1d_miss(0, 65, 1, 400);
        p.on_load_complete(0, 65, 1, Some(true), 30, 430); // resolves first
        let mut actions = Vec::new();
        p.tick(431, &snaps2(), &mut actions);
        assert!(actions.is_empty());
    }

    #[test]
    fn predicted_gated_threads_are_not_reflushed() {
        let mut p = trained_lmp(0x3000);
        let mut actions = Vec::new();
        p.on_load_issue(0, 64, 0x3000, 400);
        p.on_l1d_miss(0, 64, 0, 400);
        p.on_load_issue(0, 128, 0x3000, 401);
        p.on_l1d_miss(0, 128, 0, 401);
        p.tick(402, &snaps2(), &mut actions);
        assert_eq!(actions, vec![PolicyAction::Flush { tid: 0, token: 64 }]);
        actions.clear();
        p.tick(403, &snaps2(), &mut actions);
        assert!(actions.is_empty());
        // Resume re-arms.
        p.on_thread_resumed(0, 700);
        p.on_load_issue(0, 192, 0x3000, 700);
        p.on_l1d_miss(0, 192, 0, 700);
        p.tick(701, &snaps2(), &mut actions);
        assert_eq!(actions, vec![PolicyAction::Flush { tid: 0, token: 192 }]);
    }
}
