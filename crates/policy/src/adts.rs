//! ADTS-style adaptive scheduling (Shin, Lee & Gaudiot; paper §5).
//!
//! The related-work Adaptive Dynamic Thread Scheduling improves SMT
//! throughput by switching the fetch heuristic — among ICOUNT, BRCOUNT
//! and L1DMISSCOUNT — according to the workload's current behaviour.
//! This is an *extension* beyond the paper's evaluated policies,
//! implemented so the bench suite can compare adaptivity-in-priority
//! (ADTS) against adaptivity-in-detection (MFLUSH).
//!
//! Heuristic: over fixed epochs, measure branch pressure (unresolved
//! branches per thread-cycle) and memory pressure (outstanding L1D
//! misses per thread-cycle); at each epoch boundary pick the heuristic
//! targeting the dominant pressure.

use crate::priority::{Order, PriorityPolicy};
use crate::types::{FetchPolicy, LoadToken, PolicyAction, ThreadSnapshot};

/// The adaptive meta-policy.
pub(crate) struct AdtsPolicy {
    epoch_cycles: u64,
    /// Pressure thresholds (per thread, time-averaged) that switch away
    /// from ICOUNT.
    branch_threshold: f64,
    miss_threshold: f64,
    /// The active heuristic (ICOUNT, BRCOUNT or L1DMISSCOUNT). It counts
    /// L1D misses whichever is active.
    priority: PriorityPolicy,
    // Epoch accumulators.
    epoch_start: u64,
    samples: u64,
    branch_sum: u64,
    miss_sum: u64,
}

impl AdtsPolicy {
    /// ADTS with an epoch of `epoch_cycles` (`build_policy` uses 4096).
    pub(crate) fn new(epoch_cycles: u64) -> Self {
        assert!(epoch_cycles > 0);
        AdtsPolicy {
            epoch_cycles,
            branch_threshold: 3.0,
            miss_threshold: 1.5,
            priority: PriorityPolicy::new(Order::Icount).counting_misses(),
            epoch_start: 0,
            samples: 0,
            branch_sum: 0,
            miss_sum: 0,
        }
    }

    fn maybe_switch(&mut self, cycle: u64) {
        if cycle.saturating_sub(self.epoch_start) < self.epoch_cycles || self.samples == 0 {
            return;
        }
        let per = self.samples as f64;
        let branch_pressure = self.branch_sum as f64 / per;
        let miss_pressure = self.miss_sum as f64 / per;
        self.priority.order = if miss_pressure >= self.miss_threshold
            && miss_pressure >= branch_pressure / 2.0
        {
            Order::L1dMissCount
        } else if branch_pressure >= self.branch_threshold {
            Order::Brcount
        } else {
            Order::Icount
        };
        self.epoch_start = cycle;
        self.samples = 0;
        self.branch_sum = 0;
        self.miss_sum = 0;
    }
}

impl FetchPolicy for AdtsPolicy {
    // next_wake deliberately stays at the conservative default (`from`):
    // tick accumulates epoch samples every cycle, so skipping cycles
    // would change the averages the switch decision is based on. ADTS
    // runs therefore never engage stall skip-ahead (DESIGN.md §16).

    fn name(&self) -> String {
        "ADTS".into()
    }

    fn tick(&mut self, cycle: u64, snaps: &[ThreadSnapshot], _actions: &mut Vec<PolicyAction>) {
        self.samples += 1;
        self.branch_sum += snaps
            .iter()
            .map(|s| s.branches_in_flight as u64)
            .sum::<u64>();
        self.miss_sum += snaps
            .iter()
            .map(|s| s.l1d_misses_in_flight as u64)
            .sum::<u64>();
        self.maybe_switch(cycle);
    }

    fn fetch_priority(&mut self, cycle: u64, snaps: &[ThreadSnapshot], out: &mut Vec<usize>) {
        self.priority.fetch_priority(cycle, snaps, out);
    }

    fn on_l1d_miss(&mut self, tid: usize, token: LoadToken, bank: u32, cycle: u64) {
        self.priority.on_l1d_miss(tid, token, bank, cycle);
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
        self.priority
            .on_load_complete(tid, token, bank, l2_hit, latency, cycle);
    }

    fn on_load_squashed(&mut self, tid: usize, token: LoadToken) {
        self.priority.on_load_squashed(tid, token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snaps(branches: u32, misses: u32) -> Vec<ThreadSnapshot> {
        let mut a = ThreadSnapshot::idle(0);
        a.branches_in_flight = branches;
        a.l1d_misses_in_flight = misses;
        vec![a, ThreadSnapshot::idle(1)]
    }

    /// Tick `p` over `cycles` with the same snapshots every cycle.
    fn run(p: &mut AdtsPolicy, cycles: std::ops::RangeInclusive<u64>, s: &[ThreadSnapshot]) {
        let mut actions = Vec::new();
        for c in cycles {
            p.tick(c, s, &mut actions);
        }
        assert!(actions.is_empty(), "ADTS never gates");
    }

    #[test]
    fn starts_with_icount() {
        assert_eq!(AdtsPolicy::new(4096).priority.order, Order::Icount);
    }

    #[test]
    fn switches_to_misscount_under_memory_pressure() {
        let mut p = AdtsPolicy::new(100);
        run(&mut p, 0..=100, &snaps(0, 8));
        assert_eq!(p.priority.order, Order::L1dMissCount);
    }

    #[test]
    fn switches_to_brcount_under_branch_pressure() {
        let mut p = AdtsPolicy::new(100);
        run(&mut p, 0..=100, &snaps(10, 0));
        assert_eq!(p.priority.order, Order::Brcount);
    }

    #[test]
    fn returns_to_icount_when_calm() {
        let mut p = AdtsPolicy::new(100);
        run(&mut p, 0..=100, &snaps(10, 0));
        assert_eq!(p.priority.order, Order::Brcount);
        run(&mut p, 101..=201, &snaps(0, 0));
        assert_eq!(p.priority.order, Order::Icount);
    }

    #[test]
    fn no_switch_mid_epoch() {
        let mut p = AdtsPolicy::new(1_000);
        run(&mut p, 0..=499, &snaps(10, 10));
        assert_eq!(p.priority.order, Order::Icount);
    }

    #[test]
    fn emits_no_gating_actions() {
        let mut p = AdtsPolicy::new(10);
        run(&mut p, 0..=99, &snaps(10, 10));
    }

    #[test]
    fn misses_seen_under_icount_count_after_a_switch() {
        let mut p = AdtsPolicy::new(100);
        p.on_l1d_miss(0, 1, 0, 0);
        run(&mut p, 0..=100, &snaps(0, 8));
        assert_eq!(p.priority.order, Order::L1dMissCount);
        let mut out = Vec::new();
        p.fetch_priority(101, &snaps(0, 8), &mut out);
        assert_eq!(out, [1, 0], "the miss seen under ICOUNT still counts");
    }
}
