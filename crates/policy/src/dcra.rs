//! DCRA-style dynamically controlled resource allocation (Cazorla,
//! Fernández, Ramirez & Valero, MICRO'04 — the paper's reference \[3\]).
//!
//! Where FLUSH reacts to long-latency loads by squashing, DCRA prevents
//! monopolisation up front: threads are classified every cycle as
//! *fast* or *slow* (slow = blocked on outstanding D-cache misses), the
//! shared-resource budget is split so that slow threads get a reduced
//! entitlement, and a thread exceeding its entitlement is fetch-gated
//! until it drains back under it. No squashing — so, like STALL, it
//! wastes no refetch energy.
//!
//! This is a faithful *simplification* of DCRA (the original also
//! entitles physical registers and distinguishes integer/fp pressure);
//! it exists as a related-work comparison point for the benches, not as
//! a reproduction target of this paper.

use crate::types::{icount_order, FetchPolicy, PolicyAction, ThreadSnapshot};

/// The DCRA-style policy.
pub(crate) struct DcraPolicy {
    /// Shared issue-queue entries per queue (the entitlement base).
    shared_entries: u32,
    /// Threads currently gated by us.
    gated: Vec<bool>,
    /// Gate events (statistics, read by the unit tests).
    gates: u64,
}

impl DcraPolicy {
    /// Policy for a machine with `shared_entries` entries per shared
    /// issue queue (64 on the paper's core).
    pub fn new(shared_entries: u32) -> Self {
        assert!(shared_entries > 0);
        DcraPolicy {
            shared_entries,
            gated: Vec::new(),
            gates: 0,
        }
    }

    /// Entitlement of one thread, given the fast/slow census.
    ///
    /// Slow threads share a *reduced* pool: each slow thread may hold
    /// `total / (n + fast)` entries (the more fast threads want the
    /// machine, the less a blocked thread may hoard); fast threads
    /// split the remainder evenly.
    fn entitlement(&self, is_slow: bool, fast: u32, slow: u32) -> u32 {
        let n = fast + slow;
        if n == 0 {
            return self.shared_entries;
        }
        let slow_cap = self
            .shared_entries
            .checked_div(n + fast)
            .unwrap_or(self.shared_entries)
            .max(1);
        if is_slow {
            slow_cap
        } else {
            (self.shared_entries - slow * slow_cap)
                .checked_div(fast)
                .unwrap_or(self.shared_entries)
                .max(1)
        }
    }

    fn is_gated(&self, tid: usize) -> bool {
        self.gated.get(tid).copied().unwrap_or(false)
    }

    fn set_gated(&mut self, tid: usize, v: bool) {
        if self.gated.len() <= tid {
            self.gated.resize(tid + 1, false);
        }
        self.gated[tid] = v;
    }
}

impl FetchPolicy for DcraPolicy {
    fn name(&self) -> String {
        "DCRA".into()
    }

    fn tick(&mut self, _cycle: u64, snaps: &[ThreadSnapshot], actions: &mut Vec<PolicyAction>) {
        let slow_count = snaps
            .iter()
            .filter(|s| s.l1d_misses_in_flight > 0)
            .count() as u32;
        let fast_count = snaps.len() as u32 - slow_count;
        for s in snaps {
            let is_slow = s.l1d_misses_in_flight > 0;
            let cap = self.entitlement(is_slow, fast_count, slow_count);
            let usage = s.in_frontend + s.in_queues;
            if usage > cap && !self.is_gated(s.tid) {
                self.set_gated(s.tid, true);
                self.gates += 1;
                actions.push(PolicyAction::Stall { tid: s.tid });
            } else if self.is_gated(s.tid) && usage * 4 <= cap * 3 {
                // Hysteresis: release at 75 % of the entitlement.
                self.set_gated(s.tid, false);
                actions.push(PolicyAction::Resume { tid: s.tid });
            }
        }
    }

    fn fetch_priority(&mut self, _cycle: u64, snaps: &[ThreadSnapshot], out: &mut Vec<usize>) {
        icount_order(snaps, out);
    }

    fn next_wake(&self, _from: u64) -> u64 {
        // tick is a pure function of (snaps, gated) and reaches a fixed
        // point after one application: any Stall/Resume the current
        // snapshots imply fired on the tick that just ran and flipped
        // `gated` so the condition no longer holds. With the snapshots
        // frozen (the core is quiescent during a skipped window) further
        // ticks are no-ops, so no wake-up is needed.
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(tid: usize, frontend: u32, misses: u32) -> ThreadSnapshot {
        let mut s = ThreadSnapshot::idle(tid);
        s.in_frontend = frontend;
        s.l1d_misses_in_flight = misses;
        s
    }

    #[test]
    fn slow_threads_get_smaller_entitlement() {
        let p = DcraPolicy::new(64);
        // 1 fast + 1 slow: slow cap = 64/3 = 21, fast = (64-21)/1 = 43.
        assert_eq!(p.entitlement(true, 1, 1), 21);
        assert_eq!(p.entitlement(false, 1, 1), 43);
    }

    #[test]
    fn all_fast_split_evenly() {
        let p = DcraPolicy::new(64);
        assert_eq!(p.entitlement(false, 2, 0), 32);
    }

    #[test]
    fn over_entitled_slow_thread_is_gated() {
        let mut p = DcraPolicy::new(64);
        let snaps = [snap(0, 40, 3), snap(1, 5, 0)]; // t0 slow, over cap 21
        let mut actions = Vec::new();
        p.tick(0, &snaps, &mut actions);
        assert_eq!(actions, vec![PolicyAction::Stall { tid: 0 }]);
        assert_eq!(p.gates, 1);
    }

    #[test]
    fn hysteresis_releases_below_three_quarters() {
        let mut p = DcraPolicy::new(64);
        let mut actions = Vec::new();
        p.tick(0, &[snap(0, 40, 3), snap(1, 5, 0)], &mut actions);
        actions.clear();
        // Still above 75 % of 21 (≈ 15.75): stays gated, no new action.
        p.tick(1, &[snap(0, 18, 3), snap(1, 5, 0)], &mut actions);
        assert!(actions.is_empty());
        // Drained to 10 ≤ 15: released.
        p.tick(2, &[snap(0, 10, 3), snap(1, 5, 0)], &mut actions);
        assert_eq!(actions, vec![PolicyAction::Resume { tid: 0 }]);
    }

    #[test]
    fn fast_threads_with_room_are_untouched() {
        let mut p = DcraPolicy::new(64);
        let mut actions = Vec::new();
        p.tick(0, &[snap(0, 30, 0), snap(1, 20, 0)], &mut actions);
        assert!(actions.is_empty(), "32-entry entitlement not exceeded");
    }

    #[test]
    fn no_threads_is_safe() {
        let mut p = DcraPolicy::new(64);
        let mut actions = Vec::new();
        p.tick(0, &[], &mut actions);
        assert!(actions.is_empty());
    }
}
