//! Priority-only fetch policies (Tullsen et al., ISCA'96). None of them
//! takes a response action; they differ only in the key that orders the
//! threads for fetch:
//!
//! * **ICOUNT**: fewest instructions in the pre-issue stages. No
//!   long-latency awareness: the baseline every other policy improves
//!   on, and the one MFLUSH is "built on top of" (paper §4).
//! * **BRCOUNT**: fewest unresolved branches in flight, so fewer
//!   wrong-path instructions are fetched.
//! * **L1DMISSCOUNT** (ISCA'96's MISSCOUNT): fewest outstanding D-cache
//!   misses.
//! * **RR**: round-robin, rotating by one position per cycle. The naive
//!   baseline ICOUNT was designed to beat, so experiments can show what
//!   each layer of the ICOUNT → FLUSH → MFLUSH stack contributes.
//!
//! BRCOUNT and L1DMISSCOUNT are the heuristics the related-work ADTS
//! scheduler switches between (see [`crate::adts`]).

use crate::types::{icount_order, order_by, FetchPolicy, LoadToken, PolicyAction, ThreadSnapshot};

/// The key threads are ordered by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Order {
    Icount,
    Brcount,
    L1dMissCount,
    RoundRobin,
}

/// A fetch policy that only orders threads.
pub(crate) struct PriorityPolicy {
    pub(crate) order: Order,
    /// Count outstanding L1D misses from the load hooks. L1DMISSCOUNT
    /// orders by these counts rather than by the snapshot's
    /// `l1d_misses_in_flight`, which the core publishes on its own
    /// schedule.
    count_misses: bool,
    /// Outstanding L1D misses per thread.
    outstanding: Vec<u32>,
    /// Tokens currently counted, so completions decrement exactly once.
    tracked: Vec<(usize, LoadToken)>,
    /// Round-robin start position, advanced once per `fetch_priority`.
    rotation: usize,
}

impl PriorityPolicy {
    pub(crate) fn new(order: Order) -> Self {
        PriorityPolicy {
            order,
            count_misses: order == Order::L1dMissCount,
            outstanding: Vec::new(),
            tracked: Vec::new(),
            rotation: 0,
        }
    }

    /// Keep the L1D-miss counts whatever the order, so a switch to
    /// [`Order::L1dMissCount`] starts from true counts (ADTS).
    pub(crate) fn counting_misses(mut self) -> Self {
        self.count_misses = true;
        self
    }

    fn miss_resolved(&mut self, tid: usize, token: LoadToken) {
        if let Some(i) = self.tracked.iter().position(|&(_, t)| t == token) {
            self.tracked.swap_remove(i);
            if let Some(v) = self.outstanding.get_mut(tid) {
                *v = v.saturating_sub(1);
            }
        }
    }
}

impl FetchPolicy for PriorityPolicy {
    fn name(&self) -> String {
        match self.order {
            Order::Icount => "ICOUNT",
            Order::Brcount => "BRCOUNT",
            Order::L1dMissCount => "L1DMISSCOUNT",
            Order::RoundRobin => "RR",
        }
        .into()
    }

    fn tick(&mut self, _cycle: u64, _snaps: &[ThreadSnapshot], _actions: &mut Vec<PolicyAction>) {}

    fn fetch_priority(&mut self, _cycle: u64, snaps: &[ThreadSnapshot], out: &mut Vec<usize>) {
        match self.order {
            Order::Icount => icount_order(snaps, out),
            Order::Brcount => order_by(snaps, out, |s| s.branches_in_flight),
            Order::L1dMissCount => {
                let outstanding = &self.outstanding;
                order_by(snaps, out, |s| outstanding.get(s.tid).copied().unwrap_or(0));
            }
            Order::RoundRobin => {
                out.clear();
                let n = snaps.len();
                if n == 0 {
                    return;
                }
                let start = self.rotation % n;
                out.extend(snaps.iter().cycle().skip(start).take(n).map(|s| s.tid));
                self.rotation = (self.rotation + 1) % n;
            }
        }
    }

    fn on_l1d_miss(&mut self, tid: usize, token: LoadToken, _bank: u32, _cycle: u64) {
        if self.count_misses {
            self.tracked.push((tid, token));
            if self.outstanding.len() <= tid {
                self.outstanding.resize(tid + 1, 0);
            }
            self.outstanding[tid] += 1;
        }
    }

    fn on_load_complete(
        &mut self,
        tid: usize,
        token: LoadToken,
        _bank: u32,
        _l2_hit: Option<bool>,
        _latency: u64,
        _cycle: u64,
    ) {
        if self.count_misses {
            self.miss_resolved(tid, token);
        }
    }

    fn on_load_squashed(&mut self, tid: usize, token: LoadToken) {
        if self.count_misses {
            self.miss_resolved(tid, token);
        }
    }

    fn next_wake(&self, _from: u64) -> u64 {
        // The priority is a function of the snapshots and the hook-fed
        // counts; only the rotation advances per call, and it is repaid
        // in on_cycles_skipped.
        u64::MAX
    }

    fn on_cycles_skipped(&mut self, _from: u64, cycles: u64) {
        // fetch_priority runs once per simulated cycle in an unskipped
        // run; advance the rotation by the cycles it never saw. The
        // use-site reduces `rotation % n`, so wrapping addition matches
        // the per-call `(rotation + 1) % n` exactly.
        self.rotation = self.rotation.wrapping_add(cycles as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn priority(p: &mut PriorityPolicy, snaps: &[ThreadSnapshot]) -> Vec<usize> {
        let mut out = vec![99];
        p.fetch_priority(0, snaps, &mut out);
        out
    }

    #[test]
    fn names_match_the_legends() {
        let names: Vec<String> = [
            Order::Icount,
            Order::Brcount,
            Order::L1dMissCount,
            Order::RoundRobin,
        ]
        .map(|o| PriorityPolicy::new(o).name())
        .to_vec();
        assert_eq!(names, ["ICOUNT", "BRCOUNT", "L1DMISSCOUNT", "RR"]);
    }

    #[test]
    fn no_order_ever_emits_actions() {
        let snaps = [ThreadSnapshot::idle(0), ThreadSnapshot::idle(1)];
        for order in [
            Order::Icount,
            Order::Brcount,
            Order::L1dMissCount,
            Order::RoundRobin,
        ] {
            let mut p = PriorityPolicy::new(order);
            p.on_l1d_miss(0, 1, 0, 0);
            let mut actions = Vec::new();
            for cycle in 0..100 {
                p.tick(cycle, &snaps, &mut actions);
            }
            assert!(actions.is_empty(), "{order:?}");
        }
    }

    #[test]
    fn icount_prefers_emptier_frontends() {
        let mut a = ThreadSnapshot::idle(0);
        a.in_frontend = 5;
        let b = ThreadSnapshot::idle(1);
        assert_eq!(
            priority(&mut PriorityPolicy::new(Order::Icount), &[a, b]),
            [1, 0]
        );
    }

    #[test]
    fn brcount_prefers_fewer_branches() {
        let mut a = ThreadSnapshot::idle(0);
        let mut b = ThreadSnapshot::idle(1);
        a.branches_in_flight = 4;
        b.branches_in_flight = 1;
        assert_eq!(
            priority(&mut PriorityPolicy::new(Order::Brcount), &[a, b]),
            [1, 0]
        );
    }

    #[test]
    fn l1dmisscount_tracks_misses() {
        let mut p = PriorityPolicy::new(Order::L1dMissCount);
        let snaps = [ThreadSnapshot::idle(0), ThreadSnapshot::idle(1)];
        p.on_l1d_miss(0, 1, 0, 10);
        p.on_l1d_miss(0, 2, 1, 11);
        assert_eq!(
            priority(&mut p, &snaps),
            [1, 0],
            "thread 0 has outstanding misses"
        );
        p.on_load_complete(0, 1, 0, Some(true), 30, 40);
        p.on_load_complete(0, 2, 1, Some(true), 30, 41);
        assert_eq!(
            priority(&mut p, &snaps),
            [0, 1],
            "tie-break by tid once drained"
        );
    }

    #[test]
    fn l1dmisscount_ignores_the_snapshot_count() {
        let mut p = PriorityPolicy::new(Order::L1dMissCount);
        let mut a = ThreadSnapshot::idle(0);
        a.l1d_misses_in_flight = 9;
        let b = ThreadSnapshot::idle(1);
        p.on_l1d_miss(1, 7, 0, 0);
        assert_eq!(priority(&mut p, &[a, b]), [0, 1]);
    }

    #[test]
    fn l1dmisscount_handles_squashes() {
        let mut p = PriorityPolicy::new(Order::L1dMissCount);
        p.on_l1d_miss(1, 7, 0, 0);
        p.on_load_squashed(1, 7);
        let snaps = [ThreadSnapshot::idle(0), ThreadSnapshot::idle(1)];
        assert_eq!(priority(&mut p, &snaps), [0, 1]);
    }

    #[test]
    fn duplicate_completion_does_not_underflow() {
        let mut p = PriorityPolicy::new(Order::L1dMissCount);
        p.on_l1d_miss(0, 1, 0, 0);
        p.on_load_complete(0, 1, 0, Some(true), 25, 25);
        p.on_load_complete(0, 1, 0, Some(true), 25, 26); // spurious
        assert_eq!(p.outstanding, [0]);
    }

    #[test]
    fn only_miss_counting_policies_count() {
        let mut icount = PriorityPolicy::new(Order::Icount);
        icount.on_l1d_miss(0, 1, 0, 0);
        assert!(icount.outstanding.is_empty());
        let mut counting = PriorityPolicy::new(Order::Icount).counting_misses();
        counting.on_l1d_miss(0, 1, 0, 0);
        assert_eq!(counting.outstanding, [1]);
    }

    #[test]
    fn round_robin_rotates_each_call() {
        let mut p = PriorityPolicy::new(Order::RoundRobin);
        let snaps = [
            ThreadSnapshot::idle(0),
            ThreadSnapshot::idle(1),
            ThreadSnapshot::idle(2),
        ];
        assert_eq!(priority(&mut p, &snaps), [0, 1, 2]);
        assert_eq!(priority(&mut p, &snaps), [1, 2, 0]);
        assert_eq!(priority(&mut p, &snaps), [2, 0, 1]);
        assert_eq!(priority(&mut p, &snaps), [0, 1, 2]);
    }

    #[test]
    fn round_robin_repays_skipped_cycles() {
        let snaps = [
            ThreadSnapshot::idle(0),
            ThreadSnapshot::idle(1),
            ThreadSnapshot::idle(2),
        ];
        let mut stepped = PriorityPolicy::new(Order::RoundRobin);
        for _ in 0..5 {
            priority(&mut stepped, &snaps);
        }
        let mut skipped = PriorityPolicy::new(Order::RoundRobin);
        priority(&mut skipped, &snaps);
        skipped.on_cycles_skipped(1, 4);
        assert_eq!(
            priority(&mut skipped, &snaps),
            priority(&mut stepped, &snaps)
        );
    }

    #[test]
    fn round_robin_empty_snapshot_is_safe() {
        let mut p = PriorityPolicy::new(Order::RoundRobin);
        assert!(priority(&mut p, &[]).is_empty());
    }
}
