//! The policy ↔ core interface.


/// Core-assigned identifier of one dynamic load instruction. Unique per
/// (core, in-flight window); the policy treats it as opaque.
pub type LoadToken = u64;

/// Per-thread state the core publishes every cycle.
///
/// `in_frontend` is ICOUNT's metric — instructions in the pre-issue
/// stages (fetched/decoded/renamed but not yet issued). The extra
/// counters serve the BRCOUNT / L1DMISSCOUNT related-work policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadSnapshot {
    /// Context index within the core.
    pub tid: usize,
    /// Instructions in pre-issue pipeline stages.
    pub in_frontend: u32,
    /// Instructions waiting in issue queues.
    pub in_queues: u32,
    /// ROB occupancy.
    pub in_rob: u32,
    /// Unresolved branches in flight.
    pub branches_in_flight: u32,
    /// Outstanding L1D misses.
    pub l1d_misses_in_flight: u32,
    /// The thread is currently gated by the policy (stalled or flushed).
    pub gated: bool,
    /// Instructions committed so far (monotonic; lets adaptive policies
    /// measure epoch throughput).
    pub committed: u64,
}

impl ThreadSnapshot {
    /// An idle thread snapshot (useful for tests).
    pub fn idle(tid: usize) -> Self {
        ThreadSnapshot {
            tid,
            in_frontend: 0,
            in_queues: 0,
            in_rob: 0,
            branches_in_flight: 0,
            l1d_misses_in_flight: 0,
            gated: false,
            committed: 0,
        }
    }
}

/// What a policy asks the core to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyAction {
    /// FLUSH response action: squash every instruction of `tid` younger
    /// than the load `token`, free its resources, and gate fetch until
    /// that load completes (the core auto-resumes then).
    Flush { tid: usize, token: LoadToken },
    /// Gate fetch for `tid` without squashing (STALL response action /
    /// MFLUSH Preventive State). The thread keeps executing instructions
    /// already in the pipeline.
    Stall { tid: usize },
    /// Release a [`PolicyAction::Stall`] gate.
    Resume { tid: usize },
}

/// An SMT instruction-fetch policy.
///
/// Protocol, per simulated cycle:
/// 1. the core calls [`FetchPolicy::tick`] and executes the returned
///    actions;
/// 2. the core calls [`FetchPolicy::fetch_priority`] and fetches from
///    the first non-gated thread(s) in that order (ICOUNT.2.8);
/// 3. as memory events occur the core invokes the `on_*` hooks.
///
/// Flushed threads are auto-resumed by the core when the offending load
/// completes (the core calls [`FetchPolicy::on_thread_resumed`]);
/// stalled threads stay gated until the policy emits
/// [`PolicyAction::Resume`].
pub trait FetchPolicy: Send {
    /// Human-readable name, e.g. `"FLUSH-S30"`.
    fn name(&self) -> String;

    /// Emit actions for this cycle.
    fn tick(&mut self, cycle: u64, snaps: &[ThreadSnapshot], actions: &mut Vec<PolicyAction>);

    /// Order threads by fetch priority (best first). Gated threads may
    /// be included; the core skips them.
    fn fetch_priority(&mut self, cycle: u64, snaps: &[ThreadSnapshot], out: &mut Vec<usize>);

    /// A load left the load/store queue and entered the cache
    /// hierarchy. `pc` is the load's program counter (for PC-indexed
    /// predictors such as the load-miss predictor of the paper's §3).
    fn on_load_issue(&mut self, _tid: usize, _token: LoadToken, _pc: u64, _cycle: u64) {}

    /// The load missed in the L1D and is now heading to L2 bank `bank`.
    fn on_l1d_miss(&mut self, _tid: usize, _token: LoadToken, _bank: u32, _cycle: u64) {}

    /// A load issued and hit in the L1D. No core calls this: the core
    /// reports an L1-hit load as [`Self::on_load_issue`] followed by
    /// [`Self::on_load_complete`], and this default forwards to that
    /// same pair. The method stays only because the benchmark's
    /// `TimedPolicy` (`crates/bench/src/bin/benchmark/traced.rs`)
    /// forwards it; it goes when that forwarding does.
    fn on_load_l1_hit(&mut self, tid: usize, token: LoadToken, pc: u64, cycle: u64) {
        self.on_load_issue(tid, token, pc, cycle);
        self.on_load_complete(tid, token, 0, None, 3, cycle);
    }

    /// The L2 lookup for the load missed (non-speculative detection
    /// moment).
    fn on_l2_miss(&mut self, _tid: usize, _token: LoadToken, _cycle: u64) {}

    /// The load's data arrived. `l2_hit` is `None` for L1 hits,
    /// `Some(true/false)` for accesses that reached the L2. `bank` and
    /// `latency` let MFLUSH train its MCReg.
    fn on_load_complete(
        &mut self,
        _tid: usize,
        _token: LoadToken,
        _bank: u32,
        _l2_hit: Option<bool>,
        _latency: u64,
        _cycle: u64,
    ) {
    }

    /// The core squashed a tracked load (e.g. its thread mispredicted an
    /// older branch, or a flush removed a younger tracked load). The
    /// policy must forget the token.
    fn on_load_squashed(&mut self, _tid: usize, _token: LoadToken) {}

    /// A flushed thread's offending load completed; the core un-gated it.
    fn on_thread_resumed(&mut self, _tid: usize, _cycle: u64) {}

    /// Earliest cycle ≥ `from` at which [`FetchPolicy::tick`] could emit
    /// an action or mutate observable state, given that every cycle
    /// before `from` has been ticked and assuming *no* `on_*` hook fires
    /// first (any hook re-arms the schedule, and the simulator
    /// re-evaluates every cycle it actually ticks). Returning `u64::MAX`
    /// means "pure until the next event". The conservative default
    /// (`from` itself) declares a possible side effect every cycle,
    /// which disables stall skip-ahead for the whole core — correct for
    /// any policy, merely slow (see DESIGN.md §16 for the skip-ahead
    /// invariant this feeds).
    fn next_wake(&self, from: u64) -> u64 {
        from
    }

    /// The simulator skipped `cycles` cycles starting at `from` (no
    /// tick/fetch_priority calls were made for them). Policies whose state
    /// advances once per *call* rather than per *cycle* (e.g. round-robin
    /// rotation) compensate here so skipped runs stay byte-identical to
    /// unskipped ones. Pure-per-cycle policies need nothing.
    fn on_cycles_skipped(&mut self, _from: u64, _cycles: u64) {}
}

/// Sort thread ids by ICOUNT order: fewest pre-issue instructions first
/// (tie-break by tid). Shared by every policy built on ICOUNT.
pub(crate) fn icount_order(snaps: &[ThreadSnapshot], out: &mut Vec<usize>) {
    order_by(snaps, out, |s| s.in_frontend + s.in_queues);
}

/// Sort thread ids by `key` of their snapshot, smallest first
/// (tie-break by tid).
pub(crate) fn order_by(
    snaps: &[ThreadSnapshot],
    out: &mut Vec<usize>,
    key: impl Fn(&ThreadSnapshot) -> u32,
) {
    out.clear();
    out.extend(snaps.iter().map(|s| s.tid));
    out.sort_by_key(|&tid| {
        // lint: allow(D3) -- out was populated from snaps two lines up, every tid resolves
        let s = snaps.iter().find(|s| s.tid == tid).expect("tid in snaps");
        (key(s), tid as u32)
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn icount_order_prefers_emptier_frontends() {
        let mut a = ThreadSnapshot::idle(0);
        let mut b = ThreadSnapshot::idle(1);
        a.in_frontend = 10;
        b.in_frontend = 2;
        let mut out = Vec::new();
        icount_order(&[a, b], &mut out);
        assert_eq!(out, vec![1, 0]);
    }

    #[test]
    fn icount_order_counts_queues_too() {
        let mut a = ThreadSnapshot::idle(0);
        let mut b = ThreadSnapshot::idle(1);
        a.in_frontend = 3;
        a.in_queues = 0;
        b.in_frontend = 1;
        b.in_queues = 10;
        let mut out = Vec::new();
        icount_order(&[a, b], &mut out);
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn icount_order_tie_breaks_by_tid() {
        let a = ThreadSnapshot::idle(1);
        let b = ThreadSnapshot::idle(0);
        let mut out = Vec::new();
        icount_order(&[a, b], &mut out);
        assert_eq!(out, vec![0, 1]);
    }
}
