//! Per-thread reorder buffer (256 entries each, replicated — Fig. 1).

use crate::regfile::PhysReg;
use smtsim_energy::PipelineStage;
use smtsim_mem::ReqId;
use smtsim_trace::{DynInstr, InstrClass};

/// Which shared issue queue an instruction occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    Int,
    Fp,
    Ls,
}

impl QueueKind {
    /// Map an instruction class to its queue.
    pub fn of(class: InstrClass) -> QueueKind {
        if class.is_fp() {
            QueueKind::Fp
        } else if class.is_mem() {
            QueueKind::Ls
        } else {
            QueueKind::Int
        }
    }

    /// Queue index for counter arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            QueueKind::Int => 0,
            QueueKind::Fp => 1,
            QueueKind::Ls => 2,
        }
    }
}

/// Execution state of a dispatched instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstrState {
    /// In an issue queue, waiting for operands / a unit.
    InQueue,
    /// Executing on a unit; result at `done_at`.
    Executing { done_at: u64 },
    /// A load waiting on the memory hierarchy.
    WaitingMem { req: ReqId },
    /// Completed, waiting to commit.
    Done,
}

/// One in-flight instruction past rename.
#[derive(Debug, Clone, Copy)]
pub struct RobEntry {
    /// Core-wide monotonically increasing id (also the policy's
    /// `LoadToken` for loads).
    pub token: u64,
    pub instr: DynInstr,
    /// Wrong-path junk (never commits; squashed on branch resolution).
    pub wrong_path: bool,
    pub state: InstrState,
    pub queue: QueueKind,
    /// Issue-queue slot held while `InQueue` (meaningless after issue).
    pub iq_slot: u8,
    /// Source physical registers.
    pub srcs: [Option<PhysReg>; 2],
    /// `(allocated, previous)` physical destination mapping.
    pub dst: Option<(PhysReg, PhysReg)>,
    /// Correct-path branch whose prediction was wrong; resolves (and
    /// squashes) at execute.
    pub mispredicted: bool,
    /// The fetch policy was told about this load at issue.
    pub load_tracked: bool,
}

impl RobEntry {
    /// Deepest pipeline stage this instruction *completed*, for squash
    /// energy accounting (Fig. 10/11): dispatched instructions completed
    /// Rename and occupy the Queue; issued ones have executed; done ones
    /// have written their result back.
    pub fn deepest_stage(&self) -> PipelineStage {
        match self.state {
            InstrState::InQueue => PipelineStage::Queue,
            InstrState::Executing { .. } | InstrState::WaitingMem { .. } => PipelineStage::Execute,
            InstrState::Done => PipelineStage::RegWrite,
        }
    }
}

/// A bounded, in-order reorder buffer for one hardware context.
///
/// Every entry gets a stable **absolute position** when it is pushed:
/// the number of entries ever popped at the head (`head`) plus the
/// occupancy. An entry keeps its position for as long as it is
/// resident — entries leave only at the head (commit, which advances
/// `head`) or at the tail (squash) — so [`Rob::at`] resolves it with
/// a bounds check and a mask instead of a search: the storage is a
/// power-of-two ring and position `p` lives in slot `p & mask`.
///
/// A squash pops from the back without advancing `head`, so the next
/// push reuses a squashed entry's position. Tokens are never reused,
/// which is why every lookup carries the token too: a `(pos, token)`
/// pair recorded before the squash finds a different token at that
/// position and resolves to `None`, exactly like a search for a token
/// that is no longer resident.
#[derive(Debug, Clone)]
pub struct Rob {
    /// Ring storage of `mask + 1` slots, filled on the first lap.
    slots: Vec<RobEntry>,
    mask: u64,
    capacity: usize,
    /// Absolute position of the oldest resident entry: entries popped
    /// at the head so far.
    head: u64,
    /// Absolute position the next push gets: `head` plus the occupancy.
    tail: u64,
}

impl Rob {
    /// ROB with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        let ring = capacity.next_power_of_two();
        Rob {
            slots: Vec::with_capacity(ring),
            mask: ring as u64 - 1,
            capacity,
            head: 0,
            tail: 0,
        }
    }

    /// True when another instruction can dispatch.
    pub fn has_room(&self) -> bool {
        self.len() < self.capacity
    }

    /// Occupancy.
    #[inline]
    pub fn len(&self) -> usize {
        (self.tail - self.head) as usize
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.tail == self.head
    }

    #[inline]
    fn slot(&self, pos: u64) -> &RobEntry {
        &self.slots[(pos & self.mask) as usize]
    }

    /// Append a dispatched instruction (program order) and return its
    /// absolute position (see [`Rob::at`]). Panics when full — callers
    /// must check [`Rob::has_room`].
    pub fn push(&mut self, e: RobEntry) -> u64 {
        assert!(self.has_room(), "ROB overflow");
        if !self.is_empty() {
            debug_assert!(
                e.token > self.slot(self.tail - 1).token,
                "ROB must stay in program order"
            );
        }
        let i = (self.tail & self.mask) as usize;
        if i < self.slots.len() {
            self.slots[i] = e;
        } else {
            // First lap: the ring grows one slot at a time.
            self.slots.push(e);
        }
        self.tail += 1;
        self.tail - 1
    }

    /// Oldest instruction.
    pub fn head(&self) -> Option<&RobEntry> {
        (!self.is_empty()).then(|| self.slot(self.head))
    }

    /// Remove and return the oldest instruction (commit).
    pub fn pop_head(&mut self) -> Option<RobEntry> {
        let e = *self.head()?;
        self.head += 1;
        Some(e)
    }

    /// Remove and return the newest entry if it is younger than
    /// `keep_token`. A squash calls this until `None`, which visits the
    /// squashed entries **newest first** (the order rename rollback
    /// requires).
    pub fn pop_younger(&mut self, keep_token: u64) -> Option<RobEntry> {
        if self.is_empty() || self.slot(self.tail - 1).token <= keep_token {
            return None;
        }
        self.tail -= 1;
        Some(*self.slot(self.tail))
    }

    /// Iterate oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &RobEntry> {
        (self.head..self.tail).map(|p| self.slot(p))
    }

    /// The entry pushed at absolute position `pos` (from [`Rob::push`]),
    /// provided it is still resident and still holds `token`; `None`
    /// once it committed or was squashed, even if a younger entry now
    /// occupies the reused position.
    #[inline]
    pub fn at(&self, pos: u64, token: u64) -> Option<&RobEntry> {
        if pos.wrapping_sub(self.head) >= self.tail - self.head {
            return None;
        }
        self.slots
            .get((pos & self.mask) as usize)
            .filter(|e| e.token == token)
    }

    /// Mutable [`Rob::at`].
    #[inline]
    pub fn at_mut(&mut self, pos: u64, token: u64) -> Option<&mut RobEntry> {
        if pos.wrapping_sub(self.head) >= self.tail - self.head {
            return None;
        }
        self.slots
            .get_mut((pos & self.mask) as usize)
            .filter(|e| e.token == token)
    }

    /// Index (from the head) of the resident entry holding `token`, by
    /// binary search on the strictly-increasing token order. For
    /// callers that hold a bare token with no recorded position (a
    /// policy's FLUSH request); everything the core tracks itself
    /// resolves through [`Rob::at`]. The index stays valid only until
    /// the next push/pop/squash.
    pub fn index_of(&self, token: u64) -> Option<usize> {
        let (mut lo, mut hi) = (0usize, self.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            let t = self.entry_at(mid).token;
            if t == token {
                return Some(mid);
            } else if t < token {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        None
    }

    /// Entry at `index` (from [`Rob::index_of`]).
    pub fn entry_at(&self, index: usize) -> &RobEntry {
        assert!(index < self.len(), "ROB index {index} out of range");
        self.slot(self.head + index as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(token: u64) -> RobEntry {
        RobEntry {
            token,
            instr: DynInstr::nop(token, 0x1000 + token * 4),
            wrong_path: false,
            state: InstrState::InQueue,
            queue: QueueKind::Int,
            iq_slot: 0,
            srcs: [None, None],
            dst: None,
            mispredicted: false,
            load_tracked: false,
        }
    }

    #[test]
    fn queue_kind_mapping() {
        assert_eq!(QueueKind::of(InstrClass::IntAlu), QueueKind::Int);
        assert_eq!(QueueKind::of(InstrClass::BranchCond), QueueKind::Int);
        assert_eq!(QueueKind::of(InstrClass::FpMul), QueueKind::Fp);
        assert_eq!(QueueKind::of(InstrClass::Load), QueueKind::Ls);
        assert_eq!(QueueKind::of(InstrClass::Store), QueueKind::Ls);
    }

    #[test]
    fn fifo_commit_order() {
        let mut r = Rob::new(8);
        for t in 0..5 {
            r.push(entry(t));
        }
        assert_eq!(r.head().unwrap().token, 0);
        assert_eq!(r.pop_head().unwrap().token, 0);
        assert_eq!(r.head().unwrap().token, 1);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn capacity_enforced() {
        let mut r = Rob::new(2);
        r.push(entry(0));
        r.push(entry(1));
        assert!(!r.has_room());
    }

    #[test]
    #[should_panic(expected = "ROB overflow")]
    fn overflow_panics() {
        let mut r = Rob::new(1);
        r.push(entry(0));
        r.push(entry(1));
    }

    #[test]
    fn squash_removes_younger_newest_first() {
        let mut r = Rob::new(16);
        for t in 0..10 {
            r.push(entry(t));
        }
        let tokens: Vec<u64> = std::iter::from_fn(|| r.pop_younger(4))
            .map(|e| e.token)
            .collect();
        assert_eq!(tokens, vec![9, 8, 7, 6, 5]);
        assert_eq!(r.len(), 5);
        assert_eq!(r.iter().last().unwrap().token, 4);
    }

    #[test]
    fn squash_with_future_token_is_noop() {
        let mut r = Rob::new(8);
        r.push(entry(0));
        assert!(r.pop_younger(100).is_none());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn deepest_stage_by_state() {
        let mut e = entry(0);
        assert_eq!(e.deepest_stage(), PipelineStage::Queue);
        e.state = InstrState::Executing { done_at: 5 };
        assert_eq!(e.deepest_stage(), PipelineStage::Execute);
        e.state = InstrState::WaitingMem { req: 3 };
        assert_eq!(e.deepest_stage(), PipelineStage::Execute);
        e.state = InstrState::Done;
        assert_eq!(e.deepest_stage(), PipelineStage::RegWrite);
    }

    #[test]
    fn at_resolves_by_position_and_token() {
        let mut r = Rob::new(8);
        let pos: Vec<u64> = (0..5).map(|t| r.push(entry(t))).collect();
        assert_eq!(pos, vec![0, 1, 2, 3, 4]);
        r.at_mut(pos[3], 3).unwrap().state = InstrState::Done;
        assert_eq!(r.find_linear(3).unwrap().state, InstrState::Done);
        assert!(r.at(pos[3], 4).is_none(), "wrong token at a live position");
        assert!(r.at(99, 3).is_none(), "position past the tail");
        // Commit advances the base: the popped position stops resolving,
        // the survivors keep theirs.
        r.pop_head();
        assert!(r.at(pos[0], 0).is_none());
        assert_eq!(r.at(pos[4], 4).unwrap().token, 4);
        assert_eq!(r.push(entry(5)), 5);
    }

    #[test]
    fn squashed_position_reused_by_younger_push_does_not_resolve() {
        let mut r = Rob::new(8);
        for t in 0..4 {
            r.push(entry(t));
        }
        let stale = (r.push(entry(10)), 10);
        while r.pop_younger(3).is_some() {}
        assert!(r.at(stale.0, stale.1).is_none());
        let reused = r.push(entry(11));
        assert_eq!(reused, stale.0, "the squashed position is reused");
        assert!(r.at(stale.0, stale.1).is_none(), "stale record resolved");
        assert_eq!(r.at(reused, 11).unwrap().token, 11);
    }

    impl Rob {
        /// Reference lookup the position scheme must agree with.
        fn find_linear(&self, token: u64) -> Option<&RobEntry> {
            self.iter().find(|e| e.token == token)
        }
    }

    #[test]
    fn position_lookup_matches_linear_search() {
        use smtsim_trace::check::Cases;
        Cases::new(128).run("rob_position_lookup", |g| {
            let mut r = Rob::new(g.usize_in(1..24));
            let mut next_token = 1u64;
            // Every (pos, token) the ROB ever handed out, plus the ones
            // that were squashed (they must never resolve again).
            let mut issued: Vec<(u64, u64)> = Vec::new();
            let mut squashed: Vec<(u64, u64)> = Vec::new();
            for _ in 0..g.usize_in(1..300) {
                match g.u32_in(0..10) {
                    0..=4 if r.has_room() => {
                        // Gaps mimic tokens burned by squashed front-end
                        // entries: ROB tokens increase, not contiguously.
                        next_token += g.u64_in(1..4);
                        let pos = r.push(entry(next_token));
                        for &(p, t) in &squashed {
                            assert!(
                                r.at(p, t).is_none(),
                                "squashed ({p}, {t}) resolved after push at {pos}"
                            );
                        }
                        issued.push((pos, next_token));
                    }
                    5..=7 => {
                        r.pop_head();
                    }
                    _ => {
                        let keep = if r.is_empty() || g.bool() {
                            g.u64_in(0..next_token + 2)
                        } else {
                            r.entry_at(g.usize_in(0..r.len())).token
                        };
                        while let Some(e) = r.pop_younger(keep) {
                            let rec = issued.iter().find(|&&(_, t)| t == e.token).unwrap();
                            squashed.push(*rec);
                        }
                    }
                }
                for &(p, t) in &issued {
                    let by_pos = r.at(p, t).map(|e| e.token);
                    assert_eq!(by_pos, r.find_linear(t).map(|e| e.token), "at({p}, {t})");
                    assert_eq!(r.index_of(t).map(|i| r.entry_at(i).token), by_pos);
                }
            }
        });
    }
}
