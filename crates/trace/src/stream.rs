//! Stream abstraction plus flush/replay support.
//!
//! The FLUSH response action squashes already-fetched instructions and
//! later *refetches* them (paper §4: "By the time the offending memory
//! access is resolved, the thread resumes its execution, fetching again
//! in the execution pipeline all flushed instructions"). In a
//! trace-driven simulator refetching means rewinding the trace. The
//! [`ReplayableStream`] wrapper makes any [`InstrStream`] rewindable: it
//! keeps the instructions it generated in a ring indexed by `seq`, and a
//! squash moves its fetch cursor back with
//! [`ReplayableStream::rewind_to`], so the squashed instructions are
//! handed out again, byte-identical, on subsequent fetches.

use crate::instr::DynInstr;

/// An infinite source of dynamic instructions for one thread.
///
/// Contract: the `seq` of successive instructions counts 0, 1, 2, …
/// per stream. [`ReplayableStream`] files each instruction in its ring
/// under that number and rewinds by it.
pub trait InstrStream {
    /// Produce the next correct-path instruction.
    fn next_instr(&mut self) -> DynInstr;
}

/// Blanket impl so boxed streams are streams too.
impl<S: InstrStream + ?Sized> InstrStream for Box<S> {
    fn next_instr(&mut self) -> DynInstr {
        (**self).next_instr()
    }
}

/// A rewindable wrapper over any instruction stream.
///
/// Generated instructions stay in a ring, instruction `seq` in slot
/// `seq % slots`. Fetch reads at `fetch_seq`; the inner stream is
/// asked for a new instruction only when fetch reaches `gen_seq`, so
/// it lands in the fetch slot. A rewind moves `fetch_seq` back; it must
/// not go past the oldest instruction still in the ring.
pub struct ReplayableStream<S> {
    inner: S,
    /// Ring storage, filled on the first lap.
    ring: Vec<DynInstr>,
    slots: usize,
    /// Seq of the next instruction [`ReplayableStream::fetch`] returns.
    fetch_seq: u64,
    /// Its ring slot.
    fetch_slot: usize,
    /// Seq of the next instruction the inner stream generates.
    gen_seq: u64,
}

impl<S: InstrStream> ReplayableStream<S> {
    /// Wrap a stream whose consumer holds at most `in_flight` fetched
    /// instructions it may still rewind to. The ring keeps those plus
    /// the one [`ReplayableStream::peek`] may generate ahead of fetch.
    pub fn new(inner: S, in_flight: usize) -> Self {
        ReplayableStream {
            inner,
            ring: Vec::with_capacity(in_flight + 1),
            slots: in_flight + 1,
            fetch_seq: 0,
            fetch_slot: 0,
            gen_seq: 0,
        }
    }

    /// Fetch the next instruction: a rewound one if any, otherwise a
    /// fresh instruction from the underlying stream.
    pub fn fetch(&mut self) -> DynInstr {
        let i = self.peek();
        self.fetch_seq += 1;
        self.fetch_slot += 1;
        if self.fetch_slot == self.slots {
            self.fetch_slot = 0;
        }
        i
    }

    /// Peek at the next instruction without consuming it.
    pub fn peek(&mut self) -> DynInstr {
        if self.fetch_seq == self.gen_seq {
            let i = self.inner.next_instr();
            debug_assert_eq!(i.seq, self.gen_seq, "InstrStream seq must count 0, 1, 2, …");
            if self.fetch_slot < self.ring.len() {
                self.ring[self.fetch_slot] = i;
            } else {
                self.ring.push(i);
            }
            self.gen_seq += 1;
        }
        self.ring[self.fetch_slot]
    }

    /// Squash every fetched instruction from `seq` on: they are fetched
    /// again, in program order, before any new instruction.
    ///
    /// Panics if `seq` was not fetched or its slot has been reused: a
    /// replay from a reused slot would commit the wrong instructions.
    pub fn rewind_to(&mut self, seq: u64) {
        assert!(
            seq <= self.fetch_seq && self.gen_seq - seq <= self.slots as u64,
            "rewind to {seq} outside the ring (fetch {}, generated {}, {} slots)",
            self.fetch_seq,
            self.gen_seq,
            self.slots
        );
        self.fetch_seq = seq;
        self.fetch_slot = (seq % self.slots as u64) as usize;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::DynInstr;

    /// Simple counting stream for tests.
    struct Counter(u64);
    impl InstrStream for Counter {
        fn next_instr(&mut self) -> DynInstr {
            let i = DynInstr::nop(self.0, 0x1000 + 4 * self.0);
            self.0 += 1;
            i
        }
    }

    impl<S> ReplayableStream<S> {
        /// Instructions generated but not fetched (awaiting replay).
        fn pending_refetch(&self) -> u64 {
            self.gen_seq - self.fetch_seq
        }
    }

    fn counter() -> ReplayableStream<Counter> {
        ReplayableStream::new(Counter(0), 16)
    }

    #[test]
    fn passthrough_without_replay() {
        let mut s = counter();
        for want in 0..100 {
            assert_eq!(s.fetch().seq, want);
            assert_eq!(s.pending_refetch(), 0);
        }
    }

    #[test]
    fn rewind_replays_in_program_order() {
        let mut s = counter();
        let fetched: Vec<_> = (0..10).map(|_| s.fetch()).collect();
        // Squash instructions 4..10 (program order).
        s.rewind_to(fetched[4].seq);
        assert_eq!(s.pending_refetch(), 6);
        for want in 4..10 {
            assert_eq!(s.fetch().seq, want);
        }
        assert_eq!(
            s.pending_refetch(),
            0,
            "every squashed instruction replayed"
        );
        // After draining replays, we continue with fresh instructions.
        assert_eq!(s.fetch().seq, 10);
    }

    #[test]
    fn nested_rewind_keeps_order() {
        let mut s = counter();
        let a: Vec<_> = (0..8).map(|_| s.fetch()).collect();
        s.rewind_to(a[6].seq); // replay 6,7
        let b = s.fetch(); // 6
        assert_eq!(b.seq, 6);
        // Squash again, deeper, before the first replay drained: 3..=7
        // (7 still pending) come back in order.
        s.rewind_to(a[3].seq);
        for want in 3..8 {
            assert_eq!(s.fetch().seq, want);
        }
        assert_eq!(s.fetch().seq, 8);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut s = counter();
        let p = s.peek();
        assert_eq!(p.seq, 0);
        assert_eq!(s.fetch().seq, 0);
        assert_eq!(s.fetch().seq, 1);
    }

    #[test]
    fn replayed_instructions_are_identical() {
        let mut s = counter();
        let orig: Vec<_> = (0..5).map(|_| s.fetch()).collect();
        s.rewind_to(orig[0].seq);
        let again: Vec<_> = (0..5).map(|_| s.fetch()).collect();
        assert_eq!(orig, again);
    }

    #[test]
    fn ring_holds_in_flight_plus_the_peeked_one() {
        let mut s = ReplayableStream::new(Counter(0), 15);
        let fetched: Vec<_> = (0..100).map(|_| s.fetch()).collect();
        s.peek();
        // 15 in flight plus the peeked instruction fill the 16 slots.
        s.rewind_to(85);
        assert_eq!(
            &(0..15).map(|_| s.fetch()).collect::<Vec<_>>(),
            &fetched[85..]
        );
        assert_eq!(s.fetch().seq, 100);
    }

    #[test]
    #[should_panic(expected = "outside the ring")]
    fn rewinding_past_the_ring_panics() {
        let mut s = ReplayableStream::new(Counter(0), 15);
        for _ in 0..100 {
            s.fetch();
        }
        s.peek();
        s.rewind_to(84);
    }
}
