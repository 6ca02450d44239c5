//! Cycle-indexed completion wheel: the core's schedule of execution
//! completions (non-memory latencies and L1-hit loads).
//!
//! A completion due within the next 64 cycles (`SPAN`) sits in the
//! bucket of its due cycle, and a `u64` bitmap marks the non-empty
//! buckets, so both scheduling and the next-due query are O(1). The
//! rare completion due further out (an L1 hit behind a TLB walk) waits
//! in a small overflow heap and moves into its bucket once the wheel
//! comes within `SPAN` cycles of it.
//!
//! [`CompletionWheel::drain_due`] yields exactly what a min-heap of
//! `(done_at, tid, token, pos)` pops while `done_at <= now`, in the same
//! order. A completion scheduled at or before the cycle the wheel has
//! already drained is due at the next drained cycle, as a heap entry
//! with a past `done_at` pops at the next drain.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cycles the buckets cover: one per bit of the occupancy bitmap.
const SPAN: u64 = 64;

/// One scheduled completion. Field order is the drain order; tokens are
/// unique, so `pos` never decides it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Due {
    /// Cycle the result is ready.
    pub(crate) done_at: u64,
    /// Hardware context.
    pub(crate) tid: usize,
    /// The instruction's token.
    pub(crate) token: u64,
    /// The instruction's ROB position ([`crate::rob::Rob::push`]).
    pub(crate) pos: u64,
}

/// The completion schedule of one core.
#[derive(Debug, Clone)]
pub(crate) struct CompletionWheel {
    /// `buckets[c % SPAN]` holds the completions due at cycle `c`, for
    /// `c` in `next..next + SPAN`.
    buckets: [Vec<Due>; SPAN as usize],
    /// Bit `b` set iff `buckets[b]` is non-empty.
    occupied: u64,
    /// Completions due at `next + SPAN` or later.
    overflow: BinaryHeap<Reverse<Due>>,
    /// First cycle not yet drained.
    next: u64,
}

impl CompletionWheel {
    /// An empty wheel whose buckets hold `per_cycle` completions each
    /// without growing.
    pub(crate) fn new(per_cycle: usize) -> Self {
        CompletionWheel {
            buckets: std::array::from_fn(|_| Vec::with_capacity(per_cycle)),
            occupied: 0,
            overflow: BinaryHeap::new(),
            next: 0,
        }
    }

    /// Schedule `d`. It drains at the first drained cycle at or after
    /// `d.done_at`.
    #[inline]
    pub(crate) fn push(&mut self, d: Due) {
        let due = d.done_at.max(self.next);
        if due - self.next < SPAN {
            self.bucket_push(due, d);
        } else {
            self.overflow.push(Reverse(d));
        }
    }

    #[inline]
    fn bucket_push(&mut self, due: u64, d: Due) {
        let b = (due % SPAN) as usize;
        self.buckets[b].push(d);
        self.occupied |= 1 << b;
    }

    /// The earliest cycle a drain would yield something: a rotate and a
    /// `trailing_zeros` over the bitmap, or the overflow heap's minimum
    /// when every bucket is empty. `None` when nothing is scheduled.
    #[inline]
    pub(crate) fn next_due(&self) -> Option<u64> {
        if self.occupied != 0 {
            let off = self
                .occupied
                .rotate_right((self.next % SPAN) as u32)
                .trailing_zeros();
            return Some(self.next + u64::from(off));
        }
        self.overflow.peek().map(|Reverse(d)| d.done_at)
    }

    /// Replace `out` with every completion due at or before `now`, sorted
    /// by `(done_at, tid, token)`, and advance the wheel past `now`.
    pub(crate) fn drain_due(&mut self, now: u64, out: &mut Vec<Due>) {
        out.clear();
        if now < self.next {
            return;
        }
        if now == self.next {
            // The common case, one cycle on: at most one bucket is due,
            // and swapping it out keeps both buffers' capacity.
            let b = (now % SPAN) as usize;
            if self.occupied & (1 << b) != 0 {
                std::mem::swap(out, &mut self.buckets[b]);
                self.occupied &= !(1 << b);
            }
        } else {
            let start = (self.next % SPAN) as u32;
            while self.occupied != 0 {
                let off = u64::from(self.occupied.rotate_right(start).trailing_zeros());
                let cycle = self.next + off;
                if cycle > now {
                    break;
                }
                let b = (cycle % SPAN) as usize;
                out.append(&mut self.buckets[b]);
                self.occupied &= !(1 << b);
            }
        }
        self.next = now + 1;
        if !self.overflow.is_empty() {
            self.drain_overflow(now, out);
        }
        if out.len() > 1 {
            out.sort_unstable_by_key(|d| (d.done_at, d.tid, d.token));
        }
    }

    /// Move overflow entries due by `now` to `out`, and those now within
    /// the span to their buckets.
    fn drain_overflow(&mut self, now: u64, out: &mut Vec<Due>) {
        while let Some(&Reverse(d)) = self.overflow.peek() {
            if d.done_at > now {
                break;
            }
            self.overflow.pop();
            out.push(d);
        }
        while let Some(&Reverse(d)) = self.overflow.peek() {
            if d.done_at - self.next >= SPAN {
                break;
            }
            self.overflow.pop();
            self.bucket_push(d.done_at, d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smtsim_trace::check::Cases;

    /// The heap the wheel replaced: pops every entry with
    /// `done_at <= now`, smallest first.
    #[derive(Default)]
    struct RefHeap {
        heap: BinaryHeap<Reverse<Due>>,
        /// First cycle not yet drained, for the next-due answer.
        next: u64,
    }

    impl RefHeap {
        fn drain(&mut self, now: u64) -> Vec<Due> {
            let mut out = Vec::new();
            while let Some(&Reverse(d)) = self.heap.peek() {
                if d.done_at > now {
                    break;
                }
                self.heap.pop();
                out.push(d);
            }
            self.next = self.next.max(now + 1);
            out
        }

        /// A past-due entry drains at the next drained cycle.
        fn next_due(&self) -> Option<u64> {
            self.heap.peek().map(|Reverse(d)| d.done_at.max(self.next))
        }
    }

    #[test]
    fn wheel_order_equals_heap_order() {
        Cases::new(256).run("completion_wheel_vs_heap", |g| {
            let mut wheel = CompletionWheel::new(g.usize_in(0..4));
            let mut reference = RefHeap::default();
            let mut out = Vec::new();
            let mut now = g.u64_in(0..1000);
            let mut token = 0u64;
            for _ in 0..g.usize_in(1..400) {
                wheel.drain_due(now, &mut out);
                assert_eq!(out, reference.drain(now), "drain at cycle {now}");
                // Schedule this cycle's completions, as the issue stage
                // does after the drain.
                for _ in 0..g.usize_in(0..6) {
                    let delay = match g.u32_in(0..8) {
                        0 => 0,
                        1 => SPAN,
                        2 => SPAN + 1,
                        3 => g.u64_in(SPAN..5 * SPAN),
                        _ => g.u64_in(1..SPAN),
                    };
                    token += g.u64_in(1..3);
                    let d = Due {
                        done_at: now + delay,
                        tid: g.usize_in(0..2),
                        token,
                        pos: g.u64_in(0..256),
                    };
                    wheel.push(d);
                    reference.heap.push(Reverse(d));
                }
                assert_eq!(
                    wheel.next_due(),
                    reference.next_due(),
                    "next due after cycle {now}"
                );
                // Mostly the next cycle; sometimes a skip to the wheel's
                // own next-due answer, or an arbitrary jump.
                now = match (g.u32_in(0..8), wheel.next_due()) {
                    (0 | 1, Some(at)) if at > now => at,
                    (2, _) => now + g.u64_in(1..3 * SPAN),
                    _ => now + 1,
                };
            }
        });
    }
}
