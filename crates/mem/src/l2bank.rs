//! One single-ported bank of the shared L2 cache.
//!
//! Paper §3.2: "each of the 4 banks of the shared L2 cache is
//! single-ported and has an access latency of 15 cycles. That is, two
//! consecutive accesses to the same L2 cache bank cannot be served in
//! less than 15 cycles … the fourth consecutive L2 hit to the same L2
//! cache bank would experience a 45-cycle delay." The bank therefore
//! owns a FIFO of waiting requests and a busy timer; queueing here is
//! what produces the L2-hit-latency variability of Fig. 4.

use crate::cache::{AccessOutcome, CacheGeometry, SetAssocCache};
use std::collections::VecDeque;

/// What the bank did with a serviced request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankOutcome {
    /// Demand access hit in this bank.
    Hit,
    /// Demand access missed — caller forwards to memory.
    Miss,
    /// A refill (from memory) was installed; carries the dirty victim's
    /// address when one had to be written back.
    FillDone(Option<u64>),
    /// A writeback from an L1 was absorbed (`true`: line was present and
    /// marked dirty; `false`: line absent, caller forwards to memory).
    WritebackAbsorbed(bool),
}

/// Kind of work queued at a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankOp {
    /// Demand lookup (load / store / ifetch miss from an L1).
    Demand { write: bool },
    /// Install a refill returned by memory.
    Fill { dirty: bool },
    /// Absorb a dirty eviction from an L1.
    Writeback,
}

#[derive(Debug, Clone, Copy)]
struct QueuedReq<T> {
    token: T,
    addr: u64,
    op: BankOp,
}

/// A single-ported L2 bank: one access in service at a time, fixed
/// service latency, FIFO queue.
#[derive(Debug)]
pub struct L2Bank<T> {
    cache: SetAssocCache,
    access_cycles: u64,
    queue: VecDeque<QueuedReq<T>>,
    current: Option<(u64, QueuedReq<T>)>, // (done_at, req)
}

impl<T: Copy> L2Bank<T> {
    /// Bank with its slice geometry and port service latency.
    pub fn new(geometry: CacheGeometry, access_cycles: u64) -> Self {
        L2Bank {
            cache: SetAssocCache::new(geometry),
            access_cycles,
            queue: VecDeque::new(),
            current: None,
        }
    }

    /// Enqueue work for this bank.
    pub fn enqueue(&mut self, token: T, addr: u64, op: BankOp) {
        self.queue.push_back(QueuedReq { token, addr, op });
    }

    /// Advance one cycle. Returns `(token, outcome)` for the request
    /// whose service completed this cycle (at most one — the port is
    /// single).
    pub fn tick(&mut self, now: u64) -> Option<(T, BankOutcome)> {
        let mut finished = None;
        if let Some((done_at, req)) = self.current {
            if done_at <= now {
                self.current = None;
                let outcome = match req.op {
                    BankOp::Demand { write } => match self.cache.access(req.addr, write) {
                        AccessOutcome::Hit => BankOutcome::Hit,
                        AccessOutcome::Miss => BankOutcome::Miss,
                    },
                    BankOp::Fill { dirty } => {
                        BankOutcome::FillDone(self.cache.fill(req.addr, dirty))
                    }
                    BankOp::Writeback => {
                        // Present: mark dirty. Absent: forward downstream.
                        if self.cache.probe(req.addr) {
                            self.cache.access(req.addr, true);
                            BankOutcome::WritebackAbsorbed(true)
                        } else {
                            BankOutcome::WritebackAbsorbed(false)
                        }
                    }
                };
                finished = Some((req.token, outcome));
            }
        }
        // Start the next request if the port is free.
        if self.current.is_none() {
            if let Some(req) = self.queue.pop_front() {
                self.current = Some((now + self.access_cycles, req));
            }
        }
        finished
    }

    /// Requests waiting (not counting the one in service).
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// True while a request is in service.
    pub fn busy(&self) -> bool {
        self.current.is_some()
    }

    /// True when a tick would be a pure no-op: port free and nothing
    /// queued (the quiet-bank fast path skips such banks).
    pub fn idle(&self) -> bool {
        self.current.is_none() && self.queue.is_empty()
    }

    /// Earliest cycle ≥ `from` at which a tick does observable work:
    /// the in-service completion (ticks before `done_at` neither finish
    /// nor start anything), `from` itself when a request is queued with
    /// the port free (the next tick starts it, and its completion cycle
    /// depends on that tick's `now`), `u64::MAX` when idle.
    pub fn next_event_cycle(&self, from: u64) -> u64 {
        match &self.current {
            Some((done_at, _)) => (*done_at).max(from),
            None if !self.queue.is_empty() => from,
            None => u64::MAX,
        }
    }

    /// Install `count` lines directly in the tag array — the line of
    /// `first`, then every `step`-th line — bypassing the port: cache
    /// warm-up before measurement (trace-driven methodology).
    pub fn prewarm_lines(&mut self, first: u64, count: u64, step: u64) {
        self.cache.fill_lines(first, count, step);
    }

    /// Direct cache stats (hits, misses) of the bank slice.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Test/diagnostic access to the underlying tag array.
    pub fn cache(&self) -> &SetAssocCache {
        &self.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank() -> L2Bank<u32> {
        L2Bank::new(
            CacheGeometry {
                bytes: 1 << 20,
                ways: 12,
                line_bytes: 64,
            },
            15,
        )
    }

    /// Drive the bank until it produces `n` outcomes; returns
    /// (finish_cycle, token, outcome) triples.
    fn run(bank: &mut L2Bank<u32>, until: u64) -> Vec<(u64, u32, BankOutcome)> {
        let mut out = Vec::new();
        for now in 0..until {
            if let Some((tok, o)) = bank.tick(now) {
                out.push((now, tok, o));
            }
        }
        out
    }

    #[test]
    fn single_access_takes_service_latency() {
        let mut b = bank();
        b.enqueue(1, 0x1000, BankOp::Demand { write: false });
        let done = run(&mut b, 40);
        assert_eq!(done.len(), 1);
        // Enqueued at 0, started at tick(0), done at 15.
        assert_eq!(done[0].0, 15);
        assert_eq!(done[0].2, BankOutcome::Miss);
    }

    #[test]
    fn fourth_consecutive_access_sees_45_cycle_queue_delay() {
        // The paper's example: 4 back-to-back accesses to one bank; the
        // 4th completes 60 cycles after issue (15 service + 45 queueing).
        let mut b = bank();
        for i in 0..4 {
            b.enqueue(
                i,
                0x1000 + i as u64 * 0x400,
                BankOp::Demand { write: false },
            );
        }
        let done = run(&mut b, 100);
        let finish: Vec<u64> = done.iter().map(|d| d.0).collect();
        assert_eq!(finish, vec![15, 30, 45, 60]);
    }

    #[test]
    fn fill_then_demand_hits() {
        let mut b = bank();
        b.enqueue(9, 0x2000, BankOp::Fill { dirty: false });
        b.enqueue(10, 0x2000, BankOp::Demand { write: false });
        let done = run(&mut b, 60);
        assert_eq!(done[0].2, BankOutcome::FillDone(None));
        assert_eq!(done[1].2, BankOutcome::Hit);
    }

    #[test]
    fn writeback_absorbed_when_present() {
        let mut b = bank();
        b.enqueue(1, 0x3000, BankOp::Fill { dirty: false });
        b.enqueue(2, 0x3000, BankOp::Writeback);
        b.enqueue(3, 0x9000, BankOp::Writeback);
        let done = run(&mut b, 80);
        assert_eq!(done[1].2, BankOutcome::WritebackAbsorbed(true));
        assert_eq!(done[2].2, BankOutcome::WritebackAbsorbed(false));
    }

    #[test]
    fn port_idles_when_empty() {
        let mut b = bank();
        assert!(run(&mut b, 10).is_empty());
        assert!(!b.busy());
        assert_eq!(b.queued(), 0);
    }
}
