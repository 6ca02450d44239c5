//! Main memory model.
//!
//! Fig. 1 specifies a flat 250-cycle main-memory latency. We model an
//! unbounded fixed-latency queue, matching the paper's setup where DRAM
//! bandwidth is never the bottleneck under study.

use std::collections::VecDeque;

/// Fixed-latency main memory.
#[derive(Debug)]
pub struct Dram<T> {
    latency: u64,
    /// (ready_at, payload) in service, ordered by ready_at.
    in_service: VecDeque<(u64, T)>,
}

impl<T> Dram<T> {
    /// Memory with `latency` cycles per access.
    pub fn new(latency: u64) -> Self {
        Dram {
            latency,
            in_service: VecDeque::new(),
        }
    }

    /// Submit a request at cycle `now`.
    pub fn request(&mut self, now: u64, payload: T) {
        self.in_service.push_back((now + self.latency, payload));
    }

    /// Advance to cycle `now`, appending payloads whose access
    /// completed to `out` (into-style: the caller's buffer is reused
    /// every cycle — rule D10: DRAM ticks inside the cycle loop and
    /// must not allocate).
    pub fn tick_into(&mut self, now: u64, out: &mut Vec<T>) {
        while self.in_service.front().is_some_and(|&(t, _)| t <= now) {
            if let Some((_, payload)) = self.in_service.pop_front() {
                out.push(payload);
            } else {
                break;
            }
        }
    }

    /// Earliest cycle ≥ `from` at which a tick completes a request:
    /// the head of `in_service` (ordered by ready-at), `u64::MAX` when
    /// empty (skip-ahead horizon).
    pub fn next_event_cycle(&self, from: u64) -> u64 {
        self.in_service
            .front()
            .map_or(u64::MAX, |&(at, _)| at.max(from))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Collecting wrapper over [`Dram::tick_into`] for assertions.
    fn tick(d: &mut Dram<u32>, now: u64) -> Vec<u32> {
        let mut out = Vec::new();
        d.tick_into(now, &mut out);
        out
    }

    #[test]
    fn completes_after_latency() {
        let mut d: Dram<u32> = Dram::new(250);
        d.request(0, 1);
        assert!(tick(&mut d, 249).is_empty());
        assert_eq!(tick(&mut d, 250), vec![1]);
    }

    #[test]
    fn unlimited_inflight_overlaps() {
        let mut d: Dram<u32> = Dram::new(10);
        d.request(0, 1);
        d.request(0, 2);
        d.request(5, 3);
        assert_eq!(tick(&mut d, 10), vec![1, 2]);
        assert_eq!(tick(&mut d, 15), vec![3]);
    }

    #[test]
    fn every_accepted_request_completes() {
        let mut d: Dram<u32> = Dram::new(5);
        d.request(0, 1);
        d.request(1, 2);
        assert_eq!(tick(&mut d, 100), vec![1, 2]);
        assert_eq!(d.next_event_cycle(100), u64::MAX, "nothing left in service");
    }
}
