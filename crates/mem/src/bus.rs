//! Shared L1↔L2 interconnection bus.
//!
//! The paper's cores connect their private L1s to all shared L2 banks
//! through an on-chip bus (§3, Fig. 7). We model a pipelined bus with a
//! fixed transit latency and a bounded number of new grants per cycle,
//! arbitrated round-robin across cores. Every additional SMT core adds
//! up to two more loads issued per cycle, so under load the grant limit
//! creates exactly the queueing growth the paper describes.

use std::collections::VecDeque;

/// A request travelling on the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusMsg<T> {
    /// Issuing core (arbitration key).
    pub core: u32,
    /// Payload forwarded to the destination.
    pub payload: T,
}

/// Pipelined shared bus with round-robin arbitration.
#[derive(Debug)]
pub struct SharedBus<T> {
    /// Per-core input queues awaiting a grant.
    inputs: Vec<VecDeque<BusMsg<T>>>,
    /// Granted messages in transit: (deliver_at, msg).
    in_flight: VecDeque<(u64, BusMsg<T>)>,
    /// Cycles between grant and delivery.
    latency: u64,
    /// Grants issued per cycle.
    grants_per_cycle: u32,
    /// Round-robin pointer.
    rr: usize,
}

impl<T> SharedBus<T> {
    /// Bus for `cores` requesters with `latency`-cycle transit and
    /// `grants_per_cycle` arbitration bandwidth.
    pub fn new(cores: u32, latency: u64, grants_per_cycle: u32) -> Self {
        assert!(cores > 0 && grants_per_cycle > 0);
        SharedBus {
            inputs: (0..cores).map(|_| VecDeque::new()).collect(),
            in_flight: VecDeque::new(),
            latency,
            grants_per_cycle,
            rr: 0,
        }
    }

    /// Enqueue a message from `core`.
    pub fn send(&mut self, core: u32, payload: T) {
        self.inputs[core as usize].push_back(BusMsg { core, payload });
    }

    /// Advance one cycle: arbitrate grants, then deliver everything whose
    /// transit has finished, appending delivered payloads to `out`
    /// (into-style: the caller's buffer is reused every cycle — rule
    /// D10: the bus ticks inside the cycle loop and must not allocate).
    pub fn tick_into(&mut self, now: u64, out: &mut Vec<BusMsg<T>>) {
        // Quiet-bus fast path: with nothing queued the round-robin scan
        // is a no-op (no grant, no rr movement) — skip it.
        if self.inputs.iter().any(|q| !q.is_empty()) {
            // Round-robin grants.
            let n = self.inputs.len();
            let mut grants = 0;
            let mut scanned = 0;
            while grants < self.grants_per_cycle && scanned < n {
                let idx = (self.rr + scanned) % n;
                if let Some(msg) = self.inputs[idx].pop_front() {
                    self.in_flight.push_back((now + self.latency, msg));
                    grants += 1;
                    // Advance RR past the served core for fairness.
                    self.rr = (idx + 1) % n;
                    scanned = 0;
                    continue;
                }
                scanned += 1;
            }
        }

        // Deliveries (in_flight is ordered by deliver_at because latency
        // is constant and grants are appended in time order).
        while self.in_flight.front().is_some_and(|&(t, _)| t <= now) {
            if let Some((_, payload)) = self.in_flight.pop_front() {
                out.push(payload);
            }
        }
    }

    /// Messages waiting for a grant.
    pub fn queued(&self) -> usize {
        self.inputs.iter().map(|q| q.len()).sum()
    }

    /// Earliest cycle ≥ `from` at which a tick could do observable
    /// work: `from` itself while any input awaits a grant, else the
    /// first in-flight delivery; `u64::MAX` when fully idle (the
    /// skip-ahead horizon, DESIGN.md §16).
    pub fn next_event_cycle(&self, from: u64) -> u64 {
        if self.inputs.iter().any(|q| !q.is_empty()) {
            return from;
        }
        match self.in_flight.front() {
            Some(&(at, _)) => at.max(from),
            None => u64::MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Collecting wrapper over [`SharedBus::tick_into`] for assertions.
    fn tick(bus: &mut SharedBus<u32>, now: u64) -> Vec<BusMsg<u32>> {
        let mut out = Vec::new();
        bus.tick_into(now, &mut out);
        out
    }

    #[test]
    fn delivers_after_latency() {
        let mut bus: SharedBus<u32> = SharedBus::new(1, 4, 1);
        bus.send(0, 7);
        // Granted at cycle 0, delivered at cycle 4.
        for now in 0..4 {
            assert!(tick(&mut bus, now).is_empty(), "early delivery at {now}");
        }
        let d = tick(&mut bus, 4);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].payload, 7);
    }

    #[test]
    fn grant_limit_serialises() {
        let mut bus: SharedBus<u32> = SharedBus::new(1, 0, 1);
        for i in 0..3 {
            bus.send(0, i);
        }
        // One grant per cycle, zero latency: one delivery per tick.
        assert_eq!(tick(&mut bus, 0).len(), 1);
        assert_eq!(tick(&mut bus, 1).len(), 1);
        assert_eq!(tick(&mut bus, 2).len(), 1);
        assert_eq!(tick(&mut bus, 3).len(), 0);
    }

    #[test]
    fn round_robin_is_fair() {
        let mut bus: SharedBus<u32> = SharedBus::new(4, 0, 1);
        for core in 0..4 {
            bus.send(core, core);
            bus.send(core, core + 10);
        }
        let mut order = Vec::new();
        for now in 0..8 {
            for m in tick(&mut bus, now) {
                order.push(m.core);
            }
        }
        // Every core served once before any core is served twice.
        let first_four: Vec<u32> = order[..4].to_vec();
        let mut sorted = first_four.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3], "unfair start: {order:?}");
    }

    #[test]
    fn multiple_grants_per_cycle() {
        let mut bus: SharedBus<u32> = SharedBus::new(4, 0, 4);
        for core in 0..4 {
            bus.send(core, core);
        }
        assert_eq!(tick(&mut bus, 0).len(), 4);
    }

    #[test]
    fn backlog_drains_in_order() {
        let mut bus: SharedBus<u32> = SharedBus::new(1, 0, 1);
        for i in 0..10 {
            bus.send(0, i);
        }
        assert_eq!(bus.queued(), 10);
        let delivered: Vec<u32> = (0..10)
            .flat_map(|now| tick(&mut bus, now))
            .map(|m| m.payload)
            .collect();
        assert_eq!(delivered, (0..10).collect::<Vec<_>>());
        assert_eq!(bus.queued(), 0);
        assert_eq!(
            bus.next_event_cycle(10),
            u64::MAX,
            "nothing left queued or in flight"
        );
    }
}
