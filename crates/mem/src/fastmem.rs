//! Tag-array-only "fast functional" memory model.
//!
//! [`FastMemory`] keeps the *state* of the hierarchy (L1/L2 tag arrays,
//! TLBs) but none of its *timing machinery*: no MSHR file, no shared
//! bus, no bank occupancy, no DRAM queue. Every access resolves to one
//! of three fixed latencies — L1 hit, nominal L1-miss/L2-hit, nominal
//! L2 miss — plus the TLB-walk penalty. That makes it 1-2 orders of
//! magnitude cheaper per access than [`crate::MemorySystem`] while
//! still producing the cache/TLB *contents* a detailed phase needs,
//! which is exactly the warm-up engine sampled simulation wants
//! (ROADMAP item 2, methodology per "Validating Simplified Processor
//! Models in Architectural Studies").
//!
//! The interface mirrors [`crate::MemorySystem`] call-for-call so that
//! [`crate::MemoryModel`] can dispatch to either without the caller
//! noticing. Behavioural differences, all deliberate:
//!
//! * the MSHR file is gone, so [`FastMemory::access`] never returns
//!   [`AccessResult::MshrFull`];
//! * tags fill at *access* time (functional warming): each line misses
//!   at most once, so there is no miss-merging bookkeeping;
//! * there is no contention, so completions arrive exactly at
//!   `issued_at + nominal latency` — deterministic by construction;
//! * no banks are modelled, so [`FastMemory::bank_cache_stats`]
//!   returns no rows.

use crate::addr::{bank_of, line_base};
use crate::cache::{AccessOutcome, CacheGeometry, SetAssocCache};
use crate::histogram::LatencyHistogram;
use crate::system::{
    prewarm_private, warm_line_count, AccessKind, AccessResult, Completion, CoreMemStats,
    MemConfig, MemEvent, MemStats, ReqId, WarmRegion,
};
use crate::tlb::Tlb;
use smtsim_obs::{EventRing, TraceEvent};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Per-core tag/TLB state plus the delivery mailboxes.
struct FastPort {
    l1i: SetAssocCache,
    l1d: SetAssocCache,
    itlb: Tlb,
    dtlb: Tlb,
    outbox: Vec<Completion>,
    events: Vec<MemEvent>,
    stats: CoreMemStats,
}

/// A scheduled future delivery (completion or L2-miss detection).
#[derive(PartialEq, Eq)]
struct Pending {
    at: u64,
    /// Monotonic tie-break: same-cycle deliveries drain in issue order,
    /// keeping the model byte-deterministic.
    seq: u64,
    what: PendingKind,
}

#[derive(PartialEq, Eq)]
enum PendingKind {
    Complete(Completion),
    L2MissDetected { core: u32, req: ReqId },
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Fixed-latency, contention-free memory model (tag arrays + TLBs only).
///
/// See the module docs for how this differs from the detailed
/// [`crate::MemorySystem`]; the public API is intentionally identical.
pub struct FastMemory {
    cfg: MemConfig,
    cores: Vec<FastPort>,
    /// One shared tag array per L2 cluster (banking affects only the
    /// `bank` label on completions, never timing).
    l2: Vec<SetAssocCache>,
    pending: BinaryHeap<Reverse<Pending>>,
    seq: u64,
    next_req: ReqId,
    inflight: usize,
    l2_hit_hist: LatencyHistogram,
    total_completions: u64,
    dram_round_trips: u64,
    trace: Option<EventRing>,
}

impl FastMemory {
    /// Build the model. Panics on invalid configuration (same contract
    /// as [`crate::MemorySystem::new`]).
    pub fn new(cfg: MemConfig) -> Self {
        cfg.validate().expect("invalid MemConfig");
        let cluster_geom = CacheGeometry {
            bytes: cfg.l2_bytes / cfg.l2_clusters as u64,
            ways: cfg.l2_ways,
            line_bytes: 64,
        };
        FastMemory {
            cores: (0..cfg.num_cores)
                .map(|_| FastPort {
                    l1i: SetAssocCache::new(cfg.l1i),
                    l1d: SetAssocCache::new(cfg.l1d),
                    itlb: Tlb::new(cfg.tlb_entries),
                    dtlb: Tlb::new(cfg.tlb_entries),
                    outbox: Vec::new(),
                    events: Vec::new(),
                    stats: CoreMemStats::default(),
                })
                .collect(),
            l2: (0..cfg.l2_clusters)
                .map(|_| SetAssocCache::new(cluster_geom))
                .collect(),
            pending: BinaryHeap::new(),
            seq: 0,
            next_req: 0,
            inflight: 0,
            l2_hit_hist: LatencyHistogram::for_l2_hit_time(),
            total_completions: 0,
            dram_round_trips: 0,
            trace: None,
            cfg,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    fn push(&mut self, at: u64, what: PendingKind) {
        self.seq += 1;
        self.pending.push(Reverse(Pending {
            at,
            seq: self.seq,
            what,
        }));
    }

    /// Core `core` performs an access at cycle `now`.
    pub fn access(&mut self, core: u32, kind: AccessKind, addr: u64, now: u64) -> AccessResult {
        let cidx = core as usize;
        let line = line_base(addr);

        // 1. TLB, access counters and the L1 tag probe in one pass per
        // kind (same bookkeeping as the detailed model; this runs once
        // per load and store the reduced-fidelity core fetches, so the
        // branch structure is kept flat).
        let port = &mut self.cores[cidx];
        let (tlb_miss, is_ifetch, outcome) = match kind {
            AccessKind::IFetch => {
                let tlb_miss = !port.itlb.access(addr);
                port.stats.ifetches += 1;
                port.stats.itlb_misses += tlb_miss as u64;
                (tlb_miss, true, port.l1i.access(addr, false))
            }
            AccessKind::Load => {
                let tlb_miss = !port.dtlb.access(addr);
                port.stats.loads += 1;
                port.stats.dtlb_misses += tlb_miss as u64;
                (tlb_miss, false, port.l1d.access(addr, false))
            }
            AccessKind::Store => {
                let tlb_miss = !port.dtlb.access(addr);
                port.stats.stores += 1;
                port.stats.dtlb_misses += tlb_miss as u64;
                (tlb_miss, false, port.l1d.access(addr, true))
            }
        };
        let tlb_penalty = if tlb_miss {
            self.cfg.tlb_miss_cycles
        } else {
            0
        };
        if outcome == AccessOutcome::Hit {
            return AccessResult::L1Hit {
                ready_at: now + self.cfg.l1_hit_cycles + tlb_penalty,
                tlb_miss,
            };
        }

        // 3. L1 miss: fill the tag immediately (functional warming) so
        // each line misses at most once — no MSHR merge tracking.
        {
            let s = &mut self.cores[cidx].stats;
            match kind {
                AccessKind::IFetch => s.ifetch_l1_misses += 1,
                AccessKind::Load => s.load_l1_misses += 1,
                AccessKind::Store => s.store_l1_misses += 1,
            }
        }
        let victim = {
            let port = &mut self.cores[cidx];
            if is_ifetch {
                port.l1i.fill(line, false)
            } else {
                port.l1d.fill(line, kind == AccessKind::Store)
            }
        };
        if victim.is_some() {
            self.cores[cidx].stats.writebacks += 1;
        }

        // 4. L2 tag probe in the core's cluster; fixed latencies.
        let cluster = self.cfg.cluster_of(core) as usize;
        let l2_hit = self.l2[cluster].access(line, false) == AccessOutcome::Hit;
        if l2_hit {
            self.cores[cidx].stats.l2_hits += 1;
        } else {
            let _ = self.l2[cluster].fill(line, false);
            self.cores[cidx].stats.l2_misses += 1;
        }
        let req = self.next_req;
        self.next_req = self.next_req.wrapping_add(1);
        let detect_at = (!l2_hit).then(|| now + self.cfg.l1_miss_nominal() + tlb_penalty);
        let latency = if l2_hit {
            self.cfg.l1_miss_nominal()
        } else {
            self.cfg.l2_miss_nominal()
        } + tlb_penalty;
        let completion = Completion {
            req,
            core,
            kind,
            addr,
            bank: bank_of(line, self.cfg.l2_banks),
            l2_hit,
            issued_at: now,
            completed_at: now + latency,
            l2_miss_detected_at: detect_at,
            tlb_miss,
        };
        if let Some(at) = detect_at {
            self.push(at, PendingKind::L2MissDetected { core, req });
        }
        self.inflight += 1;
        self.push(completion.completed_at, PendingKind::Complete(completion));
        AccessResult::Miss { req, tlb_miss }
    }

    /// Advance the model one cycle: deliver everything that matured.
    pub fn tick(&mut self, now: u64) {
        while let Some(Reverse(p)) = self.pending.peek() {
            if p.at > now {
                break;
            }
            let Some(Reverse(p)) = self.pending.pop() else {
                break; // unreachable: peek above returned Some
            };
            match p.what {
                PendingKind::L2MissDetected { core, req } => {
                    self.cores[core as usize]
                        .events
                        .push(MemEvent::L2MissDetected { req, at: p.at });
                }
                PendingKind::Complete(c) => {
                    self.inflight -= 1;
                    if c.l2_hit && c.kind == AccessKind::Load {
                        self.l2_hit_hist.record(c.latency());
                    }
                    if !c.l2_hit {
                        self.dram_round_trips += 1;
                        if let Some(ring) = &mut self.trace {
                            ring.emit(
                                p.at,
                                TraceEvent::DramRoundTrip {
                                    core: c.core,
                                    latency: c.latency(),
                                },
                            );
                        }
                    }
                    self.total_completions += 1;
                    self.cores[c.core as usize].outbox.push(c);
                }
            }
        }
    }

    /// Move all completions for `core` (delivered during the most
    /// recent ticks) to the end of `out`, oldest first. Both buffers
    /// keep their capacity, so a caller that reuses `out` drains
    /// without allocating (rule D10).
    pub fn drain_completions_into(&mut self, core: u32, out: &mut Vec<Completion>) {
        out.append(&mut self.cores[core as usize].outbox);
    }

    /// Move all intermediate events for `core` to the end of `out`
    /// (same contract as [`Self::drain_completions_into`]).
    pub fn drain_events_into(&mut self, core: u32, out: &mut Vec<MemEvent>) {
        out.append(&mut self.cores[core as usize].events);
    }

    /// Snapshot per-core statistics.
    pub fn stats(&self) -> MemStats {
        MemStats {
            cores: self.cores.iter().map(|c| c.stats).collect(),
        }
    }

    /// Distribution of L2-hit service times for loads. With no
    /// contention every sample lands in the nominal-latency bin.
    pub fn l2_hit_histogram(&self) -> &LatencyHistogram {
        &self.l2_hit_hist
    }

    /// No banks are modelled: always empty.
    pub fn bank_cache_stats(&self) -> Vec<(u64, u64)> {
        Vec::new()
    }

    /// L2-miss completions delivered so far (the fast model's stand-in
    /// for DRAM round trips).
    pub fn dram_round_trips(&self) -> u64 {
        self.dram_round_trips
    }

    /// Start recording trace events (only `DramRoundTrip` is emitted —
    /// the contention events have nothing to describe here).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(EventRing::new(capacity));
    }

    /// The event ring (`None` unless [`Self::enable_trace`] was called).
    pub fn trace(&self) -> Option<&EventRing> {
        self.trace.as_ref()
    }

    /// Skip-ahead horizon: the fast model deliberately pins it to
    /// `from` (never skippable). Reduced fidelity is already ~5×
    /// faster and is not byte-pinned to the goldens, so it opts out of
    /// the skip invariant instead of proving it (DESIGN.md §16).
    pub fn next_event_cycle(&self, from: u64) -> u64 {
        from
    }

    /// Completions scheduled but not yet delivered.
    pub fn inflight_count(&self) -> usize {
        self.inflight
    }

    /// Total completions delivered.
    pub fn total_completions(&self) -> u64 {
        self.total_completions
    }

    /// Warm `[base, base + bytes)` into `region`'s L1 and TLB of `core`
    /// and its cluster's L2 without spending simulated time or touching
    /// statistics (same contract as
    /// [`crate::MemorySystem::prewarm_range`]).
    pub fn prewarm_range(&mut self, core: u32, region: WarmRegion, base: u64, bytes: u64) {
        let port = &mut self.cores[core as usize];
        prewarm_private(
            region,
            (&mut port.l1i, &mut port.l1d),
            (&mut port.itlb, &mut port.dtlb),
            base,
            bytes,
        );
        let cluster = self.cfg.cluster_of(core) as usize;
        self.l2[cluster].fill_lines(base, warm_line_count(bytes), 1);
    }

    /// Diagnostic: scheduled completions as `(req, core, kind, addr,
    /// issued_at)`, ordered by request id.
    pub fn debug_inflight(&self) -> Vec<(ReqId, u32, AccessKind, u64, u64)> {
        let mut rows: Vec<_> = self
            .pending
            .iter()
            .filter_map(|Reverse(p)| match &p.what {
                PendingKind::Complete(c) => Some((c.req, c.core, c.kind, c.addr, c.issued_at)),
                PendingKind::L2MissDetected { .. } => None,
            })
            .collect();
        rows.sort_by_key(|r| r.0);
        rows
    }

    /// Diagnostic: no MSHR file exists, so occupancy is always
    /// `(0, false)` — the model can never stall on MSHRs.
    pub fn debug_mshr(&self, _core: u32) -> (usize, bool) {
        (0, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All completions delivered to `core` so far.
    fn drained(m: &mut FastMemory, core: u32) -> Vec<Completion> {
        let mut out = Vec::new();
        m.drain_completions_into(core, &mut out);
        out
    }

    fn fast(cores: u32) -> FastMemory {
        FastMemory::new(MemConfig::paper(cores))
    }

    fn complete_one(
        m: &mut FastMemory,
        core: u32,
        req: ReqId,
        from: u64,
        until: u64,
    ) -> Completion {
        for now in from..until {
            m.tick(now);
            if let Some(c) = drained(m, core).into_iter().find(|c| c.req == req) {
                return c;
            }
        }
        panic!("req {req} never completed");
    }

    #[test]
    fn cold_load_misses_l2_at_nominal_latency() {
        let mut m = fast(1);
        let req = match m.access(0, AccessKind::Load, 0x4000, 10) {
            AccessResult::Miss { req, tlb_miss } => {
                assert!(tlb_miss, "cold TLB");
                req
            }
            other => panic!("{other:?}"),
        };
        let c = complete_one(&mut m, 0, req, 10, 2_000);
        assert!(!c.l2_hit);
        // 272 nominal + 300 TLB walk.
        assert_eq!(c.latency(), m.config().l2_miss_nominal() + 300);
        assert_eq!(
            c.l2_miss_detected_at,
            Some(10 + m.config().l1_miss_nominal() + 300)
        );
        assert_eq!(m.dram_round_trips(), 1);
    }

    #[test]
    fn second_access_to_line_is_an_l1_hit() {
        let mut m = fast(1);
        let _ = m.access(0, AccessKind::Load, 0x4000, 0);
        // Tag filled at access time: the re-access hits immediately,
        // even though the first completion is still in flight.
        match m.access(0, AccessKind::Load, 0x4008, 1) {
            AccessResult::L1Hit { ready_at, .. } => {
                assert_eq!(ready_at, 1 + m.config().l1_hit_cycles)
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn l2_hit_after_l1_eviction_uses_nominal_miss_latency() {
        let mut m = fast(1);
        // Prewarm the L2 (not the L1) so the access is an L1-miss/L2-hit.
        m.prewarm_range(0, WarmRegion::L2Data, 0x8000, 64);
        let req = match m.access(0, AccessKind::Load, 0x8000, 5) {
            AccessResult::Miss { req, tlb_miss } => {
                assert!(!tlb_miss);
                req
            }
            other => panic!("{other:?}"),
        };
        let c = complete_one(&mut m, 0, req, 5, 100);
        assert!(c.l2_hit);
        assert_eq!(c.latency(), m.config().l1_miss_nominal());
        assert_eq!(m.l2_hit_histogram().count(), 1);
    }

    #[test]
    fn l2_miss_detection_event_precedes_completion() {
        let mut m = fast(1);
        // Warms the D-TLB page of 0x9000 but only the L2 line at 0x8000.
        m.prewarm_range(0, WarmRegion::L2Data, 0x8000, 64);
        let req = match m.access(0, AccessKind::Load, 0x9000, 0) {
            AccessResult::Miss { req, .. } => req,
            other => panic!("{other:?}"),
        };
        let detect_at = m.config().l1_miss_nominal();
        for now in 0..=detect_at {
            m.tick(now);
        }
        let mut events = Vec::new();
        m.drain_events_into(0, &mut events);
        assert_eq!(
            events,
            vec![MemEvent::L2MissDetected { req, at: detect_at }]
        );
        assert!(drained(&mut m, 0).is_empty(), "completion comes later");
    }

    #[test]
    fn never_reports_mshr_full() {
        let mut m = fast(1);
        for i in 0..256u64 {
            match m.access(0, AccessKind::Load, 0x10_0000 + i * 4096, 0) {
                AccessResult::Miss { .. } | AccessResult::L1Hit { .. } => {}
                AccessResult::MshrFull => panic!("fast model has no MSHR limit"),
            }
        }
        assert_eq!(m.debug_mshr(0), (0, false));
    }

    #[test]
    fn same_seed_access_pattern_is_deterministic() {
        let run = || {
            let mut m = fast(2);
            let mut log = Vec::new();
            for i in 0..2_000u64 {
                let core = (i % 2) as u32;
                let addr = (i * 2654435761) % (8 << 20);
                let _ = m.access(core, AccessKind::Load, addr, i);
                m.tick(i);
                for c in drained(&mut m, core) {
                    log.push((c.req, c.addr, c.completed_at, c.l2_hit));
                }
            }
            (log, m.stats().total(|c| c.l2_misses), m.dram_round_trips())
        };
        assert_eq!(run(), run());
    }
}
