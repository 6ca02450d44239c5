//! The complete memory system: per-core L1s/TLBs/MSHRs, the shared bus,
//! the banked L2 and main memory, advanced in lock-step with the cores.
//!
//! Cores call [`MemorySystem::access`] when an instruction fetch, load or
//! store probes the hierarchy, then poll [`MemorySystem::drain_completions_into`]
//! each cycle for finished misses and [`MemorySystem::drain_events_into`] for
//! intermediate events (currently: L2-miss detection, the hook the
//! non-speculative FLUSH policy needs).

use crate::addr::{bank_of, l1_bank_of, line_base, line_index, page_base, LINE_BYTES, PAGE_BYTES};
use crate::fault::FaultPlan;

/// Local alias keeping arithmetic sites terse.
const LINE_BYTES_U64: u64 = LINE_BYTES;
use crate::bus::{BusMsg, SharedBus};
use crate::cache::{AccessOutcome, CacheGeometry, SetAssocCache};
use crate::dram::Dram;
use crate::histogram::LatencyHistogram;
use crate::l2bank::{BankOp, BankOutcome, L2Bank};
use crate::mshr::{MshrAlloc, MshrFile};
use crate::tlb::Tlb;
use crate::util::Slab;
use smtsim_obs::{EventRing, TraceEvent};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Opaque handle for an in-flight miss.
pub type ReqId = u32;

/// What kind of access the core performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Instruction fetch (L1I + I-TLB path).
    IFetch,
    /// Data load (L1D + D-TLB path) — the instruction class the fetch
    /// policies react to.
    Load,
    /// Data store (write-allocate into L1D).
    Store,
}

/// Which structures a [`MemorySystem::prewarm_range`] call warms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmRegion {
    /// Code: the L1I, the L2 and the I-TLB.
    Code,
    /// An L1-resident working set: the L1D, the L2 and the D-TLB.
    L1Data,
    /// An L2-resident working set: the L2 and the D-TLB.
    L2Data,
}

/// Outcome of [`MemorySystem::access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResult {
    /// L1 hit: data available at `ready_at` (includes any TLB-walk
    /// penalty and L1 bank-conflict delay).
    L1Hit { ready_at: u64, tlb_miss: bool },
    /// L1 miss: a completion for `req` will appear later.
    Miss { req: ReqId, tlb_miss: bool },
    /// The core's MSHR file is full; retry next cycle.
    MshrFull,
}

/// A finished miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    pub req: ReqId,
    pub core: u32,
    pub kind: AccessKind,
    pub addr: u64,
    /// L2 bank that serviced the line.
    pub bank: u32,
    /// True if the line was found in the shared L2.
    pub l2_hit: bool,
    /// Cycle the core issued the access.
    pub issued_at: u64,
    /// Cycle the data became available.
    pub completed_at: u64,
    /// Cycle the L2 lookup discovered a miss (None on L2 hits).
    pub l2_miss_detected_at: Option<u64>,
    /// The access paid a TLB walk.
    pub tlb_miss: bool,
}

impl Completion {
    /// End-to-end latency seen by the core.
    pub fn latency(&self) -> u64 {
        self.completed_at - self.issued_at
    }
}

/// Intermediate memory event (delivered the cycle it happens).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemEvent {
    /// The L2 lookup for `req` missed at cycle `at` — the trigger moment
    /// of the non-speculative FLUSH policy.
    L2MissDetected { req: ReqId, at: u64 },
}

/// Configuration of the whole hierarchy (defaults = paper Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemConfig {
    /// Number of SMT cores sharing the L2.
    pub num_cores: u32,
    /// L1 I-cache geometry (64 KB, 4-way).
    pub l1i: CacheGeometry,
    /// L1 D-cache geometry (32 KB, 4-way).
    pub l1d: CacheGeometry,
    /// L1 banks (8) — used for same-cycle port-conflict penalties.
    pub l1_banks: u32,
    /// L1 hit latency (3).
    pub l1_hit_cycles: u64,
    /// I/D TLB entries (512, fully associative).
    pub tlb_entries: usize,
    /// TLB miss penalty (300).
    pub tlb_miss_cycles: u64,
    /// MSHR entries per core (16).
    pub mshr_entries: usize,
    /// One-way L1→L2 bus transit (4; 3 + 4 + 15 = paper's 22-cycle
    /// uncontended L1-miss/L2-hit).
    pub bus_latency: u64,
    /// Bus grants per cycle (arbitration bandwidth).
    pub bus_grants_per_cycle: u32,
    /// Total shared L2 capacity (4 MB).
    pub l2_bytes: u64,
    /// L2 associativity (12).
    pub l2_ways: u32,
    /// Number of single-ported L2 banks (4).
    pub l2_banks: u32,
    /// L2 bank service occupancy per access (15).
    pub l2_bank_cycles: u64,
    /// Main memory latency (250).
    pub dram_cycles: u64,
    /// Enable a next-line L1D prefetcher: every demand load miss also
    /// fetches the following line (if it is absent and an MSHR is
    /// free). Off in the paper's machine; exists for the future-work
    /// ablation benches.
    pub next_line_prefetch: bool,
    /// Number of independent L2 clusters. The paper's machine is a
    /// single shared L2 (`1`); the paper's §4 explicitly frames MFLUSH
    /// for "SMT cores sharing one or multiple L2 Caches", so clustered
    /// configurations exist as an extension: cores are partitioned
    /// evenly across clusters, each cluster gets its own bus and its
    /// own `l2_banks` banks, and the total L2 capacity is split evenly.
    pub l2_clusters: u32,
    /// Deterministic fault-injection schedule ([`FaultPlan::none`] in
    /// every production configuration; armed only by robustness tests).
    pub faults: FaultPlan,
}

impl MemConfig {
    /// The paper's Fig. 1 hierarchy for `num_cores` cores.
    pub fn paper(num_cores: u32) -> Self {
        MemConfig {
            num_cores,
            l1i: CacheGeometry {
                bytes: 64 << 10,
                ways: 4,
                line_bytes: 64,
            },
            l1d: CacheGeometry {
                bytes: 32 << 10,
                ways: 4,
                line_bytes: 64,
            },
            l1_banks: 8,
            l1_hit_cycles: 3,
            tlb_entries: 512,
            tlb_miss_cycles: 300,
            mshr_entries: 16,
            bus_latency: 4,
            bus_grants_per_cycle: 2,
            l2_bytes: 4 << 20,
            l2_ways: 12,
            l2_banks: 4,
            l2_bank_cycles: 15,
            dram_cycles: 250,
            next_line_prefetch: false,
            l2_clusters: 1,
            faults: FaultPlan::none(),
        }
    }

    /// Nominal uncontended L1-miss / L2-hit latency — the paper's
    /// "L1 miss" figure (22 cycles) and the MFLUSH `MIN` parameter.
    pub fn l1_miss_nominal(&self) -> u64 {
        self.l1_hit_cycles + self.bus_latency + self.l2_bank_cycles
    }

    /// Nominal L2-miss latency — the MFLUSH `MAX` parameter
    /// (MIN + main-memory latency).
    pub fn l2_miss_nominal(&self) -> u64 {
        self.l1_miss_nominal() + self.dram_cycles
    }

    /// The paper's Multicore-Traffic delay:
    /// `MT = (L1_L2_Bus_delay + L2_Bank_Acc_delay) * (Num_Cores - 1)`
    /// where `Num_Cores` is the number of cores *sharing one L2*.
    pub fn multicore_traffic_delay(&self) -> u64 {
        (self.bus_latency + self.l2_bank_cycles) * (self.cores_per_cluster() as u64 - 1)
    }

    /// Cores sharing each L2 cluster.
    pub fn cores_per_cluster(&self) -> u32 {
        self.num_cores / self.l2_clusters.max(1)
    }

    /// L2 cluster serving `core`.
    pub fn cluster_of(&self, core: u32) -> u32 {
        core / self.cores_per_cluster().max(1)
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_cores == 0 {
            return Err("num_cores == 0".into());
        }
        self.l1i.validate().map_err(|e| format!("l1i: {e}"))?;
        self.l1d.validate().map_err(|e| format!("l1d: {e}"))?;
        if self.l2_banks == 0 || !self.l2_bytes.is_multiple_of(self.l2_banks as u64) {
            return Err("l2_bytes must divide evenly across banks".into());
        }
        if self.l2_clusters == 0
            || !self.num_cores.is_multiple_of(self.l2_clusters)
            || !self
                .l2_bytes
                .is_multiple_of(self.l2_clusters as u64 * self.l2_banks as u64)
        {
            return Err(format!(
                "{} cores / {} bytes do not partition into {} L2 clusters",
                self.num_cores, self.l2_bytes, self.l2_clusters
            ));
        }
        if self.mshr_entries == 0 || self.tlb_entries == 0 {
            return Err("mshr/tlb entries must be > 0".into());
        }
        CacheGeometry {
            bytes: self.l2_bytes / self.l2_banks as u64,
            ways: self.l2_ways,
            line_bytes: 64,
        }
        .validate()
        .map_err(|e| format!("l2 bank: {e}"))?;
        if let Some(bank) = self.faults.pin_bank {
            if bank >= self.l2_clusters * self.l2_banks {
                return Err(format!(
                    "fault plan pins bank {bank} but only {} exist",
                    self.l2_clusters * self.l2_banks
                ));
            }
        }
        if let Some(core) = self.faults.mshr_exhaust_core {
            if core >= self.num_cores {
                return Err(format!(
                    "fault plan exhausts MSHRs of core {core} but only {} exist",
                    self.num_cores
                ));
            }
        }
        Ok(())
    }
}

smtsim_obs::record! {
    /// Per-core memory statistics.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct CoreMemStats {
        #[counter("accesses")]
        /// Instruction fetch accesses to the L1 I-cache.
        pub ifetches: u64,
        #[counter("accesses")]
        /// Instruction fetches that missed the L1 I-cache.
        pub ifetch_l1_misses: u64,
        #[counter("accesses")]
        /// Demand loads sent to the L1 D-cache.
        pub loads: u64,
        #[counter("accesses")]
        /// Demand loads that missed the L1 D-cache.
        pub load_l1_misses: u64,
        #[counter("accesses")]
        /// Stores sent to the L1 D-cache.
        pub stores: u64,
        #[counter("accesses")]
        /// Stores that missed the L1 D-cache.
        pub store_l1_misses: u64,
        #[counter("accesses")]
        /// Demand accesses that hit the shared L2.
        pub l2_hits: u64,
        #[counter("accesses")]
        /// Demand accesses that missed the shared L2 and went to DRAM.
        pub l2_misses: u64,
        #[counter("accesses")]
        /// I-TLB misses.
        pub itlb_misses: u64,
        #[counter("accesses")]
        /// D-TLB misses.
        pub dtlb_misses: u64,
        #[counter("accesses")]
        /// Misses merged into an MSHR entry already in flight for their line.
        pub mshr_merges: u64,
        #[counter("accesses")]
        /// Misses refused because the MSHR file was full.
        pub mshr_full_stalls: u64,
        #[counter("lines")]
        /// Dirty lines written back from L1 towards the L2.
        pub writebacks: u64,
        #[counter("lines")]
        /// Hardware prefetches issued.
        pub prefetches: u64,
    }
    decode;
}

smtsim_obs::record! {
    /// Aggregate statistics for the whole system.
    #[derive(Debug, Clone, Default)]
    pub struct MemStats {
        #[record]
        /// Per-core statistics, in core order.
        pub cores: Vec<CoreMemStats>,
        #[gauge("fraction")]
        /// Machine-wide L2 demand hit rate: hits over hits plus
        /// misses, all cores (0 when the L2 saw no demand access).
        "l2_hit_rate": f64 = |m| m.l2_hit_rate(),
    }
    decode;
}

impl MemStats {
    /// Sum a field across cores.
    pub fn total<F: Fn(&CoreMemStats) -> u64>(&self, f: F) -> u64 {
        self.cores.iter().map(f).sum()
    }

    /// Global L2 demand hit rate.
    pub fn l2_hit_rate(&self) -> f64 {
        let h = self.total(|c| c.l2_hits);
        let m = self.total(|c| c.l2_misses);
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    core: u32,
    kind: AccessKind,
    addr: u64,
    issued_at: u64,
    tlb_miss: bool,
    l2_miss_detected_at: Option<u64>,
    /// Hardware prefetch: fills caches, delivers no completion.
    prefetch: bool,
}

#[derive(Debug, Clone, Copy)]
enum BusItem {
    Demand { req: ReqId, addr: u64, write: bool },
    Writeback { addr: u64 },
}

#[derive(Debug, Clone, Copy)]
enum BankToken {
    Demand(ReqId),
    Fill { core: u32 },
    Writeback,
}

#[derive(Debug, Clone, Copy)]
enum DramToken {
    /// Demand fetch for the primary request of a line.
    Demand(ReqId),
}

struct CorePort {
    l1i: SetAssocCache,
    l1d: SetAssocCache,
    itlb: Tlb,
    dtlb: Tlb,
    mshr: MshrFile,
    outbox: Vec<Completion>,
    events: Vec<MemEvent>,
    /// Last cycle each L1D bank was used (port-conflict penalty).
    l1d_bank_cycle: Vec<u64>,
    stats: CoreMemStats,
}

#[derive(PartialEq, Eq)]
struct Release {
    at: u64,
    seq: u64,
    core: u32,
    item_idx: usize,
}

impl Ord for Release {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}
impl PartialOrd for Release {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The shared memory system.
pub struct MemorySystem {
    cfg: MemConfig,
    cores: Vec<CorePort>,
    inflight: Slab<InFlight>,
    /// Items waiting to enter the bus (L1 probe + TLB walk delay).
    release_heap: BinaryHeap<Reverse<Release>>,
    release_items: Vec<Option<BusItem>>,
    release_free: Vec<usize>,
    release_seq: u64,
    /// One bus per L2 cluster.
    buses: Vec<SharedBus<BusItem>>,
    /// `l2_clusters × l2_banks` banks; bank index =
    /// `cluster * l2_banks + addr_bank`.
    banks: Vec<L2Bank<BankToken>>,
    dram: Dram<DramToken>,
    /// Tick-loop scratch (rule D10: `tick` runs every cycle and must
    /// not allocate): bus deliveries, DRAM completions, and the waiter
    /// list copied out of an MSHR entry while its core port is mutated.
    bus_scratch: Vec<BusMsg<BusItem>>,
    dram_scratch: Vec<DramToken>,
    waiter_scratch: Vec<u64>,
    l2_hit_hist: LatencyHistogram,
    /// Per-load L2 *hit* latencies, including queueing — Fig. 4.
    total_completions: u64,
    /// Demand responses returned by DRAM (feeds `mem.dram.round_trips`).
    dram_round_trips: u64,
    /// Optional event trace (None unless enabled — DESIGN.md §12).
    trace: Option<EventRing>,
}

impl MemorySystem {
    /// [`MemorySystem::new`] under the retired fidelity-dispatch
    /// constructor's name. Stays only because the benchmark package's
    /// traced driver calls it; goes with the next benchmark change
    /// (ROADMAP item 2).
    pub fn detailed(cfg: MemConfig) -> Self {
        MemorySystem::new(cfg)
    }

    /// Build the hierarchy. Panics on invalid configuration.
    pub fn new(cfg: MemConfig) -> Self {
        cfg.validate().expect("invalid MemConfig");
        let bank_geom = CacheGeometry {
            bytes: cfg.l2_bytes / (cfg.l2_clusters as u64 * cfg.l2_banks as u64),
            ways: cfg.l2_ways,
            line_bytes: 64,
        };
        MemorySystem {
            cores: (0..cfg.num_cores)
                .map(|_| CorePort {
                    l1i: SetAssocCache::new(cfg.l1i),
                    l1d: SetAssocCache::new(cfg.l1d),
                    itlb: Tlb::new(cfg.tlb_entries),
                    dtlb: Tlb::new(cfg.tlb_entries),
                    mshr: MshrFile::new(cfg.mshr_entries),
                    outbox: Vec::new(),
                    events: Vec::new(),
                    l1d_bank_cycle: vec![u64::MAX; cfg.l1_banks as usize],
                    stats: CoreMemStats::default(),
                })
                .collect(),
            inflight: Slab::with_capacity(cfg.mshr_entries * cfg.num_cores as usize * 2),
            release_heap: BinaryHeap::new(),
            release_items: Vec::new(),
            release_free: Vec::new(),
            release_seq: 0,
            buses: (0..cfg.l2_clusters)
                .map(|_| {
                    SharedBus::new(
                        cfg.cores_per_cluster(),
                        cfg.bus_latency,
                        cfg.bus_grants_per_cycle,
                    )
                })
                .collect(),
            banks: (0..cfg.l2_clusters * cfg.l2_banks)
                .map(|_| L2Bank::new(bank_geom, cfg.l2_bank_cycles))
                .collect(),
            dram: Dram::new(cfg.dram_cycles),
            bus_scratch: Vec::new(),
            dram_scratch: Vec::new(),
            waiter_scratch: Vec::new(),
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

    fn schedule_release(&mut self, at: u64, core: u32, item: BusItem) {
        let idx = if let Some(i) = self.release_free.pop() {
            self.release_items[i] = Some(item);
            i
        } else {
            self.release_items.push(Some(item));
            self.release_items.len() - 1
        };
        self.release_seq += 1;
        self.release_heap.push(Reverse(Release {
            at,
            seq: self.release_seq,
            core,
            item_idx: idx,
        }));
    }

    /// Global bank slot for an address within a cluster.
    #[inline]
    fn bank_index(&self, cluster: u32, addr: u64) -> usize {
        (cluster * self.cfg.l2_banks + bank_of(addr, self.cfg.l2_banks)) as usize
    }

    /// Issue a next-line prefetch for `line` (no completion will be
    /// delivered; the line fills the L1D and L2 on arrival).
    fn issue_prefetch(&mut self, core: u32, line: u64, release_at: u64) {
        let cidx = core as usize;
        if self.cores[cidx].l1d.probe(line) || self.cores[cidx].mshr.is_full() {
            return;
        }
        let req = self.inflight.insert(InFlight {
            core,
            kind: AccessKind::Load,
            addr: line,
            issued_at: release_at,
            tlb_miss: false,
            l2_miss_detected_at: None,
            prefetch: true,
        });
        match self.cores[cidx].mshr.allocate(line, req as u64) {
            MshrAlloc::Primary => {
                self.cores[cidx].stats.prefetches += 1;
                self.schedule_release(
                    release_at,
                    core,
                    BusItem::Demand {
                        req,
                        addr: line,
                        write: false,
                    },
                );
            }
            // Already being fetched or no room: drop the prefetch.
            MshrAlloc::Merged | MshrAlloc::Full => {
                // A merged prefetch would double-complete the waiter
                // list with a no-op; simplest is to forget it.
                if let Some(e) = self.cores[cidx].mshr.complete(line) {
                    // Restore the entry minus our request.
                    for &w in &e.waiters {
                        if w != req as u64 {
                            let _ = self.cores[cidx].mshr.allocate(line, w);
                        }
                    }
                    self.cores[cidx].mshr.recycle(e.waiters);
                }
                self.inflight.remove(req);
            }
        }
    }

    /// Core `core` performs an access at cycle `now`.
    pub fn access(&mut self, core: u32, kind: AccessKind, addr: u64, now: u64) -> AccessResult {
        let cidx = core as usize;
        let line = line_base(addr);

        // 1. TLB.
        let (tlb_miss, is_ifetch) = {
            let port = &mut self.cores[cidx];
            match kind {
                AccessKind::IFetch => (!port.itlb.access(addr), true),
                AccessKind::Load | AccessKind::Store => (!port.dtlb.access(addr), false),
            }
        };
        let tlb_penalty = if tlb_miss {
            self.cfg.tlb_miss_cycles
        } else {
            0
        };
        {
            let s = &mut self.cores[cidx].stats;
            match kind {
                AccessKind::IFetch => {
                    s.ifetches += 1;
                    if tlb_miss {
                        s.itlb_misses += 1;
                    }
                }
                AccessKind::Load => {
                    s.loads += 1;
                    if tlb_miss {
                        s.dtlb_misses += 1;
                    }
                }
                AccessKind::Store => {
                    s.stores += 1;
                    if tlb_miss {
                        s.dtlb_misses += 1;
                    }
                }
            }
        }

        // 2. L1 probe (with a one-cycle D-bank conflict penalty).
        let mut conflict = 0;
        if !is_ifetch {
            let b = l1_bank_of(addr, self.cfg.l1_banks) as usize;
            let port = &mut self.cores[cidx];
            if port.l1d_bank_cycle[b] == now {
                conflict = 1;
            }
            port.l1d_bank_cycle[b] = now;
        }
        let outcome = {
            let port = &mut self.cores[cidx];
            let is_write = kind == AccessKind::Store;
            if is_ifetch {
                port.l1i.access(addr, false)
            } else {
                port.l1d.access(addr, is_write)
            }
        };
        if outcome == AccessOutcome::Hit {
            return AccessResult::L1Hit {
                ready_at: now + self.cfg.l1_hit_cycles + tlb_penalty + conflict,
                tlb_miss,
            };
        }

        // 3. L1 miss: MSHR + request downstream.
        {
            let s = &mut self.cores[cidx].stats;
            match kind {
                AccessKind::IFetch => s.ifetch_l1_misses += 1,
                AccessKind::Load => s.load_l1_misses += 1,
                AccessKind::Store => s.store_l1_misses += 1,
            }
        }
        if self.cfg.faults.exhausts_mshr(core, now) {
            self.cores[cidx].stats.mshr_full_stalls += 1;
            return AccessResult::MshrFull;
        }
        let req = self.inflight.insert(InFlight {
            core,
            kind,
            addr,
            issued_at: now,
            tlb_miss,
            l2_miss_detected_at: None,
            prefetch: false,
        });
        match self.cores[cidx].mshr.allocate(line, req as u64) {
            MshrAlloc::Primary => {
                let release_at = now + self.cfg.l1_hit_cycles + tlb_penalty + conflict;
                self.schedule_release(
                    release_at,
                    core,
                    BusItem::Demand {
                        req,
                        addr: line,
                        write: kind == AccessKind::Store,
                    },
                );
                if self.cfg.next_line_prefetch && kind == AccessKind::Load {
                    self.issue_prefetch(core, line + LINE_BYTES_U64, release_at);
                }
                let occupancy = self.cores[cidx].mshr.occupancy() as u32;
                if let Some(ring) = &mut self.trace {
                    ring.emit(
                        now,
                        TraceEvent::MshrAlloc {
                            core,
                            merged: false,
                            occupancy,
                        },
                    );
                }
                AccessResult::Miss { req, tlb_miss }
            }
            MshrAlloc::Merged => {
                self.cores[cidx].stats.mshr_merges += 1;
                let occupancy = self.cores[cidx].mshr.occupancy() as u32;
                if let Some(ring) = &mut self.trace {
                    ring.emit(
                        now,
                        TraceEvent::MshrAlloc {
                            core,
                            merged: true,
                            occupancy,
                        },
                    );
                }
                AccessResult::Miss { req, tlb_miss }
            }
            MshrAlloc::Full => {
                self.inflight.remove(req);
                self.cores[cidx].stats.mshr_full_stalls += 1;
                AccessResult::MshrFull
            }
        }
    }

    /// Advance the hierarchy one cycle.
    pub fn tick(&mut self, now: u64) {
        // 1. Move matured L1-miss requests onto their cluster's bus.
        while let Some(Reverse(r)) = self.release_heap.peek() {
            if r.at > now {
                break;
            }
            let Some(Reverse(r)) = self.release_heap.pop() else {
                break; // unreachable: peek above returned Some
            };
            // lint: allow(D3) -- heap entries and release slots are filled/freed in lockstep
            let item = self.release_items[r.item_idx].take().expect("release slot");
            self.release_free.push(r.item_idx);
            let cluster = self.cfg.cluster_of(r.core) as usize;
            let local_core = r.core % self.cfg.cores_per_cluster();
            self.buses[cluster].send(local_core, item);
        }

        // 2. Buses: grants + deliveries to their cluster's bank queues.
        let mut delivered = std::mem::take(&mut self.bus_scratch);
        for cluster in 0..self.buses.len() {
            self.buses[cluster].tick_into(now, &mut delivered);
            for msg in delivered.drain(..) {
                match msg.payload {
                    BusItem::Demand { req, addr, write } => {
                        let bank = self.bank_index(cluster as u32, addr);
                        self.banks[bank].enqueue(
                            BankToken::Demand(req),
                            addr,
                            BankOp::Demand { write },
                        );
                        let depth = self.banks[bank].queued() as u32;
                        if let Some(ring) = &mut self.trace {
                            ring.emit(
                                now,
                                TraceEvent::L2BankEnqueue {
                                    bank: bank as u32,
                                    depth,
                                },
                            );
                        }
                    }
                    BusItem::Writeback { addr } => {
                        let bank = self.bank_index(cluster as u32, addr);
                        self.banks[bank].enqueue(BankToken::Writeback, addr, BankOp::Writeback);
                        let depth = self.banks[bank].queued() as u32;
                        if let Some(ring) = &mut self.trace {
                            ring.emit(
                                now,
                                TraceEvent::L2BankEnqueue {
                                    bank: bank as u32,
                                    depth,
                                },
                            );
                        }
                    }
                }
            }
        }
        self.bus_scratch = delivered;

        // 3. Banks. Completions report the cluster-local bank id (what
        // a core's MCReg file indexes by).
        for b in 0..self.banks.len() {
            if self.banks[b].idle() {
                continue; // quiet-bank fast path: a tick would be a pure no-op
            }
            if self.cfg.faults.pins_bank(b as u32, now) {
                continue;
            }
            let local_bank = (b % self.cfg.l2_banks as usize) as u32;
            if let Some((token, outcome)) = self.banks[b].tick(now) {
                match (token, outcome) {
                    (BankToken::Demand(req), BankOutcome::Hit) => {
                        self.complete_line(req, local_bank, true, now);
                    }
                    (BankToken::Demand(req), BankOutcome::Miss) => {
                        // Record detection and fetch from memory.
                        if let Some(fl) = self.inflight.get_mut(req) {
                            fl.l2_miss_detected_at = Some(now);
                            let core = fl.core as usize;
                            let line = line_base(fl.addr);
                            // Notify every request waiting on this line
                            // (merged MSHR waiters miss the L2 too).
                            // Copied into scratch: the MSHR borrow must
                            // end before the event pushes on the same
                            // core port.
                            let mut waiters = std::mem::take(&mut self.waiter_scratch);
                            waiters.clear();
                            waiters.extend_from_slice(
                                self.cores[core].mshr.waiters(line).unwrap_or(&[]),
                            );
                            for &w in &waiters {
                                self.cores[core].events.push(MemEvent::L2MissDetected {
                                    req: w as ReqId,
                                    at: now,
                                });
                            }
                            self.waiter_scratch = waiters;
                        }
                        self.dram.request(now, DramToken::Demand(req));
                    }
                    (BankToken::Fill { core }, BankOutcome::FillDone(victim)) => {
                        if victim.is_some() {
                            // L2 dirty victim: write to memory,
                            // fire-and-forget (DRAM write bandwidth is
                            // not modelled, matching the paper's setup).
                            let _ = core;
                        }
                    }
                    (BankToken::Writeback, BankOutcome::WritebackAbsorbed(_present)) => {
                        // Absent lines would be forwarded to memory;
                        // writes are fire-and-forget.
                    }
                    (t, o) => {
                        // lint: allow(D11) -- bank enqueue pairs each token kind with its op; a mismatch is a modelling bug
                        unreachable!("inconsistent bank token/outcome: {t:?} vs {o:?}")
                    }
                }
            }
        }

        // 4. Main memory returns.
        let mut dram_done = std::mem::take(&mut self.dram_scratch);
        self.dram.tick_into(now, &mut dram_done);
        for token in dram_done.drain(..) {
            if self.cfg.faults.drops_dram(now) {
                // Swallow the response: the MSHR entry waiting on it
                // leaks deliberately, which is exactly the livelock the
                // watchdog must diagnose.
                continue;
            }
            match token {
                DramToken::Demand(req) => {
                    let (bank, line, core, issued_at) = match self.inflight.get(req) {
                        Some(fl) => {
                            let cluster = self.cfg.cluster_of(fl.core);
                            (
                                self.bank_index(cluster, fl.addr),
                                line_base(fl.addr),
                                fl.core,
                                fl.issued_at,
                            )
                        }
                        None => continue,
                    };
                    self.dram_round_trips += 1;
                    if let Some(ring) = &mut self.trace {
                        ring.emit(
                            now,
                            TraceEvent::DramRoundTrip {
                                core,
                                latency: now.saturating_sub(issued_at),
                            },
                        );
                    }
                    // Install in L2 (occupies the bank port) and hand the
                    // data to the core right away (critical-word-first
                    // forwarding past the fill).
                    self.banks[bank].enqueue(
                        BankToken::Fill { core },
                        line,
                        BankOp::Fill { dirty: false },
                    );
                    self.complete_line(req, (bank % self.cfg.l2_banks as usize) as u32, false, now);
                }
            }
        }
        self.dram_scratch = dram_done;
    }

    /// Earliest cycle ≥ `from` at which a [`Self::tick`] would do
    /// observable work, assuming no new accesses arrive: the next
    /// release-heap maturity, bus grant or delivery, bank completion,
    /// or DRAM return. `u64::MAX` means the hierarchy is fully
    /// drained. This is the memory half of the stall skip-ahead
    /// horizon (DESIGN.md §16). Completions or events still awaiting a
    /// core's drain conservatively pin the horizon to `from`.
    pub fn next_event_cycle(&self, from: u64) -> u64 {
        if self
            .cores
            .iter()
            .any(|p| !p.outbox.is_empty() || !p.events.is_empty())
        {
            return from;
        }
        let mut at = match self.release_heap.peek() {
            Some(Reverse(r)) => r.at.max(from),
            None => u64::MAX,
        };
        for bus in &self.buses {
            at = at.min(bus.next_event_cycle(from));
        }
        for bank in &self.banks {
            at = at.min(bank.next_event_cycle(from));
        }
        at.min(self.dram.next_event_cycle(from))
    }

    /// Finish the line of `req`: complete all MSHR waiters, refill L1.
    fn complete_line(&mut self, req: ReqId, bank: u32, l2_hit: bool, now: u64) {
        let fl = match self.inflight.get(req) {
            Some(f) => *f,
            None => return,
        };
        let cidx = fl.core as usize;
        let line = line_base(fl.addr);
        {
            let s = &mut self.cores[cidx].stats;
            if l2_hit {
                s.l2_hits += 1;
            } else {
                s.l2_misses += 1;
            }
        }
        let entry = match self.cores[cidx].mshr.complete(line) {
            Some(e) => e,
            None => return,
        };
        let occupancy = self.cores[cidx].mshr.occupancy() as u32;
        if let Some(ring) = &mut self.trace {
            ring.emit(
                now,
                TraceEvent::MshrRetire {
                    core: fl.core,
                    occupancy,
                },
            );
        }

        // Refill the right L1 once; stores install dirty lines.
        let mut fill_dirty = false;
        let mut any_ifetch = false;
        for &w in &entry.waiters {
            if let Some(infl) = self.inflight.get(w as ReqId) {
                match infl.kind {
                    AccessKind::Store => fill_dirty = true,
                    AccessKind::IFetch => any_ifetch = true,
                    AccessKind::Load => {}
                }
            }
        }
        let victim = {
            let port = &mut self.cores[cidx];
            if any_ifetch {
                port.l1i.fill(line, false)
            } else {
                port.l1d.fill(line, fill_dirty)
            }
        };
        if let Some(victim_addr) = victim {
            self.cores[cidx].stats.writebacks += 1;
            // Dirty L1 victim travels back over the bus to the L2.
            self.schedule_release(now, fl.core, BusItem::Writeback { addr: victim_addr });
        }

        // Complete every waiter.
        for &w in &entry.waiters {
            let w = w as ReqId;
            if let Some(infl) = self.inflight.remove(w) {
                let completion = Completion {
                    req: w,
                    core: infl.core,
                    kind: infl.kind,
                    addr: infl.addr,
                    bank,
                    l2_hit,
                    issued_at: infl.issued_at,
                    completed_at: now,
                    l2_miss_detected_at: if l2_hit {
                        None
                    } else {
                        // Merged waiters share the primary's detection.
                        fl.l2_miss_detected_at
                    },
                    tlb_miss: infl.tlb_miss,
                };
                if infl.prefetch {
                    continue; // prefetches fill caches silently
                }
                if l2_hit && infl.kind == AccessKind::Load {
                    self.l2_hit_hist.record(completion.latency());
                }
                self.total_completions += 1;
                self.cores[cidx].outbox.push(completion);
            }
        }
        self.cores[cidx].mshr.recycle(entry.waiters);
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

    /// Distribution of L2-hit service times for loads (Fig. 4).
    pub fn l2_hit_histogram(&self) -> &LatencyHistogram {
        &self.l2_hit_hist
    }

    /// Per-bank L2 `(hits, misses)` tuples (feeds the
    /// `mem.l2.bank_miss_rate` metric).
    pub fn bank_cache_stats(&self) -> Vec<(u64, u64)> {
        self.banks.iter().map(|b| b.cache_stats()).collect()
    }

    /// Demand responses DRAM has returned so far (feeds the
    /// `mem.dram.round_trips` metric).
    pub fn dram_round_trips(&self) -> u64 {
        self.dram_round_trips
    }

    /// Start recording trace events into a ring keeping the most
    /// recent `capacity` records (DESIGN.md §12). Off by default; the
    /// disabled path costs one branch per instrumentation point.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(EventRing::new(capacity));
    }

    /// The memory system's event ring (`None` unless
    /// [`Self::enable_trace`] was called).
    pub fn trace(&self) -> Option<&EventRing> {
        self.trace.as_ref()
    }

    /// Requests still in flight (diagnostics; should drain to ~0 at the
    /// end of a quiesced simulation).
    pub fn inflight_count(&self) -> usize {
        self.inflight.len()
    }

    /// Total completions delivered.
    pub fn total_completions(&self) -> u64 {
        self.total_completions
    }

    /// Warm `[base, base + bytes)` into the hierarchy without spending
    /// simulated time or touching statistics: `region`'s L1 and TLB of
    /// `core`, and its cluster's shared L2 banks.
    ///
    /// Trace-driven methodology: the paper simulates the most
    /// representative 300M-instruction SimPoint segment of each
    /// benchmark, i.e. the caches start *warm*. Drivers use this to
    /// reproduce that starting condition before measurement.
    ///
    /// The range covers one line per 64 bytes from the line holding
    /// `base`. The region's L1 takes those lines and its TLB every page
    /// overlapping the range; lines interleave across the banks, so bank
    /// `k` of the range takes every `l2_banks`-th line from the range's
    /// `k`-th. Every cache sees its lines in ascending order, as a
    /// line-by-line warm would.
    pub fn prewarm_range(&mut self, core: u32, region: WarmRegion, base: u64, bytes: u64) {
        let lines = bytes.div_ceil(LINE_BYTES);
        let port = &mut self.cores[core as usize];
        let tlb = match region {
            WarmRegion::Code => {
                port.l1i.fill_lines(base, lines, 1);
                &mut port.itlb
            }
            WarmRegion::L1Data => {
                port.l1d.fill_lines(base, lines, 1);
                &mut port.dtlb
            }
            WarmRegion::L2Data => &mut port.dtlb,
        };
        let mut page = page_base(base);
        while page < base + bytes {
            tlb.access(page);
            page += PAGE_BYTES;
        }
        let banks = self.cfg.l2_banks as u64;
        let cluster = self.cfg.cluster_of(core);
        for k in 0..banks.min(lines) {
            let first = (line_index(base) + k) * LINE_BYTES;
            let bank = self.bank_index(cluster, first);
            self.banks[bank].prewarm_lines(first, (lines - k).div_ceil(banks), banks);
        }
    }

    /// Test/diagnostic access to `core`'s private tag state:
    /// `(L1I, L1D, I-TLB, D-TLB)`.
    pub fn debug_core_tags(&self, core: u32) -> (&SetAssocCache, &SetAssocCache, &Tlb, &Tlb) {
        let p = &self.cores[core as usize];
        (&p.l1i, &p.l1d, &p.itlb, &p.dtlb)
    }

    /// Test/diagnostic access to the tag array of L2 bank `bank`
    /// (`cluster * l2_banks + line bank`).
    pub fn debug_bank_tags(&self, bank: usize) -> &SetAssocCache {
        self.banks[bank].cache()
    }

    /// Diagnostic: per-core MSHR occupancy and tracked lines.
    pub fn debug_mshr(&self, core: u32) -> (usize, bool) {
        let m = &self.cores[core as usize].mshr;
        (m.occupancy(), m.is_full())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All completions delivered to `core` so far.
    fn drained(m: &mut MemorySystem, core: u32) -> Vec<Completion> {
        let mut out = Vec::new();
        m.drain_completions_into(core, &mut out);
        out
    }

    fn sys(cores: u32) -> MemorySystem {
        MemorySystem::new(MemConfig::paper(cores))
    }

    /// Tick `cycles` with nothing issued, letting pending L2 fills and
    /// writebacks drain so later latency measurements are uncontended.
    fn settle(m: &mut MemorySystem, now: u64, cycles: u64) -> u64 {
        for t in now + 1..=now + cycles {
            m.tick(t);
        }
        now + cycles
    }

    /// Run until the given request completes; returns the completion.
    fn run_until_complete(
        m: &mut MemorySystem,
        core: u32,
        req: ReqId,
        mut now: u64,
    ) -> (Completion, u64) {
        for _ in 0..100_000 {
            now += 1;
            m.tick(now);
            let done = drained(m, core);
            if let Some(c) = done.iter().find(|c| c.req == req) {
                return (*c, now);
            }
        }
        panic!("request never completed");
    }

    #[test]
    fn config_latency_identities() {
        let cfg = MemConfig::paper(4);
        assert_eq!(cfg.l1_miss_nominal(), 22);
        assert_eq!(cfg.l2_miss_nominal(), 272);
        assert_eq!(cfg.multicore_traffic_delay(), (4 + 15) * 3);
        cfg.validate().unwrap();
    }

    #[test]
    fn first_access_misses_to_dram_with_nominal_latency() {
        let mut m = sys(1);
        let r = m.access(0, AccessKind::Load, 0x5000, 0);
        let req = match r {
            AccessResult::Miss { req, tlb_miss } => {
                assert!(tlb_miss, "cold TLB");
                req
            }
            other => panic!("expected miss, got {other:?}"),
        };
        let (c, _) = run_until_complete(&mut m, 0, req, 0);
        assert!(!c.l2_hit);
        // 300 TLB + 3 L1 + 4 bus + 15 bank (miss detect) + 250 DRAM = 572.
        assert_eq!(c.latency(), 572);
        assert_eq!(c.l2_miss_detected_at, Some(300 + 3 + 4 + 15));
    }

    #[test]
    fn warm_access_is_l1_hit() {
        let mut m = sys(1);
        let r = m.access(0, AccessKind::Load, 0x5000, 0);
        let req = match r {
            AccessResult::Miss { req, .. } => req,
            _ => panic!(),
        };
        let (_, done_at) = run_until_complete(&mut m, 0, req, 0);
        let r2 = m.access(0, AccessKind::Load, 0x5000, done_at + 1);
        match r2 {
            AccessResult::L1Hit { ready_at, tlb_miss } => {
                assert!(!tlb_miss);
                assert_eq!(ready_at, done_at + 1 + 3);
            }
            other => panic!("expected L1 hit, got {other:?}"),
        }
    }

    #[test]
    fn l2_hit_after_l1_eviction_takes_22_cycles() {
        let mut m = sys(1);
        // Warm TLB + caches for the target line.
        let req = match m.access(0, AccessKind::Load, 0x8000, 0) {
            AccessResult::Miss { req, .. } => req,
            _ => panic!(),
        };
        let (_, mut now) = run_until_complete(&mut m, 0, req, 0);
        // Evict 0x8000 from L1D by filling its set (L1D: 32KB 4-way =
        // 128 sets; same set every 128 lines = 8192 bytes).
        for i in 1..=4u64 {
            now += 1;
            let a = 0x8000 + i * 8192;
            match m.access(0, AccessKind::Load, a, now) {
                AccessResult::Miss { req, .. } => {
                    let (_, t) = run_until_complete(&mut m, 0, req, now);
                    now = t;
                }
                AccessResult::L1Hit { .. } => {}
                AccessResult::MshrFull => panic!("mshr full"),
            }
        }
        // Now 0x8000 must be out of L1 but in L2. Let fills drain first.
        now = settle(&mut m, now, 50);
        now += 1;
        let req = match m.access(0, AccessKind::Load, 0x8000, now) {
            AccessResult::Miss { req, tlb_miss } => {
                assert!(!tlb_miss);
                req
            }
            other => panic!("expected L1 miss, got {other:?}"),
        };
        let (c, _) = run_until_complete(&mut m, 0, req, now);
        assert!(c.l2_hit, "line must hit in L2");
        assert_eq!(c.latency(), 22, "uncontended L2 hit = 3+4+15");
    }

    #[test]
    fn mshr_merges_same_line() {
        let mut m = sys(1);
        let r1 = m.access(0, AccessKind::Load, 0x9000, 0);
        let r2 = m.access(0, AccessKind::Load, 0x9008, 0); // same line
        let (q1, q2) = match (r1, r2) {
            (AccessResult::Miss { req: a, .. }, AccessResult::Miss { req: b, .. }) => (a, b),
            other => panic!("{other:?}"),
        };
        let (c1, t) = run_until_complete(&mut m, 0, q1, 0);
        // Both complete in the same cycle (merged).
        let _ = c1;
        let mut found = false;
        // q2 completed in the same drain as q1 — re-check outbox history:
        // run_until_complete drained it, so issue a fresh check: the line
        // is now in L1.
        if let AccessResult::L1Hit { .. } = m.access(0, AccessKind::Load, 0x9008, t + 1) {
            found = true
        }
        assert!(found, "merged waiter's line must be resident");
        assert_eq!(m.stats().cores[0].mshr_merges, 1);
        let _ = q2;
    }

    #[test]
    fn mshr_fills_up_and_rejects() {
        let mut m = sys(1);
        // 16 entries; issue 17 distinct-line misses in one cycle.
        let mut rejected = false;
        for i in 0..17u64 {
            match m.access(0, AccessKind::Load, 0x10_0000 + i * 64, 0) {
                AccessResult::Miss { .. } => {}
                AccessResult::MshrFull => {
                    rejected = true;
                    assert_eq!(i, 16, "reject exactly at capacity");
                }
                AccessResult::L1Hit { .. } => panic!("cold cache cannot hit"),
            }
        }
        assert!(rejected);
        assert_eq!(m.stats().cores[0].mshr_full_stalls, 1);
    }

    #[test]
    fn bank_contention_raises_l2_hit_latency() {
        // Warm one L2 bank with lines, evict them from L1, then hammer
        // the bank from 4 cores at once: later hits must queue.
        let mut m = sys(4);
        let mut now = 0u64;
        // Each core warms a distinct line, all mapping to bank 0
        // (line index multiple of 4).
        let line_of = |i: u64| 0x40_0000 + i * 4 * 64; // bank 0
        for core in 0..4u32 {
            let req = match m.access(core, AccessKind::Load, line_of(core as u64), now) {
                AccessResult::Miss { req, .. } => req,
                _ => panic!(),
            };
            let (_, t) = run_until_complete(&mut m, core, req, now);
            now = t;
        }
        // Evict from each L1 (fill the set with conflicting lines).
        for core in 0..4u32 {
            for i in 1..=4u64 {
                now += 1;
                let a = line_of(core as u64) + i * 8192 * 4; // same L1 set, bank 0
                if let AccessResult::Miss { req, .. } = m.access(core, AccessKind::Load, a, now) {
                    let (_, t) = run_until_complete(&mut m, core, req, now);
                    now = t;
                }
            }
        }
        // Simultaneous L2 hits from all 4 cores to bank 0 (after all
        // pending fills have drained).
        now = settle(&mut m, now, 100);
        now += 1;
        let mut reqs = Vec::new();
        for core in 0..4u32 {
            match m.access(core, AccessKind::Load, line_of(core as u64), now) {
                AccessResult::Miss { req, .. } => reqs.push((core, req)),
                other => panic!("core {core}: {other:?}"),
            }
        }
        let mut latencies = Vec::new();
        for (core, req) in reqs {
            // Completions may already be drained by earlier loops — run a
            // fresh wait for each request with its own clock.
            let mut t = now;
            'outer: for _ in 0..10_000 {
                t += 1;
                m.tick(t);
                for c in drained(&mut m, core) {
                    if c.req == req {
                        assert!(c.l2_hit, "expected L2 hit");
                        latencies.push(c.latency());
                        break 'outer;
                    }
                }
            }
        }
        assert_eq!(latencies.len(), 4, "all four hits must complete");
        latencies.sort_unstable();
        assert_eq!(latencies[0], 22, "first served is uncontended");
        assert!(
            *latencies.last().unwrap() >= 22 + 45,
            "fourth consecutive hit to one bank must wait ≥45 extra cycles, got {latencies:?}"
        );
    }

    #[test]
    fn l2_hit_histogram_collects_load_hits() {
        let mut m = sys(1);
        let mut now = 0;
        // Warm a line into L2, evict from L1, re-touch.
        let req = match m.access(0, AccessKind::Load, 0x8000, now) {
            AccessResult::Miss { req, .. } => req,
            _ => panic!(),
        };
        let (_, t) = run_until_complete(&mut m, 0, req, now);
        now = t;
        for i in 1..=4u64 {
            now += 1;
            if let AccessResult::Miss { req, .. } =
                m.access(0, AccessKind::Load, 0x8000 + i * 8192, now)
            {
                let (_, t) = run_until_complete(&mut m, 0, req, now);
                now = t;
            }
        }
        now = settle(&mut m, now, 50);
        now += 1;
        if let AccessResult::Miss { req, .. } = m.access(0, AccessKind::Load, 0x8000, now) {
            run_until_complete(&mut m, 0, req, now);
        }
        assert_eq!(m.l2_hit_histogram().count(), 1);
        assert_eq!(m.l2_hit_histogram().mean(), 22.0);
    }

    #[test]
    fn ifetch_uses_its_own_l1() {
        let mut m = sys(1);
        let req = match m.access(0, AccessKind::IFetch, 0x40_0000, 0) {
            AccessResult::Miss { req, .. } => req,
            _ => panic!(),
        };
        let (_, t) = run_until_complete(&mut m, 0, req, 0);
        // Now in L1I…
        match m.access(0, AccessKind::IFetch, 0x40_0000, t + 1) {
            AccessResult::L1Hit { .. } => {}
            other => panic!("{other:?}"),
        }
        // …but not in L1D.
        match m.access(0, AccessKind::Load, 0x40_0000, t + 2) {
            AccessResult::Miss { .. } => {}
            other => panic!("expected L1D miss: {other:?}"),
        }
    }

    #[test]
    fn stats_accumulate_sensibly() {
        let mut m = sys(2);
        m.access(0, AccessKind::Load, 0x1000, 0);
        m.access(1, AccessKind::Store, 0x2000, 0);
        m.access(0, AccessKind::IFetch, 0x40_0000, 0);
        let s = m.stats();
        assert_eq!(s.total(|c| c.loads), 1);
        assert_eq!(s.total(|c| c.stores), 1);
        assert_eq!(s.total(|c| c.ifetches), 1);
        assert_eq!(s.cores[0].loads, 1);
        assert_eq!(s.cores[1].stores, 1);
    }

    #[test]
    fn next_line_prefetch_fills_the_following_line() {
        let mut cfg = MemConfig::paper(1);
        cfg.next_line_prefetch = true;
        let mut m = MemorySystem::new(cfg);
        let req = match m.access(0, AccessKind::Load, 0x9000, 0) {
            AccessResult::Miss { req, .. } => req,
            other => panic!("{other:?}"),
        };
        let (_, t) = run_until_complete(&mut m, 0, req, 0);
        // Let the prefetch land too.
        let t = settle(&mut m, t, 700);
        assert_eq!(m.stats().cores[0].prefetches, 1);
        match m.access(0, AccessKind::Load, 0x9040, t + 1) {
            AccessResult::L1Hit { .. } => {}
            other => panic!("next line not prefetched: {other:?}"),
        }
        // Prefetches deliver no completions.
        assert!(drained(&mut m, 0).is_empty());
    }

    #[test]
    fn prefetch_disabled_by_default() {
        let mut m = sys(1);
        let req = match m.access(0, AccessKind::Load, 0x9000, 0) {
            AccessResult::Miss { req, .. } => req,
            other => panic!("{other:?}"),
        };
        let (_, t) = run_until_complete(&mut m, 0, req, 0);
        let t = settle(&mut m, t, 700);
        assert_eq!(m.stats().cores[0].prefetches, 0);
        assert!(matches!(
            m.access(0, AccessKind::Load, 0x9040, t + 1),
            AccessResult::Miss { .. }
        ));
    }

    #[test]
    fn clusters_partition_cores_and_capacity() {
        let mut cfg = MemConfig::paper(4);
        cfg.l2_clusters = 2;
        cfg.validate().unwrap();
        assert_eq!(cfg.cores_per_cluster(), 2);
        assert_eq!(cfg.cluster_of(0), 0);
        assert_eq!(cfg.cluster_of(1), 0);
        assert_eq!(cfg.cluster_of(2), 1);
        assert_eq!(cfg.cluster_of(3), 1);
        // MT shrinks: only 2 cores share each L2.
        assert_eq!(cfg.multicore_traffic_delay(), 19);
        let m = MemorySystem::new(cfg);
        assert_eq!(m.bank_cache_stats().len(), 8, "2 clusters × 4 banks");
    }

    #[test]
    fn clusters_isolate_traffic() {
        // Two cores in different clusters hammering the same bank-0
        // address pattern must not queue behind each other.
        let mut cfg = MemConfig::paper(2);
        cfg.l2_clusters = 2;
        let mut m = MemorySystem::new(cfg);
        // Warm the same line set into each core's own cluster.
        for core in 0..2u32 {
            m.prewarm_range(core, WarmRegion::L2Data, 0x40_0000, 64);
        }
        let mut reqs = Vec::new();
        for core in 0..2u32 {
            match m.access(core, AccessKind::Load, 0x40_0000, 0) {
                AccessResult::Miss { req, .. } => reqs.push((core, req)),
                other => panic!("{other:?}"),
            }
        }
        // Both L2 hits complete uncontended (22 cycles; the warm also
        // installed the D-TLB page) because each cluster has its own
        // bank 0.
        let mut latencies = Vec::new();
        for (core, req) in reqs {
            let (c, _) = run_until_complete(&mut m, core, req, 0);
            assert!(c.l2_hit);
            latencies.push(c.latency());
        }
        assert_eq!(latencies[0], latencies[1], "no cross-cluster queueing");
    }

    #[test]
    fn invalid_cluster_partition_rejected() {
        let mut cfg = MemConfig::paper(3);
        cfg.l2_clusters = 2; // 3 cores don't split in 2
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn inflight_drains_when_quiesced() {
        let mut m = sys(2);
        for core in 0..2u32 {
            for i in 0..5u64 {
                m.access(
                    core,
                    AccessKind::Load,
                    0x7000 + core as u64 * 0x10_0000 + i * 64,
                    0,
                );
            }
        }
        for now in 1..5_000 {
            m.tick(now);
            drained(&mut m, 0);
            drained(&mut m, 1);
        }
        assert_eq!(m.inflight_count(), 0);
    }

    // ------------------------------------------------------------
    // Fault injection (the robustness suite's livelock triggers)
    // ------------------------------------------------------------

    #[test]
    fn dropped_dram_responses_leak_inflight_requests() {
        let mut cfg = MemConfig::paper(1);
        cfg.faults = FaultPlan::none().dropping_dram_from(0);
        cfg.validate().unwrap();
        let mut m = MemorySystem::new(cfg);
        let req = match m.access(0, AccessKind::Load, 0x5000, 0) {
            AccessResult::Miss { req, .. } => req,
            other => panic!("expected cold miss, got {other:?}"),
        };
        for now in 1..5_000 {
            m.tick(now);
            assert!(
                !drained(&mut m, 0).iter().any(|c| c.req == req),
                "swallowed DRAM response must never complete"
            );
        }
        assert!(m.inflight_count() > 0, "the request leaks by design");
        assert_eq!(m.total_completions(), 0);
    }

    #[test]
    fn dram_drops_only_arm_at_their_cycle() {
        let mut cfg = MemConfig::paper(1);
        cfg.faults = FaultPlan::none().dropping_dram_from(10_000);
        let mut m = MemorySystem::new(cfg);
        let req = match m.access(0, AccessKind::Load, 0x5000, 0) {
            AccessResult::Miss { req, .. } => req,
            other => panic!("{other:?}"),
        };
        // Well before the arm cycle: identical to the fault-free path.
        let (c, _) = run_until_complete(&mut m, 0, req, 0);
        assert_eq!(c.latency(), 572, "unarmed fault must not perturb timing");
    }

    #[test]
    fn pinned_bank_starves_its_queue() {
        let mut cfg = MemConfig::paper(1);
        cfg.l2_banks = 1; // every L2 access funnels into the pinned bank
        cfg.faults = FaultPlan::none().pinning_bank_from(0, 0);
        cfg.validate().unwrap();
        let mut m = MemorySystem::new(cfg);
        match m.access(0, AccessKind::Load, 0x5000, 0) {
            AccessResult::Miss { .. } => {}
            other => panic!("{other:?}"),
        }
        for now in 1..5_000 {
            m.tick(now);
            assert!(
                drained(&mut m, 0).is_empty(),
                "a permanently busy bank must never serve its queue"
            );
        }
        assert!(m.inflight_count() > 0);
    }

    #[test]
    fn exhausted_mshr_rejects_new_misses() {
        let mut cfg = MemConfig::paper(2);
        cfg.faults = FaultPlan::none().exhausting_mshr_from(0, 0);
        cfg.validate().unwrap();
        let mut m = MemorySystem::new(cfg);
        // Core 0 is saturated from cycle 0...
        match m.access(0, AccessKind::Load, 0x5000, 0) {
            AccessResult::MshrFull => {}
            other => panic!("expected MshrFull, got {other:?}"),
        }
        assert_eq!(m.stats().cores[0].mshr_full_stalls, 1);
        // ...while core 1 is untouched.
        match m.access(1, AccessKind::Load, 0x5000, 0) {
            AccessResult::Miss { .. } => {}
            other => panic!("core 1 must be unaffected, got {other:?}"),
        }
    }
}
