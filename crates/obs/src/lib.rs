//! Observability primitives: typed trace events, a fixed-capacity
//! event ring, and the metric-registration types.
//!
//! This crate is a dependency-free leaf so the simulator crates
//! (`smtsim-cpu`, `smtsim-mem`, `smtsim-policy`, `smtsim-energy`) can
//! emit events, register metrics and declare their reported stats
//! without pulling in the driver. It also holds the workspace's JSON
//! writer and parser ([`json`]) and the [`record!`] tables built on
//! them, so each crate declares its reported structs where it defines
//! them; `smtsim-core` re-exports [`json`] and hosts the cross-crate
//! registry aggregation and the Chrome `trace_event` exporter — see
//! DESIGN.md §9 and §12.
//!
//! Two invariants every user of this crate relies on:
//!
//! 1. **Simulated time only.** Events carry the simulated cycle they
//!    occurred on; nothing in this crate reads a clock. Same-seed runs
//!    therefore produce byte-identical traces (enforced by
//!    `crates/core/tests/obs_trace.rs`).
//! 2. **Zero cost when disabled.** Components hold an
//!    `Option<EventRing>` that is `None` unless tracing was explicitly
//!    enabled; the disabled path is a single branch and allocates
//!    nothing.
//!
//! # Example
//!
//! ```
//! use smtsim_obs::{EventRing, TraceEvent};
//!
//! let mut ring = EventRing::new(2);
//! ring.emit(10, TraceEvent::FetchSlots { core: 0, tid: 1, slots: 4 });
//! ring.emit(11, TraceEvent::Stall { core: 0, tid: 0 });
//! ring.emit(12, TraceEvent::Flush { core: 0, tid: 1, squashed: 17 });
//!
//! // Capacity 2: the oldest record was dropped, bookkeeping remembers.
//! assert_eq!(ring.len(), 2);
//! assert_eq!(ring.total(), 3);
//! assert_eq!(ring.dropped(), 1);
//! let first = ring.records().next().unwrap();
//! assert_eq!((first.cycle, first.seq), (11, 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use std::collections::VecDeque;

/// One typed simulator event, tagged with the component indices needed
/// to attribute it. Field meanings (and the JSONL/Chrome mappings) are
/// documented in DESIGN.md §12.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// Fetch slots granted to one thread in one cycle.
    FetchSlots {
        /// Core index.
        core: u32,
        /// Thread context index within the core.
        tid: u32,
        /// Instructions fetched for this thread this cycle.
        slots: u32,
    },
    /// A policy-triggered flush executed: the thread's in-flight
    /// instructions past the triggering load were squashed.
    Flush {
        /// Core index.
        core: u32,
        /// Thread context index within the core.
        tid: u32,
        /// Instructions removed (frontend + ROB) by the flush.
        squashed: u32,
    },
    /// A policy-triggered fetch stall took effect.
    Stall {
        /// Core index.
        core: u32,
        /// Thread context index within the core.
        tid: u32,
    },
    /// A thread's ROB occupancy reached a new high-water mark.
    RobHighWater {
        /// Core index.
        core: u32,
        /// Thread context index within the core.
        tid: u32,
        /// ROB entries in use at the new mark.
        occupancy: u32,
    },
    /// The core's shared issue-queue occupancy reached a new
    /// high-water mark.
    IqHighWater {
        /// Core index.
        core: u32,
        /// IQ entries in use at the new mark.
        occupancy: u32,
    },
    /// An MSHR entry was allocated (primary miss) or an access merged
    /// into an existing entry.
    MshrAlloc {
        /// Core index owning the MSHR file.
        core: u32,
        /// `true` when the access merged into an in-flight entry.
        merged: bool,
        /// MSHR entries in use after the allocation.
        occupancy: u32,
    },
    /// An MSHR entry retired because its line filled.
    MshrRetire {
        /// Core index owning the MSHR file.
        core: u32,
        /// MSHR entries in use after the retire.
        occupancy: u32,
    },
    /// A request was enqueued at a shared-L2 bank (a depth > 1 is a
    /// bank conflict: the request waits behind others).
    L2BankEnqueue {
        /// L2 bank index.
        bank: u32,
        /// Bank queue length including this request.
        depth: u32,
    },
    /// A demand miss completed its DRAM round-trip.
    DramRoundTrip {
        /// Core index that issued the demand miss.
        core: u32,
        /// Cycles from the originating access to the response.
        latency: u64,
    },
}

impl TraceEvent {
    /// Stable snake_case tag used as the `kind` field in JSONL output
    /// and the event name in Chrome `trace_event` exports.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::FetchSlots { .. } => "fetch_slots",
            TraceEvent::Flush { .. } => "flush",
            TraceEvent::Stall { .. } => "stall",
            TraceEvent::RobHighWater { .. } => "rob_high_water",
            TraceEvent::IqHighWater { .. } => "iq_high_water",
            TraceEvent::MshrAlloc { .. } => "mshr_alloc",
            TraceEvent::MshrRetire { .. } => "mshr_retire",
            TraceEvent::L2BankEnqueue { .. } => "l2_bank_enqueue",
            TraceEvent::DramRoundTrip { .. } => "dram_round_trip",
        }
    }
}

/// One recorded event: the simulated cycle it occurred on, its
/// per-ring emission sequence number, and the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated cycle of the event.
    pub cycle: u64,
    /// 0-based emission index within this ring (monotonic even across
    /// drops); merge order across rings is `(cycle, ring rank, seq)`.
    pub seq: u64,
    /// The event payload.
    pub event: TraceEvent,
}

/// A fixed-capacity ring of [`TraceRecord`]s keeping the most recent
/// `capacity` events. Overflow drops the *oldest* record — the tail of
/// a run (where a hang or a storm usually is) survives.
#[derive(Debug, Clone)]
pub struct EventRing {
    cap: usize,
    buf: VecDeque<TraceRecord>,
    total: u64,
}

impl EventRing {
    /// Create a ring keeping at most `capacity` records. A capacity of
    /// zero keeps nothing but still counts emissions.
    pub fn new(capacity: usize) -> EventRing {
        EventRing {
            cap: capacity,
            buf: VecDeque::with_capacity(capacity.min(4096)),
            total: 0,
        }
    }

    /// Record `event` at simulated `cycle`, dropping the oldest record
    /// if the ring is full.
    pub fn emit(&mut self, cycle: u64, event: TraceEvent) {
        let rec = TraceRecord {
            cycle,
            seq: self.total,
            event,
        };
        self.total += 1;
        if self.cap == 0 {
            return;
        }
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back(rec);
    }

    /// Records currently held, oldest first (emission order).
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf.iter()
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when no records are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total emissions over the ring's lifetime, drops included.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Emissions lost to capacity overflow.
    pub fn dropped(&self) -> u64 {
        self.total - self.buf.len() as u64
    }
}

/// Whether a metric accumulates (counter) or is an instantaneous /
/// per-interval reading (gauge).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Cumulative, monotonically non-decreasing total at sample time.
    Counter,
    /// Instantaneous or interval-derived value.
    Gauge,
}

impl MetricKind {
    /// Stable lowercase tag (`"counter"` / `"gauge"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// The registration record for one named metric: every sampled stat
/// has exactly one spec, declared as a `const` in its owning crate and
/// listed in that crate's `METRICS` slice. The analysis crate's rule
/// D8 cross-checks every registration against METRICS.md.
///
/// # Example
///
/// ```
/// use smtsim_obs::{MetricKind, MetricSpec};
///
/// const DEMO: MetricSpec = MetricSpec {
///     name: "demo.example_rate",
///     unit: "events/kilocycle",
///     kind: MetricKind::Gauge,
///     krate: "demo",
///     doc: "An example registration.",
///     figure: "",
/// };
/// assert_eq!(DEMO.kind.as_str(), "gauge");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    /// Dotted lowercase name, globally unique (e.g. `cpu.thread.ipc`).
    pub name: &'static str,
    /// Human-readable unit (`instr/cycle`, `entries`, `fraction`, …).
    pub unit: &'static str,
    /// Counter or gauge semantics.
    pub kind: MetricKind,
    /// Short name of the crate that registers and computes it.
    pub krate: &'static str,
    /// One-sentence description for METRICS.md.
    pub doc: &'static str,
    /// Paper figure the metric feeds (`"Fig. 4"`), or `""` if none.
    pub figure: &'static str,
}

record! {
    /// One sampled value of one metric instance at one simulated cycle.
    ///
    /// `instance` disambiguates multi-instance metrics: a global thread
    /// index for per-thread metrics, a core index for per-core, a bank
    /// index for per-bank, and `0` for machine-wide ones.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct MetricSample {
        #[counter("cycles")]
        /// Simulated cycle the sample was taken at.
        pub cycle: u64,
        #[label]
        /// Source of the line in an observability stream: always
        /// `metrics`.
        "src": &str = |_s| "metrics",
        #[label]
        /// The registered metric name (points into its [`MetricSpec`]).
        pub metric: &'static str,
        #[label]
        /// Instance index (thread / core / bank, metric-dependent).
        pub instance: u32,
        #[gauge]
        /// The sampled value. Derived from integer counters at sample
        /// time; the division is replay-stable because both operands are.
        pub value: f64,
    }
}

// ---------------------------------------------------------------------
// Serve-layer metrics (smtsim-serve)
// ---------------------------------------------------------------------
//
// The serving layer (crates/serve) cannot be depended on by
// smtsim-core, so its MetricSpec registrations live here in the leaf
// observability crate and are aggregated by `smtsim-core::obs`'s
// `all_metrics()`. Unlike the simulator metrics these are host-side
// service counters, reported by the server's `/healthz` endpoint
// rather than the interval sampler. Lint rule D8 still cross-checks
// them against METRICS.md.

/// Requests waiting in the server's bounded accept queue.
pub const METRIC_SERVE_QUEUE_DEPTH: MetricSpec = MetricSpec {
    name: "serve.queue_depth",
    unit: "requests",
    kind: MetricKind::Gauge,
    krate: "serve",
    doc: "Requests waiting in the bounded accept queue, sampled at /healthz.",
    figure: "",
};

/// Requests answered byte-identically from the fingerprint cache.
pub const METRIC_SERVE_CACHE_HITS: MetricSpec = MetricSpec {
    name: "serve.cache_hits",
    unit: "requests",
    kind: MetricKind::Counter,
    krate: "serve",
    doc: "Requests answered byte-identically from the fingerprint-keyed result cache.",
    figure: "",
};

/// Requests that missed the cache and ran a fresh simulation.
pub const METRIC_SERVE_CACHE_MISSES: MetricSpec = MetricSpec {
    name: "serve.cache_misses",
    unit: "requests",
    kind: MetricKind::Counter,
    krate: "serve",
    doc: "Requests that missed the cache (or coalesced onto an in-flight job) and simulated.",
    figure: "",
};

/// Requests shed with 429/503 + Retry-After under overload or drain.
pub const METRIC_SERVE_SHED_TOTAL: MetricSpec = MetricSpec {
    name: "serve.shed_total",
    unit: "requests",
    kind: MetricKind::Counter,
    krate: "serve",
    doc: "Requests shed with 429/503 plus Retry-After because the queue was full or the server was draining.",
    figure: "",
};

/// Connections accepted, whatever became of them.
pub const METRIC_SERVE_CONNECTIONS_TOTAL: MetricSpec = MetricSpec {
    name: "serve.connections_total",
    unit: "connections",
    kind: MetricKind::Counter,
    krate: "serve",
    doc: "Connections accepted, shed ones included; a kept-alive connection carries many requests, so this stays far below serve.requests_total under a reusing client.",
    figure: "",
};

/// Requests read whole, on any connection.
pub const METRIC_SERVE_REQUESTS_TOTAL: MetricSpec = MetricSpec {
    name: "serve.requests_total",
    unit: "requests",
    kind: MetricKind::Counter,
    krate: "serve",
    doc: "Requests read whole by a worker, on new and kept-alive connections alike (requests shed by the accept thread are not read).",
    figure: "",
};

/// Every serve-layer metric, in documentation order.
pub const SERVE_METRICS: &[MetricSpec] = &[
    METRIC_SERVE_QUEUE_DEPTH,
    METRIC_SERVE_CACHE_HITS,
    METRIC_SERVE_CACHE_MISSES,
    METRIC_SERVE_SHED_TOTAL,
    METRIC_SERVE_CONNECTIONS_TOTAL,
    METRIC_SERVE_REQUESTS_TOTAL,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let mut r = EventRing::new(3);
        for c in 0..5u64 {
            r.emit(c, TraceEvent::Stall { core: 0, tid: 0 });
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.total(), 5);
        assert_eq!(r.dropped(), 2);
        let cycles: Vec<u64> = r.records().map(|t| t.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
        let seqs: Vec<u64> = r.records().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_counts_but_keeps_nothing() {
        let mut r = EventRing::new(0);
        r.emit(
            1,
            TraceEvent::IqHighWater {
                core: 0,
                occupancy: 8,
            },
        );
        assert!(r.is_empty());
        assert_eq!(r.total(), 1);
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn kinds_are_stable_snake_case() {
        let ev = TraceEvent::L2BankEnqueue { bank: 2, depth: 3 };
        assert_eq!(ev.kind(), "l2_bank_enqueue");
        let ev = TraceEvent::DramRoundTrip {
            core: 1,
            latency: 200,
        };
        assert_eq!(ev.kind(), "dram_round_trip");
    }
}
