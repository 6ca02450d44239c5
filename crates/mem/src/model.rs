//! The pluggable-fidelity memory interface.
//!
//! [`MemoryModel`] is the seam between the cores and the memory
//! hierarchy: every caller that used to hold a concrete
//! [`MemorySystem`] now holds a `MemoryModel` and picks a fidelity at
//! construction time. Dispatch is a two-variant `enum` rather than a
//! `dyn` trait object — the variants are closed (a fidelity is a
//! simulator *mode*, not a plugin), enum dispatch keeps the model
//! inlinable in the per-cycle hot loop, and the measured cost gap is
//! recorded in DESIGN.md §13 (which says where the measuring tool lives).
//!
//! The refactor invariant: [`MemoryModel::Detailed`] delegates every
//! call 1:1 to the pre-existing [`MemorySystem`], so
//! `fidelity = detailed` output is byte-identical to the pre-refactor
//! simulator (enforced by `crates/core/tests/fidelity.rs`).

use crate::fastmem::FastMemory;
use crate::histogram::LatencyHistogram;
use crate::system::{
    AccessKind, AccessResult, Completion, MemConfig, MemEvent, MemStats, MemorySystem, ReqId,
    WarmRegion,
};
use smtsim_obs::EventRing;

/// Which memory implementation a simulation runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemFidelity {
    /// Cycle-level [`MemorySystem`]: MSHRs, shared bus, banked L2,
    /// DRAM queueing. The golden-figure fidelity.
    #[default]
    Detailed,
    /// Tag-array-only [`FastMemory`]: fixed latencies, no contention.
    /// Warm-up / fast-forward engine; never used for figures.
    Fast,
}

impl MemFidelity {
    /// Parse a CLI/config spelling. Accepts the canonical names only;
    /// callers turn `None` into their own "unknown fidelity" error.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "detailed" => Some(MemFidelity::Detailed),
            "fast" => Some(MemFidelity::Fast),
            _ => None,
        }
    }

    /// Canonical spelling, round-trips through [`MemFidelity::parse`].
    pub fn as_str(&self) -> &'static str {
        match self {
            MemFidelity::Detailed => "detailed",
            MemFidelity::Fast => "fast",
        }
    }
}

/// A memory hierarchy at one of the available fidelities.
///
/// The API is the union of what `smtsim-cpu` and the drivers need:
/// construction, the per-cycle `access`/`tick`/`drain_*` protocol,
/// statistics export, trace hookup, prewarming and diagnostics. Both
/// variants implement all of it; reduced-fidelity variants answer the
/// contention queries with empty/zero values rather than panicking, so
/// observability code runs unmodified at any fidelity.
// lint: allow(D5) -- one MemoryModel per simulation, so the size gap never multiplies; boxing would put a pointer chase on every access/tick
#[allow(clippy::large_enum_variant)]
pub enum MemoryModel {
    /// Full cycle-level hierarchy (the pre-refactor `MemorySystem`).
    Detailed(MemorySystem),
    /// Fixed-latency tag-only hierarchy.
    Fast(FastMemory),
}

/// Every method body below is the same one-line delegation; the macro
/// keeps the 20-odd forwarding sites honest (no variant can diverge).
macro_rules! dispatch {
    ($self:expr, $m:ident ( $($a:expr),* )) => {
        match $self {
            MemoryModel::Detailed(inner) => inner.$m($($a),*),
            MemoryModel::Fast(inner) => inner.$m($($a),*),
        }
    };
}

impl MemoryModel {
    /// Build a hierarchy of the requested fidelity. Panics on invalid
    /// configuration (same contract as [`MemorySystem::new`]).
    pub fn new(cfg: MemConfig, fidelity: MemFidelity) -> Self {
        match fidelity {
            MemFidelity::Detailed => MemoryModel::Detailed(MemorySystem::new(cfg)),
            MemFidelity::Fast => MemoryModel::Fast(FastMemory::new(cfg)),
        }
    }

    /// Shorthand for [`MemoryModel::new`] at detailed fidelity.
    pub fn detailed(cfg: MemConfig) -> Self {
        MemoryModel::new(cfg, MemFidelity::Detailed)
    }

    /// Shorthand for [`MemoryModel::new`] at fast fidelity.
    pub fn fast(cfg: MemConfig) -> Self {
        MemoryModel::new(cfg, MemFidelity::Fast)
    }

    /// The fidelity this model runs at.
    pub fn fidelity(&self) -> MemFidelity {
        match self {
            MemoryModel::Detailed(_) => MemFidelity::Detailed,
            MemoryModel::Fast(_) => MemFidelity::Fast,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &MemConfig {
        dispatch!(self, config())
    }

    /// Core `core` performs an access at cycle `now`.
    pub fn access(&mut self, core: u32, kind: AccessKind, addr: u64, now: u64) -> AccessResult {
        dispatch!(self, access(core, kind, addr, now))
    }

    /// Advance the hierarchy one cycle.
    pub fn tick(&mut self, now: u64) {
        dispatch!(self, tick(now))
    }

    /// Earliest cycle ≥ `from` at which a tick would do observable
    /// work, assuming no new accesses arrive (`u64::MAX` = drained).
    /// The memory half of the stall skip-ahead horizon (DESIGN.md
    /// §16); the fast fidelity pins it to `from`, opting out of skip.
    pub fn next_event_cycle(&self, from: u64) -> u64 {
        dispatch!(self, next_event_cycle(from))
    }

    /// Move all completions for `core` (delivered during the most
    /// recent ticks) to the end of `out`; neither buffer allocates
    /// when `out` is reused.
    pub fn drain_completions_into(&mut self, core: u32, out: &mut Vec<Completion>) {
        dispatch!(self, drain_completions_into(core, out))
    }

    /// Move all intermediate events for `core` to the end of `out`.
    pub fn drain_events_into(&mut self, core: u32, out: &mut Vec<MemEvent>) {
        dispatch!(self, drain_events_into(core, out))
    }

    /// Snapshot per-core statistics.
    pub fn stats(&self) -> MemStats {
        dispatch!(self, stats())
    }

    /// Distribution of L2-hit service times for loads (Fig. 4).
    pub fn l2_hit_histogram(&self) -> &LatencyHistogram {
        dispatch!(self, l2_hit_histogram())
    }

    /// Per-bank L2 `(hits, misses)` tuples; empty at fidelities that do
    /// not model banks.
    pub fn bank_cache_stats(&self) -> Vec<(u64, u64)> {
        dispatch!(self, bank_cache_stats())
    }

    /// Demand responses DRAM has returned so far.
    pub fn dram_round_trips(&self) -> u64 {
        dispatch!(self, dram_round_trips())
    }

    /// Start recording trace events into a ring keeping the most
    /// recent `capacity` records.
    pub fn enable_trace(&mut self, capacity: usize) {
        dispatch!(self, enable_trace(capacity))
    }

    /// The memory event ring (`None` unless [`Self::enable_trace`] was
    /// called).
    pub fn trace(&self) -> Option<&EventRing> {
        dispatch!(self, trace())
    }

    /// Requests still in flight.
    pub fn inflight_count(&self) -> usize {
        dispatch!(self, inflight_count())
    }

    /// Total completions delivered.
    pub fn total_completions(&self) -> u64 {
        dispatch!(self, total_completions())
    }

    /// Warm `[base, base + bytes)` into `region`'s caches and TLB of
    /// `core` without spending simulated time or touching statistics.
    pub fn prewarm_range(&mut self, core: u32, region: WarmRegion, base: u64, bytes: u64) {
        dispatch!(self, prewarm_range(core, region, base, bytes))
    }

    /// Diagnostic: live request ids with (core, kind, addr, issued_at).
    pub fn debug_inflight(&self) -> Vec<(ReqId, u32, AccessKind, u64, u64)> {
        dispatch!(self, debug_inflight())
    }

    /// Diagnostic: per-core MSHR occupancy and fullness; `(0, false)`
    /// at fidelities without MSHRs.
    pub fn debug_mshr(&self, core: u32) -> (usize, bool) {
        dispatch!(self, debug_mshr(core))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelity_names_round_trip() {
        for f in [MemFidelity::Detailed, MemFidelity::Fast] {
            assert_eq!(MemFidelity::parse(f.as_str()), Some(f));
        }
        assert_eq!(MemFidelity::parse("cycle-accurate"), None);
        assert_eq!(MemFidelity::parse("Fast"), None, "spellings are exact");
    }

    #[test]
    fn constructors_pick_the_right_variant() {
        let cfg = MemConfig::paper(1);
        assert_eq!(MemoryModel::detailed(cfg).fidelity(), MemFidelity::Detailed);
        assert_eq!(MemoryModel::fast(cfg).fidelity(), MemFidelity::Fast);
    }

    #[test]
    fn detailed_variant_delegates_to_memory_system() {
        // Same access against MemoryModel::Detailed and a bare
        // MemorySystem must produce identical results — the facade adds
        // no behaviour.
        let cfg = MemConfig::paper(1);
        let mut facade = MemoryModel::detailed(cfg);
        let mut bare = MemorySystem::new(cfg);
        let a = facade.access(0, AccessKind::Load, 0x2000, 0);
        let b = bare.access(0, AccessKind::Load, 0x2000, 0);
        assert_eq!(a, b);
        for now in 1..2_000 {
            facade.tick(now);
            bare.tick(now);
        }
        let (mut ca, mut cb) = (Vec::new(), Vec::new());
        facade.drain_completions_into(0, &mut ca);
        bare.drain_completions_into(0, &mut cb);
        assert_eq!(ca, cb);
        assert!(!ca.is_empty());
    }
}
