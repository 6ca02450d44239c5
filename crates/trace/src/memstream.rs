//! Per-thread data address stream.
//!
//! Addresses are drawn from three nested working sets (see
//! [`crate::profile::MemProfile`]). Each thread owns a private data
//! segment — SPEC2000 workloads are multiprogrammed, so co-scheduled
//! threads never share data, but they *do* compete for shared L2
//! capacity, bus slots and L2 bank ports, which is precisely the
//! contention the paper analyses.

use crate::profile::MemProfile;
use crate::rng::Xoshiro256pp;
use std::collections::VecDeque;

/// Which working set an access was drawn from.
///
/// This is the *intent* of the generator (a steering label), not a
/// promise about where the access hits: a cold cache or heavy sharing can
/// turn an `L1`-labelled access into a miss, and that is fine — the
/// memory model decides actual hits and misses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemRegion {
    /// Small hot set, expected to hit in the private L1D.
    L1,
    /// Medium set, expected to miss L1 and hit the shared L2.
    L2,
    /// Large set, expected to miss the L2 (main-memory stream).
    Mem,
}

/// Size of one synthetic data segment slot per region (the region base
/// addresses are spaced this far apart).
const REGION_SPACING: u64 = 1 << 36;

/// Base of the data address space; thread segments are placed above it.
const DATA_BASE: u64 = 0x0100_0000_0000;

/// Deterministic address stream for one thread.
#[derive(Debug, Clone)]
pub struct MemStream {
    mem: MemProfile,
    rng: Xoshiro256pp,
    /// Base address of each region for this thread.
    bases: [u64; 3],
    /// Stride cursors per region (bytes from region base).
    cursors: [u64; 3],
    /// Stride step in bytes per region.
    strides: [u64; 3],
    /// Current burstiness phase.
    bursty: bool,
    /// Recently-touched pages of the memory-resident region (LRU,
    /// newest at the back). Random draws reuse a hot page with
    /// probability [`HOT_PAGE_REUSE`]: real pointer-chasing code
    /// revisits pages often enough that the 512-entry TLB keeps most
    /// translations even though the *lines* it touches keep missing
    /// the L2.
    hot_pages: VecDeque<u64>,
}

/// Probability a random memory-region access lands on a recently used
/// page.
const HOT_PAGE_REUSE: f64 = 0.85;

/// Hot-page window size (× 8 KB pages = 512 KB of hot pages — far
/// beyond any L1, small enough that cache *lines* inside keep cycling).
const HOT_PAGES: usize = 64;

impl MemStream {
    /// Create the stream for `(seed, thread_unique)`; `thread_unique`
    /// must differ between contexts so that their data segments are
    /// disjoint.
    pub fn new(mem: &MemProfile, seed: u64, thread_unique: u64) -> Self {
        let segment = DATA_BASE + thread_unique * 4 * REGION_SPACING;
        MemStream {
            mem: *mem,
            rng: Xoshiro256pp::seed_from_u64(seed ^ (thread_unique.rotate_left(17)) ^ 0xadd7_e550),
            bases: [
                segment,
                segment + REGION_SPACING,
                segment + 2 * REGION_SPACING,
            ],
            cursors: [0; 3],
            // The L1 region strides densely (many accesses per line);
            // the larger regions use the benchmark's stride width — 64
            // walks consecutive lines across all L2 banks, larger
            // power-of-two strides revisit a single bank (Fig. 7's
            // hotspot behaviour).
            strides: [8, mem.stride_bytes, mem.stride_bytes],
            bursty: false,
            hot_pages: VecDeque::with_capacity(HOT_PAGES),
        }
    }

    /// Effective memory-resident fraction for the current phase.
    fn mem_frac_now(&self) -> f64 {
        if self.bursty {
            (self.mem.mem_frac * self.mem.burst_boost).min(0.9)
        } else {
            self.mem.mem_frac
        }
    }

    /// Draw the region for the next access.
    fn pick_region(&mut self) -> MemRegion {
        // Phase toggling first.
        if self.rng.gen::<f64>() < self.mem.phase_toggle_prob {
            self.bursty = !self.bursty;
        }
        let memf = self.mem_frac_now();
        // Renormalise: the burst boost eats into the L1 fraction.
        let l2f = self.mem.l2_frac;
        let r = self.rng.gen::<f64>();
        if r < memf {
            MemRegion::Mem
        } else if r < memf + l2f {
            MemRegion::L2
        } else {
            MemRegion::L1
        }
    }

    /// Generate the next data address.
    ///
    /// `pointer_chase` forces the access into the memory-resident region
    /// with a random (non-strided) offset — the address pattern of a
    /// linked-structure traversal.
    pub fn next_addr(&mut self, pointer_chase: bool) -> (u64, MemRegion) {
        let region = if pointer_chase {
            MemRegion::Mem
        } else {
            self.pick_region()
        };
        let (idx, size) = match region {
            MemRegion::L1 => (0usize, self.mem.l1_ws_bytes),
            MemRegion::L2 => (1, self.mem.l2_ws_bytes),
            MemRegion::Mem => (2, self.mem.mem_ws_bytes),
        };
        let strided = !pointer_chase && self.rng.gen::<f64>() < self.mem.stride_frac;
        let off = if strided {
            let c = self.cursors[idx];
            self.cursors[idx] = (c + self.strides[idx]) % size;
            c
        } else if region == MemRegion::Mem {
            self.random_mem_offset(size)
        } else {
            (self.rng.gen::<u64>() % size) & !7
        };
        (self.bases[idx] + (off & !7), region)
    }

    /// Random offset in the memory-resident region with page-level
    /// locality (see [`HOT_PAGE_REUSE`]).
    fn random_mem_offset(&mut self, size: u64) -> u64 {
        const PAGE: u64 = 8192;
        if !self.hot_pages.is_empty() && self.rng.gen::<f64>() < HOT_PAGE_REUSE {
            let i = (self.rng.gen::<u64>() as usize) % self.hot_pages.len();
            let page = self.hot_pages[i];
            return (page + (self.rng.gen::<u64>() % PAGE)) & !7;
        }
        let page = (self.rng.gen::<u64>() % size) & !(PAGE - 1);
        if self.hot_pages.len() == HOT_PAGES {
            self.hot_pages.pop_front();
        }
        self.hot_pages.push_back(page);
        page + ((self.rng.gen::<u64>() % PAGE) & !7)
    }

    /// Base addresses of the thread's [L1, L2, Mem] working-set regions
    /// (for cache warm-up by simulation drivers).
    pub fn region_bases(&self) -> [u64; 3] {
        self.bases
    }

    /// True while in a bursty phase (exposed for tests).
    pub fn is_bursty(&self) -> bool {
        self.bursty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    fn stream_for(name: &str, tid: u64) -> MemStream {
        MemStream::new(&spec::benchmark_by_name(name).unwrap().mem, 11, tid)
    }

    #[test]
    fn deterministic() {
        let mut a = stream_for("mcf", 0);
        let mut b = stream_for("mcf", 0);
        for _ in 0..1000 {
            assert_eq!(a.next_addr(false), b.next_addr(false));
        }
    }

    #[test]
    fn threads_have_disjoint_segments() {
        let mut a = stream_for("mcf", 0);
        let mut b = stream_for("mcf", 1);
        for _ in 0..200 {
            let (x, _) = a.next_addr(false);
            let (y, _) = b.next_addr(false);
            // Segments are 4*REGION_SPACING apart; addresses can never
            // collide across threads.
            assert_ne!(x & !(4 * REGION_SPACING - 1), y & !(4 * REGION_SPACING - 1));
        }
    }

    #[test]
    fn addresses_are_8_byte_aligned() {
        let mut s = stream_for("swim", 2);
        for _ in 0..2000 {
            let (a, _) = s.next_addr(false);
            assert_eq!(a % 8, 0);
        }
    }

    #[test]
    fn region_mix_tracks_profile() {
        let p = spec::benchmark_by_name("eon").unwrap();
        let mut s = MemStream::new(&p.mem, 3, 0);
        let n = 50_000;
        let mut memc = 0;
        let mut l1c = 0;
        for _ in 0..n {
            match s.next_addr(false).1 {
                MemRegion::Mem => memc += 1,
                MemRegion::L1 => l1c += 1,
                MemRegion::L2 => {}
            }
        }
        let mem_rate = memc as f64 / n as f64;
        let l1_rate = l1c as f64 / n as f64;
        // eon: mem_frac 0.002 — bursts can raise it a little.
        assert!(mem_rate < 0.02, "eon mem rate {mem_rate}");
        assert!(l1_rate > 0.9, "eon l1 rate {l1_rate}");
    }

    #[test]
    fn mcf_misses_much_more_than_eon() {
        let rate = |name: &str| {
            let mut s = stream_for(name, 0);
            let n = 50_000;
            (0..n)
                .filter(|_| matches!(s.next_addr(false).1, MemRegion::Mem))
                .count() as f64
                / n as f64
        };
        assert!(rate("mcf") > 10.0 * rate("eon"));
    }

    #[test]
    fn pointer_chase_targets_mem_region() {
        let mut s = stream_for("mcf", 0);
        for _ in 0..100 {
            let (_, r) = s.next_addr(true);
            assert_eq!(r, MemRegion::Mem);
        }
    }

    #[test]
    fn bursty_phase_toggles_eventually() {
        let mut s = stream_for("mcf", 0); // toggle prob 0.002
        let mut saw_burst = false;
        for _ in 0..20_000 {
            s.next_addr(false);
            saw_burst |= s.is_bursty();
        }
        assert!(saw_burst, "never entered a bursty phase");
    }

    #[test]
    fn strided_phases_produce_sequential_lines() {
        let p = spec::benchmark_by_name("swim").unwrap(); // stride 0.85
        let mut s = MemStream::new(&p.mem, 9, 0);
        // Collect L2-region addresses; most consecutive pairs should be
        // one stride apart thanks to the stride cursor.
        let stride = p.mem.stride_bytes;
        let mut prev: Option<u64> = None;
        let mut seq = 0;
        let mut tot = 0;
        for _ in 0..20_000 {
            let (a, r) = s.next_addr(false);
            if r == MemRegion::L2 {
                if let Some(p) = prev {
                    tot += 1;
                    if a.wrapping_sub(p) == stride {
                        seq += 1;
                    }
                }
                prev = Some(a);
            }
        }
        assert!(tot > 100);
        assert!(
            seq as f64 / tot as f64 > 0.4,
            "sequential fraction {} too low",
            seq as f64 / tot as f64
        );
    }
}
