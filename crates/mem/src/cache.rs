//! Generic set-associative cache model.
//!
//! Tag-array-only (trace-driven simulators carry no data), with exact
//! LRU replacement. Supports the geometries of Fig. 1 — including the
//! L2's 12 ways, which forces a non-power-of-two set count (handled by
//! modulo indexing).

use crate::addr::{line_index, LINE_BYTES};

/// Size/shape of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes (64 across the paper's hierarchy).
    pub line_bytes: u32,
}

impl CacheGeometry {
    /// Number of sets (capacity / (ways × line)). Rounded down for
    /// non-power-of-two shapes like the paper's 12-way L2.
    pub fn sets(&self) -> u64 {
        (self.bytes / (self.ways as u64 * self.line_bytes as u64)).max(1)
    }

    /// Validate the geometry.
    pub fn validate(&self) -> Result<(), String> {
        if self.line_bytes as u64 != LINE_BYTES {
            return Err(format!(
                "line_bytes {} unsupported (hierarchy uses {LINE_BYTES})",
                self.line_bytes
            ));
        }
        if self.ways == 0 {
            return Err("ways == 0".into());
        }
        if self.bytes < self.ways as u64 * self.line_bytes as u64 {
            return Err("capacity smaller than one set".into());
        }
        Ok(())
    }
}

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    Hit,
    Miss,
}

/// Low bits of [`Line::meta`]; the use stamp sits above them.
const VALID: u64 = 1;
const DIRTY: u64 = 2;

/// One tag-array entry in 16 bytes: the tag and one metadata word,
/// `meta = last_use << 2 | dirty << 1 | valid`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Line {
    tag: u64,
    meta: u64,
}

impl Line {
    #[inline]
    fn valid(&self) -> bool {
        self.meta & VALID != 0
    }

    #[inline]
    fn dirty(&self) -> bool {
        self.meta & DIRTY != 0
    }

    #[inline]
    fn last_use(&self) -> u64 {
        self.meta >> 2
    }

    #[inline]
    fn holds(&self, tag: u64) -> bool {
        self.valid() && self.tag == tag
    }

    /// Refresh a resident line: new stamp, dirty bit sticky.
    #[inline]
    fn touch(&mut self, stamp: u64, dirty: bool) {
        self.meta = stamp << 2 | (self.meta & DIRTY) | (dirty as u64) << 1 | VALID;
    }
}

/// Tag-only set-associative cache.
#[derive(Debug, Clone, PartialEq)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    sets: u64,
    ways: usize,
    lines: Vec<Line>,
    stamp: u64,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Build an empty cache. Panics on invalid geometry (construction is
    /// configuration time, not simulation time).
    pub fn new(geometry: CacheGeometry) -> Self {
        geometry.validate().expect("invalid cache geometry");
        let sets = geometry.sets();
        let ways = geometry.ways as usize;
        SetAssocCache {
            geometry,
            sets,
            ways,
            lines: vec![Line::default(); (sets as usize) * ways],
            stamp: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// `(set, tag)` of `addr`.
    #[inline]
    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = line_index(addr);
        ((line % self.sets) as usize, line / self.sets)
    }

    #[inline]
    fn set_slice(&mut self, set: usize) -> &mut [Line] {
        let start = set * self.ways;
        &mut self.lines[start..start + self.ways]
    }

    /// Probe without updating replacement state or stats (used by tag
    /// checks that should not disturb LRU, e.g. MSHR merging checks).
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        let start = set * self.ways;
        self.lines[start..start + self.ways]
            .iter()
            .any(|l| l.holds(tag))
    }

    /// Access `addr`; on a hit, update recency (and the dirty bit for
    /// writes). Misses do **not** allocate — call [`SetAssocCache::fill`]
    /// when the refill arrives, as a real cache would.
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
        self.stamp += 1;
        let stamp = self.stamp;
        let (set, tag) = self.locate(addr);
        for l in self.set_slice(set) {
            if l.holds(tag) {
                l.touch(stamp, is_write);
                self.hits += 1;
                return AccessOutcome::Hit;
            }
        }
        self.misses += 1;
        AccessOutcome::Miss
    }

    /// Install the line for `addr`. Returns the evicted line's base
    /// address if a **dirty** line had to be written back.
    pub fn fill(&mut self, addr: u64, dirty: bool) -> Option<u64> {
        let (set, tag) = self.locate(addr);
        self.fill_at(set, tag, dirty)
    }

    /// Install `count` clean lines: the line holding `first`, then every
    /// `step`-th line after it, in ascending order — the same state as
    /// that many [`SetAssocCache::fill`] calls, with the set and tag
    /// carried forward instead of divided out per line. Dirty victims
    /// are dropped without a writeback (cache warm-up runs before any
    /// line is written).
    pub fn fill_lines(&mut self, first: u64, count: u64, step: u64) {
        let (mut set, mut tag) = self.locate(first);
        let sets = self.sets as usize;
        let (tag_step, set_step) = (step / self.sets, (step % self.sets) as usize);
        for _ in 0..count {
            let _ = self.fill_at(set, tag, false);
            set += set_step;
            tag += tag_step;
            if set >= sets {
                set -= sets;
                tag += 1;
            }
        }
    }

    fn fill_at(&mut self, set: usize, tag: u64, dirty: bool) -> Option<u64> {
        self.stamp += 1;
        let stamp = self.stamp;
        let slice_start = set * self.ways;

        // One scan: an already-present line (e.g. racing fills after an
        // MSHR merge) is just refreshed; otherwise note the first
        // invalid way.
        let mut free = None;
        for (i, l) in self.set_slice(set).iter_mut().enumerate() {
            if l.holds(tag) {
                l.touch(stamp, dirty);
                return None;
            }
            if free.is_none() && !l.valid() {
                free = Some(i);
            }
        }
        // Pick a victim: first invalid way, else the LRU way.
        // `unwrap_or(0)` never fires: a set has ≥ 1 way by geometry
        // validation, and way 0 is a sound victim.
        let victim_idx = free.unwrap_or_else(|| {
            self.lines[slice_start..slice_start + self.ways]
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.last_use())
                .map(|(i, _)| i)
                .unwrap_or(0)
        });
        let victim = &mut self.lines[slice_start + victim_idx];
        let writeback = if victim.valid() && victim.dirty() {
            // Reconstruct the victim's base address from (tag, set).
            Some((victim.tag * self.sets + set as u64) * LINE_BYTES)
        } else {
            None
        };
        *victim = Line {
            tag,
            meta: stamp << 2 | (dirty as u64) << 1 | VALID,
        };
        writeback
    }

    /// Invalidate the line holding `addr`, if present. Returns true when
    /// a line was invalidated.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        for l in self.set_slice(set) {
            if l.holds(tag) {
                l.meta &= !VALID;
                return true;
            }
        }
        false
    }

    /// (hits, misses) recorded by [`SetAssocCache::access`].
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of valid lines (for tests / occupancy reporting).
    pub fn valid_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.valid()).count()
    }

    /// Total line slots.
    pub fn capacity_lines(&self) -> usize {
        self.lines.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache(ways: u32) -> SetAssocCache {
        SetAssocCache::new(CacheGeometry {
            bytes: 4 * ways as u64 * 64, // 4 sets
            ways,
            line_bytes: 64,
        })
    }

    #[test]
    fn tag_lines_pack_into_16_bytes() {
        assert_eq!(std::mem::size_of::<Line>(), 16);
    }

    #[test]
    fn refresh_keeps_the_dirty_bit() {
        let mut c = small_cache(1);
        c.fill(0, true);
        assert_eq!(c.fill(0, false), None, "refill of a resident line");
        assert_eq!(c.access(0, false), AccessOutcome::Hit, "read hit");
        assert_eq!(c.fill(4 * 64, false), Some(0), "still dirty after refreshes");
    }

    #[test]
    fn invalidate_keeps_the_lru_order_of_other_ways() {
        let mut c = small_cache(4); // 4 sets × 4 ways; set 0 = lines 0, 4, 8, ...
        let line = |i: u64| i * 4 * 64;
        for i in 0..4 {
            c.fill(line(i), false);
        }
        c.access(line(0), false); // recency, oldest first: 1, 2, 3, 0
        assert!(c.invalidate(line(2)));
        c.fill(line(4), false); // takes the invalidated way
        assert!(c.probe(line(1)) && c.probe(line(3)) && c.probe(line(0)));
        c.fill(line(5), false); // evicts 1, the oldest survivor
        assert!(!c.probe(line(1)));
        c.fill(line(6), false); // then 3
        assert!(!c.probe(line(3)));
        assert!(c.probe(line(0)) && c.probe(line(4)));
    }

    #[test]
    fn dirty_victim_writeback_address_in_a_12_way_bank() {
        // Non-power-of-two set count: the victim address is rebuilt
        // from (tag, set), so a large tag must survive the packing.
        let mut c = SetAssocCache::new(CacheGeometry {
            bytes: 1 << 20,
            ways: 12,
            line_bytes: 64,
        });
        let span = c.geometry().sets() * 64; // same set, next tag
        let dirty = 0x7_1234_5000 + 17 * 64;
        c.fill(dirty, true);
        for k in 1..12 {
            assert_eq!(c.fill(dirty + k * span, false), None);
        }
        assert_eq!(c.fill(dirty + 12 * span, false), Some(dirty));
    }

    #[test]
    fn geometry_of_paper_l2_bank() {
        // One of the 4 banks of the 4 MB 12-way L2: 1 MB, 12-way.
        let g = CacheGeometry {
            bytes: 1 << 20,
            ways: 12,
            line_bytes: 64,
        };
        g.validate().unwrap();
        assert_eq!(g.sets(), (1u64 << 20) / (12 * 64));
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small_cache(2);
        assert_eq!(c.access(0x1000, false), AccessOutcome::Miss);
        assert!(c.fill(0x1000, false).is_none());
        assert_eq!(c.access(0x1000, false), AccessOutcome::Hit);
        assert!(c.probe(0x1000));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small_cache(2); // 4 sets × 2 ways
        // Three lines mapping to set 0: line indices 0, 4, 8.
        let (a, b, x) = (0u64, 4 * 64, 8 * 64);
        c.fill(a, false);
        c.fill(b, false);
        c.access(a, false); // a most recent
        c.fill(x, false); // must evict b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(x));
    }

    #[test]
    fn dirty_eviction_reports_writeback_address() {
        let mut c = small_cache(1); // direct-mapped, 4 sets
        let a = 0u64;
        let conflict = 4 * 64; // same set
        c.fill(a, true); // dirty
        let wb = c.fill(conflict, false);
        assert_eq!(wb, Some(a), "dirty victim address must be reported");
        let wb2 = c.fill(a, false); // clean victim now
        assert_eq!(wb2, None);
    }

    #[test]
    fn writes_mark_dirty() {
        let mut c = small_cache(1);
        c.fill(0, false);
        assert_eq!(c.access(0, true), AccessOutcome::Hit);
        let wb = c.fill(4 * 64, false);
        assert_eq!(wb, Some(0), "written line must write back");
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small_cache(2);
        c.fill(0x40, false);
        assert!(c.invalidate(0x40));
        assert!(!c.probe(0x40));
        assert!(!c.invalidate(0x40));
    }

    #[test]
    fn probe_does_not_touch_stats_or_lru() {
        let mut c = small_cache(2);
        c.fill(0, false);
        c.fill(4 * 64, false);
        let (h0, m0) = c.stats();
        for _ in 0..10 {
            c.probe(0);
        }
        assert_eq!(c.stats(), (h0, m0));
        // LRU untouched by probes: line 0 is still the LRU victim.
        c.fill(8 * 64, false);
        assert!(!c.probe(0));
    }

    #[test]
    fn non_power_of_two_sets_cover_all_lines() {
        // 12-way 1 MB bank: exercise modulo indexing with many fills.
        let mut c = SetAssocCache::new(CacheGeometry {
            bytes: 1 << 20,
            ways: 12,
            line_bytes: 64,
        });
        for i in 0..50_000u64 {
            c.fill(i * 64 * 11, false); // 11 is coprime with the set count
        }
        assert!(c.valid_lines() <= c.capacity_lines());
        assert!(c.valid_lines() > c.capacity_lines() / 2);
    }

    #[test]
    fn working_set_larger_than_cache_misses() {
        let mut c = small_cache(4); // 4 sets × 4 ways = 16 lines
        // 64-line working set, round-robin: second pass must still miss.
        for i in 0..64u64 {
            assert_eq!(c.access(i * 64, false), AccessOutcome::Miss);
            c.fill(i * 64, false);
        }
        let mut hits = 0;
        for i in 0..64u64 {
            if c.access(i * 64, false) == AccessOutcome::Hit {
                hits += 1;
            }
        }
        assert!(hits < 32, "LRU round-robin over 4x capacity should thrash");
    }

    #[test]
    fn small_working_set_hits() {
        let mut c = small_cache(4);
        for i in 0..8u64 {
            c.access(i * 64, false);
            c.fill(i * 64, false);
        }
        for i in 0..8u64 {
            assert_eq!(c.access(i * 64, false), AccessOutcome::Hit);
        }
    }
}
