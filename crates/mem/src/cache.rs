//! Generic set-associative cache model.
//!
//! Tag-array-only (trace-driven simulators carry no data), with exact
//! LRU replacement. Supports the geometries of Fig. 1 — including the
//! L2's 12 ways, which forces a non-power-of-two set count (handled by
//! modulo indexing).
//!
//! Sets are built on first look. A new cache reserves room for every
//! set's ways but writes none of them, and [`SetAssocCache::fill_lines`]
//! only records its range. The first access, fill or probe that looks
//! at a set appends the set's empty ways to the tag arena and installs
//! its share of the recorded ranges. A short run looks at a small part
//! of an L2 bank, so most tag lines are never written at all.

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

/// A range recorded by [`SetAssocCache::fill_lines`]: line
/// `line0 + k·step` (`k < count`) fills with stamp `stamp0 + k + 1`, as
/// the eager fill would have stamped it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WarmRange {
    line0: u64,
    count: u64,
    step: u64,
    stamp0: u64,
    /// `gcd(step mod sets, sets)`: only sets `s` with
    /// `s ≡ line0 (mod gcd)` take lines of this range.
    gcd: u64,
    /// `sets / gcd`: lines `k` and `k + period` share a set.
    period: u64,
    /// Inverse of `(step mod sets) / gcd` modulo `period`.
    inv: u64,
}

impl WarmRange {
    fn new(line0: u64, count: u64, step: u64, stamp0: u64, sets: u64) -> Self {
        let gcd = gcd(step % sets, sets);
        let period = sets / gcd;
        let inv = mod_inverse(step % sets / gcd, period);
        WarmRange {
            line0,
            count,
            step,
            stamp0,
            gcd,
            period,
            inv,
        }
    }

    /// The first `k` whose line falls in `set`, if any: the solution of
    /// `line0 + k·step ≡ set (mod sets)` in `[0, period)`.
    #[inline]
    fn first_in(&self, set: u64, sets: u64) -> Option<u64> {
        let d = (set + sets - self.line0 % sets) % sets;
        // `sets` is below 2^32 (a set's slot is a u32), so the product
        // of two residues below `period` fits in a u64.
        d.is_multiple_of(self.gcd)
            .then(|| d / self.gcd * self.inv % self.period)
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// `a⁻¹ mod m` for `gcd(a, m) == 1` (0 when `m == 1`).
fn mod_inverse(a: u64, m: u64) -> u64 {
    // Extended Euclid on (m, a), tracking a's coefficient only. The
    // remainders stay below `m` and the coefficients within ±m, and `m`
    // is a set count (below 2^32), so i64 is exact.
    let (mut r0, mut r1) = (m as i64, a as i64);
    let (mut t0, mut t1) = (0i64, 1i64);
    while r1 != 0 {
        let q = r0 / r1;
        (r0, r1) = (r1, r0 - q * r1);
        (t0, t1) = (t1, t0 - q * t1);
    }
    t0.rem_euclid(m as i64) as u64
}

/// Install `tag` with use stamp `stamp` in a set's `ways`. Returns the
/// tag of the victim if a **dirty** line had to be written back.
#[inline]
fn fill_at(ways: &mut [Line], tag: u64, dirty: bool, stamp: u64) -> Option<u64> {
    // One scan of the valid prefix: an already-present line (e.g.
    // racing fills after an MSHR merge) is just refreshed; the first
    // invalid way ends the prefix.
    let mut free = None;
    for (i, l) in ways.iter_mut().enumerate() {
        if !l.valid() {
            free = Some(i);
            break;
        }
        if l.tag == tag {
            l.touch(stamp, dirty);
            return None;
        }
    }
    // Pick a victim: first invalid way, else the LRU way.
    // `unwrap_or(0)` never fires: a set has ≥ 1 way by geometry
    // validation, and way 0 is a sound victim.
    let victim_idx = free.unwrap_or_else(|| {
        ways.iter()
            .enumerate()
            .min_by_key(|(_, l)| l.last_use())
            .map(|(i, _)| i)
            .unwrap_or(0)
    });
    let victim = &mut ways[victim_idx];
    let writeback = (victim.valid() && victim.dirty()).then_some(victim.tag);
    *victim = Line {
        tag,
        meta: stamp << 2 | (dirty as u64) << 1 | VALID,
    };
    writeback
}

/// Replay `set`'s lines of every range in `warm` into its `ways`
/// through the fill logic, range by range and in ascending line order
/// with their recorded stamps — the order and stamps of the eager fill,
/// so the set ends exactly as that fill would have left it. Dirty
/// victims are dropped without a writeback (warm-up runs before any
/// line is written).
fn install(ways: &mut [Line], set: u64, sets: u64, warm: &[WarmRange]) {
    for r in warm {
        let Some(mut k) = r.first_in(set, sets) else {
            continue;
        };
        while k < r.count {
            let _ = fill_at(ways, (r.line0 + k * r.step) / sets, false, r.stamp0 + k + 1);
            k += r.period;
        }
    }
}

/// [`SetAssocCache::slot`] of a set that is not built yet.
const UNBUILT: u32 = u32::MAX;

/// Tag-only set-associative cache.
///
/// Each set is built the first time an access, fill or probe looks at
/// it: its `ways` empty lines are appended to one tag arena, reserved at
/// construction for every set and never reallocated, and its share of
/// the recorded warm ranges is installed. Which sets are built, and in
/// what order, cannot be observed: equality compares each set's ways by
/// set index, an unbuilt set reading as what building it would install.
///
/// Within a set the valid ways always form a prefix: lines are only
/// ever replaced, never invalidated.
#[derive(Debug)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    sets: u64,
    ways: usize,
    /// The built sets' ways, `ways` lines per set in the order the sets
    /// were built.
    lines: Vec<Line>,
    /// Per set: its position among the built sets in `lines`, or
    /// [`UNBUILT`].
    slot: Vec<u32>,
    stamp: u64,
    hits: u64,
    misses: u64,
    /// Recorded warm ranges, in `fill_lines` order; each set installs
    /// its share when it is built.
    warm: Vec<WarmRange>,
}

impl SetAssocCache {
    /// Build an empty cache. Panics on invalid geometry (construction is
    /// configuration time, not simulation time).
    pub fn new(geometry: CacheGeometry) -> Self {
        geometry.validate().expect("invalid cache geometry");
        let sets = geometry.sets();
        assert!(sets < UNBUILT as u64, "{sets} sets overflow the slot map");
        let ways = geometry.ways as usize;
        SetAssocCache {
            geometry,
            sets,
            ways,
            lines: Vec::with_capacity(sets as usize * ways),
            slot: vec![UNBUILT; sets as usize],
            stamp: 0,
            hits: 0,
            misses: 0,
            warm: Vec::new(),
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// `(set, first way's index in lines, tag)` of `addr`, the set built
    /// if it was not: every access, fill and probe looks at a set
    /// through here.
    #[inline]
    fn locate(&mut self, addr: u64) -> (u64, usize, u64) {
        let line = line_index(addr);
        let set = line % self.sets;
        let mut slot = self.slot[set as usize];
        if slot == UNBUILT {
            slot = self.build(set);
        }
        (set, slot as usize * self.ways, line / self.sets)
    }

    /// Append `set`'s empty ways to the arena and install its share of
    /// every recorded warm range; returns its slot.
    #[cold]
    fn build(&mut self, set: u64) -> u32 {
        let base = self.lines.len();
        let slot = (base / self.ways) as u32;
        self.slot[set as usize] = slot;
        self.lines.resize(base + self.ways, Line::default());
        install(&mut self.lines[base..], set, self.sets, &self.warm);
        slot
    }

    /// Build every set now, leaving the cache as the eager fill would
    /// have: what [`SetAssocCache::fill_lines`] does before applying a
    /// range to a cache with built sets.
    pub fn install_warm(&mut self) {
        for set in 0..self.sets {
            if self.slot[set as usize] == UNBUILT {
                self.build(set);
            }
        }
    }

    /// The ways of the set whose first way is `lines[base]`.
    #[inline]
    fn ways_at(&mut self, base: usize) -> &mut [Line] {
        &mut self.lines[base..base + self.ways]
    }

    /// Probe without updating replacement state or stats (used by tag
    /// checks that should not disturb LRU, e.g. MSHR merging checks).
    /// Takes `&mut self` only to build the set.
    pub fn probe(&mut self, addr: u64) -> bool {
        let (_, base, tag) = self.locate(addr);
        self.ways_at(base).iter().any(|l| l.holds(tag))
    }

    /// Access `addr`; on a hit, update recency (and the dirty bit for
    /// writes). Misses do **not** allocate — call [`SetAssocCache::fill`]
    /// when the refill arrives, as a real cache would.
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
        let (_, base, tag) = self.locate(addr);
        self.stamp += 1;
        let stamp = self.stamp;
        for l in self.ways_at(base) {
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
        let (set, base, tag) = self.locate(addr);
        self.stamp += 1;
        let stamp = self.stamp;
        // Rebuild the victim's base address from (tag, set).
        fill_at(self.ways_at(base), tag, dirty, stamp)
            .map(|victim| (victim * self.sets + set) * LINE_BYTES)
    }

    /// Warm `count` clean lines: the line holding `first`, then every
    /// `step`-th line after it, in ascending order — the same state as
    /// that many [`SetAssocCache::fill`] calls, except that dirty victims
    /// are dropped without a writeback (cache warm-up runs before any
    /// line is written). On a cache with no built set the range is only
    /// recorded, and the stamp advanced past it; each set installs its
    /// lines when it is built. A cache with built sets builds every set
    /// and applies the range to each.
    pub fn fill_lines(&mut self, first: u64, count: u64, step: u64) {
        if count == 0 {
            return;
        }
        let range = WarmRange::new(line_index(first), count, step, self.stamp, self.sets);
        self.stamp += count;
        if self.lines.is_empty() {
            self.warm.push(range);
            return;
        }
        self.install_warm();
        let sets = self.sets;
        for set in 0..sets {
            let base = self.slot[set as usize] as usize * self.ways;
            install(self.ways_at(base), set, sets, &[range]);
        }
    }

    /// (hits, misses) recorded by [`SetAssocCache::access`].
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// `set`'s ways: its arena lines once built, else what building it
    /// would install, replayed into `scratch`.
    fn ways_of<'a>(&'a self, set: u64, scratch: &'a mut Vec<Line>) -> &'a [Line] {
        match self.slot[set as usize] {
            UNBUILT => {
                scratch.clear();
                scratch.resize(self.ways, Line::default());
                install(scratch, set, self.sets, &self.warm);
                scratch
            }
            slot => &self.lines[slot as usize * self.ways..][..self.ways],
        }
    }
}

/// A clone keeps the arena's room for every set, so building its
/// remaining sets never reallocates.
impl Clone for SetAssocCache {
    fn clone(&self) -> Self {
        let mut lines = Vec::with_capacity(self.lines.capacity());
        lines.extend_from_slice(&self.lines);
        SetAssocCache {
            lines,
            slot: self.slot.clone(),
            warm: self.warm.clone(),
            ..*self
        }
    }
}

/// Layout-independent: equal geometry, stamp and stats, and every set's
/// ways equal by set index, however many sets each side has built and
/// in whatever order.
impl PartialEq for SetAssocCache {
    fn eq(&self, other: &Self) -> bool {
        if self.geometry != other.geometry
            || self.stamp != other.stamp
            || self.stats() != other.stats()
        {
            return false;
        }
        let (mut mine, mut theirs) = (Vec::new(), Vec::new());
        (0..self.sets).all(|set| self.ways_of(set, &mut mine) == other.ways_of(set, &mut theirs))
    }
}

#[cfg(test)]
impl SetAssocCache {
    /// Number of valid lines, every set built first.
    fn valid_lines(&mut self) -> usize {
        self.install_warm();
        self.lines.iter().filter(|l| l.valid()).count()
    }

    /// Total line slots.
    fn capacity_lines(&self) -> usize {
        self.sets as usize * self.ways
    }

    /// Number of sets built so far.
    fn built_sets(&self) -> usize {
        self.lines.len() / self.ways
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smtsim_trace::check::Cases;

    fn small_cache(ways: u32) -> SetAssocCache {
        SetAssocCache::new(CacheGeometry {
            bytes: 4 * ways as u64 * 64, // 4 sets
            ways,
            line_bytes: 64,
        })
    }

    /// A 12-way cache of 7 sets with two recorded warm ranges that
    /// cover every set, built nowhere yet.
    fn warmed_cache() -> SetAssocCache {
        let mut c = SetAssocCache::new(CacheGeometry {
            bytes: 7 * 12 * 64,
            ways: 12,
            line_bytes: 64,
        });
        c.fill_lines(0x4000, 60, 1);
        c.fill_lines(0x9040, 30, 3);
        c
    }

    #[test]
    fn mod_inverse_inverts_every_unit_below_300() {
        for m in 1..300 {
            for a in (0..m).filter(|&a| gcd(a, m) == 1) {
                assert_eq!(a * mod_inverse(a, m) % m, 1 % m, "{a}⁻¹ mod {m}");
            }
        }
    }

    #[test]
    fn new_and_recorded_caches_build_no_set() {
        assert_eq!(small_cache(2).built_sets(), 0);
        assert_eq!(warmed_cache().built_sets(), 0);
    }

    #[test]
    fn one_access_builds_exactly_one_set() {
        let mut c = warmed_cache();
        c.access(0x4000, false);
        assert_eq!(c.built_sets(), 1);
        c.probe(0x4000 + 7 * 64); // same set, next tag
        assert_eq!(c.built_sets(), 1);
        c.fill(0x4000 + 64, false); // next set
        assert_eq!(c.built_sets(), 2);
    }

    #[test]
    fn install_warm_builds_every_set() {
        let mut c = warmed_cache();
        c.probe(0x4000);
        c.install_warm();
        assert_eq!(c.built_sets(), 7);
        assert_eq!(c.valid_lines(), 7 * 12);
    }

    #[test]
    fn sets_built_in_different_orders_compare_equal() {
        let (mut a, mut b) = (warmed_cache(), warmed_cache());
        let unbuilt = warmed_cache();
        for set in 0..7 {
            a.probe(0x4000 + set * 64);
            b.probe(0x4000 + (6 - set) * 64);
        }
        assert!(a == b, "build order is not state");
        assert!(a == unbuilt, "an unbuilt set reads as built");
        assert!(unbuilt == b, "an unbuilt set reads as built");
        // Same stamp and stats, one different tag in set 3.
        a.fill(0x4000 + 3 * 64 + 7 * 64 * 20, false);
        b.fill(0x4000 + 3 * 64 + 7 * 64 * 21, false);
        assert!(a != b, "one filled line differs");
    }

    #[test]
    fn stamp_or_stats_differences_compare_unequal() {
        let c = warmed_cache();
        let mut stamp = c.clone();
        stamp.stamp += 1;
        let mut hits = c.clone();
        hits.hits += 1;
        let mut misses = c.clone();
        misses.misses += 1;
        assert!(c == c.clone());
        assert!(c != stamp && c != hits && c != misses);
    }

    #[test]
    fn a_clone_keeps_room_for_every_set() {
        let mut c = warmed_cache();
        c.probe(0);
        assert!(c.clone().lines.capacity() >= c.capacity_lines());
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
        assert_eq!(
            c.fill(4 * 64, false),
            Some(0),
            "still dirty after refreshes"
        );
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
    fn cache_fills_never_exceed_capacity() {
        Cases::new(48).run("cache_fills_never_exceed_capacity", |g| {
            let addrs = g.vec_of(1..400, |g| g.u64_in(0..(1 << 20)));
            let mut cache = SetAssocCache::new(CacheGeometry {
                bytes: 16 << 10,
                ways: 4,
                line_bytes: 64,
            });
            for &a in &addrs {
                cache.fill(a, false);
                assert!(cache.valid_lines() <= cache.capacity_lines());
            }
        });
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
