//! Fully-associative translation lookaside buffer.
//!
//! Fig. 1: 512-entry fully-associative I-TLB and D-TLB with a 300-cycle
//! miss penalty. The simulator has no page tables; a TLB miss simply
//! charges the hardware-walk latency to the access and installs the
//! translation.

use crate::addr::page_base;

/// Slot marker for "no translation here". Pages are page-aligned, so
/// an all-ones key can never collide with a real page base.
const EMPTY: u64 = u64::MAX;

/// Fully-associative, true-LRU TLB.
///
/// Backed by a linear-probe hash table sized at twice the capacity:
/// every access translates, so the hit path must stay one or two cache
/// lines. Misses pay an O(capacity) LRU scan, but misses are rare by
/// definition. Replacement is exact LRU over unique use-stamps, so the
/// observable behaviour (hit/miss sequence, victim choice) is
/// independent of the table layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tlb {
    /// `(page, last-use stamp)`; `page == EMPTY` marks a free slot.
    slots: Vec<(u64, u64)>,
    /// `slots.len() - 1`; the table size is a power of two.
    mask: usize,
    len: usize,
    capacity: usize,
    stamp: u64,
}

impl Tlb {
    /// TLB with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB needs at least one entry");
        let table = (capacity * 2).next_power_of_two();
        Tlb {
            slots: vec![(EMPTY, 0); table],
            mask: table - 1,
            len: 0,
            capacity,
            stamp: 0,
        }
    }

    #[inline]
    fn slot_of(&self, page: u64) -> usize {
        // Fibonacci hashing on the page number; pages are 8 KiB-aligned.
        (((page >> 13).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) & self.mask
    }

    /// Translate the page of `addr`. Returns `true` on a hit; on a miss
    /// the translation is installed (evicting the LRU entry if full).
    pub fn access(&mut self, addr: u64) -> bool {
        self.stamp += 1;
        let page = page_base(addr);
        let mut i = self.slot_of(page);
        loop {
            let (key, _) = self.slots[i];
            if key == page {
                self.slots[i].1 = self.stamp;
                return true;
            }
            if key == EMPTY {
                break;
            }
            i = (i + 1) & self.mask;
        }
        if self.len == self.capacity {
            self.evict_lru();
        }
        self.insert(page, self.stamp);
        false
    }

    /// Install `page` (assumes it is absent and the table has room).
    fn insert(&mut self, page: u64, stamp: u64) {
        let mut i = self.slot_of(page);
        while self.slots[i].0 != EMPTY {
            i = (i + 1) & self.mask;
        }
        self.slots[i] = (page, stamp);
        self.len += 1;
    }

    /// Remove the least-recently-used translation. Stamps are unique,
    /// so the minimum identifies exactly one victim — the same one a
    /// linear-scan implementation would pick.
    fn evict_lru(&mut self) {
        let mut victim = usize::MAX;
        let mut best = u64::MAX;
        for (i, &(key, stamp)) in self.slots.iter().enumerate() {
            if key != EMPTY && stamp < best {
                best = stamp;
                victim = i;
            }
        }
        // `victim` is always found: eviction only runs on a full table.
        self.remove_at(victim);
    }

    /// Delete the entry at `i` with backward-shift deletion, keeping
    /// every remaining entry reachable from its home slot.
    fn remove_at(&mut self, i: usize) {
        self.slots[i] = (EMPTY, 0);
        self.len -= 1;
        let mut gap = i;
        let mut j = (i + 1) & self.mask;
        while self.slots[j].0 != EMPTY {
            let home = self.slot_of(self.slots[j].0);
            // Shift `j` into the gap unless it sits between the gap and
            // its home slot (cyclic comparison).
            let between = if gap <= j {
                gap < home && home <= j
            } else {
                home > gap || home <= j
            };
            if !between {
                self.slots[gap] = self.slots[j];
                self.slots[j] = (EMPTY, 0);
                gap = j;
            }
            j = (j + 1) & self.mask;
        }
    }

    /// Number of resident translations.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no translations are resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_BYTES;

    #[test]
    fn first_access_misses_then_hits() {
        let mut t = Tlb::new(4);
        assert!(!t.access(0x1234));
        assert!(t.access(0x1234));
        assert!(t.access(0x1fff)); // same page
        assert!(!t.access(PAGE_BYTES)); // next page
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new(2);
        t.access(0); // page 0
        t.access(PAGE_BYTES); // page 1
        t.access(0); // page 0 freshened
        t.access(2 * PAGE_BYTES); // evicts page 1
        assert!(t.access(0));
        assert!(!t.access(PAGE_BYTES));
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut t = Tlb::new(8);
        for i in 0..100u64 {
            t.access(i * PAGE_BYTES);
            assert!(t.len() <= 8);
        }
    }

    #[test]
    fn cold_pages_miss_once_then_hit() {
        let mut t = Tlb::new(512);
        for i in 0..10u64 {
            assert!(!t.access(i * PAGE_BYTES), "cold page {i} must miss");
        }
        for i in 0..10u64 {
            assert!(t.access(i * PAGE_BYTES), "warm page {i} must hit");
        }
    }

    #[test]
    fn eviction_heavy_workload_matches_reference_lru() {
        // Cross-check the hash-table implementation against a naive
        // Vec-based true-LRU model under heavy eviction pressure.
        struct Naive {
            entries: Vec<(u64, u64)>,
            cap: usize,
            stamp: u64,
        }
        impl Naive {
            fn access(&mut self, addr: u64) -> bool {
                self.stamp += 1;
                let page = page_base(addr);
                if let Some(e) = self.entries.iter_mut().find(|e| e.0 == page) {
                    e.1 = self.stamp;
                    return true;
                }
                if self.entries.len() == self.cap {
                    let lru = self
                        .entries
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| e.1)
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    self.entries.swap_remove(lru);
                }
                self.entries.push((page, self.stamp));
                false
            }
        }
        let mut fast = Tlb::new(16);
        let mut naive = Naive {
            entries: Vec::new(),
            cap: 16,
            stamp: 0,
        };
        // Deterministic pseudo-random page sequence over 64 pages.
        let mut x = 0x1234_5678_u64;
        let (mut h, mut m) = (0u32, 0u32);
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = (x % 64) * PAGE_BYTES + (x % PAGE_BYTES);
            let hit = fast.access(addr);
            assert_eq!(hit, naive.access(addr));
            assert_eq!(fast.len(), naive.entries.len());
            if hit {
                h += 1;
            } else {
                m += 1;
            }
        }
        assert!(h > 0 && m > 0, "exercise both paths: {h} hits {m} misses");
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        let _ = Tlb::new(0);
    }
}
