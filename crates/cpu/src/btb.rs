//! Branch Target Buffer: 256 entries, 4-way set associative (Fig. 1).
//!
//! The front-end can only redirect fetch to a taken branch's target in
//! the same cycle if the BTB knows the target; a BTB miss on a taken
//! branch costs a misfetch, handled by the core as a misprediction.

/// Set-associative BTB with true-LRU replacement.
#[derive(Debug, Clone)]
pub struct Btb {
    /// (tag, target, stamp) per way; tag = pc (full tags — this is a
    /// simulator, aliasing is modelled by capacity/conflict only).
    sets: Vec<Vec<(u64, u64, u64)>>,
    ways: usize,
    stamp: u64,
}

impl Btb {
    /// BTB with `entries` total entries and `ways` associativity.
    pub fn new(entries: u32, ways: u32) -> Self {
        assert!(
            ways > 0 && entries.is_multiple_of(ways),
            "entries must divide by ways"
        );
        let num_sets = (entries / ways) as usize;
        Btb {
            sets: vec![Vec::with_capacity(ways as usize); num_sets],
            ways: ways as usize,
            stamp: 0,
        }
    }

    #[inline]
    fn set_of(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) % self.sets.len()
    }

    /// Look up the predicted target for the branch at `pc`.
    pub fn lookup(&mut self, pc: u64) -> Option<u64> {
        self.stamp += 1;
        let stamp = self.stamp;
        let set = self.set_of(pc);
        let e = self.sets[set].iter_mut().find(|e| e.0 == pc)?;
        e.2 = stamp;
        Some(e.1)
    }

    /// Install/refresh the target for `pc` (done when a taken branch
    /// resolves).
    pub fn update(&mut self, pc: u64, target: u64) {
        self.stamp += 1;
        let stamp = self.stamp;
        let ways = self.ways;
        let set = self.set_of(pc);
        let set = &mut self.sets[set];
        if let Some(e) = set.iter_mut().find(|e| e.0 == pc) {
            e.1 = target;
            e.2 = stamp;
            return;
        }
        if set.len() < ways {
            set.push((pc, target, stamp));
            return;
        }
        // `unwrap_or(0)` never fires: this branch requires a full set,
        // and ways ≥ 1.
        let lru = set
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.2)
            .map(|(i, _)| i)
            .unwrap_or(0);
        set[lru] = (pc, target, stamp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_after_update() {
        let mut b = Btb::new(256, 4);
        assert_eq!(b.lookup(0x1000), None);
        b.update(0x1000, 0x2000);
        assert_eq!(b.lookup(0x1000), Some(0x2000));
    }

    #[test]
    fn update_overwrites_target() {
        let mut b = Btb::new(256, 4);
        b.update(0x1000, 0x2000);
        b.update(0x1000, 0x3000);
        assert_eq!(b.lookup(0x1000), Some(0x3000));
    }

    #[test]
    fn lru_within_a_set() {
        let mut b = Btb::new(8, 2); // 4 sets × 2 ways
                                    // Three branches mapping to the same set: pcs differing by
                                    // 4*num_sets increments.
        let (p1, p2, p3) = (0x1000, 0x1000 + 16, 0x1000 + 32);
        b.update(p1, 0xa);
        b.update(p2, 0xb);
        b.lookup(p1); // refresh p1
        b.update(p3, 0xc); // evicts p2
        assert_eq!(b.lookup(p1), Some(0xa));
        assert_eq!(b.lookup(p2), None);
        assert_eq!(b.lookup(p3), Some(0xc));
    }

    #[test]
    fn capacity_pressure_causes_misses() {
        let mut b = Btb::new(256, 4);
        for i in 0..1024u64 {
            b.update(0x10_0000 + i * 4, i);
        }
        let mut hits = 0;
        for i in 0..1024u64 {
            if b.lookup(0x10_0000 + i * 4).is_some() {
                hits += 1;
            }
        }
        assert!(hits <= 256, "only 256 entries can survive, got {hits}");
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn bad_geometry_rejected() {
        let _ = Btb::new(10, 4);
    }
}
