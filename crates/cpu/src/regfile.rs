//! Shared physical register file and per-context rename maps.
//!
//! Fig. 1: 320 physical registers shared by the core's two contexts.
//! Each context permanently pins one physical register per architectural
//! register; the remainder form the rename free list. Register pressure
//! is one of the resources a blocked thread monopolises — and one of the
//! resources FLUSH reclaims.

use smtsim_trace::{LogReg, NUM_LOG_REGS};

/// Physical register index.
pub type PhysReg = u16;

/// The register file + rename state.
#[derive(Debug, Clone)]
pub struct RegFile {
    ready: Vec<bool>,
    free: Vec<PhysReg>,
    /// Per-context map: logical → physical.
    maps: Vec<[PhysReg; NUM_LOG_REGS as usize]>,
}

impl RegFile {
    /// File with `phys_regs` registers serving `contexts` contexts.
    /// Panics if there is no rename headroom.
    pub fn new(phys_regs: u32, contexts: u32) -> Self {
        let pinned = contexts as usize * NUM_LOG_REGS as usize;
        assert!(
            (phys_regs as usize) > pinned,
            "need more than {pinned} physical registers"
        );
        let mut maps = Vec::with_capacity(contexts as usize);
        let mut next: PhysReg = 0;
        for _ in 0..contexts {
            let mut m = [0 as PhysReg; NUM_LOG_REGS as usize];
            for slot in m.iter_mut() {
                *slot = next;
                next += 1;
            }
            maps.push(m);
        }
        let mut ready = vec![false; phys_regs as usize];
        for r in ready.iter_mut().take(pinned) {
            *r = true;
        }
        let free: Vec<PhysReg> = (pinned as PhysReg..phys_regs as PhysReg).collect();
        RegFile { ready, free, maps }
    }

    /// Current mapping of a logical register.
    #[inline]
    pub fn lookup(&self, ctx: usize, log: LogReg) -> PhysReg {
        self.maps[ctx][log as usize]
    }

    /// Rename `log` in `ctx` to a fresh physical register. Returns
    /// `(new, previous)` or `None` when the free list is empty (dispatch
    /// must stall).
    pub fn alloc(&mut self, ctx: usize, log: LogReg) -> Option<(PhysReg, PhysReg)> {
        let new = self.free.pop()?;
        let prev = self.maps[ctx][log as usize];
        self.maps[ctx][log as usize] = new;
        self.ready[new as usize] = false;
        Some((new, prev))
    }

    /// Undo a rename during a squash: restore the map and free the
    /// squashed instruction's destination. Must be called newest-first.
    pub fn rollback(&mut self, ctx: usize, log: LogReg, allocated: PhysReg, prev: PhysReg) {
        debug_assert_eq!(self.maps[ctx][log as usize], allocated, "rollback order");
        self.maps[ctx][log as usize] = prev;
        self.ready[allocated as usize] = false;
        self.free.push(allocated);
    }

    /// Release the *previous* mapping at commit (the committed value now
    /// lives in the new register).
    pub fn release(&mut self, prev: PhysReg) {
        self.ready[prev as usize] = false;
        self.free.push(prev);
    }

    /// Mark a register's value available (writeback).
    #[inline]
    pub fn mark_ready(&mut self, p: PhysReg) {
        self.ready[p as usize] = true;
    }

    /// Is the register's value available?
    #[inline]
    pub fn is_ready(&self, p: PhysReg) -> bool {
        self.ready[p as usize]
    }

    /// Registers on the free list.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_pins_architectural_registers() {
        let rf = RegFile::new(320, 2);
        assert_eq!(rf.free_count(), 320 - 128);
        // Context maps are disjoint.
        assert_ne!(rf.lookup(0, 5), rf.lookup(1, 5));
        // Architectural registers are ready.
        assert!(rf.is_ready(rf.lookup(0, 5)));
        assert!(rf.is_ready(rf.lookup(1, 63)));
    }

    #[test]
    fn alloc_renames_and_marks_not_ready() {
        let mut rf = RegFile::new(320, 2);
        let before = rf.lookup(0, 7);
        let (new, prev) = rf.alloc(0, 7).unwrap();
        assert_eq!(prev, before);
        assert_eq!(rf.lookup(0, 7), new);
        assert!(!rf.is_ready(new));
        rf.mark_ready(new);
        assert!(rf.is_ready(new));
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut rf = RegFile::new(130, 2); // only 2 rename regs
        assert!(rf.alloc(0, 0).is_some());
        assert!(rf.alloc(0, 1).is_some());
        assert!(rf.alloc(0, 2).is_none());
        assert_eq!(rf.free_count(), 0);
    }

    #[test]
    fn rollback_restores_map_and_frees() {
        let mut rf = RegFile::new(320, 2);
        let orig = rf.lookup(1, 3);
        let (a, p1) = rf.alloc(1, 3).unwrap();
        let (b, p2) = rf.alloc(1, 3).unwrap();
        assert_eq!(p2, a);
        let free_before = rf.free_count();
        // Newest first.
        rf.rollback(1, 3, b, p2);
        rf.rollback(1, 3, a, p1);
        assert_eq!(rf.lookup(1, 3), orig);
        assert_eq!(rf.free_count(), free_before + 2);
    }

    #[test]
    fn commit_releases_previous_mapping() {
        let mut rf = RegFile::new(320, 2);
        let (new, prev) = rf.alloc(0, 9).unwrap();
        rf.mark_ready(new);
        let free_before = rf.free_count();
        rf.release(prev);
        assert_eq!(rf.free_count(), free_before + 1);
        assert_eq!(rf.lookup(0, 9), new);
    }

    #[test]
    fn alloc_release_cycle_is_stable() {
        let mut rf = RegFile::new(140, 2); // 12 rename regs
        for i in 0..1000u64 {
            let log = (i % 60) as LogReg;
            let (new, prev) = rf.alloc(0, log).expect("steady state never exhausts");
            rf.mark_ready(new);
            rf.release(prev);
        }
        assert_eq!(rf.free_count(), (12 - 1 + 1)); // 12: every alloc paired with release
    }
}
