//! Miss Status Holding Registers.
//!
//! Paper §3.2: "Within each core it is also implemented a 16-entry MSHR
//! queue that keeps track of the outstanding memory requests." Secondary
//! misses to a line already being fetched merge into the existing entry
//! instead of generating new bus traffic; a full MSHR file stalls further
//! misses.

/// Result of trying to allocate an MSHR entry for a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrAlloc {
    /// New entry allocated — the caller must send the request downstream.
    Primary,
    /// Merged into an existing entry for the same line — no new traffic.
    Merged,
    /// No entry free and no matching line: the miss cannot proceed.
    Full,
}

/// One in-flight line fetch.
#[derive(Debug, Clone)]
pub struct MshrEntry {
    /// Line base address being fetched.
    pub line: u64,
    /// Request ids waiting on this line (primary first).
    pub waiters: Vec<u64>,
}

/// A fixed-capacity MSHR file.
#[derive(Debug, Clone)]
pub struct MshrFile {
    entries: Vec<MshrEntry>,
    capacity: usize,
    /// Retired waiter vectors kept for reuse (their capacity survives),
    /// so steady-state [`Self::allocate`] never allocates (rule D10).
    /// Callers of [`Self::complete`] hand the vector back through
    /// [`Self::recycle`].
    spare_waiters: Vec<Vec<u64>>,
}

impl MshrFile {
    /// File with `capacity` entries (16 in the paper's cores).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR needs at least one entry");
        MshrFile {
            entries: Vec::with_capacity(capacity),
            capacity,
            spare_waiters: Vec::with_capacity(capacity),
        }
    }

    /// Try to track a miss of `req` on `line`.
    pub fn allocate(&mut self, line: u64, req: u64) -> MshrAlloc {
        if let Some(e) = self.entries.iter_mut().find(|e| e.line == line) {
            e.waiters.push(req);
            return MshrAlloc::Merged;
        }
        if self.entries.len() == self.capacity {
            return MshrAlloc::Full;
        }
        let mut waiters = self.spare_waiters.pop().unwrap_or_default();
        waiters.clear();
        waiters.push(req);
        self.entries.push(MshrEntry { line, waiters });
        MshrAlloc::Primary
    }

    /// Return a completed entry's waiter vector to the spare pool so
    /// its capacity is reused by the next primary miss. Dropping the
    /// vector instead is harmless but reintroduces steady-state
    /// allocation.
    pub fn recycle(&mut self, mut waiters: Vec<u64>) {
        if self.spare_waiters.len() < self.capacity {
            waiters.clear();
            self.spare_waiters.push(waiters);
        }
    }

    /// The line fetch completed: remove its entry and return all waiting
    /// request ids.
    pub fn complete(&mut self, line: u64) -> Option<MshrEntry> {
        let idx = self.entries.iter().position(|e| e.line == line)?;
        Some(self.entries.swap_remove(idx))
    }

    /// True when `line` is already being fetched.
    pub fn contains(&self, line: u64) -> bool {
        self.entries.iter().any(|e| e.line == line)
    }

    /// Requests currently waiting on `line`, if it is being fetched.
    pub fn waiters(&self, line: u64) -> Option<&[u64]> {
        self.entries
            .iter()
            .find(|e| e.line == line)
            .map(|e| e.waiters.as_slice())
    }

    /// Live entries.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// True when no further primary miss can be accepted.
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_then_merge() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.allocate(0x40, 1), MshrAlloc::Primary);
        assert_eq!(m.allocate(0x40, 2), MshrAlloc::Merged);
        assert_eq!(m.occupancy(), 1);
        let e = m.complete(0x40).unwrap();
        assert_eq!(e.waiters, vec![1, 2]);
        assert_eq!(m.occupancy(), 0);
    }

    #[test]
    fn full_rejects_new_lines_but_merges_existing() {
        let mut m = MshrFile::new(2);
        assert_eq!(m.allocate(0x00, 1), MshrAlloc::Primary);
        assert_eq!(m.allocate(0x40, 2), MshrAlloc::Primary);
        assert!(m.is_full());
        assert_eq!(m.allocate(0x80, 3), MshrAlloc::Full);
        assert_eq!(m.allocate(0x40, 4), MshrAlloc::Merged);
        assert_eq!(
            m.occupancy(),
            2,
            "neither the reject nor the merge took an entry"
        );
        assert_eq!(m.waiters(0x40), Some(&[2, 4][..]));
    }

    #[test]
    fn complete_unknown_line_is_none() {
        let mut m = MshrFile::new(2);
        assert!(m.complete(0x1000).is_none());
    }

    #[test]
    fn contains_tracks_lines() {
        let mut m = MshrFile::new(2);
        m.allocate(0x40, 1);
        assert!(m.contains(0x40));
        assert!(!m.contains(0x80));
        m.complete(0x40);
        assert!(!m.contains(0x40));
    }

    #[test]
    fn freed_entry_reusable() {
        let mut m = MshrFile::new(1);
        assert_eq!(m.allocate(0x00, 1), MshrAlloc::Primary);
        assert_eq!(m.allocate(0x40, 2), MshrAlloc::Full);
        m.complete(0x00);
        assert_eq!(m.allocate(0x40, 2), MshrAlloc::Primary);
    }
}
