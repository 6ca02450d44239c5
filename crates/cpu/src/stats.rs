//! Core and thread statistics snapshots.

use smtsim_energy::EnergyAccount;

smtsim_obs::record! {
    /// Per-thread statistics snapshot.
    #[derive(Debug, Clone, Default)]
    pub struct ThreadStats {
        #[counter("instr")]
        /// Instructions the thread committed.
        pub committed: u64,
        #[counter("instr")]
        /// Instructions the thread fetched, wrong-path and later
        /// squashed ones included.
        pub fetched: u64,
        #[counter("branches")]
        /// Conditional branches the thread committed.
        pub branches: u64,
        #[counter("branches")]
        /// Committed conditional branches that were mispredicted.
        pub mispredicts: u64,
        #[counter("loads")]
        /// Loads the thread issued to memory.
        pub loads_issued: u64,
        #[counter("events")]
        /// FLUSH response actions taken against this thread.
        pub flushes: u64,
        #[record]
        /// The thread's energy ledger.
        pub energy: EnergyAccount,
    }
    decode;
}

impl ThreadStats {
    /// Committed instructions per cycle over `cycles`.
    pub fn ipc(&self, cycles: u64) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.committed as f64 / cycles as f64
        }
    }

    /// Instructions fetched but neither committed nor squashed: those
    /// still in flight when the snapshot was taken. `None` when the
    /// counters say more left the pipeline than entered it.
    pub fn in_flight(&self) -> Option<u64> {
        let by_stage = [
            self.energy.flush_squashed_by_stage(),
            self.energy.branch_squashed_by_stage(),
        ];
        by_stage
            .iter()
            .flatten()
            .try_fold(self.fetched.checked_sub(self.committed)?, |left, &n| {
                left.checked_sub(n)
            })
    }

    /// Branch prediction accuracy (1.0 when no branches committed).
    pub fn branch_accuracy(&self) -> f64 {
        if self.branches == 0 {
            1.0
        } else {
            1.0 - self.mispredicts as f64 / self.branches as f64
        }
    }
}

smtsim_obs::record! {
    /// Point-in-time view of one hardware thread's pipeline state, taken
    /// by the forward-progress watchdog when it aborts a livelocked run.
    /// Unlike [`ThreadStats`] (cumulative counters), this captures *where*
    /// the thread is stuck right now.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ThreadProbe {
        #[label]
        /// Hardware thread id within the core.
        pub tid: u32,
        #[label]
        /// Fetch-gate state rendered as text (`"Open"`,
        /// `"PolicyStall"`, `"Flushed { offender: .. }"`).
        pub gate: String,
        #[gauge("instr")]
        /// Instructions waiting in the frontend buffer.
        pub frontend: u32,
        #[gauge("entries")]
        /// ROB occupancy.
        pub rob: u32,
        #[label]
        /// Whether fetch is blocked on an outstanding I-cache miss.
        pub icache_wait: bool,
        #[counter("instr")]
        /// Instructions committed so far.
        pub committed: u64,
    }
    decode;
}

smtsim_obs::record! {
    /// Per-core statistics snapshot.
    #[derive(Debug, Clone, Default)]
    pub struct CoreStats {
        #[record]
        /// Per-thread statistics, in context order.
        pub threads: Vec<ThreadStats>,
        #[counter("cycles")]
        /// Cycles in which at least one instruction was fetched.
        pub fetch_active_cycles: u64,
        #[counter("thread-cycles")]
        /// Issue-queue-full dispatch stalls.
        pub iq_full_stalls: u64,
        #[counter("thread-cycles")]
        /// Register-file-exhausted dispatch stalls.
        pub reg_full_stalls: u64,
        #[counter("thread-cycles")]
        /// ROB-full dispatch stalls.
        pub rob_full_stalls: u64,
        #[counter("loads")]
        /// Load issues rejected because the MSHR file was full.
        pub mshr_retries: u64,
        #[counter("events")]
        /// FLUSH response actions executed.
        pub flushes_executed: u64,
        #[counter("events")]
        /// Policy stall actions executed.
        pub stalls_executed: u64,
        #[counter("loads")]
        /// Loads satisfied by store-to-load forwarding.
        pub store_forwards: u64,
    }
    decode;
}

impl CoreStats {
    /// Total committed instructions across contexts.
    pub fn total_committed(&self) -> u64 {
        self.threads.iter().map(|t| t.committed).sum()
    }

    /// Core throughput in instructions per cycle.
    pub fn throughput(&self, cycles: u64) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.total_committed() as f64 / cycles as f64
        }
    }

    /// Merged energy ledger across contexts.
    pub fn energy(&self) -> EnergyAccount {
        let mut acc = EnergyAccount::new();
        for t in &self.threads {
            acc.merge(&t.energy);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_throughput() {
        let mut s = CoreStats::default();
        s.threads.push(ThreadStats {
            committed: 100,
            ..Default::default()
        });
        s.threads.push(ThreadStats {
            committed: 50,
            ..Default::default()
        });
        assert_eq!(s.total_committed(), 150);
        assert!((s.throughput(100) - 1.5).abs() < 1e-12);
        assert!((s.threads[0].ipc(100) - 1.0).abs() < 1e-12);
        assert_eq!(s.throughput(0), 0.0);
    }

    #[test]
    fn branch_accuracy() {
        let t = ThreadStats {
            branches: 100,
            mispredicts: 8,
            ..Default::default()
        };
        assert!((t.branch_accuracy() - 0.92).abs() < 1e-12);
        assert_eq!(ThreadStats::default().branch_accuracy(), 1.0);
    }

    #[test]
    fn energy_merges_threads() {
        use smtsim_energy::{PipelineStage, SquashCause};
        let mut a = ThreadStats::default();
        a.energy.commit_n(10);
        let mut b = ThreadStats::default();
        b.energy.squash(SquashCause::Flush, PipelineStage::Commit);
        let s = CoreStats {
            threads: vec![a, b],
            ..Default::default()
        };
        let e = s.energy();
        assert_eq!(e.committed(), 10);
        assert!((e.wasted_energy() - 1.0).abs() < 1e-12);
    }
}
