//! Core configuration (paper Fig. 1, "Core Parameters").

/// Most entries one issue queue can have: the scheduler keeps a queue's
/// free and ready slots as one `u64` bit mask each.
pub const MAX_QUEUE_ENTRIES: u32 = 64;

/// Configuration of one SMT core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Hardware contexts (2 in every paper configuration).
    pub contexts: u32,
    /// Instructions fetched per cycle (ICOUNT.2.**8**).
    pub fetch_width: u32,
    /// Threads fetched from per cycle (ICOUNT.**2**.8).
    pub fetch_threads: u32,
    /// Front-end depth in cycles between fetch and rename-complete.
    /// With the 3-cycle I-cache and the back-end stages this models the
    /// paper's 11-stage pipeline.
    pub frontend_latency: u64,
    /// Rename/dispatch width per cycle.
    pub dispatch_width: u32,
    /// Commit width per thread per cycle.
    pub commit_width: u32,
    /// Shared integer issue-queue entries (64).
    pub int_queue: u32,
    /// Shared floating-point issue-queue entries (64).
    pub fp_queue: u32,
    /// Shared load/store issue-queue entries (64).
    pub ls_queue: u32,
    /// Integer execution units (4).
    pub int_units: u32,
    /// Floating-point execution units (3).
    pub fp_units: u32,
    /// Load/store units (2).
    pub ls_units: u32,
    /// Shared physical registers (320).
    pub phys_regs: u32,
    /// Reorder-buffer entries per thread (256, replicated).
    pub rob_per_thread: u32,
    /// Return-address-stack entries per thread (100, replicated).
    pub ras_entries: u32,
    /// BTB entries (256).
    pub btb_entries: u32,
    /// BTB associativity (4).
    pub btb_ways: u32,
    /// Perceptron count (256).
    pub perceptrons: u32,
    /// Local-history table entries (4K).
    pub local_history_entries: u32,
    /// Pending-store buffer entries per core.
    pub store_buffer: u32,
    /// Fetch-queue (front-end buffer) entries per thread; fetch stalls
    /// when full, bounding run-ahead (especially down the wrong path).
    pub fetch_queue: u32,
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::paper()
    }
}

impl CoreConfig {
    /// The paper's Fig. 1 core.
    pub fn paper() -> Self {
        CoreConfig {
            contexts: 2,
            fetch_width: 8,
            fetch_threads: 2,
            frontend_latency: 5,
            dispatch_width: 8,
            commit_width: 4,
            int_queue: 64,
            fp_queue: 64,
            ls_queue: 64,
            int_units: 4,
            fp_units: 3,
            ls_units: 2,
            phys_regs: 320,
            rob_per_thread: 256,
            ras_entries: 100,
            btb_entries: 256,
            btb_ways: 4,
            perceptrons: 256,
            local_history_entries: 4096,
            store_buffer: 32,
            fetch_queue: 16,
        }
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.contexts == 0 {
            return Err("contexts == 0".into());
        }
        if self.fetch_width == 0 || self.fetch_threads == 0 {
            return Err("fetch width/threads == 0".into());
        }
        if self.fetch_threads > self.contexts {
            return Err("fetch_threads > contexts".into());
        }
        // Each context pins NUM_LOG_REGS physical registers for its
        // architectural state; some must remain for renaming.
        let pinned = self.contexts as u64 * smtsim_trace::NUM_LOG_REGS as u64;
        if (self.phys_regs as u64) <= pinned {
            return Err(format!(
                "phys_regs {} must exceed pinned architectural state {pinned}",
                self.phys_regs
            ));
        }
        if self.int_units == 0 || self.ls_units == 0 {
            return Err("need at least one int and one ld/st unit".into());
        }
        if self.rob_per_thread == 0 || self.store_buffer == 0 {
            return Err("rob/store buffer must be > 0".into());
        }
        if self.fetch_queue < self.fetch_width {
            return Err("fetch_queue must hold at least one fetch group".into());
        }
        if !self.btb_entries.is_multiple_of(self.btb_ways) {
            return Err("btb entries must divide by ways".into());
        }
        for (name, entries) in [
            ("int_queue", self.int_queue),
            ("fp_queue", self.fp_queue),
            ("ls_queue", self.ls_queue),
        ] {
            if entries > MAX_QUEUE_ENTRIES {
                return Err(format!(
                    "{name} {entries} exceeds the {MAX_QUEUE_ENTRIES} entries an issue queue can hold"
                ));
            }
        }
        Ok(())
    }

    /// Physical registers available for renaming after pinning each
    /// context's architectural state.
    pub fn rename_regs(&self) -> u32 {
        self.phys_regs - self.contexts * smtsim_trace::NUM_LOG_REGS as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid_and_matches_fig1() {
        let c = CoreConfig::paper();
        c.validate().unwrap();
        assert_eq!(c.contexts, 2);
        assert_eq!(c.int_queue, 64);
        assert_eq!(c.fp_queue, 64);
        assert_eq!(c.ls_queue, 64);
        assert_eq!(c.int_units, 4);
        assert_eq!(c.fp_units, 3);
        assert_eq!(c.ls_units, 2);
        assert_eq!(c.phys_regs, 320);
        assert_eq!(c.rob_per_thread, 256);
        assert_eq!(c.ras_entries, 100);
        assert_eq!(c.btb_entries, 256);
        assert_eq!(c.btb_ways, 4);
    }

    #[test]
    fn rename_regs_subtract_pinned_state() {
        let c = CoreConfig::paper();
        assert_eq!(c.rename_regs(), 320 - 2 * 64);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = CoreConfig::paper();
        c.phys_regs = 128; // exactly pinned → no rename headroom
        assert!(c.validate().is_err());
        let mut c = CoreConfig::paper();
        c.fetch_threads = 3;
        assert!(c.validate().is_err());
        let mut c = CoreConfig::paper();
        c.btb_ways = 3;
        assert!(c.validate().is_err());
    }

    #[test]
    fn issue_queues_above_one_mask_word_rejected() {
        let mut c = CoreConfig::paper();
        c.ls_queue = MAX_QUEUE_ENTRIES + 1;
        let err = c.validate().unwrap_err();
        assert!(err.contains("ls_queue 65"), "{err}");
        let mut c = CoreConfig::paper();
        c.int_queue = 128;
        assert!(c.validate().unwrap_err().contains("int_queue"));
        // An int-only machine may have no fp queue at all.
        let mut c = CoreConfig::paper();
        c.fp_queue = 0;
        c.validate().unwrap();
    }
}
