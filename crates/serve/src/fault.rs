//! Tests-only fault injection for the serving layer, mirroring the
//! memory-system `FaultPlan` idiom: the plan is plain data, `Default`
//! injects nothing, and production code paths consult it at a handful
//! of well-named seams. Requests are identified by their **ordinal**:
//! 1-based, in the order workers read requests, counting every request
//! on a kept-alive connection (not connections). A test can aim a fault
//! at exactly one request in a scripted sequence, the second request on
//! one connection included.

/// What to break, and for which request. `Default` breaks nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeFaultPlan {
    /// Truncate the response to this request ordinal halfway through
    /// the write, then drop the connection (mid-response crash).
    pub drop_response_for: Option<u64>,
    /// After simulating this ordinal, append only the first half of
    /// its cache line to the cache file and skip the in-memory insert
    /// — the classic torn write a kill -9 leaves behind.
    pub torn_cache_write_for: Option<u64>,
    /// Synthesize `SimError::JobPanicked` for this ordinal's job
    /// instead of simulating it.
    pub poison_job_for: Option<u64>,
    /// Sleep `stall_ms` before responding to this ordinal (drives the
    /// client-timeout and queue-overflow tests).
    pub stall_response_for: Option<u64>,
    /// Stall duration in milliseconds.
    pub stall_ms: u64,
}

impl ServeFaultPlan {
    /// True when `ordinal`'s response should be cut mid-write.
    pub fn wants_response_drop(&self, ordinal: u64) -> bool {
        self.drop_response_for == Some(ordinal)
    }

    /// True when `ordinal`'s cache line should be torn.
    pub fn wants_torn_cache_write(&self, ordinal: u64) -> bool {
        self.torn_cache_write_for == Some(ordinal)
    }

    /// True when `ordinal`'s job should fail as a synthetic panic.
    pub fn wants_poisoned_job(&self, ordinal: u64) -> bool {
        self.poison_job_for == Some(ordinal)
    }

    /// Stall duration for `ordinal`, if any.
    pub fn wants_response_stall(&self, ordinal: u64) -> Option<u64> {
        (self.stall_response_for == Some(ordinal)).then_some(self.stall_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_injects_nothing() {
        let p = ServeFaultPlan::default();
        for ordinal in 0..8 {
            assert!(!p.wants_response_drop(ordinal));
            assert!(!p.wants_torn_cache_write(ordinal));
            assert!(!p.wants_poisoned_job(ordinal));
            assert_eq!(p.wants_response_stall(ordinal), None);
        }
    }
}
