//! The Energy Consumption Factor table (paper Fig. 10) and the
//! per-resource energy distribution it is derived from (paper Fig. 9).

/// The eight accounted pipeline stages of the paper's 11-stage core
/// (Fig. 9b/Fig. 10 granularity; the remaining physical stages are
/// sub-stages of these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum PipelineStage {
    Fetch = 0,
    Decode = 1,
    Rename = 2,
    /// Issue-queue residency (wakeup/select) — the single most expensive
    /// stage in Fig. 10, which is why queue-clogging threads are so
    /// costly.
    Queue = 3,
    RegRead = 4,
    Execute = 5,
    RegWrite = 6,
    Commit = 7,
}

/// All stages in pipeline order.
pub const ALL_STAGES: [PipelineStage; 8] = [
    PipelineStage::Fetch,
    PipelineStage::Decode,
    PipelineStage::Rename,
    PipelineStage::Queue,
    PipelineStage::RegRead,
    PipelineStage::Execute,
    PipelineStage::RegWrite,
    PipelineStage::Commit,
];

/// Local Energy Consumption Factor of each stage (paper Fig. 10, "Local"
/// column). Sums to 1.0: the energy to commit one instruction.
pub const LOCAL_ECF: [f64; 8] = [0.13, 0.03, 0.22, 0.26, 0.05, 0.13, 0.05, 0.13];

/// Accumulated ECF (paper Fig. 10, "Accumulated" column): energy already
/// spent by an instruction that has *completed* the given stage.
pub const ACCUMULATED_ECF: [f64; 8] = [0.13, 0.16, 0.38, 0.64, 0.69, 0.82, 0.87, 1.00];

impl PipelineStage {
    /// Stage index in pipeline order.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Human-readable name matching the paper's table.
    pub fn name(self) -> &'static str {
        match self {
            PipelineStage::Fetch => "Fetch",
            PipelineStage::Decode => "Decode",
            PipelineStage::Rename => "Rename",
            PipelineStage::Queue => "Queue",
            PipelineStage::RegRead => "Reg. Read",
            PipelineStage::Execute => "Execute",
            PipelineStage::RegWrite => "Reg. Write",
            PipelineStage::Commit => "Commit",
        }
    }

    /// Next stage, or `None` after commit.
    pub fn next(self) -> Option<PipelineStage> {
        let i = self.index();
        ALL_STAGES.get(i + 1).copied()
    }
}

/// Local ECF of `stage`.
#[inline]
pub fn local_factor(stage: PipelineStage) -> f64 {
    LOCAL_ECF[stage.index()]
}

/// Accumulated ECF of an instruction that completed `stage` — the energy
/// wasted if it is squashed right after.
#[inline]
pub fn accumulated_factor(stage: PipelineStage) -> f64 {
    ACCUMULATED_ECF[stage.index()]
}

/// One row of the paper's Fig. 9(a): share of core energy per hardware
/// resource, with the pipeline stage(s) that exercise it (Fig. 9(b)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceEnergy {
    pub resource: &'static str,
    /// Percentage of core energy (sums to 100 across the table).
    pub percent: f64,
    /// Stage the resource is charged to in the ECF.
    pub stage: PipelineStage,
}

/// Fig. 9 energy distribution. The paper plots these as a chart citing
/// Folegnani & González (ISCA'01); the values below are chosen so the
/// per-stage sums reproduce Fig. 10's local factors exactly.
pub const RESOURCE_ENERGY: [ResourceEnergy; 10] = [
    ResourceEnergy {
        resource: "I-cache",
        percent: 8.0,
        stage: PipelineStage::Fetch,
    },
    ResourceEnergy {
        resource: "Branch predictor",
        percent: 5.0,
        stage: PipelineStage::Fetch,
    },
    ResourceEnergy {
        resource: "Decode logic",
        percent: 3.0,
        stage: PipelineStage::Decode,
    },
    ResourceEnergy {
        resource: "Rename table",
        percent: 22.0,
        stage: PipelineStage::Rename,
    },
    ResourceEnergy {
        resource: "Issue queue (wakeup+select)",
        percent: 26.0,
        stage: PipelineStage::Queue,
    },
    ResourceEnergy {
        resource: "Register file (read)",
        percent: 5.0,
        stage: PipelineStage::RegRead,
    },
    ResourceEnergy {
        resource: "Functional units",
        percent: 7.0,
        stage: PipelineStage::Execute,
    },
    ResourceEnergy {
        resource: "D-cache",
        percent: 6.0,
        stage: PipelineStage::Execute,
    },
    ResourceEnergy {
        resource: "Register file (write)",
        percent: 5.0,
        stage: PipelineStage::RegWrite,
    },
    ResourceEnergy {
        resource: "ROB / commit",
        percent: 13.0,
        stage: PipelineStage::Commit,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_factors_match_paper_table() {
        assert_eq!(local_factor(PipelineStage::Fetch), 0.13);
        assert_eq!(local_factor(PipelineStage::Decode), 0.03);
        assert_eq!(local_factor(PipelineStage::Rename), 0.22);
        assert_eq!(local_factor(PipelineStage::Queue), 0.26);
        assert_eq!(local_factor(PipelineStage::RegRead), 0.05);
        assert_eq!(local_factor(PipelineStage::Execute), 0.13);
        assert_eq!(local_factor(PipelineStage::RegWrite), 0.05);
        assert_eq!(local_factor(PipelineStage::Commit), 0.13);
    }

    #[test]
    fn accumulated_is_prefix_sum_of_local() {
        let mut acc = 0.0;
        for s in ALL_STAGES {
            acc += local_factor(s);
            assert!(
                (accumulated_factor(s) - acc).abs() < 1e-9,
                "{}: accumulated {} vs prefix sum {acc}",
                s.name(),
                accumulated_factor(s)
            );
        }
    }

    #[test]
    fn commit_costs_exactly_one_unit() {
        assert!((accumulated_factor(PipelineStage::Commit) - 1.0).abs() < 1e-12);
        let total: f64 = LOCAL_ECF.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stages_are_ordered_and_linked() {
        let mut s = PipelineStage::Fetch;
        let mut count = 1;
        while let Some(n) = s.next() {
            assert!(n > s);
            s = n;
            count += 1;
        }
        assert_eq!(count, 8);
        assert_eq!(s, PipelineStage::Commit);
    }

    #[test]
    fn resource_table_sums_to_100_percent() {
        let total: f64 = RESOURCE_ENERGY.iter().map(|r| r.percent).sum();
        assert!((total - 100.0).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn resource_table_reproduces_local_factors() {
        for stage in ALL_STAGES {
            let pct: f64 = RESOURCE_ENERGY
                .iter()
                .filter(|r| r.stage == stage)
                .map(|r| r.percent)
                .sum();
            assert!(
                (pct / 100.0 - local_factor(stage)).abs() < 1e-9,
                "{}: resources {pct}% vs local ECF {}",
                stage.name(),
                local_factor(stage)
            );
        }
    }
}
