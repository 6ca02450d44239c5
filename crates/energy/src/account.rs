//! Energy accounting ledger.
//!
//! The core model reports every committed instruction and every squashed
//! instruction (with the deepest pipeline stage it completed and the
//! cause of the squash). The ledger then reproduces the paper's Fig. 11
//! "Wasted Energy": the extra energy the FLUSH mechanism spends
//! refetching instructions it threw away.

use crate::ecf::{accumulated_factor, PipelineStage, ALL_STAGES};

/// Why an instruction was squashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SquashCause {
    /// The fetch policy's FLUSH response action — this is what Fig. 11
    /// charges as *wasted* energy.
    Flush,
    /// Branch misprediction recovery (present under every policy,
    /// including ICOUNT; reported separately, not part of Fig. 11).
    BranchMispredict,
}

smtsim_obs::record! {
    /// Per-thread (or aggregated) energy ledger, in units of
    /// "energy to commit one instruction".
    #[derive(Debug, Clone, Default)]
    pub struct EnergyAccount {
        #[counter("instr")]
        /// Committed instructions.
        committed: u64,
        #[counter("instr")]
        /// Instructions squashed by FLUSH, by the deepest pipeline
        /// stage each completed (fetch to commit).
        flush_squashed: [u64; 8],
        #[counter("instr")]
        /// Instructions squashed by branch-mispredict recovery, by the
        /// deepest pipeline stage each completed.
        branch_squashed: [u64; 8],
        #[gauge("commit-energy units", "Fig. 11")]
        /// Energy spent on FLUSH-squashed instructions: each one
        /// charged the accumulated ECF of the deepest stage it
        /// completed.
        "wasted_energy": f64 = |a| a.wasted_energy(),
        #[gauge("fraction")]
        /// `wasted_energy` over the energy of the committed
        /// instructions (0 when nothing committed).
        "waste_ratio": f64 = |a| a.waste_ratio(),
    }
    decode;
}

impl EnergyAccount {
    /// Fresh ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one committed instruction (1 energy unit of useful work).
    #[inline]
    pub fn commit(&mut self) {
        self.committed += 1;
    }

    /// Record `n` committed instructions.
    #[inline]
    pub fn commit_n(&mut self, n: u64) {
        self.committed += n;
    }

    /// Record a squashed instruction whose deepest *completed* stage was
    /// `stage`.
    #[inline]
    pub fn squash(&mut self, cause: SquashCause, stage: PipelineStage) {
        match cause {
            SquashCause::Flush => self.flush_squashed[stage.index()] += 1,
            SquashCause::BranchMispredict => self.branch_squashed[stage.index()] += 1,
        }
    }

    /// Committed instructions.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Instructions squashed by the FLUSH mechanism.
    pub fn flush_squashed_total(&self) -> u64 {
        self.flush_squashed.iter().sum()
    }

    /// Instructions squashed by branch mispredictions.
    pub fn branch_squashed_total(&self) -> u64 {
        self.branch_squashed.iter().sum()
    }

    /// Per-stage flush-squash counts (pipeline order).
    pub fn flush_squashed_by_stage(&self) -> [u64; 8] {
        self.flush_squashed
    }

    /// Per-stage mispredict-squash counts (pipeline order).
    pub fn branch_squashed_by_stage(&self) -> [u64; 8] {
        self.branch_squashed
    }

    /// Fig. 11's *Wasted Energy*: Σ over flush-squashed instructions of
    /// the accumulated ECF of the deepest stage each one completed.
    pub fn wasted_energy(&self) -> f64 {
        ALL_STAGES
            .iter()
            .map(|&s| self.flush_squashed[s.index()] as f64 * accumulated_factor(s))
            .sum()
    }

    /// Energy wasted by wrong-path work after branch mispredictions
    /// (same formula, different cause; not part of Fig. 11 but reported
    /// for completeness).
    pub fn mispredict_energy(&self) -> f64 {
        ALL_STAGES
            .iter()
            .map(|&s| self.branch_squashed[s.index()] as f64 * accumulated_factor(s))
            .sum()
    }

    /// Useful energy: one unit per committed instruction.
    pub fn useful_energy(&self) -> f64 {
        self.committed as f64
    }

    /// Total energy = useful + flush waste + mispredict waste.
    pub fn total_energy(&self) -> f64 {
        self.useful_energy() + self.wasted_energy() + self.mispredict_energy()
    }

    /// Wasted-energy overhead relative to useful work (0 when nothing
    /// committed).
    pub fn waste_ratio(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.wasted_energy() / self.useful_energy()
        }
    }

    /// Merge another ledger into this one.
    pub fn merge(&mut self, other: &EnergyAccount) {
        self.committed += other.committed;
        for i in 0..8 {
            self.flush_squashed[i] += other.flush_squashed[i];
            self.branch_squashed[i] += other.branch_squashed[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ledger_is_zero() {
        let a = EnergyAccount::new();
        assert_eq!(a.committed(), 0);
        assert_eq!(a.wasted_energy(), 0.0);
        assert_eq!(a.total_energy(), 0.0);
        assert_eq!(a.waste_ratio(), 0.0);
    }

    #[test]
    fn commit_costs_one_unit() {
        let mut a = EnergyAccount::new();
        a.commit_n(100);
        assert_eq!(a.useful_energy(), 100.0);
        assert_eq!(a.total_energy(), 100.0);
    }

    #[test]
    fn flush_waste_uses_accumulated_factor() {
        let mut a = EnergyAccount::new();
        // Squashed after Queue: accumulated 0.64.
        a.squash(SquashCause::Flush, PipelineStage::Queue);
        assert!((a.wasted_energy() - 0.64).abs() < 1e-12);
        // Squashed after Fetch: accumulated 0.13.
        a.squash(SquashCause::Flush, PipelineStage::Fetch);
        assert!((a.wasted_energy() - 0.77).abs() < 1e-12);
    }

    #[test]
    fn deeper_squashes_waste_more() {
        let mut early = EnergyAccount::new();
        let mut late = EnergyAccount::new();
        early.squash(SquashCause::Flush, PipelineStage::Decode);
        late.squash(SquashCause::Flush, PipelineStage::Execute);
        assert!(late.wasted_energy() > early.wasted_energy());
    }

    #[test]
    fn mispredict_energy_is_separate() {
        let mut a = EnergyAccount::new();
        a.squash(SquashCause::BranchMispredict, PipelineStage::Execute);
        assert_eq!(a.wasted_energy(), 0.0);
        assert!((a.mispredict_energy() - 0.82).abs() < 1e-12);
        assert!((a.total_energy() - 0.82).abs() < 1e-12);
    }

    #[test]
    fn waste_ratio_relative_to_useful() {
        let mut a = EnergyAccount::new();
        a.commit_n(10);
        a.squash(SquashCause::Flush, PipelineStage::Commit); // 1.0 wasted
        assert!((a.waste_ratio() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = EnergyAccount::new();
        let mut b = EnergyAccount::new();
        a.commit_n(5);
        a.squash(SquashCause::Flush, PipelineStage::Fetch);
        b.commit_n(7);
        b.squash(SquashCause::Flush, PipelineStage::Fetch);
        b.squash(SquashCause::BranchMispredict, PipelineStage::Queue);
        a.merge(&b);
        assert_eq!(a.committed(), 12);
        assert_eq!(a.flush_squashed_total(), 2);
        assert_eq!(a.branch_squashed_total(), 1);
        assert!((a.wasted_energy() - 0.26).abs() < 1e-12);
    }

    #[test]
    fn by_stage_view_matches_totals() {
        let mut a = EnergyAccount::new();
        a.squash(SquashCause::Flush, PipelineStage::Rename);
        a.squash(SquashCause::Flush, PipelineStage::Rename);
        a.squash(SquashCause::Flush, PipelineStage::Commit);
        let by = a.flush_squashed_by_stage();
        assert_eq!(by[PipelineStage::Rename.index()], 2);
        assert_eq!(by[PipelineStage::Commit.index()], 1);
        assert_eq!(a.flush_squashed_total(), 3);
    }
}
