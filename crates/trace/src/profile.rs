//! Benchmark behaviour profiles.
//!
//! A [`BenchProfile`] captures the aggregate trace properties of one
//! SPEC2000 benchmark — the knobs that determine how a thread interacts
//! with the fetch policy and the shared memory hierarchy. The concrete
//! per-benchmark values live in [`crate::spec`].

/// Integer vs floating-point suite (SPECint2000 vs SPECfp2000).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    Int,
    Fp,
}

/// Fractions of each instruction class in the dynamic stream.
///
/// The non-branch, non-memory remainder is split between the compute
/// classes according to the suite-specific weights below. All fields are
/// fractions of the *total* dynamic instruction count and must sum to at
/// most 1; the remainder becomes `IntAlu`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstrMix {
    /// Fraction of loads.
    pub load: f64,
    /// Fraction of stores.
    pub store: f64,
    /// Fraction of conditional branches.
    pub branch_cond: f64,
    /// Fraction of unconditional branches/jumps/calls.
    pub branch_uncond: f64,
    /// Fraction of integer multiplies.
    pub int_mul: f64,
    /// Fraction of FP adds.
    pub fp_alu: f64,
    /// Fraction of FP multiplies.
    pub fp_mul: f64,
    /// Fraction of FP divides.
    pub fp_div: f64,
}

impl InstrMix {
    /// Sum of all explicit class fractions (must be ≤ 1).
    pub fn total(&self) -> f64 {
        self.load
            + self.store
            + self.branch_cond
            + self.branch_uncond
            + self.int_mul
            + self.fp_alu
            + self.fp_mul
            + self.fp_div
    }

    /// Validate invariants; returns a human-readable error.
    pub fn validate(&self) -> Result<(), String> {
        let fields = [
            ("load", self.load),
            ("store", self.store),
            ("branch_cond", self.branch_cond),
            ("branch_uncond", self.branch_uncond),
            ("int_mul", self.int_mul),
            ("fp_alu", self.fp_alu),
            ("fp_mul", self.fp_mul),
            ("fp_div", self.fp_div),
        ];
        for (name, v) in fields {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("mix field {name} = {v} out of [0,1]"));
            }
        }
        let t = self.total();
        if t > 1.0 + 1e-9 {
            return Err(format!("mix fractions sum to {t} > 1"));
        }
        Ok(())
    }
}

/// Memory access behaviour of a benchmark.
///
/// Addresses are drawn from a mixture of three private working sets sized
/// so that, on the Fig. 1 hierarchy, accesses to the first hit in L1, the
/// second miss L1 but (when uncontended) hit the shared L2, and the third
/// miss all the way to memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemProfile {
    /// Probability an access targets the L1-resident working set.
    pub l1_frac: f64,
    /// Probability an access targets the L2-resident working set.
    pub l2_frac: f64,
    /// Probability an access targets the memory-resident working set
    /// (i.e. its steady-state L2 miss stream). `l1+l2+mem` must be 1.
    pub mem_frac: f64,
    /// Size in bytes of the L1-resident region (≤ L1D capacity).
    pub l1_ws_bytes: u64,
    /// Size in bytes of the L2-resident region.
    pub l2_ws_bytes: u64,
    /// Size in bytes of the memory-resident region (≫ L2 capacity).
    pub mem_ws_bytes: u64,
    /// Fraction of accesses that follow a sequential stride pattern
    /// rather than a random draw (spatial locality / prefetch-friendly).
    pub stride_frac: f64,
    /// Stride step in bytes for the L2- and memory-resident regions.
    /// 64 walks consecutive lines (spreads over all L2 banks); larger
    /// powers of two model array codes with big leading dimensions —
    /// a 256-byte stride on a 4-bank line-interleaved L2 hits the *same
    /// bank* every time, producing the per-bank hotspots of the paper's
    /// Fig. 7 and the hit-time tails of Fig. 4.
    pub stride_bytes: u64,
    /// Fraction of *loads* that form pointer-chasing chains: each such
    /// load depends on the previous load's result and targets the
    /// memory-resident region. This is what makes `mcf`-like threads
    /// stall the whole SMT core (Tullsen & Brown's motivating case).
    pub pointer_chase_frac: f64,
    /// Probability per instruction of toggling between the *calm* and
    /// *bursty* phase. In the bursty phase the memory-resident fraction
    /// is boosted, clustering L2 misses as real applications do.
    pub phase_toggle_prob: f64,
    /// Multiplier applied to `mem_frac` during bursty phases (≥ 1).
    pub burst_boost: f64,
}

impl MemProfile {
    /// Validate invariants; returns a human-readable error.
    pub fn validate(&self) -> Result<(), String> {
        let s = self.l1_frac + self.l2_frac + self.mem_frac;
        if (s - 1.0).abs() > 1e-3 {
            return Err(format!("l1+l2+mem fractions sum to {s}, expected 1"));
        }
        for (name, v) in [
            ("l1_frac", self.l1_frac),
            ("l2_frac", self.l2_frac),
            ("mem_frac", self.mem_frac),
            ("stride_frac", self.stride_frac),
            ("pointer_chase_frac", self.pointer_chase_frac),
            ("phase_toggle_prob", self.phase_toggle_prob),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("mem field {name} = {v} out of [0,1]"));
            }
        }
        if self.burst_boost < 1.0 {
            return Err(format!("burst_boost {} < 1", self.burst_boost));
        }
        if self.stride_bytes == 0 || !self.stride_bytes.is_multiple_of(8) {
            return Err(format!(
                "stride_bytes {} must be a multiple of 8",
                self.stride_bytes
            ));
        }
        if self.l1_ws_bytes == 0 || self.l2_ws_bytes == 0 || self.mem_ws_bytes == 0 {
            return Err("working sets must be non-empty".into());
        }
        if self.l1_ws_bytes > self.l2_ws_bytes || self.l2_ws_bytes > self.mem_ws_bytes {
            return Err("working sets must be nested: l1 ≤ l2 ≤ mem".into());
        }
        Ok(())
    }
}

/// Full behaviour profile of one benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchProfile {
    /// SPEC2000 benchmark name (e.g. `"mcf"`).
    pub name: &'static str,
    /// Single-letter key used by the paper's workload table (Fig. 1).
    pub key: char,
    /// Which SPEC suite it belongs to.
    pub suite: Suite,
    /// Dynamic instruction mix.
    pub mix: InstrMix,
    /// Mean register dependency distance (geometric distribution).
    /// Larger = more ILP = less sensitivity to any single stalled
    /// instruction.
    pub dep_mean_dist: f64,
    /// Target conditional-branch predictability in `[0.5, 1.0)`; the
    /// generator biases each static branch so that a learning predictor
    /// converges to roughly this accuracy.
    pub branch_predictability: f64,
    /// Static code footprint: number of basic blocks in the dictionary.
    /// Large footprints pressure the 64 KB L1 I-cache.
    pub code_blocks: u32,
    /// Mean basic block length in instructions.
    pub block_len_mean: f64,
    /// Memory behaviour.
    pub mem: MemProfile,
}

impl BenchProfile {
    /// Validate all invariants of the profile.
    pub fn validate(&self) -> Result<(), String> {
        self.mix
            .validate()
            .map_err(|e| format!("{}: {e}", self.name))?;
        self.mem
            .validate()
            .map_err(|e| format!("{}: {e}", self.name))?;
        if self.dep_mean_dist < 1.0 {
            return Err(format!("{}: dep_mean_dist < 1", self.name));
        }
        if !(0.5..1.0).contains(&self.branch_predictability) {
            return Err(format!(
                "{}: branch_predictability {} out of [0.5,1.0)",
                self.name, self.branch_predictability
            ));
        }
        if self.code_blocks == 0 {
            return Err(format!("{}: code_blocks == 0", self.name));
        }
        if self.block_len_mean < 2.0 {
            return Err(format!("{}: block_len_mean < 2", self.name));
        }
        if !self.key.is_ascii_lowercase() {
            return Err(format!("{}: key {:?} not a-z", self.name, self.key));
        }
        Ok(())
    }

    /// A rough scalar "memory-boundedness" score in `[0,1]` used for
    /// reporting and sanity tests: the steady-state fraction of accesses
    /// that leave the L1, weighted by pointer chasing.
    pub fn memory_boundedness(&self) -> f64 {
        let beyond_l1 = self.mem.l2_frac + self.mem.mem_frac;
        (beyond_l1 + self.mem.mem_frac + 0.5 * self.mem.pointer_chase_frac).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sane_mem() -> MemProfile {
        MemProfile {
            l1_frac: 0.9,
            l2_frac: 0.08,
            mem_frac: 0.02,
            l1_ws_bytes: 8 << 10,
            l2_ws_bytes: 256 << 10,
            mem_ws_bytes: 64 << 20,
            stride_frac: 0.5,
            stride_bytes: 64,
            pointer_chase_frac: 0.0,
            phase_toggle_prob: 0.001,
            burst_boost: 2.0,
        }
    }

    fn sane_mix() -> InstrMix {
        InstrMix {
            load: 0.25,
            store: 0.1,
            branch_cond: 0.12,
            branch_uncond: 0.03,
            int_mul: 0.01,
            fp_alu: 0.0,
            fp_mul: 0.0,
            fp_div: 0.0,
        }
    }

    fn sane_profile() -> BenchProfile {
        BenchProfile {
            name: "test",
            key: 't',
            suite: Suite::Int,
            mix: sane_mix(),
            dep_mean_dist: 4.0,
            branch_predictability: 0.92,
            code_blocks: 512,
            block_len_mean: 6.0,
            mem: sane_mem(),
        }
    }

    #[test]
    fn valid_profile_passes() {
        sane_profile().validate().unwrap();
    }

    #[test]
    fn mix_over_one_rejected() {
        let mut p = sane_profile();
        p.mix.load = 0.9;
        assert!(p.validate().is_err());
    }

    #[test]
    fn mem_fracs_must_sum_to_one() {
        let mut p = sane_profile();
        p.mem.l1_frac = 0.5;
        assert!(p.validate().is_err());
    }

    #[test]
    fn nested_working_sets_enforced() {
        let mut p = sane_profile();
        p.mem.l1_ws_bytes = 1 << 30;
        assert!(p.validate().is_err());
    }

    #[test]
    fn predictability_range_enforced() {
        let mut p = sane_profile();
        p.branch_predictability = 1.0;
        assert!(p.validate().is_err());
        p.branch_predictability = 0.3;
        assert!(p.validate().is_err());
    }

    #[test]
    fn memory_boundedness_monotone_in_mem_frac() {
        let mut lo = sane_profile();
        let mut hi = sane_profile();
        lo.mem.mem_frac = 0.01;
        lo.mem.l1_frac = 0.91;
        hi.mem.mem_frac = 0.2;
        hi.mem.l1_frac = 0.72;
        assert!(hi.memory_boundedness() > lo.memory_boundedness());
    }
}
