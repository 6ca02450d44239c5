//! Static basic-block dictionary.
//!
//! SMTsim keeps a separate dictionary of all static instructions so that
//! the simulator can fetch *wrong-path* instructions after a branch
//! misprediction and model their effect on the I-cache and branch
//! predictor (paper §2). We reproduce that: the synthetic program is a
//! set of basic blocks laid out contiguously in a code segment; the
//! generator walks the control-flow graph on the correct path, and the
//! pipeline can ask the dictionary for instructions at *any* PC to fill
//! the wrong path.

use crate::instr::{DynInstr, InstrClass, UncondKind};
use crate::profile::BenchProfile;
use crate::rng::Xoshiro256pp;
use std::collections::VecDeque;

/// Base address of the synthetic code segments. Each benchmark's code
/// lives at `CODE_BASE + hash(name) · CODE_SPACING`, so instances of the
/// same binary share code lines (as real co-scheduled copies would)
/// while different binaries never alias.
pub const CODE_BASE: u64 = 0x0040_0000;

/// Spacing between per-benchmark code segments (32 MB ≫ any dictionary).
pub const CODE_SPACING: u64 = 32 << 20;

/// Deterministic code-segment base for a benchmark name.
pub fn code_segment_base(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    CODE_BASE + (h % 1024) * CODE_SPACING
}

/// Kind of a block's terminating branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermKind {
    /// Conditional branch with a taken-bias.
    Cond,
    /// Unconditional direct jump.
    Jump,
    /// Call: control continues at `taken_succ` (the function entry)
    /// and the fall-through is pushed as the return site.
    Call,
    /// Return: control continues at the caller's fall-through
    /// (dynamic); `taken_succ` is only the fallback for an empty call
    /// stack.
    Ret,
}

/// One static basic block: a run of non-branch instructions terminated by
/// a branch. Its instruction classes sit in the owning dictionary's flat
/// class array ([`BasicBlockDict::classes`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BasicBlock {
    /// Address of the first instruction.
    pub base_pc: u64,
    /// Index of the block's first class in the dictionary's class array.
    start: u32,
    /// Number of instructions; the last one is always a branch.
    len: u32,
    /// Taken-probability of the terminating branch (1.0 for unconditional).
    pub bias: f64,
    /// Index of the successor block when the branch is taken.
    pub taken_succ: u32,
    /// Index of the successor block on fall-through.
    pub fallthrough_succ: u32,
    /// Terminator kind.
    pub term: TermKind,
}

impl BasicBlock {
    /// Number of instructions in the block.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the block holds no instructions (never happens for
    /// generated dictionaries; kept for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// PC one past the end of the block (the fall-through target).
    #[inline]
    pub fn end_pc(&self) -> u64 {
        self.base_pc + 4 * self.len as u64
    }
}

/// The whole static program of one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BasicBlockDict {
    blocks: Vec<BasicBlock>,
    /// Every block's instruction classes, back to back in block order
    /// (one allocation per dictionary, indexed by `BasicBlock::start`).
    classes: Vec<InstrClass>,
    /// First instruction address (benchmark-specific segment).
    base: u64,
    /// Total code bytes (blocks are contiguous from `base`).
    code_bytes: u64,
}

impl BasicBlockDict {
    /// Deterministically build the dictionary for a benchmark profile.
    ///
    /// Layout: `profile.code_blocks` blocks, geometric lengths with mean
    /// `profile.block_len_mean`, placed back to back from [`CODE_BASE`].
    /// Every block ends in a branch; a fraction of terminators
    /// (`branch_uncond / (branch_cond + branch_uncond)`) are
    /// unconditional. Conditional branches get a per-block taken bias
    /// drawn so that a learning direction predictor converges to roughly
    /// `profile.branch_predictability` accuracy (see `choose_bias`).
    /// Taken targets prefer nearby blocks — backward with high bias
    /// (loops), forward otherwise — giving realistic I-cache and BTB
    /// locality.
    pub fn generate(profile: &BenchProfile, seed: u64) -> Self {
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x5eed_b10c_d1c7_0000);
        let n = profile.code_blocks.max(2) as usize;
        let uncond_frac = {
            let b = profile.mix.branch_cond + profile.mix.branch_uncond;
            if b > 0.0 {
                profile.mix.branch_uncond / b
            } else {
                0.1
            }
        };

        // First pass: lengths and layout.
        let mut lengths = Vec::with_capacity(n);
        let mean = profile.block_len_mean.max(2.0);
        for _ in 0..n {
            // Geometric length ≥ 2 (at least one body instr + branch).
            let p = 1.0 / (mean - 1.0);
            let mut len = 2usize;
            while len < 64 && rng.gen::<f64>() > p {
                len += 1;
            }
            lengths.push(len);
        }

        let base = code_segment_base(profile.name);
        let mut blocks = Vec::with_capacity(n);
        let mut classes = Vec::with_capacity(lengths.iter().sum());
        let mut pc = base;
        for (idx, &len) in lengths.iter().enumerate() {
            // The final block has no physically contiguous successor —
            // its fall-through wraps to the segment base — so it must
            // end in an unconditional branch or a not-taken conditional
            // would break PC continuity.
            let uncond = idx == n - 1 || rng.gen::<f64>() < uncond_frac;
            let (term, bias, taken_succ) = if uncond {
                // Split unconditional terminators into jumps, calls and
                // returns (returns slightly rarer; an unmatched return
                // falls back to its static target).
                let r = rng.gen::<f64>();
                let term = if r < 0.45 {
                    TermKind::Jump
                } else if r < 0.75 {
                    TermKind::Call
                } else {
                    TermKind::Ret
                };
                (term, 1.0, Self::pick_target(&mut rng, idx, n, false))
            } else {
                let backward = rng.gen::<f64>() < 0.45;
                let bias = Self::choose_bias(&mut rng, profile.branch_predictability, backward);
                (
                    TermKind::Cond,
                    bias,
                    Self::pick_target(&mut rng, idx, n, backward),
                )
            };
            let start = classes.len();
            Self::push_body_classes(&mut rng, profile, len - 1, &mut classes);
            classes.push(if uncond {
                InstrClass::BranchUncond
            } else {
                InstrClass::BranchCond
            });
            let fallthrough_succ = ((idx + 1) % n) as u32;
            blocks.push(BasicBlock {
                base_pc: pc,
                start: start as u32,
                len: len as u32,
                bias,
                taken_succ,
                fallthrough_succ,
                term,
            });
            pc += 4 * len as u64;
        }

        BasicBlockDict {
            blocks,
            classes,
            base,
            code_bytes: pc - base,
        }
    }

    /// Append `n` body slots to `out`: non-branch classes matching the
    /// profile mix *within the block* (largest-remainder quotas, then a
    /// shuffle for intra-block ordering).
    ///
    /// Stratifying per block instead of drawing each slot independently
    /// keeps the *executed* stream on the profile targets no matter how
    /// unevenly the control flow weights blocks: loops replay the same
    /// few hot blocks thousands of times, so with independent draws the
    /// stream mix is whatever those particular blocks happened to get.
    fn push_body_classes(
        rng: &mut Xoshiro256pp,
        profile: &BenchProfile,
        n: usize,
        out: &mut Vec<InstrClass>,
    ) {
        let m = &profile.mix;
        // Weights normalised over the non-branch classes; IntAlu takes
        // whatever the profile leaves unassigned.
        let named = [
            (InstrClass::Load, m.load),
            (InstrClass::Store, m.store),
            (InstrClass::IntMul, m.int_mul),
            (InstrClass::FpAlu, m.fp_alu),
            (InstrClass::FpMul, m.fp_mul),
            (InstrClass::FpDiv, m.fp_div),
        ];
        let non_branch = (1.0 - m.branch_cond - m.branch_uncond).max(1e-9);
        let int_alu = (non_branch - named.iter().map(|(_, w)| w).sum::<f64>()).max(0.0);
        let weights = [
            named[0], named[1], named[2], named[3], named[4], named[5],
            (InstrClass::IntAlu, int_alu),
        ];

        // Largest-remainder apportionment of the n slots. The extra
        // slots are drawn proportionally to the remainders rather than
        // by a fixed tie-break: remainders depend only on (len, mix),
        // so a deterministic rule would starve the same classes in
        // every block of a given length and the rounding error would
        // never average out across the dictionary.
        let mut quotas = [0usize; 7];
        let mut rem = [0.0f64; 7];
        let mut assigned = 0usize;
        for (i, &(_, w)) in weights.iter().enumerate() {
            let exact = n as f64 * w / non_branch;
            quotas[i] = exact.floor() as usize;
            assigned += quotas[i];
            rem[i] = exact - exact.floor();
        }
        for _ in assigned..n {
            let total: f64 = rem.iter().sum();
            let mut r = rng.gen::<f64>() * total;
            let mut pick = rem.len() - 1;
            for (i, &w) in rem.iter().enumerate() {
                if r < w {
                    pick = i;
                    break;
                }
                r -= w;
            }
            quotas[pick] += 1;
            rem[pick] = 0.0;
        }

        let start = out.len();
        for (i, &(class, _)) in weights.iter().enumerate() {
            out.extend(std::iter::repeat_n(class, quotas[i]));
        }
        let body = &mut out[start..];
        debug_assert_eq!(body.len(), n);
        // Fisher–Yates for the intra-block ordering.
        for i in (1..body.len()).rev() {
            let j = rng.gen_range(0..=i);
            body.swap(i, j);
        }
    }

    /// Choose a taken-bias such that a learning predictor's expected
    /// accuracy over all conditional branches approaches the profile
    /// target. A fraction `q` of branches are strongly biased (accuracy
    /// ≈ 0.995 once learned); the rest are weakly biased (expected
    /// accuracy ≈ 0.57 for a bias uniform in [0.2, 0.8], measured
    /// against this crate's perceptron with its 256-entry aliasing).
    fn choose_bias(rng: &mut Xoshiro256pp, target: f64, backward: bool) -> f64 {
        const STRONG: f64 = 0.995;
        const WEAK_EXP: f64 = 0.57;
        let q = ((target - WEAK_EXP) / (STRONG - WEAK_EXP)).clamp(0.0, 1.0);
        if rng.gen::<f64>() < q {
            // Strongly biased. Backward branches are loops: biased taken.
            if backward || rng.gen::<f64>() < 0.6 {
                STRONG
            } else {
                1.0 - STRONG
            }
        } else if backward {
            // Weak backward branches are still loops — keep them biased
            // taken so loop-heavy streams never degenerate to a fair
            // coin on aggregate.
            rng.gen_range(0.55..0.9)
        } else {
            rng.gen_range(0.2..0.8)
        }
    }

    /// Pick a taken-target block index near `idx`.
    fn pick_target(rng: &mut Xoshiro256pp, idx: usize, n: usize, backward: bool) -> u32 {
        let span = (n / 8).clamp(1, 64) as i64;
        let dist = rng.gen_range(1..=span);
        let t = if backward {
            (idx as i64 - dist).rem_euclid(n as i64)
        } else if rng.gen::<f64>() < 0.9 {
            (idx as i64 + dist).rem_euclid(n as i64)
        } else {
            rng.gen_range(0..n as i64)
        };
        t as u32
    }

    /// Number of basic blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total code footprint in bytes.
    pub fn code_bytes(&self) -> u64 {
        self.code_bytes
    }

    /// Access a block by index.
    #[inline]
    pub fn block(&self, idx: u32) -> &BasicBlock {
        &self.blocks[idx as usize]
    }

    /// Per-slot instruction classes of block `idx`; the last slot is
    /// always its branch.
    #[inline]
    pub fn classes(&self, idx: u32) -> &[InstrClass] {
        let b = self.block(idx);
        &self.classes[b.start as usize..(b.start + b.len) as usize]
    }

    /// Class of the instruction in `slot` of `block`.
    #[inline]
    pub(crate) fn class_at(&self, block: &BasicBlock, slot: usize) -> InstrClass {
        self.classes[block.start as usize + slot]
    }

    /// Entry point of the program.
    pub fn entry_pc(&self) -> u64 {
        self.base
    }

    /// Find the block containing `pc`, clamping any out-of-segment PC
    /// back into the code segment (wrong-path targets can be arbitrary).
    pub fn block_index_at(&self, pc: u64) -> u32 {
        let off = pc.saturating_sub(self.base) % self.code_bytes.max(4);
        // Binary search over base offsets.
        let target = self.base + (off & !3);
        match self
            .blocks
            .binary_search_by(|b| b.base_pc.cmp(&target))
        {
            Ok(i) => i as u32,
            Err(0) => 0,
            Err(i) => {
                let cand = i - 1;
                if target < self.blocks[cand].end_pc() {
                    cand as u32
                } else {
                    (i % self.blocks.len()) as u32
                }
            }
        }
    }

    /// Synthesise `n` wrong-path instructions starting at `pc`,
    /// appending them to `out` (into-style so the core's per-thread
    /// wrong-path buffer is reused — rule D10: the fetch path must not
    /// allocate).
    ///
    /// Wrong-path instructions never commit; they exist to occupy fetch
    /// bandwidth and pollute the I-cache exactly as SMTsim models. The
    /// stream follows fall-through / always-taken unconditional control
    /// flow through the dictionary (the machine has no outcomes for the
    /// wrong path, so conditional branches are treated as not-taken).
    pub fn synth_wrong_path_into(&self, pc: u64, n: usize, out: &mut VecDeque<DynInstr>) {
        let mut pushed = 0usize;
        let mut bi = self.block_index_at(pc);
        let mut block = self.block(bi);
        // Offset within the block.
        let mut slot =
            (((pc.saturating_sub(block.base_pc)) / 4) as usize).min(block.len() - 1);
        while pushed < n {
            let cls = self.class_at(block, slot);
            let ipc = block.base_pc + 4 * slot as u64;
            let mut instr = DynInstr::nop(0, ipc);
            instr.class = cls;
            if cls == InstrClass::BranchUncond {
                let t = self.block(block.taken_succ).base_pc;
                instr.taken = true;
                instr.target = t;
                instr.uncond_kind = UncondKind::Jump;
            }
            out.push_back(instr);
            pushed += 1;
            if slot + 1 < block.len() && cls != InstrClass::BranchUncond {
                slot += 1;
            } else {
                bi = if cls == InstrClass::BranchUncond {
                    block.taken_succ
                } else {
                    block.fallthrough_succ
                };
                block = self.block(bi);
                slot = 0;
            }
        }
    }

    /// Allocating convenience wrapper over
    /// [`Self::synth_wrong_path_into`] (tests and tools; the cores use
    /// the into-variant with a reusable buffer).
    pub fn synth_wrong_path(&self, pc: u64, n: usize) -> Vec<DynInstr> {
        let mut out = VecDeque::with_capacity(n);
        self.synth_wrong_path_into(pc, n, &mut out);
        out.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    fn dict_for(name: &str) -> BasicBlockDict {
        BasicBlockDict::generate(spec::benchmark_by_name(name).unwrap(), 7)
    }

    #[test]
    fn deterministic_generation() {
        let p = spec::benchmark_by_name("gzip").unwrap();
        let a = BasicBlockDict::generate(p, 1);
        let b = BasicBlockDict::generate(p, 1);
        assert_eq!(a.num_blocks(), b.num_blocks());
        for i in 0..a.num_blocks() as u32 {
            assert_eq!(a.block(i).base_pc, b.block(i).base_pc);
            assert_eq!(a.classes(i), b.classes(i));
            assert_eq!(a.block(i).taken_succ, b.block(i).taken_succ);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let p = spec::benchmark_by_name("gzip").unwrap();
        let a = BasicBlockDict::generate(p, 1);
        let b = BasicBlockDict::generate(p, 2);
        let differs = (0..a.num_blocks().min(b.num_blocks()) as u32)
            .any(|i| a.classes(i) != b.classes(i));
        assert!(differs);
    }

    #[test]
    fn blocks_are_contiguous_and_terminated_by_branches() {
        let d = dict_for("gcc");
        let mut pc = d.entry_pc();
        for i in 0..d.num_blocks() as u32 {
            let b = d.block(i);
            assert_eq!(b.base_pc, pc, "block {i} not contiguous");
            assert!(b.len() >= 2);
            let classes = d.classes(i);
            assert_eq!(classes.len(), b.len());
            assert!(classes.last().unwrap().is_branch());
            for c in &classes[..b.len() - 1] {
                assert!(!c.is_branch(), "body instruction is a branch");
            }
            pc = b.end_pc();
        }
        assert_eq!(pc - d.entry_pc(), d.code_bytes());
    }

    #[test]
    fn block_lookup_finds_containing_block() {
        let d = dict_for("vpr");
        for i in (0..d.num_blocks() as u32).step_by(17) {
            let b = d.block(i);
            for slot in 0..b.len() {
                let pc = b.base_pc + 4 * slot as u64;
                assert_eq!(d.block_index_at(pc), i, "pc {pc:#x}");
            }
        }
    }

    #[test]
    fn block_lookup_clamps_wild_pcs() {
        let d = dict_for("vpr");
        for pc in [0u64, 0xdead_beef_0000, u64::MAX - 7] {
            let bi = d.block_index_at(pc);
            assert!((bi as usize) < d.num_blocks());
        }
    }

    #[test]
    fn wrong_path_stream_has_requested_length_and_valid_pcs() {
        let d = dict_for("mcf");
        let wp = d.synth_wrong_path(d.entry_pc() + 8, 50);
        assert_eq!(wp.len(), 50);
        for i in &wp {
            let bi = d.block_index_at(i.pc);
            let b = d.block(bi);
            assert!(i.pc >= b.base_pc && i.pc < b.end_pc());
        }
    }

    #[test]
    fn code_footprint_tracks_profile() {
        let small = dict_for("swim"); // 150 blocks
        let big = dict_for("vortex"); // 5000 blocks
        assert!(big.code_bytes() > 4 * small.code_bytes());
    }

    #[test]
    fn mean_block_length_is_near_profile() {
        let p = spec::benchmark_by_name("lucas").unwrap(); // mean 15
        let d = BasicBlockDict::generate(p, 3);
        let total: usize = (0..d.num_blocks() as u32).map(|i| d.block(i).len()).sum();
        let mean = total as f64 / d.num_blocks() as f64;
        assert!(
            (mean - p.block_len_mean).abs() < p.block_len_mean * 0.35,
            "mean {mean} vs target {}",
            p.block_len_mean
        );
    }

    #[test]
    fn conditional_biases_within_range() {
        let d = dict_for("twolf");
        for i in 0..d.num_blocks() as u32 {
            let b = d.block(i);
            assert!((0.0..=1.0).contains(&b.bias));
            if *d.classes(i).last().unwrap() == InstrClass::BranchUncond {
                assert_eq!(b.bias, 1.0);
            }
        }
    }
}
