//! Reduced-fidelity trace generator for the IPC-approx core backend.
//!
//! [`FastTraceGenerator`] walks the same basic-block dictionary and
//! draws memory addresses from the same [`MemStream`] as the detailed
//! [`crate::TraceGenerator`], but skips everything the commit-rate core
//! model never reads:
//!
//! * **register dependencies** — no geometric-distance sampling, no
//!   writer window; `srcs`/`dst` stay `None`. This is the detailed
//!   generator's dominant cost (one RNG draw *per unit of dependency
//!   distance*, twice per compute instruction), so eliding it is what
//!   makes reduced-fidelity runs clear the 5x speedup floor;
//! * **pointer-chase chain tracking** — the chase *rate* is preserved
//!   (one draw against the profile's effective chase fraction) but the
//!   chain identity is not, since there is no load destination register
//!   to chain through.
//!
//! Everything observable by the approx backend — instruction class mix,
//! PCs, control flow, memory address stream shape, sequence numbers —
//! is drawn from the same profile with the same determinism guarantee:
//! one `(profile, seed)` pair produces one stream, byte for byte.
//! The stream *differs* from the detailed generator's (the RNG is
//! consumed at different rates), which is exactly the fidelity contract:
//! reduced-fidelity runs are statistically comparable, not cycle-exact.

use crate::bbdict::{BasicBlockDict, TermKind};
use crate::gen::CHASE_CHAIN_BREAK;
use crate::instr::{DynInstr, InstrClass, UncondKind};
use crate::memstream::MemStream;
use crate::profile::BenchProfile;
use crate::rng::Xoshiro256pp;
use crate::stream::InstrStream;
use std::sync::Arc;

/// Maximum modelled call depth (same bound as the detailed generator).
const CALL_STACK_MAX: usize = 64;

/// Deterministic, dependency-free instruction stream for one thread.
///
/// See the module docs for what is (and is not) modelled relative to
/// [`crate::TraceGenerator`].
pub struct FastTraceGenerator {
    profile: &'static BenchProfile,
    dict: Arc<BasicBlockDict>,
    mem: MemStream,
    rng: Xoshiro256pp,
    /// Current block / slot cursor.
    block: u32,
    slot: usize,
    /// Next dynamic sequence number.
    seq: u64,
    /// Call stack of return-site block indices (bounded).
    call_stack: Vec<u32>,
    /// Pending dynamic return target (set while emitting a `Ret`).
    ret_target: Option<u32>,
    /// Effective pointer-chase probability (base fraction times the
    /// chain-continue probability, folded into a single draw) as a
    /// fixed-point `u64` threshold: `draw < chase_t` hits with the
    /// same probability as an `f64` compare, one conversion cheaper.
    chase_t: u64,
}

impl FastTraceGenerator {
    /// Build a generator for `profile` with behavioural seed `seed`.
    /// The code layout (and therefore every PC) is identical to the
    /// detailed generator's for the same benchmark.
    pub fn new(profile: &'static BenchProfile, seed: u64) -> Self {
        let dict = crate::gen::shared_dict(profile);
        Self::with_dict(profile, dict, seed)
    }

    /// Build a generator reusing an existing dictionary.
    pub fn with_dict(
        profile: &'static BenchProfile,
        dict: Arc<BasicBlockDict>,
        seed: u64,
    ) -> Self {
        FastTraceGenerator {
            profile,
            dict,
            mem: MemStream::new(&profile.mem, seed, seed & 0xffff),
            rng: Xoshiro256pp::seed_from_u64(seed ^ 0x7ace_9e4e_0000_0001),
            block: 0,
            slot: 0,
            seq: 0,
            call_stack: Vec::with_capacity(CALL_STACK_MAX),
            ret_target: None,
            chase_t: ((profile.mem.pointer_chase_frac * (1.0 - CHASE_CHAIN_BREAK))
                * (u64::MAX as f64)) as u64,
        }
    }

    /// The benchmark profile this generator follows.
    pub fn profile(&self) -> &'static BenchProfile {
        self.profile
    }

    /// Shared handle to the static code dictionary.
    pub fn dict_arc(&self) -> Arc<BasicBlockDict> {
        Arc::clone(&self.dict)
    }

    /// Base addresses of this thread's [L1, L2, Mem] data regions (for
    /// cache warm-up by simulation drivers).
    pub fn data_region_bases(&self) -> [u64; 3] {
        self.mem.region_bases()
    }
}

impl InstrStream for FastTraceGenerator {
    fn next_instr(&mut self) -> DynInstr {
        // Field-disjoint borrows: `dict` is only read, the RNG and
        // memory stream are only written, so no per-instruction
        // `Arc::clone` is needed.
        let dict = &self.dict;
        let block = dict.block(self.block);
        let cls = block.classes[self.slot];
        let pc = block.base_pc + 4 * self.slot as u64;
        let seq = self.seq;
        self.seq += 1;

        let mut instr = DynInstr {
            seq,
            pc,
            class: cls,
            srcs: [None, None],
            dst: None,
            mem_addr: 0,
            taken: false,
            target: pc + 4,
            uncond_kind: UncondKind::Jump,
        };

        match cls {
            InstrClass::Load => {
                let chase = self.rng.next_u64() < self.chase_t;
                let (addr, _region) = self.mem.next_addr_lite(chase);
                instr.mem_addr = addr;
            }
            InstrClass::Store => {
                let (addr, _region) = self.mem.next_addr_lite(false);
                instr.mem_addr = addr;
            }
            InstrClass::BranchCond => {
                instr.taken = self.rng.gen::<f64>() < block.bias;
                instr.target = dict.block(block.taken_succ).base_pc;
            }
            InstrClass::BranchUncond => {
                instr.taken = true;
                match block.term {
                    TermKind::Call => {
                        instr.uncond_kind = UncondKind::Call;
                        instr.target = dict.block(block.taken_succ).base_pc;
                        if self.call_stack.len() == CALL_STACK_MAX {
                            self.call_stack.remove(0);
                        }
                        self.call_stack.push(block.fallthrough_succ);
                    }
                    TermKind::Ret => {
                        instr.uncond_kind = UncondKind::Ret;
                        let target_block = self.call_stack.pop().unwrap_or(block.taken_succ);
                        instr.target = dict.block(target_block).base_pc;
                        self.ret_target = Some(target_block);
                    }
                    _ => {
                        instr.uncond_kind = UncondKind::Jump;
                        instr.target = dict.block(block.taken_succ).base_pc;
                    }
                }
            }
            // Nop and compute instructions carry no operands here: the
            // approx backend models neither dependencies nor latency.
            _ => {}
        }

        // Advance the cursor (identical walk to the detailed generator).
        if self.slot + 1 < block.classes.len() {
            self.slot += 1;
        } else {
            self.block = if let Some(rt) = self.ret_target.take() {
                rt
            } else if instr.class.is_branch() && instr.taken {
                block.taken_succ
            } else {
                block.fallthrough_succ
            };
            self.slot = 0;
        }

        instr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::TraceGenerator;
    use crate::spec;

    fn fast(name: &str, seed: u64) -> FastTraceGenerator {
        FastTraceGenerator::new(spec::benchmark_by_name(name).unwrap(), seed)
    }

    #[test]
    fn deterministic_streams() {
        let mut a = fast("mcf", 9);
        let mut b = fast("mcf", 9);
        for _ in 0..5_000 {
            assert_eq!(a.next_instr(), b.next_instr());
        }
    }

    #[test]
    fn shares_code_layout_with_detailed_generator() {
        let mut f = fast("gcc", 4);
        let detailed = TraceGenerator::new(spec::benchmark_by_name("gcc").unwrap(), 4);
        let dict = detailed.dict_arc();
        for _ in 0..2_000 {
            let i = f.next_instr();
            let blk = dict.block(dict.block_index_at(i.pc));
            assert!(i.pc >= blk.base_pc && i.pc < blk.end_pc());
        }
    }

    #[test]
    fn never_emits_register_operands() {
        let mut g = fast("twolf", 11);
        for _ in 0..3_000 {
            let i = g.next_instr();
            assert_eq!(i.srcs, [None, None]);
            assert_eq!(i.dst, None);
        }
    }

    #[test]
    fn class_mix_tracks_profile() {
        let prof = spec::benchmark_by_name("mcf").unwrap();
        let mut g = FastTraceGenerator::new(prof, 2);
        let n = 50_000;
        let loads = (0..n)
            .filter(|_| g.next_instr().class == InstrClass::Load)
            .count();
        let got = loads as f64 / n as f64;
        assert!(
            (got - prof.mix.load).abs() < 0.05,
            "load fraction {got} vs profile {}",
            prof.mix.load
        );
    }
}
