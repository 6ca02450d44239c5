//! The correct-path trace generator.
//!
//! Walks the basic-block dictionary's control-flow graph, drawing branch
//! outcomes from per-block biases, memory addresses from the thread's
//! [`MemStream`], and register dependencies from a geometric distance
//! distribution. The resulting infinite instruction stream is fully
//! deterministic for a given `(profile, seed, thread_unique)` triple.

use crate::bbdict::{BasicBlockDict, TermKind};
use crate::instr::{DynInstr, InstrClass, LogReg, UncondKind, NUM_LOG_REGS};
use crate::memstream::MemStream;
use crate::profile::BenchProfile;
use crate::rng::Xoshiro256pp;
use crate::spec::ALL_BENCHMARKS;
use crate::stream::InstrStream;
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

/// How many recent destination registers are remembered for dependency
/// selection.
const WRITER_WINDOW: usize = 48;

/// Probability that a pointer-chase load starts a *new* chain instead of
/// extending the current one. Real linked-structure traversals are
/// finite (mcf's arc lists average a handful of links) and interleave
/// several independent chains, which is what gives even mcf a little
/// memory-level parallelism.
const CHASE_CHAIN_BREAK: f64 = 0.25;

/// Stable hash of the benchmark name, used to seed code generation so
/// that all instances of a benchmark share identical code (they would in
/// reality: same binary).
fn code_seed(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One code dictionary per built-in profile, generated on first use and
/// then shared by every generator of that benchmark in the process.
/// Bounded by the 26 entries of [`ALL_BENCHMARKS`].
static CODE_DICTS: [OnceLock<Arc<BasicBlockDict>>; ALL_BENCHMARKS.len()] =
    [const { OnceLock::new() }; ALL_BENCHMARKS.len()];

/// The code dictionary of `profile`. A built-in profile (identified by
/// address, since the dictionary reads more fields than the name) gets
/// the process-wide shared copy; any other profile gets a fresh one.
fn code_dict(profile: &'static BenchProfile) -> Arc<BasicBlockDict> {
    let generate = || Arc::new(BasicBlockDict::generate(profile, code_seed(profile.name)));
    match ALL_BENCHMARKS.iter().position(|b| std::ptr::eq(b, profile)) {
        Some(i) => Arc::clone(CODE_DICTS[i].get_or_init(generate)),
        None => generate(),
    }
}

/// Deterministic generator of one thread's dynamic instruction stream.
pub struct TraceGenerator {
    profile: &'static BenchProfile,
    dict: Arc<BasicBlockDict>,
    mem: MemStream,
    rng: Xoshiro256pp,
    /// Current block / slot cursor.
    block: u32,
    slot: usize,
    /// Next dynamic sequence number.
    seq: u64,
    /// Recently written logical registers, newest at the back.
    recent_writers: VecDeque<LogReg>,
    /// Round-robin destination allocator.
    next_dst: LogReg,
    /// Destination register of the most recent load (for pointer chasing).
    last_load_dst: Option<LogReg>,
    /// Call stack of return-site block indices (bounded; see
    /// [`CALL_STACK_MAX`]).
    call_stack: Vec<u32>,
    /// Pending dynamic return target (set while emitting a `Ret`).
    ret_target: Option<u32>,
}

/// Maximum modelled call depth; deeper calls simply drop the oldest
/// frame (the RAS being 100-entry makes deeper nesting unobservable).
const CALL_STACK_MAX: usize = 64;

impl TraceGenerator {
    /// Build a generator for `profile` with behavioural seed `seed`.
    /// Code layout depends only on the benchmark, so multiple instances
    /// share I-cache footprints (and, for built-in profiles, one
    /// dictionary per process); behaviour (outcomes, addresses,
    /// dependencies) is seeded by `seed`.
    pub fn new(profile: &'static BenchProfile, seed: u64) -> Self {
        TraceGenerator {
            profile,
            dict: code_dict(profile),
            mem: MemStream::new(&profile.mem, seed, seed & 0xffff),
            rng: Xoshiro256pp::seed_from_u64(seed ^ 0x7ace_9e4e_0000_0001),
            block: 0,
            slot: 0,
            seq: 0,
            recent_writers: VecDeque::with_capacity(WRITER_WINDOW),
            next_dst: 1,
            last_load_dst: None,
            call_stack: Vec::with_capacity(CALL_STACK_MAX),
            ret_target: None,
        }
    }

    /// The benchmark profile this generator follows.
    pub fn profile(&self) -> &'static BenchProfile {
        self.profile
    }

    /// Shared handle to the static code dictionary (for wrong-path
    /// synthesis by the pipeline front-end).
    pub fn dict_arc(&self) -> Arc<BasicBlockDict> {
        Arc::clone(&self.dict)
    }

    /// Base addresses of this thread's [L1, L2, Mem] data regions (for
    /// cache warm-up by simulation drivers).
    pub fn data_region_bases(&self) -> [u64; 3] {
        self.mem.region_bases()
    }

    /// Draw a geometric dependency distance with the profile's mean.
    fn dep_distance(&mut self) -> usize {
        let mean = self.profile.dep_mean_dist.max(1.0);
        let p = 1.0 / mean;
        let mut d = 1usize;
        while d < WRITER_WINDOW && self.rng.gen::<f64>() > p {
            d += 1;
        }
        d
    }

    /// Pick a source register `distance` writes back, if the window has
    /// that much history.
    fn pick_src(&mut self) -> Option<LogReg> {
        if self.recent_writers.is_empty() {
            return None;
        }
        let d = self.dep_distance().min(self.recent_writers.len());
        let idx = self.recent_writers.len() - d;
        Some(self.recent_writers[idx])
    }

    /// Allocate the next destination register (round-robin over the
    /// logical file, skipping r0 which is the Alpha hard-wired zero).
    fn alloc_dst(&mut self) -> LogReg {
        let r = self.next_dst;
        self.next_dst = if self.next_dst + 1 >= NUM_LOG_REGS {
            1
        } else {
            self.next_dst + 1
        };
        r
    }

    fn record_writer(&mut self, r: LogReg) {
        if self.recent_writers.len() == WRITER_WINDOW {
            self.recent_writers.pop_front();
        }
        self.recent_writers.push_back(r);
    }
}

impl InstrStream for TraceGenerator {
    fn next_instr(&mut self) -> DynInstr {
        // Copy out the scalar block fields instead of holding a borrow of
        // `self.dict` across the `&mut self` helpers below (which would
        // need a per-instruction `Arc::clone`). Successor PCs are read
        // from the dictionary only where an arm needs them.
        let (cls, pc, len, bias, term, taken_succ, fallthrough_succ) = {
            let b = self.dict.block(self.block);
            (
                self.dict.class_at(b, self.slot),
                b.base_pc + 4 * self.slot as u64,
                b.len(),
                b.bias,
                b.term,
                b.taken_succ,
                b.fallthrough_succ,
            )
        };
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
                let chase = self.last_load_dst.is_some()
                    && self.rng.gen::<f64>() < self.profile.mem.pointer_chase_frac;
                if chase && self.rng.gen::<f64>() >= CHASE_CHAIN_BREAK {
                    // Address depends on the previous load's result.
                    instr.srcs[0] = self.last_load_dst;
                } else {
                    instr.srcs[0] = self.pick_src();
                }
                let (addr, _region) = self.mem.next_addr(chase);
                instr.mem_addr = addr;
                let d = self.alloc_dst();
                instr.dst = Some(d);
                self.record_writer(d);
                self.last_load_dst = Some(d);
            }
            InstrClass::Store => {
                // Stores read an address register and a data register.
                instr.srcs[0] = self.pick_src();
                instr.srcs[1] = self.pick_src();
                let (addr, _region) = self.mem.next_addr(false);
                instr.mem_addr = addr;
            }
            InstrClass::BranchCond => {
                instr.srcs[0] = self.pick_src();
                let taken = self.rng.gen::<f64>() < bias;
                instr.taken = taken;
                instr.target = self.dict.block(taken_succ).base_pc;
                // Advance control flow below.
            }
            InstrClass::BranchUncond => {
                instr.taken = true;
                match term {
                    TermKind::Call => {
                        instr.uncond_kind = UncondKind::Call;
                        instr.target = self.dict.block(taken_succ).base_pc;
                        if self.call_stack.len() == CALL_STACK_MAX {
                            self.call_stack.remove(0);
                        }
                        self.call_stack.push(fallthrough_succ);
                    }
                    TermKind::Ret => {
                        instr.uncond_kind = UncondKind::Ret;
                        let target_block = self.call_stack.pop().unwrap_or(taken_succ);
                        instr.target = self.dict.block(target_block).base_pc;
                        // Stash the dynamic successor for the cursor
                        // advance below via the target match.
                        self.ret_target = Some(target_block);
                    }
                    _ => {
                        instr.uncond_kind = UncondKind::Jump;
                        instr.target = self.dict.block(taken_succ).base_pc;
                    }
                }
            }
            InstrClass::Nop => {}
            _ => {
                // Compute instruction: up to two sources, one destination.
                instr.srcs[0] = self.pick_src();
                if self.rng.gen::<f64>() < 0.6 {
                    instr.srcs[1] = self.pick_src();
                }
                let d = self.alloc_dst();
                instr.dst = Some(d);
                self.record_writer(d);
            }
        }

        // Advance the cursor.
        if self.slot + 1 < len {
            self.slot += 1;
        } else {
            // Block terminator: follow the outcome (returns follow the
            // dynamic call stack).
            self.block = if let Some(rt) = self.ret_target.take() {
                rt
            } else if instr.class.is_branch() && instr.taken {
                taken_succ
            } else {
                fallthrough_succ
            };
            self.slot = 0;
        }

        instr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    fn generator(name: &str, seed: u64) -> TraceGenerator {
        TraceGenerator::new(spec::benchmark_by_name(name).unwrap(), seed)
    }

    #[test]
    fn built_in_profiles_share_one_dictionary() {
        let p = spec::benchmark_by_name("gcc").unwrap();
        let a = TraceGenerator::new(p, 1).dict_arc();
        let b = TraceGenerator::new(p, 2).dict_arc();
        assert!(Arc::ptr_eq(&a, &b), "one dictionary per built-in profile");
        let fresh = BasicBlockDict::generate(p, code_seed(p.name));
        assert_eq!(a.num_blocks(), fresh.num_blocks());
        for i in 0..fresh.num_blocks() as u32 {
            assert_eq!(a.block(i), fresh.block(i), "block {i}");
            assert_eq!(a.classes(i), fresh.classes(i), "block {i}");
        }
        assert_eq!(*a, fresh);
    }

    #[test]
    fn copied_profile_gets_its_own_dictionary() {
        let p = spec::benchmark_by_name("gzip").unwrap();
        let copy: &'static BenchProfile = Box::leak(Box::new(*p));
        let shared = TraceGenerator::new(p, 1).dict_arc();
        let own = TraceGenerator::new(copy, 1).dict_arc();
        assert!(
            !Arc::ptr_eq(&shared, &own),
            "a copy is not the built-in profile"
        );
        assert!(!Arc::ptr_eq(&own, &TraceGenerator::new(copy, 1).dict_arc()));
        assert_eq!(*shared, *own, "same fields, same code");
    }

    #[test]
    fn racing_builds_end_with_one_dictionary() {
        // Serve workers build simulators concurrently; whichever thread
        // initialises a profile's slot, every thread must get that copy.
        let p = spec::benchmark_by_name("vortex").unwrap();
        let start = std::sync::Barrier::new(4);
        let dicts: Vec<Arc<BasicBlockDict>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|seed| {
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        TraceGenerator::new(p, seed).dict_arc()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for d in &dicts[1..] {
            assert!(Arc::ptr_eq(&dicts[0], d));
        }
        assert!(Arc::ptr_eq(
            &dicts[0],
            &TraceGenerator::new(p, 9).dict_arc()
        ));
    }

    #[test]
    fn deterministic_streams() {
        let mut a = generator("gcc", 5);
        let mut b = generator("gcc", 5);
        for _ in 0..5_000 {
            assert_eq!(a.next_instr(), b.next_instr());
        }
    }

    #[test]
    fn seeds_change_behaviour_not_code() {
        let mut a = generator("gcc", 1);
        let mut b = generator("gcc", 2);
        let ia: Vec<_> = (0..2_000).map(|_| a.next_instr()).collect();
        let ib: Vec<_> = (0..2_000).map(|_| b.next_instr()).collect();
        assert_ne!(ia, ib);
        // Code is shared: every PC of stream b appears in stream a's dict.
        let dict = a.dict_arc();
        for i in &ib {
            let bi = dict.block_index_at(i.pc);
            let blk = dict.block(bi);
            assert!(i.pc >= blk.base_pc && i.pc < blk.end_pc());
        }
    }

    #[test]
    fn sequence_numbers_are_monotonic() {
        let mut g = generator("swim", 3);
        let mut prev = g.next_instr().seq;
        for _ in 0..1_000 {
            let s = g.next_instr().seq;
            assert_eq!(s, prev + 1);
            prev = s;
        }
    }

    #[test]
    fn control_flow_is_consistent() {
        // next instruction's PC must equal previous instruction's next_pc.
        let mut g = generator("twolf", 9);
        let mut prev = g.next_instr();
        for _ in 0..10_000 {
            let cur = g.next_instr();
            assert_eq!(cur.pc, prev.next_pc(), "discontinuity after {:?}", prev);
            prev = cur;
        }
    }

    #[test]
    fn instruction_mix_tracks_profile() {
        let p = spec::benchmark_by_name("gzip").unwrap();
        let mut g = TraceGenerator::new(p, 17);
        let n = 40_000;
        let mut loads = 0;
        let mut branches = 0;
        for _ in 0..n {
            let i = g.next_instr();
            if i.class == InstrClass::Load {
                loads += 1;
            }
            if i.class.is_branch() {
                branches += 1;
            }
        }
        let load_frac = loads as f64 / n as f64;
        let br_frac = branches as f64 / n as f64;
        assert!(
            (load_frac - p.mix.load).abs() < 0.06,
            "load fraction {load_frac} vs {}",
            p.mix.load
        );
        // Branch fraction is 1/mean-block-length by construction.
        let expect = 1.0 / p.block_len_mean;
        assert!(
            (br_frac - expect).abs() < 0.08,
            "branch fraction {br_frac} vs {expect}"
        );
    }

    #[test]
    fn loads_have_destinations_and_stores_do_not() {
        let mut g = generator("mcf", 4);
        for _ in 0..5_000 {
            let i = g.next_instr();
            match i.class {
                InstrClass::Load => {
                    assert!(i.dst.is_some());
                    assert!(i.mem_addr != 0);
                }
                InstrClass::Store => {
                    assert!(i.dst.is_none());
                    assert!(i.mem_addr != 0);
                }
                InstrClass::BranchCond | InstrClass::BranchUncond => {
                    assert!(i.dst.is_none())
                }
                _ => {}
            }
        }
    }

    #[test]
    fn mcf_chases_pointers() {
        // A noticeable fraction of mcf loads must depend on the previous
        // load's destination register.
        let mut g = generator("mcf", 6);
        let mut chained = 0;
        let mut loads = 0;
        let mut last_dst: Option<LogReg> = None;
        for _ in 0..20_000 {
            let i = g.next_instr();
            if i.class == InstrClass::Load {
                loads += 1;
                if last_dst.is_some() && i.srcs[0] == last_dst {
                    chained += 1;
                }
                last_dst = i.dst;
            }
        }
        let frac = chained as f64 / loads as f64;
        assert!(frac > 0.2, "mcf chase fraction {frac}");
    }

    #[test]
    fn eon_has_longer_dependency_distances_than_mcf() {
        // Measure the mean distance (in dynamic instructions) between an
        // instruction and its first source's producer.
        let mean_dist = |name: &str| {
            let mut g = generator(name, 8);
            let mut writers: Vec<(LogReg, u64)> = Vec::new(); // (reg, seq)
            let mut total = 0u64;
            let mut count = 0u64;
            for _ in 0..30_000 {
                let i = g.next_instr();
                if let Some(s) = i.srcs[0] {
                    if let Some(&(_, wseq)) = writers.iter().rev().find(|&&(r, _)| r == s) {
                        total += i.seq - wseq;
                        count += 1;
                    }
                }
                if let Some(d) = i.dst {
                    writers.push((d, i.seq));
                    if writers.len() > 256 {
                        writers.drain(..128);
                    }
                }
            }
            total as f64 / count.max(1) as f64
        };
        assert!(
            mean_dist("eon") > mean_dist("mcf"),
            "eon should have more ILP than mcf"
        );
    }

    #[test]
    fn calls_and_returns_balance_through_the_stack() {
        // Model the call stack alongside the generator: whenever a Ret
        // is emitted while the model stack is non-empty, its target
        // must be the most recent call's fall-through block.
        let mut g = generator("gcc", 15);
        let dict = g.dict_arc();
        let mut model: Vec<u64> = Vec::new(); // expected return PCs
        let mut calls = 0;
        let mut rets = 0;
        let mut matched = 0;
        for _ in 0..200_000 {
            let i = g.next_instr();
            if i.class != InstrClass::BranchUncond {
                continue;
            }
            match i.uncond_kind {
                UncondKind::Call => {
                    calls += 1;
                    let bi = dict.block_index_at(i.pc);
                    let ft = dict.block(dict.block(bi).fallthrough_succ).base_pc;
                    if model.len() == 64 {
                        model.remove(0);
                    }
                    model.push(ft);
                }
                UncondKind::Ret => {
                    rets += 1;
                    if let Some(expect) = model.pop() {
                        assert_eq!(i.target, expect, "return to wrong site");
                        matched += 1;
                    }
                }
                UncondKind::Jump => {}
            }
        }
        assert!(calls > 100, "gcc should call often, got {calls}");
        assert!(rets > 100, "gcc should return often, got {rets}");
        assert!(matched > 80, "matched returns {matched}");
    }

    #[test]
    fn non_branches_carry_jump_kind() {
        let mut g = generator("swim", 2);
        for _ in 0..2_000 {
            let i = g.next_instr();
            if i.class != InstrClass::BranchUncond {
                assert_eq!(i.uncond_kind, UncondKind::Jump);
            }
        }
    }

    #[test]
    fn branch_outcomes_respect_bias_on_average() {
        let mut g = generator("swim", 10); // fp: highly predictable
        let mut taken = 0;
        let mut cond = 0;
        for _ in 0..30_000 {
            let i = g.next_instr();
            if i.class == InstrClass::BranchCond {
                cond += 1;
                if i.taken {
                    taken += 1;
                }
            }
        }
        assert!(cond > 300);
        // With mostly strongly biased branches, outcomes should be far
        // from a fair coin on aggregate.
        let rate = taken as f64 / cond as f64;
        assert!(
            !(0.45..=0.55).contains(&rate),
            "swim branch taken-rate {rate} looks like noise"
        );
    }
}
