//! Focused tests of individual core mechanisms: the fetch-queue bound,
//! store-to-load forwarding, RAS-driven return prediction, the flush
//! energy distribution, wrong-path containment, and issue-queue wakeup
//! of an instruction that reads one register twice.

use smtsim_cpu::thread::ThreadProgram;
use smtsim_cpu::{CoreConfig, SmtCore};
use smtsim_mem::{MemConfig, MemoryModel};
use smtsim_policy::{build_policy, PolicyEnv, PolicyKind};
use smtsim_trace::{spec, InstrClass, InstrStream, TraceGenerator, UncondKind};

fn make_core(policy: PolicyKind, benchmarks: &[&str], seed: u64) -> SmtCore {
    let env = PolicyEnv::paper(1);
    let programs = benchmarks
        .iter()
        .enumerate()
        .map(|(i, name)| {
            ThreadProgram::from_generator(TraceGenerator::new(
                spec::benchmark_by_name(name).unwrap(),
                seed + i as u64 * 1000,
            ))
        })
        .collect();
    SmtCore::new(0, CoreConfig::paper(), build_policy(policy, &env), programs)
}

fn run(core: &mut SmtCore, mem: &mut MemoryModel, cycles: u64) {
    core.prewarm(mem);
    for now in 0..cycles {
        mem.tick(now);
        core.tick(now, mem);
    }
}

/// An ICOUNT core whose two threads run hand-built streams from
/// `make`; wrong paths come from gzip's code dictionary.
fn core_on_streams<S: InstrStream + Send + 'static>(
    cfg: CoreConfig,
    make: impl Fn() -> S,
) -> SmtCore {
    let dict = TraceGenerator::new(spec::benchmark_by_name("gzip").unwrap(), 1).dict_arc();
    let env = PolicyEnv::paper(1);
    // lint: allow(D5) -- test setup boxes each stream once; the crate clippy.toml bans Box::new for the cycle loop
    #[allow(clippy::disallowed_methods)]
    let programs = (0..2)
        .map(|_| ThreadProgram::from_stream(Box::new(make()), dict.clone()))
        .collect();
    SmtCore::new(0, cfg, build_policy(PolicyKind::Icount, &env), programs)
}

#[test]
fn fetch_queue_bounds_runahead() {
    // The front-end buffer must never exceed its configured size even
    // under long wrong-path episodes (mcf: branch outcomes depend on
    // slow loads).
    let mut cfg = CoreConfig::paper();
    cfg.fetch_queue = 16;
    let env = PolicyEnv::paper(1);
    let programs = ["mcf", "twolf"]
        .iter()
        .map(|n| {
            ThreadProgram::from_generator(TraceGenerator::new(
                spec::benchmark_by_name(n).unwrap(),
                3,
            ))
        })
        .collect();
    let mut core = SmtCore::new(0, cfg, build_policy(PolicyKind::Icount, &env), programs);
    let mut mem = MemoryModel::detailed(MemConfig::paper(1));
    core.prewarm(&mut mem);
    for now in 0..20_000 {
        mem.tick(now);
        core.tick(now, &mut mem);
        let dbg = core.debug_state();
        // debug_state prints "fe=<n>"; parse both threads.
        for part in dbg.split("fe=").skip(1) {
            let n: usize = part
                .split_whitespace()
                .next()
                .unwrap()
                .parse()
                .expect("fe count");
            assert!(n <= 16, "fetch queue overflow at cycle {now}: {dbg}");
        }
    }
}

#[test]
fn store_forwarding_engages_on_read_after_write_streams() {
    // Build a synthetic stream of alternating store/load to the same
    // address: every load must forward.
    use smtsim_trace::DynInstr;
    struct RawStream {
        seq: u64,
    }
    impl InstrStream for RawStream {
        fn next_instr(&mut self) -> DynInstr {
            let seq = self.seq;
            self.seq += 1;
            let mut i = DynInstr::nop(seq, 0x40_0000 + (seq % 16) * 4);
            // Alternate store/load on the same word, no branches.
            if seq.is_multiple_of(2) {
                i.class = InstrClass::Store;
                i.mem_addr = 0x0200_0000_0000;
            } else {
                i.class = InstrClass::Load;
                i.mem_addr = 0x0200_0000_0000;
                i.dst = Some(1);
            }
            i
        }
    }
    let mut core = core_on_streams(CoreConfig::paper(), || RawStream { seq: 0 });
    let mut mem = MemoryModel::detailed(MemConfig::paper(1));
    for now in 0..5_000 {
        mem.tick(now);
        core.tick(now, &mut mem);
    }
    let s = core.stats();
    assert!(
        s.store_forwards > 100,
        "RAW pattern must forward heavily, got {}",
        s.store_forwards
    );
}

/// A loop whose body nests two calls: `main` calls `outer`, which
/// calls `inner`; `inner` returns into `outer`, which returns into
/// `main`, which jumps back to the top.
struct NestedCallStream {
    seq: u64,
}

impl InstrStream for NestedCallStream {
    fn next_instr(&mut self) -> smtsim_trace::DynInstr {
        use smtsim_trace::DynInstr;
        // (pc, kind, target); `None` is a plain ALU op.
        const BODY: [(u64, Option<UncondKind>, u64); 7] = [
            (0x1000, Some(UncondKind::Call), 0x2000), // main → outer
            (0x2000, None, 0),
            (0x2004, Some(UncondKind::Call), 0x3000), // outer → inner
            (0x3000, None, 0),
            (0x3004, Some(UncondKind::Ret), 0x2008), // inner → outer
            (0x2008, Some(UncondKind::Ret), 0x1004), // outer → main
            (0x1004, Some(UncondKind::Jump), 0x1000),
        ];
        let seq = self.seq;
        self.seq += 1;
        let (pc, kind, target) = BODY[(seq % BODY.len() as u64) as usize];
        let mut i = DynInstr::nop(seq, pc);
        match kind {
            Some(kind) => {
                i.class = InstrClass::BranchUncond;
                i.uncond_kind = kind;
                i.taken = true;
                i.target = target;
            }
            None => {
                i.class = InstrClass::IntAlu;
                i.dst = Some(1);
            }
        }
        i
    }
}

/// Fetched instructions that never committed (wrong path and still in
/// flight) after running two nested-call threads with `ras_entries`.
fn never_committed_with_ras(ras_entries: u32) -> u64 {
    let mut cfg = CoreConfig::paper();
    cfg.ras_entries = ras_entries;
    let mut core = core_on_streams(cfg, || NestedCallStream { seq: 0 });
    core.enable_commit_log();
    let mut mem = MemoryModel::detailed(MemConfig::paper(1));
    for now in 0..5_000 {
        mem.tick(now);
        core.tick(now, &mut mem);
    }
    let mut next = [0u64; 2];
    for &(tid, seq) in core.commit_log() {
        assert_eq!(seq, next[tid], "thread {tid} out of order");
        next[tid] += 1;
    }
    let s = core.stats();
    assert!(
        s.threads.iter().all(|t| t.committed > 1_000),
        "{}",
        core.debug_state()
    );
    s.threads.iter().map(|t| t.fetched - t.committed).sum()
}

#[test]
fn returns_are_predicted_by_the_ras() {
    // A one-entry stack loses `main`'s return address when `outer`
    // calls `inner`, so `outer`'s return underflows and misfetches (the
    // BTB never learns return targets). The paper's 100 entries predict
    // every return, so less work goes down the wrong path.
    let paper = never_committed_with_ras(CoreConfig::paper().ras_entries);
    let shallow = never_committed_with_ras(1);
    assert!(
        paper < shallow,
        "a 100-entry RAS must waste less fetch than a 1-entry one: {paper} vs {shallow}"
    );
}

#[test]
fn trace_streams_contain_calls_and_rets() {
    let mut g = TraceGenerator::new(spec::benchmark_by_name("perlbmk").unwrap(), 5);
    let mut calls = 0;
    let mut rets = 0;
    for _ in 0..100_000 {
        let i = g.next_instr();
        if i.class == InstrClass::BranchUncond {
            match i.uncond_kind {
                UncondKind::Call => calls += 1,
                UncondKind::Ret => rets += 1,
                UncondKind::Jump => {}
            }
        }
    }
    assert!(calls > 50, "calls {calls}");
    assert!(rets > 50, "rets {rets}");
}

#[test]
fn flush_energy_lands_in_multiple_stages() {
    // Flushed instructions should be spread across pipeline stages —
    // the precondition for Fig. 11's stage-weighted accounting to mean
    // anything.
    let mut core = make_core(PolicyKind::FlushSpec(30), &["mcf", "swim"], 9);
    let mut mem = MemoryModel::detailed(MemConfig::paper(1));
    run(&mut core, &mut mem, 30_000);
    let e = core.stats().energy();
    let by_stage = e.flush_squashed_by_stage();
    let populated = by_stage.iter().filter(|&&n| n > 0).count();
    assert!(
        populated >= 3,
        "flush victims should span several stages, got {by_stage:?}"
    );
    // Accumulated ECF ordering: wasted energy is strictly less than
    // 1 eu per squashed instruction on average (nothing squashed at
    // commit costs more than commit itself).
    assert!(e.wasted_energy() < e.flush_squashed_total() as f64);
    assert!(e.wasted_energy() > 0.13 * e.flush_squashed_total() as f64 - 1e-9);
}

#[test]
fn wrong_path_loads_do_not_touch_the_data_cache() {
    // twolf mispredicts often; wrong-path junk includes loads. The
    // memory system's load count must equal the correct-path loads
    // issued (junk loads execute without cache access).
    let mut core = make_core(PolicyKind::Icount, &["twolf", "twolf"], 13);
    let mut mem = MemoryModel::detailed(MemConfig::paper(1));
    run(&mut core, &mut mem, 20_000);
    let s = core.stats();
    // `loads_issued` counts correct-path loads issued *to memory*
    // (forwarded loads never reach it), so the two sides must agree
    // exactly.
    let correct_path_loads: u64 = s.threads.iter().map(|t| t.loads_issued).sum();
    let mem_loads = mem.stats().total(|c| c.loads);
    assert_eq!(
        mem_loads, correct_path_loads,
        "every memory load must be a correct-path, non-forwarded load"
    );
}

#[test]
fn duplicate_source_issues_once_its_register_is_ready() {
    // Every other instruction reads the load before it through both
    // operands, so both sources rename to one not-ready physical
    // register. That register wakes its readers once: waiting per
    // operand instead of per distinct register would wedge the reader,
    // and with it the thread, forever.
    use smtsim_trace::DynInstr;
    struct DupSourceStream {
        seq: u64,
    }
    impl InstrStream for DupSourceStream {
        fn next_instr(&mut self) -> DynInstr {
            let seq = self.seq;
            self.seq += 1;
            let mut i = DynInstr::nop(seq, 0x40_0000 + (seq % 16) * 4);
            if seq.is_multiple_of(2) {
                i.class = InstrClass::Load;
                i.mem_addr = 0x0200_0000_0000 + (seq % 64) * 8;
                i.dst = Some(1);
            } else {
                i.class = InstrClass::IntAlu;
                i.srcs = [Some(1), Some(1)];
                i.dst = Some(2);
            }
            i
        }
    }
    let mut core = core_on_streams(CoreConfig::paper(), || DupSourceStream { seq: 0 });
    core.enable_commit_log();
    let mut mem = MemoryModel::detailed(MemConfig::paper(1));
    for now in 0..3_000 {
        mem.tick(now);
        core.tick(now, &mut mem);
    }
    let mut committed = [0u64; 2];
    for &(tid, seq) in core.commit_log() {
        assert_eq!(seq, committed[tid], "thread {tid} out of order");
        committed[tid] += 1;
    }
    for (tid, &n) in committed.iter().enumerate() {
        assert!(
            n > 1_000,
            "thread {tid} committed only {n}: {}",
            core.debug_state()
        );
    }
}
