//! Property-based tests of the trace layer, on the in-repo harness
//! (`smtsim_trace::check`).

use smtsim_trace::check::{Cases, Gen};
use smtsim_trace::profile::BenchProfile;
use smtsim_trace::{spec, DynInstr, InstrClass, InstrStream, ReplayableStream, TraceGenerator};

fn any_benchmark(g: &mut Gen) -> &'static BenchProfile {
    g.choose(&spec::ALL_BENCHMARKS)
}

/// Control flow is continuous for every benchmark and seed: each
/// instruction's PC equals the previous instruction's next_pc.
#[test]
fn control_flow_continuity() {
    Cases::new(24).run("control_flow_continuity", |g| {
        let p = any_benchmark(g);
        let seed = g.u64_in(0..1_000_000);
        let mut gen = TraceGenerator::new(p, seed);
        let mut prev = gen.next_instr();
        for _ in 0..2_000 {
            let cur = gen.next_instr();
            assert_eq!(cur.pc, prev.next_pc());
            prev = cur;
        }
    });
}

/// Sequence numbers are dense and monotonic for any seed.
#[test]
fn dense_sequence_numbers() {
    Cases::new(24).run("dense_sequence_numbers", |g| {
        let p = any_benchmark(g);
        let seed = g.u64_in(0..1_000_000);
        let mut gen = TraceGenerator::new(p, seed);
        for want in 0..1_000u64 {
            assert_eq!(gen.next_instr().seq, want);
        }
    });
}

/// Memory instructions always carry an address; destinations follow
/// class rules.
#[test]
fn class_field_invariants() {
    Cases::new(24).run("class_field_invariants", |g| {
        let p = any_benchmark(g);
        let seed = g.u64_in(0..1_000_000);
        let mut gen = TraceGenerator::new(p, seed);
        for _ in 0..2_000 {
            let i = gen.next_instr();
            match i.class {
                InstrClass::Load => {
                    assert!(i.mem_addr != 0);
                    assert!(i.dst.is_some());
                }
                InstrClass::Store => {
                    assert!(i.mem_addr != 0);
                    assert!(i.dst.is_none());
                }
                InstrClass::BranchCond | InstrClass::BranchUncond => {
                    assert!(i.dst.is_none());
                    assert!(i.target.is_multiple_of(4));
                }
                _ => assert_eq!(i.mem_addr, 0),
            }
            assert!(i.pc.is_multiple_of(4));
        }
    });
}

/// Rewinding to any fetched instruction replays the suffix from it
/// byte-identically and in order.
#[test]
fn replay_suffix_roundtrip() {
    Cases::new(24).run("replay_suffix_roundtrip", |g| {
        let p = any_benchmark(g);
        let seed = g.u64_in(0..1_000_000);
        let fetch = g.usize_in(2..200);
        let keep = g.usize_in(0..100);
        let mut s = ReplayableStream::new(TraceGenerator::new(p, seed), fetch);
        let fetched: Vec<DynInstr> = (0..fetch).map(|_| s.fetch()).collect();
        let keep = keep.min(fetch - 1);
        let squashed = fetched[keep..].to_vec();
        s.rewind_to(squashed[0].seq);
        for want in &squashed {
            assert_eq!(&s.fetch(), want);
        }
        // And the stream continues where it would have.
        assert_eq!(s.fetch().seq, fetch as u64);
    });
}

/// Wrong-path synthesis never leaves the code segment, for arbitrary
/// (even wild) PCs.
#[test]
fn wrong_path_stays_in_code() {
    Cases::new(24).run("wrong_path_stays_in_code", |g| {
        let p = any_benchmark(g);
        let pc = g.any_u64();
        let n = g.usize_in(1..64);
        let gen = TraceGenerator::new(p, 0);
        let dict = gen.dict_arc();
        let mut cursor = dict.wrong_path_cursor(pc);
        let wp: Vec<DynInstr> = (0..n).map(|_| dict.synth_wrong_path(&mut cursor)).collect();
        assert_eq!(wp.len(), n);
        let lo = dict.entry_pc();
        let hi = lo + dict.code_bytes();
        for i in &wp {
            assert!(
                i.pc >= lo && i.pc < hi,
                "pc {:#x} outside [{:#x},{:#x})",
                i.pc,
                lo,
                hi
            );
        }
    });
}
