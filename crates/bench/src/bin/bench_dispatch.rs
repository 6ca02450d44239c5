//! `bench_dispatch` — measures the dispatch mechanism behind
//! [`smtsim_mem::MemoryModel`]: closed-enum `match` dispatch (what the
//! facade ships) against `Box<dyn Trait>` virtual dispatch (the
//! alternative the pluggable-fidelity design rejected), over the same
//! two concrete models and the same deterministic access stream.
//!
//! ```text
//! bench_dispatch [--accesses N]
//! ```
//!
//! The loop mirrors the simulator's hot sequence — one access plus one
//! tick per iteration, completions drained every 64 — so the numbers
//! are representative, not a micro-benchmark of a bare virtual call.
//! Results belong in DESIGN.md §13; re-run this tool when revisiting
//! the facade design.

use smtsim_bench::timing::format_duration;
use smtsim_mem::{AccessKind, AccessResult, Completion, FastMemory, MemConfig, MemoryModel, MemorySystem};
use std::time::Instant;

/// The facade surface the hot loop actually exercises.
trait MemLike {
    fn access(&mut self, core: u32, kind: AccessKind, addr: u64, now: u64) -> AccessResult;
    fn tick(&mut self, now: u64);
    fn drain_completions_into(&mut self, core: u32, out: &mut Vec<Completion>);
}

impl MemLike for MemorySystem {
    fn access(&mut self, core: u32, kind: AccessKind, addr: u64, now: u64) -> AccessResult {
        MemorySystem::access(self, core, kind, addr, now)
    }
    fn tick(&mut self, now: u64) {
        MemorySystem::tick(self, now)
    }
    fn drain_completions_into(&mut self, core: u32, out: &mut Vec<Completion>) {
        MemorySystem::drain_completions_into(self, core, out)
    }
}

impl MemLike for FastMemory {
    fn access(&mut self, core: u32, kind: AccessKind, addr: u64, now: u64) -> AccessResult {
        FastMemory::access(self, core, kind, addr, now)
    }
    fn tick(&mut self, now: u64) {
        FastMemory::tick(self, now)
    }
    fn drain_completions_into(&mut self, core: u32, out: &mut Vec<Completion>) {
        FastMemory::drain_completions_into(self, core, out)
    }
}

/// Deterministic address stream: mostly-L1-resident with a strided
/// escape, the same shape every run (no host entropy).
fn addr_of(i: u64) -> u64 {
    if i.is_multiple_of(17) {
        (0x10_0000 + i.wrapping_mul(2654435761) % (4 << 20)) & !7
    } else {
        0x4000 + (i % 512) * 8
    }
}

// lint: allow(D5) -- crates/bench is the one sanctioned wall-clock user
#[allow(clippy::disallowed_methods)]
fn drive_enum(mut m: MemoryModel, n: u64) -> (f64, u64) {
    let start = Instant::now();
    let mut sink = 0u64;
    let mut done = Vec::new();
    for i in 0..n {
        m.tick(i);
        if let AccessResult::Miss { req, .. } = m.access(0, AccessKind::Load, addr_of(i), i) {
            sink = sink.wrapping_add(req as u64);
        }
        if i % 64 == 0 {
            m.drain_completions_into(0, &mut done);
            sink = sink.wrapping_add(done.len() as u64);
            done.clear();
        }
    }
    (start.elapsed().as_secs_f64(), sink)
}

// lint: allow(D5) -- crates/bench is the one sanctioned wall-clock user
#[allow(clippy::disallowed_methods)]
fn drive_dyn(m: &mut dyn MemLike, n: u64) -> (f64, u64) {
    let start = Instant::now();
    let mut sink = 0u64;
    let mut done = Vec::new();
    for i in 0..n {
        m.tick(i);
        if let AccessResult::Miss { req, .. } = m.access(0, AccessKind::Load, addr_of(i), i) {
            sink = sink.wrapping_add(req as u64);
        }
        if i % 64 == 0 {
            m.drain_completions_into(0, &mut done);
            sink = sink.wrapping_add(done.len() as u64);
            done.clear();
        }
    }
    (start.elapsed().as_secs_f64(), sink)
}

fn main() {
    let mut accesses: u64 = 4_000_000;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--accesses" => {
                accesses = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("usage: bench_dispatch [--accesses N]");
                        std::process::exit(2);
                    })
            }
            _ => {
                eprintln!("usage: bench_dispatch [--accesses N]");
                std::process::exit(2);
            }
        }
    }
    let cfg = MemConfig::paper(1);
    println!("== MemoryModel dispatch: enum match vs Box<dyn> ({accesses} accesses) ==");
    for (name, fast) in [("detailed", false), ("fast", true)] {
        // Best of 3 per mechanism: the comparison needs the noise floor
        // below the few-ns/call difference it is trying to resolve.
        let mut enum_s = f64::MAX;
        let mut dyn_s = f64::MAX;
        let mut sinks = (0, 0);
        for _ in 0..3 {
            let (s, k) = if fast {
                drive_enum(MemoryModel::fast(cfg), accesses)
            } else {
                drive_enum(MemoryModel::detailed(cfg), accesses)
            };
            if s < enum_s {
                enum_s = s;
                sinks.0 = k;
            }
            let (s, k) = if fast {
                let mut m: Box<dyn MemLike> = Box::new(FastMemory::new(cfg));
                drive_dyn(m.as_mut(), accesses)
            } else {
                let mut m: Box<dyn MemLike> = Box::new(MemorySystem::new(cfg));
                drive_dyn(m.as_mut(), accesses)
            };
            if s < dyn_s {
                dyn_s = s;
                sinks.1 = k;
            }
        }
        assert_eq!(sinks.0, sinks.1, "both mechanisms must do identical work");
        let per = 1e9 / accesses as f64;
        println!(
            "{name:<9} enum {:>9} ({:>6.2} ns/op)   dyn {:>9} ({:>6.2} ns/op)   dyn/enum {:.3}",
            format_duration(std::time::Duration::from_secs_f64(enum_s)),
            enum_s * per,
            format_duration(std::time::Duration::from_secs_f64(dyn_s)),
            dyn_s * per,
            dyn_s / enum_s,
        );
    }
}
