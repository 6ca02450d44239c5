//! Randomised liveness stress for the memory system: every accepted
//! miss must complete within a bounded number of cycles, under mixed
//! ifetch/load/store traffic from several cores, with address streams
//! that exercise MSHR merging, bank queueing and TLB walks.

use smtsim_mem::{AccessKind, AccessResult, MemConfig, MemorySystem, ReqId};
use smtsim_trace::rng::Xoshiro256pp;
use std::collections::BTreeMap;

/// Worst-case legitimate latency: TLB walk + L1 + bus queue + bank
/// queue + DRAM, with generous queueing margin.
const DEADLINE: u64 = 4_000;

fn stress(cores: u32, cycles: u64, seed: u64, addr_pool: u64) {
    let mut m = MemorySystem::new(MemConfig::paper(cores));
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut outstanding: BTreeMap<(u32, ReqId), u64> = BTreeMap::new();
    let (mut done, mut events) = (Vec::new(), Vec::new());
    for now in 0..cycles {
        m.tick(now);
        for core in 0..cores {
            m.drain_completions_into(core, &mut done);
            for c in done.drain(..) {
                outstanding
                    .remove(&(core, c.req))
                    .expect("completion for unknown request");
            }
            m.drain_events_into(core, &mut events);
            events.clear();
            // Issue up to 2 random accesses per core per cycle.
            for _ in 0..rng.gen_range(0..=2u32) {
                let kind = match rng.gen_range(0..10u32) {
                    0..=1 => AccessKind::IFetch,
                    2..=7 => AccessKind::Load,
                    _ => AccessKind::Store,
                };
                let base = match kind {
                    AccessKind::IFetch => 0x40_0000,
                    _ => 0x1_0000_0000u64 + core as u64 * 0x1000_0000,
                };
                let addr = (base + (rng.gen::<u64>() % addr_pool)) & !7;
                match m.access(core, kind, addr, now) {
                    AccessResult::Miss { req, .. } => {
                        outstanding.insert((core, req), now);
                    }
                    AccessResult::L1Hit { .. } | AccessResult::MshrFull => {}
                }
            }
        }
        // Liveness: nothing outstanding beyond the deadline.
        if now % 512 == 0 {
            for (&(core, req), &t) in &outstanding {
                assert!(
                    now - t < DEADLINE,
                    "req {req} of core {core} stuck since cycle {t} (now {now})"
                );
            }
        }
    }
}

#[test]
fn single_core_small_pool_merges_heavily() {
    stress(1, 30_000, 1, 4 * 1024);
}

#[test]
fn single_core_large_pool_misses_heavily() {
    stress(1, 30_000, 2, 64 << 20);
}

#[test]
fn four_cores_contend_on_banks() {
    stress(4, 30_000, 3, 1 << 20);
}

#[test]
fn two_cores_mixed() {
    stress(2, 30_000, 4, 256 * 1024);
}
