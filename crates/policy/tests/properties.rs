//! Property-based tests over the policy layer, on the in-repo harness
//! (`smtsim_trace::check`).

use smtsim_policy::mflush::{McRegConfig, McRegFile, McRegReducer, MflushConfig};
use smtsim_policy::{build_policy, PolicyEnv, PolicyKind, ThreadSnapshot};
use smtsim_trace::check::{Cases, Gen};

fn any_policy(g: &mut Gen) -> PolicyKind {
    match g.u32_in(0..13) {
        0 => PolicyKind::Icount,
        1 => PolicyKind::RoundRobin,
        2 => PolicyKind::Brcount,
        3 => PolicyKind::L1dMissCount,
        4 => PolicyKind::Adts,
        5 => PolicyKind::Dcra,
        6 => PolicyKind::FlushSpec(g.u64_in(1..500)),
        7 => PolicyKind::FlushNonSpec,
        8 => PolicyKind::StallSpec(g.u64_in(1..500)),
        9 => PolicyKind::StallNonSpec,
        10 => PolicyKind::Mflush,
        11 => PolicyKind::FlushAdaptive,
        _ => PolicyKind::FlushMissPredict,
    }
}

/// The Barrier always stays inside the operational environment
/// `[MIN+MT, MAX+MT]` for any machine shape and prediction.
#[test]
fn barrier_always_in_operational_environment() {
    Cases::new(64).run("barrier_always_in_operational_environment", |g| {
        let cores = g.u32_in(1..16);
        let banks = g.u32_in(1..16);
        let bus = g.u64_in(1..32);
        let bank_delay = g.u64_in(1..64);
        let min = g.u64_in(4..100);
        let extra = g.u64_in(1..1000);
        let prediction = g.u64_in(0..10_000);
        let cfg = MflushConfig {
            min,
            max: min + extra,
            bus_delay: bus,
            bank_delay,
            num_cores: cores,
            num_banks: banks,
            mcreg: McRegConfig::default(),
            preventive: true,
            mt_enabled: true,
        };
        let b = cfg.barrier(prediction);
        assert!(b >= cfg.min + cfg.mt());
        assert!(b <= cfg.max + cfg.mt());
        // The preventive threshold sits at or below every barrier.
        assert!(cfg.preventive_threshold() <= b);
    });
}

/// MCReg predictions are always within the observed value range (after
/// u8 saturation), for every reducer and history length.
#[test]
fn mcreg_prediction_bounded_by_observations() {
    Cases::new(64).run("mcreg_prediction_bounded_by_observations", |g| {
        let history = g.usize_in(1..8);
        let reducer = *g.choose(&[McRegReducer::Last, McRegReducer::Mean, McRegReducer::Max]);
        let obs = g.vec_of(1..40, |g| g.u64_in(0..2_000));
        let mut f = McRegFile::new(1, 22, McRegConfig { history, reducer });
        for &o in &obs {
            f.update(0, o);
        }
        let window: Vec<u64> = obs
            .iter()
            .rev()
            .take(history)
            .map(|&o| o.min(255))
            .collect();
        let p = f.predict(0);
        assert!(p >= *window.iter().min().unwrap());
        assert!(p <= *window.iter().max().unwrap());
    });
}

/// Every policy returns a complete, duplicate-free fetch priority
/// permutation for arbitrary snapshot contents.
#[test]
fn fetch_priority_is_a_permutation() {
    Cases::new(64).run("fetch_priority_is_a_permutation", |g| {
        let kind = any_policy(g);
        let threads = g.usize_in(1..8);
        let frontends: Vec<u32> = (0..8).map(|_| g.u32_in(0..100)).collect();
        let misses: Vec<u32> = (0..8).map(|_| g.u32_in(0..16)).collect();
        let cycle = g.u64_in(0..100_000);
        let env = PolicyEnv::paper(4);
        let mut p = build_policy(kind, &env);
        let snaps: Vec<ThreadSnapshot> = (0..threads)
            .map(|tid| {
                let mut s = ThreadSnapshot::idle(tid);
                s.in_frontend = frontends[tid];
                s.l1d_misses_in_flight = misses[tid];
                s
            })
            .collect();
        let mut out = Vec::new();
        p.fetch_priority(cycle, &snaps, &mut out);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..threads).collect::<Vec<_>>());
    });
}

/// Policies never emit actions for threads they were never told about,
/// under an arbitrary stream of load events.
#[test]
fn actions_reference_known_threads() {
    Cases::new(64).run("actions_reference_known_threads", |g| {
        let kind = any_policy(g);
        let events = g.vec_of(0..60, |g| {
            (
                g.usize_in(0..2),
                g.u64_in(0..64),
                g.u32_in(0..4),
                g.u64_in(0..500),
            )
        });
        let env = PolicyEnv::paper(4);
        let mut p = build_policy(kind, &env);
        let snaps = [ThreadSnapshot::idle(0), ThreadSnapshot::idle(1)];
        let mut actions = Vec::new();
        let mut cycle = 0u64;
        for (tid, token, bank, dt) in events {
            cycle += dt;
            p.on_load_issue(tid, token, 0x1000 + token * 4, cycle);
            p.on_l1d_miss(tid, token, bank, cycle);
            p.tick(cycle, &snaps, &mut actions);
        }
        p.tick(cycle + 10_000, &snaps, &mut actions);
        for a in &actions {
            let tid = match a {
                smtsim_policy::PolicyAction::Flush { tid, .. } => *tid,
                smtsim_policy::PolicyAction::Stall { tid } => *tid,
                smtsim_policy::PolicyAction::Resume { tid } => *tid,
            };
            assert!(tid < 2, "action for unknown thread {tid}");
        }
    });
}
