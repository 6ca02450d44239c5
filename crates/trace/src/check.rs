//! Minimal in-repo property-testing harness.
//!
//! Replaces `proptest` for the workspace's four property suites without
//! leaving `std`. The model is deliberately small: a property is a
//! closure over a [`Gen`] (a seeded source of random test data); the
//! harness runs it for a fixed number of cases, each derived
//! deterministically from a base seed, and on failure reports the exact
//! per-case seed so the case replays in isolation. There is no
//! shrinking — the reproducing seed plus deterministic generation is
//! the debugging handle.
//!
//! ```
//! use smtsim_trace::check::Cases;
//!
//! Cases::new(32).run("addition_commutes", |g| {
//!     let a = g.u64_in(0..1_000);
//!     let b = g.u64_in(0..1_000);
//!     assert_eq!(a + b, b + a);
//! });
//! ```
//!
//! Set `SMTSIM_PROP_SEED` to change the base seed (e.g. to widen CI
//! coverage over time), or `SMTSIM_PROP_REPLAY` to the seed printed by
//! a failure to re-run just that case.

use crate::rng::Xoshiro256pp;
// lint: allow(D7) -- the property harness re-panics with the reproducing seed attached; nothing is swallowed
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Base seed used when `SMTSIM_PROP_SEED` is not set. Fixed so that
/// plain `cargo test` is reproducible run-to-run.
pub const DEFAULT_BASE_SEED: u64 = 0x5eed_c45e_5eed_c45e;

/// Source of random test data for one property case.
pub struct Gen {
    rng: Xoshiro256pp,
    /// The seed this case was built from (echoed in failure reports).
    seed: u64,
}

impl Gen {
    /// Generator for an explicit case seed.
    pub fn from_seed(seed: u64) -> Self {
        Gen {
            rng: Xoshiro256pp::seed_from_u64(seed),
            seed,
        }
    }

    /// The case seed (for embedding in assertion messages).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Uniform `u64` in a half-open range.
    pub fn u64_in(&mut self, r: std::ops::Range<u64>) -> u64 {
        self.rng.gen_range(r)
    }

    /// Uniform `usize` in a half-open range.
    pub fn usize_in(&mut self, r: std::ops::Range<usize>) -> usize {
        self.rng.gen_range(r)
    }

    /// Uniform `u32` in a half-open range.
    pub fn u32_in(&mut self, r: std::ops::Range<u32>) -> u32 {
        self.rng.gen_range(r)
    }

    /// Full-range `u64`.
    pub fn any_u64(&mut self) -> u64 {
        self.rng.gen()
    }

    /// Uniform in `[0, 1)`.
    pub fn f64_unit(&mut self) -> f64 {
        self.rng.gen()
    }

    /// Fair coin.
    pub fn bool(&mut self) -> bool {
        self.rng.gen()
    }

    /// Uniformly chosen element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.rng.gen_range(0..items.len())]
    }

    /// Vector with a uniformly drawn length in `len`, elements produced
    /// by `f`.
    pub fn vec_of<T>(
        &mut self,
        len: std::ops::Range<usize>,
        mut f: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let n = self.usize_in(len);
        (0..n).map(|_| f(self)).collect()
    }
}

/// A configured property run: how many cases, from which base seed.
pub struct Cases {
    cases: u32,
    base_seed: u64,
}

impl Cases {
    /// Run `cases` cases from the default (or env-overridden) base seed.
    pub fn new(cases: u32) -> Self {
        let base_seed = std::env::var("SMTSIM_PROP_SEED")
            .ok()
            .and_then(|v| parse_seed(&v))
            .unwrap_or(DEFAULT_BASE_SEED);
        Cases { cases, base_seed }
    }

    /// Override the base seed (mostly for the harness's own tests).
    pub fn with_base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Run the property. Each case gets a [`Gen`] seeded with
    /// `splitmix(base_seed + case_index)`; a panicking case aborts the
    /// run with a report naming the property, the case number and the
    /// reproducing seed.
    // lint: allow(D11) -- the property harness's job is to panic with a reproducing seed; tests only, never in a sweep
    pub fn run(self, name: &str, prop: impl Fn(&mut Gen)) {
        if let Some(seed) = std::env::var("SMTSIM_PROP_REPLAY")
            .ok()
            .and_then(|v| parse_seed(&v))
        {
            // Replay mode: run exactly one case, without catching the
            // panic, so backtraces point at the property itself.
            let mut g = Gen::from_seed(seed);
            prop(&mut g);
            return;
        }
        for case in 0..self.cases {
            // Mix the case index through SplitMix64 so case seeds are
            // decorrelated even though indices are sequential.
            let seed =
                crate::rng::SplitMix64::new(self.base_seed.wrapping_add(case as u64)).next_u64();
            let mut g = Gen::from_seed(seed);
            // lint: allow(D7) -- failure is re-raised below with the case seed; the panic is annotated, not swallowed
            let outcome = catch_unwind(AssertUnwindSafe(|| prop(&mut g)));
            if let Err(payload) = outcome {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("<non-string panic payload>");
                panic!(
                    "property '{name}' failed at case {case}/{total}\n  \
                     reproducing seed: {seed:#018x}\n  \
                     (re-run with SMTSIM_PROP_REPLAY={seed:#x})\n  \
                     cause: {msg}",
                    total = self.cases,
                );
            }
        }
    }
}

/// Accept decimal or `0x`-prefixed hex seeds from the environment.
fn parse_seed(v: &str) -> Option<u64> {
    if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        v.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let count = std::cell::Cell::new(0u32);
        Cases::new(17).with_base_seed(1).run("counts", |g| {
            let _ = g.any_u64();
            count.set(count.get() + 1);
        });
        assert_eq!(count.get(), 17);
    }

    #[test]
    fn failing_property_reports_seed() {
        // lint: allow(D7) -- this test asserts the harness's failure report, so it must intercept the panic
        let result = catch_unwind(|| {
            Cases::new(50).with_base_seed(2).run("always_fails", |g| {
                let x = g.u64_in(0..100);
                assert!(x > 1_000, "x was {x}");
            });
        });
        let payload = result.unwrap_err();
        let msg = payload.downcast_ref::<String>().unwrap();
        assert!(msg.contains("always_fails"), "{msg}");
        assert!(msg.contains("reproducing seed"), "{msg}");
        assert!(msg.contains("SMTSIM_PROP_REPLAY"), "{msg}");
        assert!(msg.contains("x was"), "{msg}");
    }

    #[test]
    fn same_base_seed_replays_identical_data() {
        let collect = |base: u64| {
            let data = std::cell::RefCell::new(Vec::new());
            Cases::new(8).with_base_seed(base).run("collect", |g| {
                data.borrow_mut().push((g.any_u64(), g.f64_unit()));
            });
            data.into_inner()
        };
        assert_eq!(collect(7), collect(7));
        assert_ne!(collect(7), collect(8));
    }

    #[test]
    fn gen_helpers_respect_ranges() {
        Cases::new(64).with_base_seed(3).run("helpers", |g| {
            assert!(g.u64_in(5..10) < 10);
            assert!(g.usize_in(0..3) < 3);
            assert!(g.f64_unit() < 1.0);
            let v = g.vec_of(1..9, |g| g.u32_in(0..4));
            assert!(!v.is_empty() && v.len() < 9);
            let items = [10, 20, 30];
            assert!(items.contains(g.choose(&items)));
        });
    }
}
