//! Vendored deterministic PRNG: SplitMix64 seeding xoshiro256++.
//!
//! The workspace builds with `std` only, so instead of the `rand` crate
//! every random draw in the simulator comes from this module. Two
//! requirements drove the choice of algorithm:
//!
//! * **Bit-reproducibility.** Simulation results are only trustworthy if
//!   a `(config, seed)` pair replays identically forever, on every
//!   platform. Both generators below are defined purely in terms of
//!   64-bit wrapping integer arithmetic — no platform-dependent state,
//!   no floating point in the core loop.
//! * **Statistical quality at simulator cost.** xoshiro256++ passes
//!   BigCrush and runs in a handful of ALU ops; SplitMix64 turns one
//!   user seed into well-distributed state words even for adjacent
//!   seeds (thread `i` seeds with `base + i * 7919`, so seed-streams
//!   must decorrelate from the first draw).
//!
//! Reference: Blackman & Vigna, "Scrambled Linear Pseudorandom Number
//! Generators" (the public-domain `xoshiro256plusplus.c` / `splitmix64.c`
//! reference implementations).

/// SplitMix64: a tiny 64-bit generator used to expand one seed word into
/// the xoshiro state. Also usable on its own for one-shot hashing-style
/// draws.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Start the sequence at `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ — the workspace's general-purpose generator.
///
/// The API mirrors the subset of `rand` the simulator used
/// (`seed_from_u64`, `gen::<T>()`, `gen_range(..)`), so call sites read
/// the same as before the vendoring.
#[derive(Debug, Clone)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seed the full 256-bit state from one `u64` via SplitMix64, as the
    /// xoshiro authors recommend.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Xoshiro256pp { s }
    }

    /// Next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Draw a value of type `T` (uniform over `T`'s natural domain:
    /// full integer range, `[0, 1)` for `f64`, fair coin for `bool`).
    #[inline]
    pub fn gen<T: SampleValue>(&mut self) -> T {
        T::sample(self)
    }

    /// Draw uniformly from a half-open (`lo..hi`) or inclusive
    /// (`lo..=hi`) range. Panics on an empty range, like `rand` did.
    #[inline]
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self)
    }

    /// Unbiased integer in `[0, bound)` (Lemire's multiply-with-rejection
    /// method); `bound` 0 means the full 64-bit range.
    #[inline]
    fn bounded_u64(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return self.next_u64();
        }
        // Rejection threshold for exact uniformity.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }
}

/// Types [`Xoshiro256pp::gen`] can produce.
pub trait SampleValue {
    fn sample(rng: &mut Xoshiro256pp) -> Self;
}

impl SampleValue for u64 {
    #[inline]
    fn sample(rng: &mut Xoshiro256pp) -> u64 {
        rng.next_u64()
    }
}

impl SampleValue for u32 {
    #[inline]
    fn sample(rng: &mut Xoshiro256pp) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl SampleValue for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn sample(rng: &mut Xoshiro256pp) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl SampleValue for bool {
    #[inline]
    fn sample(rng: &mut Xoshiro256pp) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges [`Xoshiro256pp::gen_range`] can sample from.
pub trait SampleRange<T> {
    fn sample_from(self, rng: &mut Xoshiro256pp) -> T;
}

macro_rules! int_range_impls {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            #[inline]
            fn sample_from(self, rng: &mut Xoshiro256pp) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                let off = rng.bounded_u64(span);
                (self.start as i128 + off as i128) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            #[inline]
            fn sample_from(self, rng: &mut Xoshiro256pp) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range on empty range");
                // span = hi - lo + 1; 0 encodes the full 2^64 range.
                let span = (hi as i128 - lo as i128 + 1) as u64;
                let off = rng.bounded_u64(span);
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}

int_range_impls!(u8, u16, u32, u64, usize, i32, i64);

impl SampleRange<f64> for std::ops::Range<f64> {
    #[inline]
    fn sample_from(self, rng: &mut Xoshiro256pp) -> f64 {
        assert!(self.start < self.end, "gen_range on empty range");
        self.start + rng.gen::<f64>() * (self.end - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vectors() {
        // Reference splitmix64.c outputs for seed 1234567.
        let mut sm = SplitMix64::new(1234567);
        let expected = [
            6457827717110365317u64,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ];
        for &e in &expected {
            assert_eq!(sm.next_u64(), e);
        }
    }

    #[test]
    fn xoshiro_is_deterministic_and_seed_sensitive() {
        let mut a = Xoshiro256pp::seed_from_u64(42);
        let mut b = Xoshiro256pp::seed_from_u64(42);
        let mut c = Xoshiro256pp::seed_from_u64(43);
        let va: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..64).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn adjacent_seeds_decorrelate() {
        // The thread-seeding scheme uses nearby seeds; first draws must
        // already differ in many bits.
        let mut ones = 0u32;
        for seed in 0..64u64 {
            let x = Xoshiro256pp::seed_from_u64(seed).next_u64();
            let y = Xoshiro256pp::seed_from_u64(seed + 1).next_u64();
            ones += (x ^ y).count_ones();
        }
        let mean_flips = ones as f64 / 64.0;
        assert!(
            (24.0..40.0).contains(&mean_flips),
            "adjacent-seed first draws flip {mean_flips} bits on average"
        );
    }

    #[test]
    fn f64_in_unit_interval_and_roughly_uniform() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        for _ in 0..10_000 {
            let a = rng.gen_range(10u64..20);
            assert!((10..20).contains(&a));
            let b = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&b));
            let c = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&c));
            let d = rng.gen_range(0u32..=2);
            assert!(d <= 2);
        }
    }

    #[test]
    fn small_ranges_hit_every_value() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = Xoshiro256pp::seed_from_u64(0);
        let _ = rng.gen_range(5u64..5);
    }
}
