//! The benchmark's own statistics: its one clock, percentiles, the
//! quartiles `benchmark compare` uses, and the timer-cost correction
//! behind every per-layer self time.

use std::hint::black_box;
use std::time::Instant;

/// The benchmark's only wall-clock read. Host time is measured here and
/// never flows back into a simulation.
// lint: allow(D5) -- crates/bench is the one sanctioned wall-clock user; this is the benchmark's single clock read
#[allow(clippy::disallowed_methods)]
pub fn now() -> Instant {
    Instant::now()
}

/// Seconds since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// A timing needs at least this many samples beyond a percentile
/// before that percentile is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100] of ascending `sorted`. `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it, so a tail is
/// never read off a handful of samples.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n == 0 || rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Sort a sample set ascending (timings are finite).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Plain median of a small set (passes, runs), not a latency tail.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The best (smallest) of repeated timings of one operation, `None`
/// when there are none. Host interference only ever adds time, so the
/// best repeat is the steadiest estimate of the operation's own cost.
pub fn best(samples: &[f64]) -> Option<f64> {
    samples.iter().copied().reduce(f64::min)
}

/// Geometric mean of positive `values` (NaN when empty): the typical
/// size of quantities spread over orders of magnitude, such as cache
/// hits beside simulations.
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so
/// the spreads `benchmark compare` prints match the acceptance check.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Wall time and call count accumulated by one timed layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Span {
    /// Measured nanoseconds, timer cost included.
    pub ns: u64,
    /// Timed calls.
    pub calls: u64,
}

impl Span {
    /// No time, no calls.
    pub const ZERO: Span = Span { ns: 0, calls: 0 };

    /// Accumulate another span.
    pub fn add(&mut self, other: Span) {
        self.ns += other.ns;
        self.calls += other.calls;
    }
}

/// What the clock itself costs, calibrated at start-up.
#[derive(Debug, Clone, Copy)]
pub struct TimerCost {
    /// What an empty span measures: the clock cost that lands inside
    /// the span's own reading.
    pub inside_ns: f64,
    /// Wall time one span adds to the code around it.
    pub full_ns: f64,
}

/// Self time in seconds of a layer whose span encloses `children`:
/// its measured time minus its own timer cost, minus each child's
/// measured time and the part of the child's timer cost that the child
/// did not see. Clamped at zero, so noise never yields a negative share.
pub fn self_secs(outer: Span, children: &[Span], cost: TimerCost) -> f64 {
    let mut ns = outer.ns as f64 - outer.calls as f64 * cost.inside_ns;
    for c in children {
        ns -= c.ns as f64 + c.calls as f64 * (cost.full_ns - cost.inside_ns);
    }
    ns.max(0.0) / 1e9
}

/// Calibrate [`TimerCost`] with `time_empty`, which must run one empty
/// span through the same code path the real spans use and return what
/// it measured. The median of several rounds resists a preempted round.
pub fn calibrate(time_empty: impl Fn() -> u64) -> TimerCost {
    const ROUNDS: usize = 7;
    const SPANS: u64 = 100_000;
    let mut inside = Vec::with_capacity(ROUNDS);
    let mut full = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let start = now();
        let mut measured = 0u64;
        for _ in 0..SPANS {
            measured += black_box(time_empty());
        }
        full.push(start.elapsed().as_nanos() as f64 / SPANS as f64);
        inside.push(measured as f64 / SPANS as f64);
    }
    TimerCost {
        inside_ns: median(&inside),
        full_ns: median(&full),
    }
}

/// This process's peak resident set in MB (`VmHWM`), or `None` where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(
            percentile(&xs, 90.0),
            Some(90.0),
            "exactly 10 beyond is enough"
        );
        assert_eq!(percentile(&xs, 91.0), None, "9 beyond is not");
        assert_eq!(percentile(&xs, 99.0), None);
        assert_eq!(percentile(&xs[..19], 50.0), None);
        assert_eq!(percentile(&xs[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn self_time_subtracts_timer_cost_and_children() {
        let cost = TimerCost {
            inside_ns: 10.0,
            full_ns: 30.0,
        };
        let child = Span {
            ns: 2_000,
            calls: 50,
        };
        let outer = Span {
            ns: 10_000,
            calls: 100,
        };
        // 10000 - 100*10 - (2000 + 50*20) = 6000 ns
        assert!((self_secs(outer, &[child], cost) - 6e-6).abs() < 1e-15);
        // the child alone: 2000 - 50*10 = 1500 ns
        assert!((self_secs(child, &[], cost) - 1.5e-6).abs() < 1e-15);
    }

    #[test]
    fn self_time_is_never_negative() {
        let spans = [
            Span::ZERO,
            Span {
                ns: 0,
                calls: 1_000,
            },
            Span { ns: 5, calls: 1 },
            Span {
                ns: u64::MAX / 4,
                calls: 3,
            },
        ];
        let costs = [(0.0, 0.0), (25.0, 40.0), (1e6, 2e6)];
        for &outer in &spans {
            for &child in &spans {
                for &(inside_ns, full_ns) in &costs {
                    let cost = TimerCost { inside_ns, full_ns };
                    let s = self_secs(outer, &[child, child], cost);
                    assert!(s >= 0.0, "{outer:?} {child:?} {cost:?} gave {s}");
                }
            }
        }
    }
}
