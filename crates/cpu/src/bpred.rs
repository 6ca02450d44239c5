//! Perceptron branch direction predictor (Fig. 1: "perceptron — 4K
//! local, 256 perceps.").
//!
//! 256 perceptrons indexed by PC hash; each perceptron's inputs combine
//! a 12-bit local history (from a 4096-entry local history table) with a
//! 20-bit global history register — the "4K local, 256 perceptrons"
//! organisation of the paper's table. Weights are 8-bit saturating, with
//! the usual Jiménez–Lin threshold training rule.

/// Local-history bits per branch.
const LOCAL_BITS: usize = 12;
/// Global-history bits.
const GLOBAL_BITS: usize = 20;
/// Inputs per perceptron (local + global + bias).
const INPUTS: usize = LOCAL_BITS + GLOBAL_BITS;

/// A perceptron direction predictor with per-thread global history.
#[derive(Debug, Clone)]
pub struct PerceptronPredictor {
    /// `perceptrons × (INPUTS + 1)` weights; last weight is the bias.
    weights: Vec<i8>,
    perceptrons: usize,
    /// Local history table (shared across contexts, as the paper's
    /// single predictor per core suggests).
    local: Vec<u16>,
    /// Global history, one register per hardware context.
    global: Vec<u32>,
    /// Training threshold (Jiménez–Lin: ⌊1.93·n + 14⌋).
    theta: i32,
}

impl PerceptronPredictor {
    /// Predictor with `perceptrons` entries, a `local_entries` local
    /// history table and `contexts` independent global histories.
    pub fn new(perceptrons: u32, local_entries: u32, contexts: u32) -> Self {
        assert!(perceptrons > 0 && local_entries > 0 && contexts > 0);
        PerceptronPredictor {
            weights: vec![0; perceptrons as usize * (INPUTS + 1)],
            perceptrons: perceptrons as usize,
            local: vec![0; local_entries as usize],
            global: vec![0; contexts as usize],
            theta: (1.93 * INPUTS as f64 + 14.0) as i32,
        }
    }

    #[inline]
    fn table_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) % self.perceptrons
    }

    #[inline]
    fn local_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) % self.local.len()
    }

    fn output(&self, pc: u64, ctx: usize) -> i32 {
        let w = &self.weights[self.table_index(pc) * (INPUTS + 1)..][..INPUTS + 1];
        let lh = self.local[self.local_index(pc)];
        let gh = self.global[ctx];
        let mut y = w[INPUTS] as i32; // bias
        for (i, &wi) in w[..LOCAL_BITS].iter().enumerate() {
            let bit = (lh >> i) & 1 == 1;
            y += if bit { wi as i32 } else { -(wi as i32) };
        }
        for (i, &wi) in w[LOCAL_BITS..INPUTS].iter().enumerate() {
            let bit = (gh >> i) & 1 == 1;
            y += if bit { wi as i32 } else { -(wi as i32) };
        }
        y
    }

    /// Predict the direction of the conditional branch at `pc` for
    /// hardware context `ctx`.
    pub fn predict(&self, pc: u64, ctx: usize) -> bool {
        self.output(pc, ctx) >= 0
    }

    /// Train with the actual outcome and advance the histories. Call
    /// once per dynamic conditional branch, after `predict`.
    pub fn update(&mut self, pc: u64, ctx: usize, taken: bool) {
        let y = self.output(pc, ctx);
        if (y >= 0) != taken || y.abs() <= self.theta {
            let lh = self.local[self.local_index(pc)];
            let gh = self.global[ctx];
            let t: i32 = if taken { 1 } else { -1 };
            let idx = self.table_index(pc) * (INPUTS + 1);
            let w = &mut self.weights[idx..idx + INPUTS + 1];
            for (i, wi) in w[..LOCAL_BITS].iter_mut().enumerate() {
                let x: i32 = if (lh >> i) & 1 == 1 { 1 } else { -1 };
                *wi = (*wi as i32 + t * x).clamp(i8::MIN as i32, i8::MAX as i32) as i8;
            }
            for (i, wi) in w[LOCAL_BITS..INPUTS].iter_mut().enumerate() {
                let x: i32 = if (gh >> i) & 1 == 1 { 1 } else { -1 };
                *wi = (*wi as i32 + t * x).clamp(i8::MIN as i32, i8::MAX as i32) as i8;
            }
            let b = &mut w[INPUTS];
            *b = (*b as i32 + t).clamp(i8::MIN as i32, i8::MAX as i32) as i8;
        }
        // History updates happen on every branch.
        let li = self.local_index(pc);
        self.local[li] = ((self.local[li] << 1) | taken as u16) & ((1 << LOCAL_BITS) - 1);
        self.global[ctx] = ((self.global[ctx] << 1) | taken as u32) & ((1 << GLOBAL_BITS) - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train_run(outcomes: impl Iterator<Item = (u64, bool)>) -> f64 {
        let mut p = PerceptronPredictor::new(256, 4096, 2);
        let mut correct = 0u64;
        let mut total = 0u64;
        for (pc, taken) in outcomes {
            let pred = p.predict(pc, 0);
            if pred == taken {
                correct += 1;
            }
            total += 1;
            p.update(pc, 0, taken);
        }
        correct as f64 / total as f64
    }

    #[test]
    fn learns_strongly_biased_branches() {
        let acc = train_run((0..20_000u64).map(|i| (0x1000 + (i % 16) * 4, true)));
        assert!(acc > 0.98, "always-taken accuracy {acc}");
    }

    #[test]
    fn learns_alternating_pattern_via_history() {
        // T,N,T,N… is perfectly predictable from 1 bit of history.
        let acc = train_run((0..20_000u64).map(|i| (0x2000, i % 2 == 0)));
        assert!(acc > 0.95, "alternating accuracy {acc}");
    }

    #[test]
    fn learns_short_loops() {
        // 7 taken then 1 not-taken (an 8-iteration loop).
        let acc = train_run((0..40_000u64).map(|i| (0x3000, i % 8 != 7)));
        assert!(acc > 0.9, "loop accuracy {acc}");
    }

    #[test]
    fn random_branches_are_hard() {
        // Deterministic pseudo-random outcomes: accuracy ≈ 0.5.
        let mut x = 0x12345678u64;
        let acc = train_run((0..20_000u64).map(move |_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (0x4000, x & 1 == 1)
        }));
        assert!((0.40..0.65).contains(&acc), "random accuracy {acc}");
    }

    #[test]
    fn contexts_have_independent_global_history() {
        let mut p = PerceptronPredictor::new(256, 4096, 2);
        // Context 0 trains an alternating pattern at a PC; context 1's
        // history must not disturb it catastrophically.
        for i in 0..10_000u64 {
            let t0 = i % 2 == 0;
            p.predict(0x5000, 0);
            p.update(0x5000, 0, t0);
            p.predict(0x6000, 1);
            p.update(0x6000, 1, i % 3 == 0);
        }
        let mut correct = 0;
        for i in 0..1_000u64 {
            let t0 = i % 2 == 0;
            if p.predict(0x5000, 0) == t0 {
                correct += 1;
            }
            p.update(0x5000, 0, t0);
        }
        assert!(
            correct > 900,
            "ctx-0 accuracy after interference {correct}/1000"
        );
    }
}
