//! Latency histogram used by the Fig. 4 analysis.
//!
//! The paper studies the distribution of cycles required by each load
//! that hits the shared L2, "since it is issued from the load/store
//! queue until it is finally served". We collect that distribution in
//! fixed-width bins with an overflow bucket.

smtsim_obs::record! {
    /// Fixed-width latency histogram with overflow.
    #[derive(Debug, Clone)]
    pub struct LatencyHistogram {
        #[gauge("cycles")]
        /// Width of one bin.
        bin_width: u64,
        #[counter("loads", "Fig. 4")]
        /// Samples per bin: bin `i` holds latencies in
        /// `[i * bin_width, (i + 1) * bin_width)`.
        bins: Vec<u64>,
        #[counter("loads")]
        /// Samples beyond the last bin.
        overflow: u64,
        #[counter("loads")]
        /// Samples recorded.
        count: u64,
        #[counter("cycles")]
        /// Sum of all samples.
        sum: u64,
        #[gauge("cycles")]
        /// Smallest sample (`null` when empty).
        min: Option<u64>,
        #[gauge("cycles")]
        /// Largest sample (`null` when empty).
        max: Option<u64>,
    }
    decode with LatencyHistogram::check_shape;
}

impl LatencyHistogram {
    /// Histogram with `num_bins` bins of `bin_width` cycles each.
    pub fn new(bin_width: u64, num_bins: usize) -> Self {
        assert!(bin_width > 0 && num_bins > 0);
        LatencyHistogram {
            bin_width,
            bins: vec![0; num_bins],
            overflow: 0,
            count: 0,
            sum: 0,
            min: None,
            max: None,
        }
    }

    /// Default shape for L2-hit-time analysis: 5-cycle bins up to 200.
    pub fn for_l2_hit_time() -> Self {
        Self::new(5, 40)
    }

    /// The shape [`LatencyHistogram::new`] insists on, checked on a
    /// decoded histogram: at least one bin, of non-zero width.
    fn check_shape(&self) -> Result<(), String> {
        if self.bin_width == 0 || self.bins.is_empty() {
            return Err(format!(
                "histogram of {} bins of width {}",
                self.bins.len(),
                self.bin_width
            ));
        }
        Ok(())
    }

    /// Record one latency sample.
    pub fn record(&mut self, latency: u64) {
        self.count += 1;
        self.sum += latency;
        self.min = Some(self.min.map_or(latency, |m| m.min(latency)));
        self.max = Some(self.max.map_or(latency, |m| m.max(latency)));
        let idx = (latency / self.bin_width) as usize;
        if idx < self.bins.len() {
            self.bins[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Width of one bin in cycles.
    pub fn bin_width(&self) -> u64 {
        self.bin_width
    }

    /// Samples beyond the last bin.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Sum of all recorded samples (for exact mean recomputation).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean latency (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Minimum sample (None if empty).
    pub fn min(&self) -> Option<u64> {
        self.min
    }

    /// Maximum sample (None if empty).
    pub fn max(&self) -> Option<u64> {
        self.max
    }

    /// Fraction of samples in `[lo, hi)` cycles (bin-resolution: `lo`
    /// and `hi` are rounded down to bin boundaries).
    pub fn fraction_between(&self, lo: u64, hi: u64) -> f64 {
        if self.count == 0 || hi <= lo {
            return 0.0;
        }
        let lo_bin = (lo / self.bin_width) as usize;
        let hi_bin = ((hi / self.bin_width) as usize).min(self.bins.len());
        let in_range: u64 = self.bins[lo_bin.min(self.bins.len())..hi_bin].iter().sum();
        let over = if hi_bin >= self.bins.len() && hi == u64::MAX {
            self.overflow
        } else {
            0
        };
        (in_range + over) as f64 / self.count as f64
    }

    /// Approximate percentile (by bin midpoint); `p` in `[0,1]`.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut acc = 0u64;
        for (i, &b) in self.bins.iter().enumerate() {
            acc += b;
            if acc >= target {
                return Some(i as u64 * self.bin_width + self.bin_width / 2);
            }
        }
        Some(self.bins.len() as u64 * self.bin_width)
    }

    /// Standard deviation of the binned samples (bin midpoints; the
    /// overflow bucket is approximated at the histogram ceiling).
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let mut var_sum = 0.0;
        for (i, &b) in self.bins.iter().enumerate() {
            if b > 0 {
                let mid = i as f64 * self.bin_width as f64 + self.bin_width as f64 / 2.0;
                var_sum += b as f64 * (mid - mean) * (mid - mean);
            }
        }
        if self.overflow > 0 {
            let ceil = self.bins.len() as f64 * self.bin_width as f64;
            var_sum += self.overflow as f64 * (ceil - mean) * (ceil - mean);
        }
        (var_sum / (self.count - 1) as f64).sqrt()
    }

    /// `(bin_start, count)` for every non-empty bin, plus the overflow
    /// bucket reported at `num_bins * bin_width`.
    pub fn non_empty_bins(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self
            .bins
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u64 * self.bin_width, c))
            .collect();
        if self.overflow > 0 {
            v.push((self.bins.len() as u64 * self.bin_width, self.overflow));
        }
        v
    }

    /// Merge another histogram of identical shape into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        assert_eq!(self.bin_width, other.bin_width);
        assert_eq!(self.bins.len(), other.bins.len());
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.into_iter().chain(other.min).min();
        self.max = self.max.into_iter().chain(other.max).max();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_means() {
        let mut h = LatencyHistogram::new(5, 10);
        for l in [10, 20, 30] {
            h.record(l);
        }
        assert_eq!(h.count(), 3);
        assert!((h.mean() - 20.0).abs() < 1e-9);
        assert_eq!(h.min(), Some(10));
        assert_eq!(h.max(), Some(30));
    }

    #[test]
    fn overflow_bucket() {
        let mut h = LatencyHistogram::new(5, 4); // covers [0,20)
        h.record(100);
        h.record(3);
        assert_eq!(h.count(), 2);
        let bins = h.non_empty_bins();
        assert!(bins.contains(&(0, 1)));
        assert!(bins.contains(&(20, 1)), "overflow at ceiling: {bins:?}");
    }

    #[test]
    fn fraction_between_works() {
        let mut h = LatencyHistogram::new(5, 40);
        for l in [22, 25, 40, 65, 150] {
            h.record(l);
        }
        // [20,70): 22,25,40,65 → 4/5
        let f = h.fraction_between(20, 70);
        assert!((f - 0.8).abs() < 1e-9, "{f}");
    }

    #[test]
    fn percentile_monotone() {
        let mut h = LatencyHistogram::new(5, 40);
        for l in 0..100 {
            h.record(l);
        }
        let p10 = h.percentile(0.1).unwrap();
        let p50 = h.percentile(0.5).unwrap();
        let p90 = h.percentile(0.9).unwrap();
        assert!(p10 <= p50 && p50 <= p90);
        assert!((45..=55).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn std_dev_grows_with_dispersion() {
        let mut tight = LatencyHistogram::new(5, 40);
        let mut wide = LatencyHistogram::new(5, 40);
        for _ in 0..100 {
            tight.record(50);
        }
        for i in 0..100 {
            wide.record(if i % 2 == 0 { 10 } else { 150 });
        }
        assert!(wide.std_dev() > tight.std_dev() + 10.0);
    }

    #[test]
    fn merge_combines() {
        let mut a = LatencyHistogram::new(5, 10);
        let mut b = LatencyHistogram::new(5, 10);
        a.record(10);
        b.record(30);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean() - 20.0).abs() < 1e-9);
        assert_eq!(a.min(), Some(10));
        assert_eq!(a.max(), Some(30));
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = LatencyHistogram::new(5, 10);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.std_dev(), 0.0);
    }
}
