//! The 40-bin summary behind [`WaitProfile`](crate::WaitProfile).

use std::fmt::Write as _;

const BINS: usize = 40;

/// A non-negative sample in 40 equal bins over `[0, max(1.01·max, 1))`,
/// a range that holds every sample.
pub(crate) struct Bins {
    /// Largest sample (0 for an empty one).
    pub max: f64,
    /// Samples binned.
    pub count: u64,
    high: f64,
    counts: [u64; BINS],
    /// Sum of the samples in sample order.
    sum: f64,
}

impl Bins {
    pub(crate) fn new(samples: &[f64]) -> Self {
        let max = samples.iter().copied().fold(0.0_f64, f64::max);
        let high = (max * 1.01).max(1.0);
        let width = high / BINS as f64;
        let mut counts = [0; BINS];
        let mut sum = 0.0;
        for &x in samples {
            sum += x;
            counts[((x / width) as usize).min(BINS - 1)] += 1;
        }
        Bins { max, count: samples.len() as u64, high, counts, sum }
    }

    fn width(&self) -> f64 {
        self.high / BINS as f64
    }

    /// The sample mean (0 for an empty sample).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The `q`-quantile, linearly interpolated within its bin (0 for an
    /// empty sample).
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = q * self.count as f64;
        let mut seen = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            let next = seen + c as f64;
            if target <= next && c > 0 {
                return (i as f64 + (target - seen) / c as f64) * self.width();
            }
            seen = next;
        }
        self.high
    }

    /// One line per non-empty bin: its centre, its count and a bar of
    /// `ceil(50·count/largest count)` `#`.
    pub(crate) fn chart(&self) -> String {
        let mut out = String::new();
        let largest = self.counts.iter().copied().max().unwrap_or(0).max(1);
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let bar = "#".repeat((c as f64 / largest as f64 * 50.0).ceil() as usize);
            let _ = writeln!(out, "{:>10.2} {:>8}  {bar}", (i as f64 + 0.5) * self.width(), c);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every sample is below 1/1.01, so the range is `[0, 1)` and each bin
    /// is 0.025 wide: the samples fall in bins 0, 0, 0, 0, 1, 2, 2 and 20.
    const SAMPLE: [f64; 8] = [0.0, 0.0, 0.0, 0.01, 0.03, 0.06, 0.07, 0.51];

    #[test]
    fn records_and_counts() {
        let bins = Bins::new(&SAMPLE);
        assert_eq!((bins.count, bins.max, bins.width()), (8, 0.51, 0.025));
        let mut expected = [0; BINS];
        (expected[0], expected[1], expected[2], expected[20]) = (4, 1, 2, 1);
        assert_eq!(bins.counts, expected);
        assert!((bins.mean() - 0.68 / 8.0).abs() < 1e-15, "{}", bins.mean());
    }

    #[test]
    fn quantiles_interpolate_within_their_bin() {
        let bins = Bins::new(&SAMPLE);
        // p50: the 4th of 8 samples closes bin 0, so its upper edge.
        assert_eq!(bins.quantile(0.5), 0.025);
        // p95: 7.6 of 8 is 0.6 of the way through bin 20's one sample.
        assert!((bins.quantile(0.95) - 20.6 * 0.025).abs() < 1e-15);
        assert_eq!(Bins::new(&[]).quantile(0.5), 0.0);
    }

    #[test]
    fn quantiles_of_uniform_grid() {
        let grid: Vec<f64> = (0..100).map(|i| i as f64 + 0.5).collect();
        let bins = Bins::new(&grid);
        for (q, expected) in [(0.0, 0.0), (0.5, 50.0), (0.9, 90.0), (1.0, 100.0)] {
            let v = bins.quantile(q);
            assert!((v - expected).abs() < 1.5, "quantile({q}) = {v}");
        }
    }

    #[test]
    fn render_shows_bars() {
        let chart = Bins::new(&SAMPLE).chart();
        let bars: Vec<usize> =
            chart.lines().map(|line| line.bytes().filter(|&b| b == b'#').count()).collect();
        // ceil(50 · count/4) for the counts 4, 1, 2, 1.
        assert_eq!(bars, [50, 13, 25, 13]);
        assert!(chart.starts_with("      0.01        4  #"), "{chart}");
    }

    proptest! {
        /// Quantiles are monotone in q, stay inside the range, and the
        /// mean is the sample mean.
        #[test]
        fn histogram_quantiles_are_monotone(
            xs in prop::collection::vec(0.0f64..100.0, 1..100),
        ) {
            let bins = Bins::new(&xs);
            let mut last = f64::NEG_INFINITY;
            for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
                let v = bins.quantile(q);
                prop_assert!(v >= last - 1e-12, "quantile({q}) = {v} < {last}");
                prop_assert!((0.0..=bins.high * (1.0 + 1e-12)).contains(&v), "{v}");
                last = v;
            }
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            prop_assert!((bins.mean() - mean).abs() < 1e-9);
        }
    }
}
