//! Order statistics over measured samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by nearest rank; 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// The median of `samples`; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// What repeated measurements `values`, each taken while the host ran
/// `slowdown` times slower than nominal ([`crate::gauge::Gauge`]), would
/// read on a host of nominal speed (slowdown 1); 0 when empty.
///
/// The host's speed drifts in phases of seconds to minutes, longer than a
/// run, so a plain median moves with the phase a run fell in. How much a
/// slowdown of the gauge slows the measured code differs from code to
/// code (set-up follows the gauge almost one for one, `classify` about a
/// third as much), so the dependence is fitted in every run: a line
/// through (ln slowdown, ln value) evaluated at ln slowdown = 0. A faster
/// program lowers the line; a slow phase of the host moves along it.
///
/// The fit is Theil–Sen over split halves, robust to a repetition an
/// interrupt landed in: with the points ordered by slowdown, the slope is
/// the median of the slopes from each point of the faster half to its
/// partner in the slower half, and the intercept the median of what each
/// point puts it at. Its memory is linear in the repetitions, so it does
/// not show in `peak_rss_mb`.
pub fn at_nominal(values: &[f64], slowdown: &[f64]) -> f64 {
    let mut points: Vec<(f64, f64)> = values
        .iter()
        .zip(slowdown)
        .filter(|(v, g)| **v > 0.0 && **g > 0.0)
        .map(|(v, g)| (g.ln(), v.ln()))
        .collect();
    if points.is_empty() {
        return 0.0;
    }
    points.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (fast, slow) = points.split_at(points.len() / 2);
    let slopes: Vec<f64> = fast
        .iter()
        .zip(slow)
        // Pairs read at nearly the same host speed say nothing about the
        // slope but noise.
        .filter(|((x0, _), (x1, _))| x1 - x0 > MIN_LN_SPREAD)
        .map(|((x0, y0), (x1, y1))| (y1 - y0) / (x1 - x0))
        .collect();
    at_nominal_with_slope(values, slowdown, median(&slopes))
}

/// What repeated measurements `values` would read on a host of nominal
/// speed when each scales with the host's `slowdown` to the power `slope`:
/// the median of `value / slowdown^slope`; 0 when empty. For measurements
/// too few to fit the slope from ([`at_nominal`]).
pub fn at_nominal_with_slope(values: &[f64], slowdown: &[f64], slope: f64) -> f64 {
    let scaled: Vec<f64> = values
        .iter()
        .zip(slowdown)
        .filter(|(v, g)| **v > 0.0 && **g > 0.0)
        .map(|(v, g)| v / g.powf(slope))
        .collect();
    median(&scaled)
}

/// Smallest difference of ln slowdown between two repetitions that
/// [`at_nominal`] takes a slope from (a 2% difference in host speed).
const MIN_LN_SPREAD: f64 = 0.02;

/// Log the spread of the repeated measurements behind metric `name` on
/// standard error: their count and 5th, 10th, 25th, 50th and 90th
/// percentiles.
pub fn log_profile(name: &str, samples: &[f64]) {
    let q = |p| quantile(samples, p);
    eprintln!(
        "perfbench: samples {name} n={} q05={:.6} q10={:.6} q25={:.6} q50={:.6} q90={:.6}",
        samples.len(),
        q(0.05),
        q(0.1),
        q(0.25),
        q(0.5),
        q(0.9)
    )
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Relative width of one [`Histogram`] bucket.
const BUCKET_RATIO: f64 = 1.001;
/// Smallest value a [`Histogram`] resolves; anything below lands in the
/// first bucket.
const HIST_MIN: f64 = 1e-3;
/// Buckets from `HIST_MIN` up to 10^7 (10 s when recording µs).
const HIST_BUCKETS: usize = 23_040;

/// A log-bucketed histogram of positive samples with 0.1% relative
/// resolution and fixed memory, however many samples a run records. Each
/// bucket keeps the sum of its samples, so a quantile reads as the mean of
/// the samples in its bucket rather than a bucket edge.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    sums: Vec<f64>,
    total: u64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: vec![0; HIST_BUCKETS],
            sums: vec![0.0; HIST_BUCKETS],
            total: 0,
            max: 0.0,
        }
    }
}

impl Histogram {
    /// Record one sample.
    pub fn record(&mut self, x: f64) {
        let i = ((x.max(HIST_MIN) / HIST_MIN).ln() / BUCKET_RATIO.ln()) as usize;
        let i = i.min(HIST_BUCKETS - 1);
        self.counts[i] += 1;
        self.sums[i] += x;
        self.total += 1;
        self.max = self.max.max(x);
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest rank; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = (q * (self.total - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen > rank {
                return self.sums[i] / n as f64;
            }
        }
        self.max
    }

    /// The largest sample; 0 when empty.
    pub fn max(&self) -> f64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let s = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&s), 3.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn at_nominal_removes_the_host_slowdown() {
        // A value that grows with the slowdown squared, plus one outlier.
        let g: Vec<f64> = (0..20).map(|i| 1.0 + f64::from(i) * 0.05).collect();
        let mut v: Vec<f64> = g.iter().map(|g| 3.0 * g * g).collect();
        v[7] *= 5.0;
        assert!((at_nominal(&v, &g) - 3.0).abs() < 1e-9);
        // No spread in host speed: the median, unscaled.
        assert!((at_nominal(&[2.0, 3.0, 4.0], &[1.5; 3]) - 3.0).abs() < 1e-9);
        assert_eq!(at_nominal(&[], &[]), 0.0);
        assert!((at_nominal_with_slope(&v, &g, 2.0) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_within_resolution() {
        let mut h = Histogram::default();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        assert_eq!(h.total, 1000);
        let p50 = h.quantile(0.5);
        assert!((p50 - 500.0).abs() <= 500.0 * 0.002, "{p50}");
        assert!((h.quantile(0.99) - 990.0).abs() <= 990.0 * 0.002);
        assert_eq!(h.max(), 1000.0);
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
    }
}
