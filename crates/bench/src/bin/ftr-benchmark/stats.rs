//! Order statistics the harness reports: medians over trials with
//! their quartile spread, and latency percentiles under the rule that a
//! percentile is only reported when enough samples lie beyond it.

use crate::spec::Better;

/// Percentiles the harness may report as a tail, lowest first.
const TAIL_LADDER: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: f64 = 10.0;

/// Median of `values` (mean of the two middle values for an even count);
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Quartile `k` (1 or 3) of `values` as Python's
/// `statistics.quantiles(values, n=4)` gives it (exclusive method); the
/// single value itself below two values, `NaN` for none.
fn quartile(values: &[f64], k: usize) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return v.first().copied().unwrap_or(f64::NAN);
    }
    let pos = k * (n + 1);
    let j = (pos / 4).clamp(1, n - 1);
    let delta = pos as f64 / 4.0 - j as f64;
    v[j - 1] + (v[j] - v[j - 1]) * delta
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the acceptance check computes. Zero below two
/// values.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    (quartile(values, 3) - quartile(values, 1)).abs() / m.abs()
}

/// The best of `values` — the largest when higher is better, the
/// smallest when lower is — or `NaN` for none.
pub fn best(values: &[f64], better: Better) -> f64 {
    let values = values.iter().copied();
    match better {
        Better::Higher => values.fold(f64::NAN, f64::max),
        Better::Lower => values.fold(f64::NAN, f64::min),
    }
}

/// Medians of consecutive chunks of `per_chunk` samples, in order. A
/// short last chunk is kept only if it is at least half a chunk or the
/// only one.
pub fn chunk_medians(samples: &[f64], per_chunk: usize) -> Vec<f64> {
    samples
        .chunks(per_chunk)
        .enumerate()
        .filter(|(i, chunk)| *i == 0 || chunk.len() * 2 >= per_chunk)
        .map(|(_, chunk)| median(chunk))
        .collect()
}

/// Nearest-rank percentile `p` in `[0, 1]` of `samples`, which is
/// reordered in place (selection, not a full sort).
pub fn percentile_u32(samples: &mut [u32], p: f64) -> Option<u32> {
    if samples.is_empty() {
        return None;
    }
    let rank = ((samples.len() as f64 * p).ceil() as usize).clamp(1, samples.len());
    let (_, v, _) = samples.select_nth_unstable(rank - 1);
    Some(*v)
}

/// The highest ladder percentile that still has at least ten samples
/// beyond it among `n` samples, or `None` when even the median has not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| percentile_supported(n, p))
}

/// Whether `p` may be reported from `n` samples under the same rule.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    // `1.0 - 0.9999` is a hair under 0.0001; the slack keeps exact
    // cases such as 100,000 samples at p99.99 on the right side.
    n as f64 * (1.0 - p) >= MIN_BEYOND - 1e-6
}

/// A metric's trial values with the summaries the ledger prints.
#[derive(Debug, Clone, Default)]
pub struct Trials {
    /// One value per trial (for a gated timing, the trial's best slice),
    /// in trial order.
    pub raw: Vec<f64>,
}

impl Trials {
    pub fn push(&mut self, v: f64) {
        self.raw.push(v);
    }

    pub fn median(&self) -> f64 {
        median(&self.raw)
    }

    pub fn spread(&self) -> f64 {
        iqr_over_median(&self.raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartile_spread_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = iqr_over_median(&v);
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{spread}");
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let five = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert!((iqr_over_median(&five) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_over_median(&[7.0]), 0.0);
        assert_eq!(quartile(&five, 1), 1.5);
        assert_eq!(quartile(&five, 3), 4.5);
        assert_eq!(quartile(&[7.0], 1), 7.0);
        assert!(quartile(&[], 3).is_nan());
    }

    #[test]
    fn chunk_medians_keep_a_last_chunk_of_half_size_or_more() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(chunk_medians(&v, 4), [2.5, 6.5, 10.0]);
        assert_eq!(chunk_medians(&v[..9], 4), [2.5, 6.5]);
        assert_eq!(chunk_medians(&v[..1], 4), [1.0]);
        assert!(chunk_medians(&[], 4).is_empty());
        assert_eq!(best(&v, Better::Higher), 11.0);
        assert_eq!(best(&v, Better::Lower), 1.0);
        assert!(best(&[], Better::Lower).is_nan());
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 1,000 samples: exactly ten lie beyond p99, one beyond p99.9.
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(999), Some(0.9));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
        assert_eq!(highest_supported_percentile(100_000), Some(0.9999));
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(19), None);
        assert!(percentile_supported(1_000, 0.99));
        assert!(!percentile_supported(999, 0.99));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile_u32(&mut v, 0.5), Some(50));
        assert_eq!(percentile_u32(&mut v, 0.99), Some(99));
        assert_eq!(percentile_u32(&mut v, 1.0), Some(100));
        assert_eq!(percentile_u32(&mut v, 0.0), Some(1));
        assert_eq!(percentile_u32(&mut [], 0.5), None);
    }
}
