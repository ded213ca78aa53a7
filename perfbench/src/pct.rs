//! Percentiles that only report what the sample supports.
//!
//! A percentile is the nearest-rank sample: the `k`-th smallest of `n`
//! values with `k = ceil(q/100 · n)`. It is reported only when at least
//! [`MIN_BEYOND`] samples lie beyond it; a named tail the sample cannot
//! support is refused, never extrapolated.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles considered by [`highest_supported`], ascending.
pub const LADDER: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Why a percentile could not be reported.
#[derive(Debug, Clone, PartialEq)]
pub enum PctError {
    /// `q` lies outside `(0, 100)`.
    BadPercentile(f64),
    /// Fewer than [`MIN_BEYOND`] samples lie beyond the percentile.
    Unsupported {
        /// The percentile asked for.
        q: f64,
        /// Samples taken.
        samples: usize,
        /// Samples beyond the percentile.
        beyond: usize,
    },
}

impl std::fmt::Display for PctError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PctError::BadPercentile(q) => write!(f, "percentile {q} outside (0, 100)"),
            PctError::Unsupported { q, samples, beyond } => write!(
                f,
                "p{q} unsupported: {beyond} of {samples} samples beyond it, need {MIN_BEYOND}"
            ),
        }
    }
}

/// 1-based nearest rank of percentile `q` among `n` samples. Integer
/// arithmetic on hundredths of a percent, so `p90` of 100 samples is
/// exactly the 90th value.
fn rank(q: f64, n: usize) -> usize {
    let hundredths = (q * 100.0).round() as usize;
    (hundredths * n).div_ceil(10_000).max(1)
}

/// Samples strictly beyond percentile `q` of `n` samples.
pub fn beyond(q: f64, n: usize) -> usize {
    n.saturating_sub(rank(q, n))
}

/// Percentile `q` of `values` (any order), refused unless at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(values: &[f64], q: f64) -> Result<f64, PctError> {
    if !(q > 0.0 && q < 100.0) {
        return Err(PctError::BadPercentile(q));
    }
    let n = values.len();
    let past = beyond(q, n);
    if past < MIN_BEYOND {
        return Err(PctError::Unsupported {
            q,
            samples: n,
            beyond: past,
        });
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank(q, n) - 1])
}

/// The highest percentile of [`LADDER`] that `n` samples support.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER
        .into_iter()
        .rev()
        .find(|&q| beyond(q, n) >= MIN_BEYOND)
}

/// Samples needed before percentile `q` is supported.
pub fn samples_needed(q: f64) -> usize {
    (1..)
        .find(|&n| beyond(q, n) >= MIN_BEYOND)
        .expect("some sample size supports q < 100")
}

/// The median of a non-empty sample, without the tail rule: for layer
/// metrics whose sample is one value per request or per epoch, where a
/// short traced run still has a well-defined middle.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // shuffled so the helper must sort
        (0..n).map(|i| ((i * 37) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn picks_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(highest_supported(9), None);
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(99), Some(50.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(199), Some(90.0));
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(1_000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        for n in [20, 57, 100, 150, 200, 999, 1_000, 12_345] {
            let q = highest_supported(n).unwrap();
            assert!(beyond(q, n) >= MIN_BEYOND, "n={n} q={q}");
            if let Some(&next) = LADDER.iter().find(|&&l| l > q) {
                assert!(
                    beyond(next, n) < MIN_BEYOND,
                    "n={n}: p{next} is supported too"
                );
            }
        }
    }

    #[test]
    fn refuses_a_named_tail_the_sample_cannot_support() {
        let v = ramp(99);
        assert_eq!(
            percentile(&v, 90.0),
            Err(PctError::Unsupported {
                q: 90.0,
                samples: 99,
                beyond: 9
            })
        );
        assert!(percentile(&ramp(199), 95.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
        assert_eq!(percentile(&v, 100.0), Err(PctError::BadPercentile(100.0)));
    }

    #[test]
    fn nearest_rank_values() {
        let v = ramp(100); // 1..=100
        assert_eq!(percentile(&v, 50.0), Ok(50.0));
        assert_eq!(percentile(&v, 90.0), Ok(90.0));
        assert_eq!(percentile(&ramp(200), 95.0), Ok(190.0));
        assert_eq!(samples_needed(50.0), 20);
        assert_eq!(samples_needed(90.0), 100);
        assert_eq!(samples_needed(95.0), 200);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
