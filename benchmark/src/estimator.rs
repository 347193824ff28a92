//! The two estimators: the fast tail of one series, and the paired ratio
//! of two.
//!
//! Interference on a small shared host is one-sided and comes in regimes:
//! a unit of work is never faster than the code allows, but it can be
//! slower for seconds to minutes (see README "Noise study"). The window
//! mean and the median both follow whichever regime filled most of the
//! window; the mean of the fastest few units — the fast tail — follows the
//! code as long as the fast regime showed up at all. That is enough for the
//! layer probes and for the raw throughput printed beside every result.
//!
//! It is not enough to gate on: the fast regime itself drifts by tens of
//! percent over the half hour a set of runs takes. The gated timings
//! therefore pair every unit with a unit of a frozen baseline timed right
//! beside it and take the median of the pair ratios, from which whatever
//! slows both sides alike cancels.

use std::fmt;

/// Units slower than this multiple of the fast tail count as slow.
pub const SLOW_FACTOR: f64 = 1.15;
/// Units within this multiple of the fastest unit support the fast tail.
pub const SUPPORT_FACTOR: f64 = 1.03;
/// A run with fewer supporting units than this is reported as disturbed.
pub const MIN_SUPPORT: usize = 5;

/// Why a series of unit times has no estimate.
#[derive(Debug, PartialEq, Eq)]
pub enum EstimatorError {
    /// No units were timed.
    Empty,
    /// A unit time was NaN, infinite, zero or negative.
    NotPositiveFinite { index: usize },
    /// The two sides of a pairing have different lengths.
    Unpaired { left: usize, right: usize },
}

impl fmt::Display for EstimatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EstimatorError::Empty => write!(f, "no timed units"),
            EstimatorError::NotPositiveFinite { index } => {
                write!(f, "unit {index} has a time that is not positive and finite")
            }
            EstimatorError::Unpaired { left, right } => {
                write!(f, "{left} units paired with {right}")
            }
        }
    }
}

impl std::error::Error for EstimatorError {}

/// How many of `n` units form the fast tail: `max(3, n/100)`, and never
/// more than there are.
pub fn fast_tail_len(n: usize) -> usize {
    (n / 100).max(3).min(n)
}

/// What a series of unit times says.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Mean of the fast-tail units — the gated estimate.
    pub fast_tail: f64,
    /// Indices (into the input) of the fast-tail units, fastest first.
    pub tail_indices: Vec<usize>,
    /// Mean over all units.
    pub mean: f64,
    /// Median over all units.
    pub median: f64,
    /// Share of units slower than [`SLOW_FACTOR`] × fast tail.
    pub slow_share: f64,
    /// Units within [`SUPPORT_FACTOR`] of the fastest unit.
    pub fast_tail_support: usize,
}

impl Summary {
    /// Whether too few units reached the fast mode to trust the fast tail.
    pub fn disturbed(&self) -> bool {
        self.fast_tail_support < MIN_SUPPORT
    }
}

/// Summarizes unit times (any one unit of time, all positive and finite).
pub fn summarize(units: &[f64]) -> Result<Summary, EstimatorError> {
    check(units)?;
    let n = units.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| units[a].total_cmp(&units[b]));
    let tail_indices = order[..fast_tail_len(n)].to_vec();
    let fast_tail = tail_indices.iter().map(|&i| units[i]).sum::<f64>() / tail_indices.len() as f64;
    let median = median_of(units.to_vec());
    let fastest = units[order[0]];
    Ok(Summary {
        fast_tail,
        tail_indices,
        mean: units.iter().sum::<f64>() / n as f64,
        median,
        slow_share: units
            .iter()
            .filter(|&&u| u > SLOW_FACTOR * fast_tail)
            .count() as f64
            / n as f64,
        fast_tail_support: units
            .iter()
            .filter(|&&u| u <= SUPPORT_FACTOR * fastest)
            .count(),
    })
}

fn check(units: &[f64]) -> Result<(), EstimatorError> {
    if units.is_empty() {
        return Err(EstimatorError::Empty);
    }
    match units.iter().position(|&u| !(u.is_finite() && u > 0.0)) {
        Some(index) => Err(EstimatorError::NotPositiveFinite { index }),
        None => Ok(()),
    }
}

fn median_of(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

/// The standard error of a paired ratio, as a share of it, above which the
/// run is reported as disturbed: a third of the tightest timing bound.
pub const MAX_PAIRED_ERROR: f64 = 0.1 / 3.0;

/// What a series of (code under test, baseline) unit pairs says.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Paired {
    /// Median of `current[i] / baseline[i]` — the gated estimate.
    pub ratio: f64,
    /// Distance between the quartiles of the pair ratios, as a share of
    /// their median.
    pub spread: f64,
    pub pairs: usize,
}

impl Paired {
    /// Standard error of the median ratio as a share of it, taking the
    /// pair ratios as roughly normal (`1.2533 · σ / √n`, `σ = IQR / 1.349`).
    pub fn error(&self) -> f64 {
        1.2533 * self.spread / 1.349 / (self.pairs as f64).sqrt()
    }

    /// Whether the pairs scattered too much to resolve the bounds.
    pub fn disturbed(&self) -> bool {
        self.error() > MAX_PAIRED_ERROR
    }
}

/// How much slower the code under test is than the baseline unit timed
/// right beside it. Interference that slows both units of a pair alike
/// cancels; a spike that hits one unit of a pair moves one ratio, which
/// the median ignores.
pub fn paired_ratio(current: &[f64], baseline: &[f64]) -> Result<Paired, EstimatorError> {
    if current.len() != baseline.len() {
        return Err(EstimatorError::Unpaired {
            left: current.len(),
            right: baseline.len(),
        });
    }
    check(current)?;
    check(baseline)?;
    let mut ratios: Vec<f64> = current.iter().zip(baseline).map(|(c, b)| c / b).collect();
    ratios.sort_by(f64::total_cmp);
    let n = ratios.len();
    let ratio = median_of(ratios.clone());
    Ok(Paired {
        ratio,
        spread: (ratios[(3 * n) / 4] - ratios[n / 4]) / ratio,
        pairs: n,
    })
}

/// Fast tail of a series alone, for the layer probes.
pub fn fast_tail(units: &[f64]) -> Result<f64, EstimatorError> {
    summarize(units).map(|s| s.fast_tail)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` units of which a `slow` share runs in the slow mode (90 ms) and
    /// the rest in the fast mode (65 ms), with ±0.5 % deterministic jitter,
    /// the slow units in blocks as regimes arrive on the host.
    fn bimodal(n: usize, slow: f64) -> Vec<f64> {
        let n_slow = (n as f64 * slow).round() as usize;
        (0..n)
            .map(|i| {
                let jitter = 1.0 + 0.005 * ((i * 7919 % 101) as f64 / 50.0 - 1.0);
                let mode = if i < n_slow { 90.0 } else { 65.0 };
                mode * jitter
            })
            .collect()
    }

    #[test]
    fn fast_tail_holds_the_fast_mode_while_the_median_flips() {
        let mostly_fast = summarize(&bimodal(400, 0.10)).unwrap();
        let mostly_slow = summarize(&bimodal(400, 0.90)).unwrap();
        for s in [&mostly_fast, &mostly_slow] {
            assert!(
                (s.fast_tail - 65.0).abs() / 65.0 < 0.01,
                "fast tail {} left the fast mode",
                s.fast_tail
            );
        }
        assert!((mostly_fast.median - 65.0).abs() < 1.0);
        assert!((mostly_slow.median - 90.0).abs() < 1.0);
        assert!(mostly_slow.mean > 1.3 * mostly_fast.fast_tail);
    }

    #[test]
    fn tail_length_is_max_3_or_a_hundredth() {
        assert_eq!(fast_tail_len(1), 1);
        assert_eq!(fast_tail_len(2), 2);
        assert_eq!(fast_tail_len(3), 3);
        assert_eq!(fast_tail_len(40), 3);
        assert_eq!(fast_tail_len(399), 3);
        assert_eq!(fast_tail_len(400), 4);
        assert_eq!(fast_tail_len(1234), 12);
    }

    #[test]
    fn tail_picks_the_fastest_units_by_index() {
        let units = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0];
        let s = summarize(&units).unwrap();
        assert_eq!(s.tail_indices, vec![1, 3, 4]);
        assert_eq!(s.fast_tail, 2.0);
        assert_eq!(s.median, 3.5);
        assert_eq!(s.mean, 4.0);
    }

    #[test]
    fn slow_share_and_support_count_units() {
        // Fast tail = mean(100, 101, 102) = 101; slow means > 116.15.
        let units = [100.0, 101.0, 102.0, 103.1, 116.0, 117.0, 200.0, 300.0];
        let s = summarize(&units).unwrap();
        assert_eq!(s.fast_tail, 101.0);
        assert_eq!(s.slow_share, 3.0 / 8.0);
        // Within 3 % of the fastest (≤ 103.0): 100, 101, 102.
        assert_eq!(s.fast_tail_support, 3);
        assert!(s.disturbed());
        assert!(!summarize(&bimodal(400, 0.9)).unwrap().disturbed());
    }

    /// A baseline series under drifting regimes (up to +45 %, in blocks of
    /// 25 units) and the same series `ratio` times slower with independent
    /// ±0.5 % jitter, `spikes` of which are doubled on one side only.
    fn regime_pairs(n: usize, ratio: f64, spikes: usize) -> (Vec<f64>, Vec<f64>) {
        let regime = |i: usize| [1.0, 1.45, 1.2, 1.0, 1.37][(i / 25) % 5];
        let jitter = |k: usize| 1.0 + 0.005 * ((k * 7919 % 101) as f64 / 50.0 - 1.0);
        let baseline: Vec<f64> = (0..n).map(|i| 65.0 * regime(i) * jitter(2 * i)).collect();
        let current = (0..n)
            .map(|i| {
                let spike = if i % (n / spikes.max(1)) == 0 && i / (n / spikes.max(1)) < spikes {
                    2.0
                } else {
                    1.0
                };
                65.0 * ratio * regime(i) * jitter(2 * i + 1) * spike
            })
            .collect();
        (current, baseline)
    }

    #[test]
    fn paired_ratio_cancels_regimes_that_move_the_fast_tail_apart() {
        let (current, baseline) = regime_pairs(300, 0.93, 0);
        let p = paired_ratio(&current, &baseline).unwrap();
        assert!((p.ratio - 0.93).abs() / 0.93 < 0.005, "paired ratio {p:?}");
        assert_eq!(p.pairs, 300);
        assert!(p.spread < 0.02 && !p.disturbed(), "{p:?}");
        // Raw estimates of one side across two halves of the run disagree
        // by the regime mix, which is what the pairing removes.
        let first = summarize(&current[..75]).unwrap().mean;
        let second = summarize(&current[75..150]).unwrap().mean;
        assert!((first / second - 1.0).abs() > 0.05);
    }

    #[test]
    fn paired_ratio_ignores_one_sided_spikes() {
        let (current, baseline) = regime_pairs(300, 1.10, 60);
        let p = paired_ratio(&current, &baseline).unwrap();
        assert!((p.ratio - 1.10).abs() / 1.10 < 0.005, "paired ratio {p:?}");
        let means = current.iter().sum::<f64>() / baseline.iter().sum::<f64>();
        assert!(
            means > 1.25,
            "the ratio of means follows the spikes: {means}"
        );
    }

    #[test]
    fn few_scattered_pairs_are_disturbed() {
        let current = [1.0, 1.6, 0.7, 1.3, 0.9, 1.5];
        let baseline = [1.0; 6];
        let p = paired_ratio(&current, &baseline).unwrap();
        assert!(p.spread > 0.4 && p.disturbed(), "{p:?}");
    }

    #[test]
    fn paired_ratio_rejects_unpaired_and_bad_input() {
        assert_eq!(
            paired_ratio(&[1.0, 2.0], &[1.0]).unwrap_err(),
            EstimatorError::Unpaired { left: 2, right: 1 }
        );
        assert_eq!(paired_ratio(&[], &[]).unwrap_err(), EstimatorError::Empty);
        assert_eq!(
            paired_ratio(&[1.0, 1.0], &[1.0, 0.0]).unwrap_err(),
            EstimatorError::NotPositiveFinite { index: 1 }
        );
        assert!(paired_ratio(&[f64::NAN], &[1.0]).is_err());
    }

    #[test]
    fn bad_input_is_an_error_not_a_number() {
        assert_eq!(summarize(&[]).unwrap_err(), EstimatorError::Empty);
        for bad in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            assert_eq!(
                summarize(&[1.0, bad, 2.0]).unwrap_err(),
                EstimatorError::NotPositiveFinite { index: 1 }
            );
        }
        assert!(fast_tail(&[f64::NAN]).is_err());
    }
}
