//! Spectral (periodogram) pulse detection.
//!
//! The natural counter to a *periodic* attack is a frequency-domain look
//! at the traffic: a pulsing attack concentrates power at `1/T_AIMD` and
//! its harmonics, however small its duty cycle. This detector evaluates
//! the Goertzel single-bin DFT over a band of candidate periods and
//! alarms when one period's power stands far above the band average —
//! complementing the time-domain DTW matcher with a detector that does
//! not need to know the pulse shape.

use pdos_analysis::timeseries::standardize;

/// The power of `series` at a single oscillation `period` (in samples),
/// computed with the Goertzel algorithm on the standardized series and
/// normalized by the series length.
///
/// Returns 0 for degenerate inputs (`period < 2` or longer than the
/// series).
pub fn power_at_period(series: &[f64], period: f64) -> f64 {
    let n = series.len();
    if n < 4 || period < 2.0 || period > n as f64 {
        return 0.0;
    }
    let x = standardize(series);
    let omega = 2.0 * std::f64::consts::PI / period;
    let coeff = 2.0 * omega.cos();
    let (mut s_prev, mut s_prev2) = (0.0f64, 0.0f64);
    for &v in &x {
        let s = v + coeff * s_prev - s_prev2;
        s_prev2 = s_prev;
        s_prev = s;
    }
    let power = s_prev * s_prev + s_prev2 * s_prev2 - coeff * s_prev * s_prev2;
    (power / n as f64).max(0.0)
}

/// A periodogram sweep over integer candidate periods.
#[derive(Debug, Clone, PartialEq)]
pub struct SpectralDetector {
    min_period: usize,
    max_period: usize,
    /// Alarm when the peak power exceeds `threshold x` the band's median
    /// power. Under pure noise the single-bin powers are roughly
    /// exponentially distributed, so the max-to-median ratio over a band
    /// of `k` candidates concentrates near `log2(k)` (≈ 6–10 for typical
    /// bands); thresholds of 12–20 separate genuine periodicity from that
    /// noise floor.
    threshold: f64,
}

/// Result of a spectral sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SpectralReport {
    /// Whether a period stood out above threshold.
    pub detected: bool,
    /// The candidate period (samples) with the highest power.
    pub dominant_period: Option<usize>,
    /// Peak power.
    pub peak_power: f64,
    /// Median power across the candidate band.
    pub median_power: f64,
}

impl SpectralDetector {
    /// Creates a detector sweeping periods `min_period..=max_period`
    /// samples.
    ///
    /// # Panics
    ///
    /// Panics when the band is empty (`min_period < 2` or inverted) or
    /// `threshold <= 1`.
    pub fn new(min_period: usize, max_period: usize, threshold: f64) -> Self {
        assert!(
            min_period >= 2 && min_period <= max_period,
            "need 2 <= min_period <= max_period"
        );
        assert!(threshold > 1.0, "threshold must exceed 1 (a ratio)");
        SpectralDetector {
            min_period,
            max_period,
            threshold,
        }
    }

    /// Sweeps the candidate band over `series`.
    pub fn sweep(&self, series: &[f64]) -> SpectralReport {
        let hi = self.max_period.min(series.len().saturating_sub(1));
        let mut powers: Vec<(usize, f64)> = (self.min_period..=hi.max(self.min_period))
            .filter(|&p| p <= series.len())
            .map(|p| (p, power_at_period(series, p as f64)))
            .collect();
        if powers.is_empty() {
            return SpectralReport {
                detected: false,
                dominant_period: None,
                peak_power: 0.0,
                median_power: 0.0,
            };
        }
        let peak = powers
            .iter()
            .cloned()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite powers"))
            .expect("non-empty");
        // A narrow pulse train spreads nearly equal power across its
        // harmonics, so the raw argmax may land on `T/2` or `T/3`. Prefer
        // the *fundamental*: the longest candidate period whose power is
        // within 70% of the peak.
        let fundamental = powers
            .iter()
            .filter(|(_, pw)| *pw >= 0.7 * peak.1)
            .map(|&(p, _)| p)
            .max()
            .unwrap_or(peak.0);
        powers.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite powers"));
        let median = powers[powers.len() / 2].1;
        let detected = median > 0.0 && peak.1 > self.threshold * median;
        SpectralReport {
            detected,
            dominant_period: detected.then_some(fundamental),
            peak_power: peak.1,
            median_power: median,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pulses(period: usize, width: usize, cycles: usize, noise: f64) -> Vec<f64> {
        (0..period * cycles)
            .map(|i| {
                let base = if i % period < width { 8.0 } else { 1.0 };
                base + noise * (((i * 48271) % 101) as f64 / 101.0 - 0.5)
            })
            .collect()
    }

    #[test]
    fn power_peaks_at_true_period() {
        let s = pulses(25, 2, 20, 0.0);
        let at_true = power_at_period(&s, 25.0);
        let off = power_at_period(&s, 17.0);
        assert!(
            at_true > 5.0 * off,
            "true-period power {at_true} vs off-period {off}"
        );
    }

    #[test]
    fn degenerate_inputs_are_zero() {
        assert_eq!(power_at_period(&[], 10.0), 0.0);
        assert_eq!(power_at_period(&[1.0, 2.0], 10.0), 0.0);
        let s = pulses(25, 2, 4, 0.0);
        assert_eq!(power_at_period(&s, 1.0), 0.0);
        assert_eq!(power_at_period(&s, 1e9), 0.0);
    }

    #[test]
    fn detector_finds_noisy_pulses_and_their_period() {
        let s = pulses(40, 2, 15, 1.0);
        let det = SpectralDetector::new(10, 80, 15.0);
        let rep = det.sweep(&s);
        assert!(rep.detected, "{rep:?}");
        let p = rep.dominant_period.expect("dominant period");
        assert!(
            (38..=42).contains(&p),
            "dominant period {p} should be near 40"
        );
    }

    #[test]
    fn detector_stays_quiet_on_aperiodic_traffic() {
        // Deterministic pseudo-noise with no injected period (splitmix64
        // finalizer — multiplicative-modulus sequences are secretly
        // periodic and light up the periodogram).
        let mix = |i: u64| {
            let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s: Vec<f64> = (0..600u64)
            .map(|i| 5.0 + (mix(i) % 1000) as f64 / 1000.0 - 0.5)
            .collect();
        let det = SpectralDetector::new(10, 80, 15.0);
        let rep = det.sweep(&s);
        assert!(!rep.detected, "{rep:?}");
    }

    #[test]
    fn short_series_yields_empty_report() {
        let det = SpectralDetector::new(10, 80, 4.0);
        let rep = det.sweep(&[1.0; 5]);
        assert!(!rep.detected);
        assert_eq!(rep.dominant_period, None);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn threshold_must_be_ratio_above_one() {
        SpectralDetector::new(10, 80, 0.5);
    }

    #[test]
    #[should_panic(expected = "min_period")]
    fn band_must_be_ordered() {
        SpectralDetector::new(80, 10, 4.0);
    }

    proptest::proptest! {
        /// Power is non-negative for arbitrary series and periods.
        #[test]
        fn prop_power_non_negative(s in proptest::collection::vec(-10.0f64..10.0, 4..200),
                                   period in 2.0f64..100.0) {
            proptest::prop_assert!(power_at_period(&s, period) >= 0.0);
        }
    }
}
