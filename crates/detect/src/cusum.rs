//! CUSUM change-point detection: when did the attack *start*?
//!
//! The rate and spectral detectors answer "is something wrong"; incident
//! response also needs "since when". The one-sided CUSUM statistic
//! `S_t = max(0, S_{t-1} + (x_t − μ₀ − k))` accumulates evidence that the
//! mean of a series has shifted upward from its baseline `μ₀` and crosses
//! a threshold `h` shortly after a sustained change — here applied to the
//! bottleneck's binned byte counts, whose mean rises when attack traffic
//! (or its retransmission fallout) joins the mix.

use crate::streaming::StreamingCusum;

/// One-sided (upward) CUSUM detector with self-calibrated baseline.
///
/// This type holds the parameters; the recurrence itself runs in
/// [`StreamingCusum`], and [`CusumDetector::scan`] is a fold of it.
#[derive(Debug, Clone, PartialEq)]
pub struct CusumDetector {
    /// Bins used to estimate the baseline mean and deviation.
    pub(crate) calibration_bins: usize,
    /// Slack in baseline standard deviations (the classic `k`).
    pub(crate) slack_sigmas: f64,
    /// Alarm threshold in baseline standard deviations (the classic `h`).
    pub(crate) threshold_sigmas: f64,
}

/// Outcome of [`CusumDetector::scan`].
///
/// A series shorter than the calibration window has no baseline yet, so
/// the detector cannot render a verdict at all — that is a different
/// situation from a calibrated scan that stayed quiet, and the streaming
/// scorer ([`crate::streaming::StreamingCusum`]) needs to tell them
/// apart. `TooFewBins` makes the distinction structural instead of a
/// silent empty report.
#[derive(Debug, Clone, PartialEq)]
pub enum CusumScan {
    /// The series covered the calibration window and was scanned.
    Report(CusumReport),
    /// The series ended inside the calibration window: no verdict yet.
    TooFewBins {
        /// Bins required before the first sample can be scanned
        /// (`calibration_bins + 1`).
        needed: usize,
        /// Bins actually supplied.
        got: usize,
    },
}

impl CusumScan {
    /// The report, when the series calibrated; `None` while uncalibrated.
    pub fn report(&self) -> Option<&CusumReport> {
        match self {
            CusumScan::Report(rep) => Some(rep),
            CusumScan::TooFewBins { .. } => None,
        }
    }

    /// Consumes the scan into its report, when the series calibrated.
    pub fn into_report(self) -> Option<CusumReport> {
        match self {
            CusumScan::Report(rep) => Some(rep),
            CusumScan::TooFewBins { .. } => None,
        }
    }

    /// Whether the scan alarmed (`false` while uncalibrated).
    pub fn detected(&self) -> bool {
        self.report().is_some_and(|rep| rep.detected)
    }
}

/// Result of a CUSUM scan.
#[derive(Debug, Clone, PartialEq)]
pub struct CusumReport {
    /// Whether the statistic ever crossed the threshold.
    pub detected: bool,
    /// Bin index where the alarm fired.
    pub alarm_bin: Option<usize>,
    /// Estimated change-point: the last bin before the alarm where the
    /// statistic was zero (the standard CUSUM onset estimate).
    pub onset_bin: Option<usize>,
    /// Peak value of the statistic, in baseline standard deviations.
    pub peak_sigmas: f64,
}

impl CusumDetector {
    /// Creates a detector.
    ///
    /// # Panics
    ///
    /// Panics if `calibration_bins < 2`, or if the slack/threshold are
    /// non-positive.
    pub fn new(calibration_bins: usize, slack_sigmas: f64, threshold_sigmas: f64) -> Self {
        assert!(calibration_bins >= 2, "need at least 2 calibration bins");
        assert!(slack_sigmas > 0.0, "slack must be positive");
        assert!(threshold_sigmas > 0.0, "threshold must be positive");
        CusumDetector {
            calibration_bins,
            slack_sigmas,
            threshold_sigmas,
        }
    }

    /// A conventional setting: calibrate on the first 50 bins, `k = 0.5σ`,
    /// `h = 8σ`.
    pub fn conventional() -> Self {
        Self::new(50, 0.5, 8.0)
    }

    /// Bins required before the first sample can be scanned.
    pub fn needed_bins(&self) -> usize {
        self.calibration_bins + 1
    }

    /// Scans a binned byte series: a fold of [`StreamingCusum::push`]
    /// over every bin. The first `calibration_bins` samples define the
    /// baseline; scanning starts after them. A series that ends inside
    /// the calibration window yields [`CusumScan::TooFewBins`], not a
    /// quiet report.
    pub fn scan(&self, series: &[u64]) -> CusumScan {
        let mut cusum = StreamingCusum::from(self.clone());
        for &b in series {
            cusum.push(b);
        }
        cusum.scan()
    }
}

/// The bin-to-bin dispersion series `|x_{t+1} − x_t|`. Pulsing turns
/// smooth traffic into spikes, so CUSUM on this series catches an
/// attack whose mean volume barely moves.
pub fn dispersion(series: &[u64]) -> Vec<u64> {
    series.windows(2).map(|w| w[0].abs_diff(w[1])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series_with_step(n: usize, step_at: usize, base: u64, jump: u64) -> Vec<u64> {
        (0..n)
            .map(|i| {
                let noise = ((i * 2654435761) % 7) as u64;
                if i >= step_at {
                    base + jump + noise
                } else {
                    base + noise
                }
            })
            .collect()
    }

    #[test]
    fn detects_step_and_localizes_onset() {
        let s = series_with_step(300, 120, 1000, 200);
        let rep = CusumDetector::conventional()
            .scan(&s)
            .into_report()
            .expect("calibrated");
        assert!(rep.detected, "{rep:?}");
        let onset = rep.onset_bin.unwrap();
        assert!(
            (118..=125).contains(&onset),
            "onset {onset} should be near 120"
        );
        assert!(rep.alarm_bin.unwrap() >= onset);
    }

    #[test]
    fn stays_quiet_without_change() {
        let s = series_with_step(300, usize::MAX, 1000, 0);
        let rep = CusumDetector::conventional()
            .scan(&s)
            .into_report()
            .expect("calibrated");
        assert!(!rep.detected, "{rep:?}");
        assert_eq!(rep.onset_bin, None);
    }

    /// Pins the structured short-series outcome: an uncalibrated scan is
    /// `TooFewBins`, not a quiet report.
    #[test]
    fn short_series_reports_too_few_bins() {
        let scan = CusumDetector::conventional().scan(&[5; 10]);
        assert_eq!(
            scan,
            CusumScan::TooFewBins {
                needed: 51,
                got: 10
            }
        );
        assert!(!scan.detected());
        assert_eq!(scan.report(), None);
    }

    #[test]
    fn small_drift_below_slack_is_ignored() {
        // A +0.3 sigma drift stays under the k = 0.5 sigma slack.
        let s: Vec<u64> = (0..400)
            .map(|i| {
                let noise = ((i * 48271) % 100) as u64; // sd ~ 29
                if i >= 200 {
                    1008 + noise
                } else {
                    1000 + noise
                }
            })
            .collect();
        let rep = CusumDetector::conventional()
            .scan(&s)
            .into_report()
            .expect("calibrated");
        assert!(!rep.detected, "{rep:?}");
    }

    #[test]
    #[should_panic(expected = "calibration")]
    fn rejects_tiny_calibration() {
        CusumDetector::new(1, 0.5, 8.0);
    }

    proptest::proptest! {
        /// Peak statistic is non-negative and zero for constant series.
        #[test]
        fn prop_peak_nonnegative(base in 1u64..10_000, n in 60usize..300) {
            let s = vec![base; n];
            let rep = CusumDetector::conventional()
                .scan(&s)
                .into_report()
                .expect("n >= 60 always calibrates");
            proptest::prop_assert!(rep.peak_sigmas >= 0.0);
            proptest::prop_assert!(!rep.detected);
        }
    }
}
