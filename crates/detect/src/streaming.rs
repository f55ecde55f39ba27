//! Online (streaming) versions of the reference detectors.
//!
//! A defender service sees the trace one closed bin at a time. Each
//! detector here is a small state machine whose `push` consumes one bin
//! of bytes and returns [`Some(Alarm)`](Alarm) exactly once, on the bin
//! where the detector first fires. All three derive `Clone` and
//! `PartialEq`: a clone taken mid-stream and fed the rest of the series
//! equals the detector that was never cloned, so detector state forks
//! with the simulation that feeds it.
//!
//! ## One implementation per statistic
//!
//! [`StreamingCusum::push`] is the only implementation of the CUSUM
//! calibration and recurrence: [`CusumDetector::scan`] is a fold of it.
//! [`StreamingRate`] is an alarm edge around [`RateDetector::observe`],
//! and [`RateDetector::run`] is a fold of `observe`. So feeding a series
//! bin by bin and then calling [`StreamingCusum::scan`] (or
//! [`StreamingRate::report`]) reproduces the batch verdict by
//! construction. `StreamingSpectral` evaluates a *sliding window* rather
//! than the whole series, so it intentionally differs from a
//! whole-series [`SpectralDetector::sweep`]; its contract is that each
//! windowed evaluation equals a batch sweep of exactly that window (see
//! `docs/DETECTION.md`).

use std::collections::VecDeque;

use pdos_analysis::timeseries::{mean, std_dev};

use crate::cusum::{CusumDetector, CusumReport, CusumScan};
use crate::rate::{DetectionReport, RateDetector};
use crate::spectral::{SpectralDetector, SpectralReport};

/// A detector firing: emitted by `push` exactly once per stream, on the
/// first bin where the detector's alarm condition holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alarm {
    /// Which detector fired (`"cusum"`, `"rate"`, or `"spectral"`).
    pub detector: &'static str,
    /// Zero-based bin index where the alarm fired.
    pub bin: usize,
    /// The detector's statistic at the alarm: CUSUM sigmas, EWMA
    /// utilization, or spectral peak-to-median ratio.
    pub statistic: f64,
}

// ---------------------------------------------------------------------------
// CUSUM
// ---------------------------------------------------------------------------

/// Online one-sided CUSUM over a [`CusumDetector`]'s parameters.
///
/// The first `calibration_bins` pushes only accumulate the baseline.
/// The next push fixes `mu` and `sigma` and starts the recurrence
/// `S_t = max(0, S_{t-1} + (x_t − mu − k))`. Once `S_t` crosses `h` the
/// verdict freezes: later bins cannot change it.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingCusum {
    det: CusumDetector,
    bins_seen: usize,
    phase: CusumPhase,
}

/// Where a [`StreamingCusum`] is in its stream.
#[derive(Debug, Clone, PartialEq)]
enum CusumPhase {
    /// Collecting the baseline bins.
    Calibrating(Vec<u64>),
    /// Baseline fixed, recurrence running.
    Armed(ArmedCusum),
    /// Frozen at the first threshold crossing.
    Alarmed(CusumReport),
}

/// The baseline statistics and the running recurrence.
#[derive(Debug, Clone, PartialEq)]
struct ArmedCusum {
    mu: f64,
    sigma: f64,
    k: f64,
    h: f64,
    s: f64,
    peak: f64,
    last_zero: usize,
}

impl From<CusumDetector> for StreamingCusum {
    fn from(det: CusumDetector) -> Self {
        StreamingCusum {
            det,
            bins_seen: 0,
            phase: CusumPhase::Calibrating(Vec::new()),
        }
    }
}

impl StreamingCusum {
    /// Creates a streaming detector with the parameters (and the panics)
    /// of [`CusumDetector::new`].
    pub fn new(calibration_bins: usize, slack_sigmas: f64, threshold_sigmas: f64) -> Self {
        CusumDetector::new(calibration_bins, slack_sigmas, threshold_sigmas).into()
    }

    /// Consumes one closed bin of observed bytes.
    pub fn push(&mut self, bytes: u64) -> Option<Alarm> {
        let i = self.bins_seen;
        self.bins_seen += 1;
        if let CusumPhase::Calibrating(calib) = &mut self.phase {
            if i < self.det.calibration_bins {
                calib.push(bytes);
                return None;
            }
            let calib: Vec<f64> = calib.iter().map(|&b| b as f64).collect();
            let mu = mean(&calib);
            let sigma = std_dev(&calib).max(mu.abs() * 1e-3).max(1.0);
            self.phase = CusumPhase::Armed(ArmedCusum {
                mu,
                sigma,
                k: self.det.slack_sigmas * sigma,
                h: self.det.threshold_sigmas * sigma,
                s: 0.0,
                peak: 0.0,
                last_zero: self.det.calibration_bins,
            });
        }
        let CusumPhase::Armed(armed) = &mut self.phase else {
            return None; // alarmed: the verdict is frozen
        };
        armed.s = (armed.s + (bytes as f64 - armed.mu - armed.k)).max(0.0);
        if armed.s == 0.0 {
            armed.last_zero = i;
        }
        if armed.s > armed.peak {
            armed.peak = armed.s;
        }
        if armed.s > armed.h {
            let report = CusumReport {
                detected: true,
                alarm_bin: Some(i),
                onset_bin: Some(armed.last_zero + 1),
                peak_sigmas: armed.peak / armed.sigma,
            };
            let alarm = Alarm {
                detector: "cusum",
                bin: i,
                statistic: report.peak_sigmas,
            };
            self.phase = CusumPhase::Alarmed(report);
            return Some(alarm);
        }
        None
    }

    /// The verdict on everything pushed so far. [`CusumDetector::scan`]
    /// of the same bins returns exactly this.
    pub fn scan(&self) -> CusumScan {
        match &self.phase {
            CusumPhase::Calibrating(_) => CusumScan::TooFewBins {
                needed: self.det.needed_bins(),
                got: self.bins_seen,
            },
            CusumPhase::Armed(armed) => CusumScan::Report(CusumReport {
                detected: false,
                alarm_bin: None,
                onset_bin: None,
                peak_sigmas: armed.peak / armed.sigma,
            }),
            CusumPhase::Alarmed(report) => CusumScan::Report(report.clone()),
        }
    }
}

// ---------------------------------------------------------------------------
// Rate
// ---------------------------------------------------------------------------

/// Online EWMA-utilization detector: the alarm edge of
/// [`RateDetector::observe`], of which [`RateDetector::run`] is a fold.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingRate {
    det: RateDetector,
}

impl StreamingRate {
    /// Wraps a configured [`RateDetector`].
    pub fn new(det: RateDetector) -> Self {
        StreamingRate { det }
    }

    /// The conventional flooding-detector setting, mirroring
    /// [`RateDetector::conventional`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bps` or `bin_secs` is out of domain.
    pub fn conventional(capacity_bps: f64, bin_secs: f64) -> Self {
        Self::new(RateDetector::conventional(capacity_bps, bin_secs))
    }

    /// Consumes one closed bin of observed bytes.
    pub fn push(&mut self, bytes: u64) -> Option<Alarm> {
        let had_alarm = self.det.report().first_alarm_bin.is_some();
        let alarm_now = self.det.observe(bytes);
        if alarm_now && !had_alarm {
            let rep = self.det.report();
            return Some(Alarm {
                detector: "rate",
                bin: rep.first_alarm_bin.expect("alarm just fired"),
                statistic: self.det.utilization(),
            });
        }
        None
    }

    /// The report for everything pushed so far: equals
    /// `RateDetector::run` on the same bins.
    pub fn report(&self) -> DetectionReport {
        self.det.report()
    }
}

// ---------------------------------------------------------------------------
// Spectral
// ---------------------------------------------------------------------------

/// Windowed online periodogram: keeps the last `window` bins and runs a
/// full [`SpectralDetector::sweep`] over them every `stride` pushes
/// once the window is full.
///
/// Unlike the CUSUM/rate scorers this is *not* bit-equal to a batch
/// sweep of the whole series — the sliding window is the point (an
/// online defender cannot hold the whole run, and the attack's period
/// is stationary within a window). The documented contract is that
/// each evaluation equals a batch sweep of exactly the buffered window.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingSpectral {
    det: SpectralDetector,
    window: usize,
    stride: usize,
    buf: VecDeque<u64>,
    bins_seen: usize,
    since_eval: usize,
    alarmed: bool,
    last: Option<SpectralReport>,
}

impl StreamingSpectral {
    /// Creates a windowed scorer around a configured
    /// [`SpectralDetector`].
    ///
    /// # Panics
    ///
    /// Panics if `window < 4` (the Goertzel floor) or `stride == 0`.
    pub fn new(det: SpectralDetector, window: usize, stride: usize) -> Self {
        assert!(window >= 4, "window must cover at least 4 bins");
        assert!(stride >= 1, "stride must be at least 1");
        StreamingSpectral {
            det,
            window,
            stride,
            buf: VecDeque::with_capacity(window),
            bins_seen: 0,
            since_eval: 0,
            alarmed: false,
            last: None,
        }
    }

    /// A conventional setting for 100 ms bins: a 128-bin (12.8 s)
    /// window swept every 16 bins over periods 10–80 samples with the
    /// noise-floor threshold from [`SpectralDetector`].
    pub fn conventional() -> Self {
        Self::new(SpectralDetector::new(10, 80, 15.0), 128, 16)
    }

    /// Consumes one closed bin of observed bytes.
    pub fn push(&mut self, bytes: u64) -> Option<Alarm> {
        let i = self.bins_seen;
        self.bins_seen += 1;
        self.buf.push_back(bytes);
        if self.buf.len() > self.window {
            self.buf.pop_front();
        }
        self.since_eval += 1;
        if self.buf.len() < self.window || self.since_eval < self.stride {
            return None;
        }
        self.since_eval = 0;
        let series: Vec<f64> = self.buf.iter().map(|&b| b as f64).collect();
        let rep = self.det.sweep(&series);
        let fire = rep.detected && !self.alarmed;
        let ratio = if rep.median_power > 0.0 {
            rep.peak_power / rep.median_power
        } else {
            0.0
        };
        self.last = Some(rep);
        if fire {
            self.alarmed = true;
            return Some(Alarm {
                detector: "spectral",
                bin: i,
                statistic: ratio,
            });
        }
        None
    }

    /// Bins consumed so far.
    pub fn bins_seen(&self) -> usize {
        self.bins_seen
    }

    /// The most recent windowed sweep, if the window has filled.
    pub fn last_report(&self) -> Option<&SpectralReport> {
        self.last.as_ref()
    }
}

// ---------------------------------------------------------------------------
// Alarm stream serialization
// ---------------------------------------------------------------------------

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes per-run alarm lists into the deterministic `pdos-detect/1`
/// JSON schema emitted by `pdos serve`:
///
/// ```json
/// {"schema":"pdos-detect/1","bin_secs":0.1,"runs":[
///   {"id":"golden/ns2-benign","alarms":[
///     {"detector":"cusum","bin":63,"statistic":9.25}]}]}
/// ```
///
/// Runs appear in the order given; floats use Rust's shortest-roundtrip
/// formatting, so the byte stream is a pure function of the inputs.
pub fn alarm_stream_json(runs: &[(String, Vec<Alarm>)], bin_secs: f64) -> String {
    let mut out = String::new();
    out.push_str("{\"schema\":\"pdos-detect/1\",\"bin_secs\":");
    out.push_str(&format!("{bin_secs}"));
    out.push_str(",\"runs\":[");
    for (ri, (id, alarms)) in runs.iter().enumerate() {
        if ri > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"id\":\"{}\",\"alarms\":[", escape_json(id)));
        for (ai, a) in alarms.iter().enumerate() {
            if ai > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"detector\":\"{}\",\"bin\":{},\"statistic\":{}}}",
                a.detector, a.bin, a.statistic
            ));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_series(n: usize, step_at: usize, base: u64, jump: u64) -> Vec<u64> {
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

    /// Bytes per 100 ms bin at a given fraction of a 15 Mbps link.
    fn bin_bytes(frac: f64) -> u64 {
        (15e6 * 0.1 * frac / 8.0) as u64
    }

    /// The straight-line CUSUM recurrence over a whole series, written
    /// independently of [`StreamingCusum`] so that the fold
    /// [`CusumDetector::scan`] is checked against something other than
    /// itself.
    fn reference_scan(
        calibration_bins: usize,
        slack_sigmas: f64,
        threshold_sigmas: f64,
        series: &[u64],
    ) -> CusumScan {
        if series.len() <= calibration_bins {
            return CusumScan::TooFewBins {
                needed: calibration_bins + 1,
                got: series.len(),
            };
        }
        let calib: Vec<f64> = series[..calibration_bins]
            .iter()
            .map(|&b| b as f64)
            .collect();
        let mu = mean(&calib);
        let sigma = std_dev(&calib).max(mu.abs() * 1e-3).max(1.0);
        let k = slack_sigmas * sigma;
        let h = threshold_sigmas * sigma;

        let mut s = 0.0f64;
        let mut peak = 0.0f64;
        let mut last_zero = calibration_bins;
        for (i, &b) in series.iter().enumerate().skip(calibration_bins) {
            s = (s + (b as f64 - mu - k)).max(0.0);
            if s == 0.0 {
                last_zero = i;
            }
            if s > peak {
                peak = s;
            }
            if s > h {
                return CusumScan::Report(CusumReport {
                    detected: true,
                    alarm_bin: Some(i),
                    onset_bin: Some(last_zero + 1),
                    peak_sigmas: peak / sigma,
                });
            }
        }
        CusumScan::Report(CusumReport {
            detected: false,
            alarm_bin: None,
            onset_bin: None,
            peak_sigmas: peak / sigma,
        })
    }

    /// Asserts that `CusumDetector::scan` and a bin-by-bin
    /// `StreamingCusum` both equal [`reference_scan`], `peak_sigmas`
    /// included bit for bit.
    fn assert_cusum_matches_reference(det: &CusumDetector, series: &[u64]) {
        let reference = reference_scan(
            det.calibration_bins,
            det.slack_sigmas,
            det.threshold_sigmas,
            series,
        );
        let mut streaming = StreamingCusum::from(det.clone());
        for &b in series {
            streaming.push(b);
        }
        for got in [det.scan(series), streaming.scan()] {
            assert_eq!(got, reference, "series len {}", series.len());
            assert_eq!(
                got.report().map(|r| r.peak_sigmas.to_bits()),
                reference.report().map(|r| r.peak_sigmas.to_bits()),
                "series len {}",
                series.len()
            );
        }
    }

    #[test]
    fn cusum_streaming_matches_batch_bit_for_bit() {
        for series in [
            step_series(300, 120, 1000, 200),
            step_series(300, usize::MAX, 1000, 0),
            step_series(40, 10, 1000, 500), // too few bins
            step_series(51, 0, 1000, 0),    // exactly one scanned bin
        ] {
            assert_cusum_matches_reference(&CusumDetector::conventional(), &series);
        }
    }

    #[test]
    fn cusum_emits_alarm_once_at_the_batch_alarm_bin() {
        let series = step_series(300, 120, 1000, 200);
        let batch = CusumDetector::conventional()
            .scan(&series)
            .into_report()
            .expect("calibrated");
        let mut s = StreamingCusum::from(CusumDetector::conventional());
        let alarms: Vec<Alarm> = series.iter().filter_map(|&b| s.push(b)).collect();
        assert_eq!(alarms.len(), 1);
        assert_eq!(Some(alarms[0].bin), batch.alarm_bin);
        assert_eq!(alarms[0].statistic.to_bits(), batch.peak_sigmas.to_bits());
    }

    #[test]
    fn cusum_scan_reports_too_few_bins_through_calibration() {
        let mut s = StreamingCusum::from(CusumDetector::conventional());
        for i in 0..50 {
            s.push(1000);
            assert_eq!(
                s.scan(),
                CusumScan::TooFewBins {
                    needed: 51,
                    got: i + 1
                }
            );
        }
        s.push(1000);
        assert!(s.scan().report().is_some());
    }

    #[test]
    fn rate_streaming_matches_batch_bit_for_bit() {
        let series: Vec<u64> = (0..200)
            .map(|i| {
                if i % 5 != 0 {
                    bin_bytes(2.0)
                } else {
                    bin_bytes(0.5)
                }
            })
            .collect();
        let batch = RateDetector::conventional(15e6, 0.1).run(&series);
        let mut s = StreamingRate::conventional(15e6, 0.1);
        let alarms: Vec<Alarm> = series.iter().filter_map(|&b| s.push(b)).collect();
        assert_eq!(s.report(), batch);
        assert!(batch.detected);
        assert_eq!(alarms.len(), 1, "alarm edge fires exactly once");
        assert_eq!(Some(alarms[0].bin), batch.first_alarm_bin);
    }

    #[test]
    fn spectral_windowed_evaluation_matches_batch_sweep_of_the_window() {
        // 25-bin pulses fill a 100-bin window: the streaming alarm must
        // agree with a batch sweep over exactly the buffered window.
        let series: Vec<u64> = (0..300)
            .map(|i| if i % 25 < 2 { 80_000 } else { 10_000 })
            .collect();
        let det = SpectralDetector::new(10, 80, 15.0);
        let mut s = StreamingSpectral::new(det.clone(), 100, 10);
        let mut first_alarm = None;
        for (i, &b) in series.iter().enumerate() {
            if let Some(a) = s.push(b) {
                first_alarm = Some(a);
                // Cross-check against a batch sweep of the window that
                // ends at this bin.
                let window: Vec<f64> = series[i + 1 - 100..=i].iter().map(|&v| v as f64).collect();
                let batch = det.sweep(&window);
                assert!(batch.detected, "windowed batch sweep agrees");
                break;
            }
        }
        let alarm = first_alarm.expect("periodic pulses must alarm");
        assert_eq!(alarm.detector, "spectral");
        assert!(alarm.statistic > 15.0);
        assert!(s.last_report().is_some());
    }

    #[test]
    fn spectral_stays_quiet_on_flat_traffic() {
        let mut s = StreamingSpectral::conventional();
        for _ in 0..400 {
            assert_eq!(s.push(10_000), None);
        }
        assert_eq!(s.bins_seen(), 400);
    }

    /// A clone taken mid-stream and fed the rest of the series equals the
    /// detector that was never cloned.
    #[test]
    fn merge_adopts_the_further_advanced_lineage() {
        let series = step_series(300, 120, 1000, 200);
        let mut straight = StreamingCusum::from(CusumDetector::conventional());
        for &b in &series {
            straight.push(b);
        }
        let mut a = StreamingCusum::from(CusumDetector::conventional());
        for &b in &series[..80] {
            a.push(b);
        }
        let mut b = a.clone();
        for &v in &series[80..] {
            b.push(v);
        }
        assert_eq!(b, straight);
    }

    #[test]
    fn alarm_stream_json_is_deterministic_and_escaped() {
        let runs = vec![
            (
                "golden/ns2-benign".to_string(),
                vec![Alarm {
                    detector: "cusum",
                    bin: 63,
                    statistic: 9.25,
                }],
            ),
            ("odd\"id\\".to_string(), vec![]),
        ];
        let json = alarm_stream_json(&runs, 0.1);
        assert_eq!(
            json,
            "{\"schema\":\"pdos-detect/1\",\"bin_secs\":0.1,\"runs\":[\
             {\"id\":\"golden/ns2-benign\",\"alarms\":[\
             {\"detector\":\"cusum\",\"bin\":63,\"statistic\":9.25}]},\
             {\"id\":\"odd\\\"id\\\\\",\"alarms\":[]}]}"
        );
    }

    proptest::proptest! {
        /// A clone taken at an arbitrary cut survives garbage pushed
        /// into the original: resuming from the clone equals the
        /// straight-line push sequence.
        #[test]
        fn prop_snapshot_restore_equals_straight_line(
            series in proptest::collection::vec(0u64..200_000, 10..200),
            cut in 0usize..200,
            garbage in proptest::collection::vec(0u64..200_000, 0..30),
        ) {
            let cut = cut % series.len();
            let mut straight = StreamingCusum::new(8, 0.5, 6.0);
            for &b in &series {
                straight.push(b);
            }
            let mut machine = StreamingCusum::new(8, 0.5, 6.0);
            for &b in &series[..cut] {
                machine.push(b);
            }
            let saved = machine.clone();
            for &g in &garbage {
                machine.push(g);
            }
            machine = saved;
            for &b in &series[cut..] {
                machine.push(b);
            }
            proptest::prop_assert_eq!(&machine, &straight);
            proptest::prop_assert_eq!(machine.scan(), straight.scan());
        }

        /// Two clones fed the same suffix stay bit-identical to each
        /// other and to the uncloned straight-line detector (mirrors
        /// the simulator's double-fork identity).
        #[test]
        fn prop_double_fork_is_identical(
            series in proptest::collection::vec(0u64..200_000, 10..200),
            cut in 0usize..200,
        ) {
            let cut = cut % series.len();
            let mut base = StreamingRate::conventional(15e6, 0.1);
            for &b in &series[..cut] {
                base.push(b);
            }
            let mut f1 = base.clone();
            let mut f2 = base.clone();
            for &b in &series[cut..] {
                base.push(b);
                f1.push(b);
                f2.push(b);
            }
            proptest::prop_assert_eq!(&f1, &f2);
            proptest::prop_assert_eq!(&f1, &base);
            proptest::prop_assert_eq!(f1.report(), base.report());
        }

        /// A spectral scorer cloned at any cut and fed the rest of the
        /// series equals the one that saw the series straight through.
        #[test]
        fn prop_merge_interleavings_equal_straight_line(
            series in proptest::collection::vec(0u64..200_000, 20..200),
            cut in 1usize..200,
        ) {
            let cut = cut % series.len();
            let mut straight = StreamingSpectral::new(
                SpectralDetector::new(3, 12, 2.0), 16, 4);
            for &b in &series {
                straight.push(b);
            }
            let mut a = StreamingSpectral::new(
                SpectralDetector::new(3, 12, 2.0), 16, 4);
            for &b in &series[..cut] {
                a.push(b);
            }
            let mut b = a.clone();
            for &v in &series[cut..] {
                b.push(v);
            }
            proptest::prop_assert_eq!(&b, &straight);
        }

        /// Both the batch fold and a bin-by-bin streaming pass equal the
        /// straight-line reference on arbitrary series, bit for bit.
        #[test]
        fn prop_streaming_cusum_equals_batch(
            series in proptest::collection::vec(0u64..1_000_000, 0..300),
        ) {
            assert_cusum_matches_reference(&CusumDetector::new(8, 0.5, 6.0), &series);
        }

        /// Streaming rate equals batch run on arbitrary series.
        #[test]
        fn prop_streaming_rate_equals_batch(
            series in proptest::collection::vec(0u64..2_000_000, 0..300),
        ) {
            let batch = RateDetector::conventional(15e6, 0.1).run(&series);
            let mut s = StreamingRate::conventional(15e6, 0.1);
            for &b in &series {
                s.push(b);
            }
            proptest::prop_assert_eq!(s.report(), batch);
        }
    }
}
