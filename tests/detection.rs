//! Integration tests for the detection claims of §1: flooding is caught
//! by volume detectors, low-duty-cycle pulsing slips under them, and
//! waveform (DTW) matching sees what volume misses.

use pdos::prelude::*;

/// Runs a scenario and returns the bottleneck's binned incoming bytes
/// during the attack window.
fn traffic_under(
    attack: Option<PulseTrain>,
    flood: Option<BitsPerSec>,
    window_secs: u64,
) -> Vec<u64> {
    let spec = ScenarioSpec::ns2_dumbbell(8);
    let bin = SimDuration::from_millis(100);
    let warmup = SimTime::from_secs(5);
    let mut bench = spec.build().expect("builds");
    let trace = bench.trace_bottleneck(TraceFilter::All, bin);
    if let Some(train) = attack {
        bench.attach_pulse_attack(train, warmup, None);
    }
    if let Some(rate) = flood {
        bench.attach_flood_attack(rate, warmup, None);
    }
    bench.run_until(warmup + SimDuration::from_secs(window_secs));
    let first = 50; // skip the 5 s warm-up (50 bins of 100 ms)
    bench.sim.trace(trace).bytes_per_bin()[first..].to_vec()
}

fn rate_detector() -> RateDetector {
    RateDetector::conventional(15e6, 0.1)
}

#[test]
fn flooding_attack_trips_rate_detector() {
    let bytes = traffic_under(None, Some(BitsPerSec::from_mbps(30.0)), 20);
    let report = rate_detector().run(&bytes);
    assert!(report.detected, "a 2x flood must alarm: {report:?}");
}

#[test]
fn low_gamma_pulsing_evades_rate_detector() {
    // γ ≈ 0.17: 50 ms pulses at 100 Mbps every 2 s. Average rate is only
    // 2.5 Mbps on a 15 Mbps link.
    let train = PulseTrain::new(
        SimDuration::from_millis(50),
        BitsPerSec::from_mbps(100.0),
        SimDuration::from_millis(1950),
    )
    .expect("valid train");
    let bytes = traffic_under(Some(train), None, 30);
    let report = rate_detector().run(&bytes);
    assert!(
        !report.detected,
        "a 2.5 Mbps-average pulsing attack must evade the volume detector: {report:?}"
    );
}

#[test]
fn dtw_detector_sees_the_pulse_shape() {
    let train = PulseTrain::new(
        SimDuration::from_millis(100),
        BitsPerSec::from_mbps(60.0),
        SimDuration::from_millis(1900),
    )
    .expect("valid train");
    let bytes = traffic_under(Some(train), None, 40);
    let series: Vec<f64> = bytes.iter().map(|&b| b as f64).collect();
    // Period 2 s = 20 bins of 100 ms; pulse = 1 bin.
    let det = DtwPulseDetector::new(20, 1, 0.9, Some(10));
    let report = det.sweep(&series);
    assert!(
        report.detected,
        "DTW should match the pulsing waveform: {report:?}"
    );
    // And the same detector stays quiet on unattacked traffic.
    let quiet_bytes = traffic_under(None, None, 40);
    let quiet: Vec<f64> = quiet_bytes.iter().map(|&b| b as f64).collect();
    let quiet_report = det.sweep(&quiet);
    assert!(
        quiet_report.best_distance > report.best_distance,
        "attacked traffic must look more pulse-like than baseline: {:.3} vs {:.3}",
        report.best_distance,
        quiet_report.best_distance
    );
}

#[test]
fn higher_gamma_is_more_exposed() {
    // The measured exposure (final EWMA utilization margin) grows with γ,
    // the monotonicity the (1-γ)^κ model assumes.
    let utilization_at = |gamma: f64| {
        let train = PulseTrain::from_gamma(
            SimDuration::from_millis(75),
            BitsPerSec::from_mbps(30.0),
            BitsPerSec::from_mbps(15.0),
            gamma,
        )
        .expect("feasible");
        let bytes = traffic_under(Some(train), None, 25);
        rate_detector().run(&bytes).final_utilization
    };
    let low = utilization_at(0.15);
    let high = utilization_at(0.8);
    assert!(
        high > low,
        "more attack volume must raise observed utilization: {low:.3} vs {high:.3}"
    );
}

#[test]
fn cusum_localizes_the_attack_onset() {
    // Attack begins at t = 5 s; 100 ms bins make that bin 50. The trace
    // includes the warm-up so the detector calibrates on clean traffic.
    let spec = ScenarioSpec::ns2_dumbbell(8);
    let bin = SimDuration::from_millis(100);
    let mut bench = spec.build().expect("builds");
    let trace = bench.trace_bottleneck(TraceFilter::All, bin);
    let train = PulseTrain::new(
        SimDuration::from_millis(75),
        BitsPerSec::from_mbps(30.0),
        SimDuration::from_millis(300),
    )
    .expect("valid train");
    bench.attach_pulse_attack(train, SimTime::from_secs(5), None);
    bench.run_until(SimTime::from_secs(30));
    let bytes = bench.sim.trace(trace).bytes_per_bin().to_vec();

    // On the raw volume series CUSUM is (nearly) blind: the attack adds
    // γ·R_bottle of traffic while suppressing a similar amount of TCP, so
    // the *mean* hardly moves — the stealth the paper's risk model prices.
    let on_mean = CusumDetector::new(40, 0.5, 8.0).scan(&bytes);
    assert!(
        !on_mean.detected(),
        "mean-level CUSUM should miss the pulsing attack: {on_mean:?}"
    );

    // The *dispersion* changes dramatically: pulsing turns smooth traffic
    // into spikes. CUSUM over successive absolute differences catches the
    // onset within a couple of seconds.
    let report = CusumDetector::new(40, 0.5, 8.0)
        .scan(&dispersion(&bytes))
        .into_report()
        .expect("calibrated");
    assert!(report.detected, "{report:?}");
    let onset = report.onset_bin.expect("onset estimate");
    assert!(
        (45..=75).contains(&onset),
        "onset bin {onset} should be close to the true start (bin 50)"
    );
}
