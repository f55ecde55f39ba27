//! Detector equivalence battery on real simulator traffic.
//!
//! Each statistic has one implementation: [`CusumDetector::scan`] is a
//! fold of [`StreamingCusum::push`], and [`RateDetector::run`] is a fold
//! of the `observe` step that [`StreamingRate`] wraps. What the battery
//! checks is the streaming surface a service deploys: the alarm `push`
//! emits must fire on the bin it names and agree with the verdict of
//! `scan()` over the same series — alarm or quiet, same alarm bin, same
//! onset, bit-identical peak statistic. It runs on the four canonical
//! golden scenarios plus a seeded sweep of randomized scenarios (the
//! oracle's draw ranges), every comparison down to `f64::to_bits`. A
//! streaming state that is out of step with the series it is fed (the
//! fuzz campaign's cusum-drift drill) fails it.
//!
//! Like the oracle, a battery run is a pure function of its
//! [`EquivalenceConfig`] — failures reproduce exactly.

use crate::golden::canonical_specs;
use pdos_detect::cusum::{dispersion, CusumDetector, CusumScan};
use pdos_detect::rate::RateDetector;
use pdos_detect::streaming::{StreamingCusum, StreamingRate};
use pdos_scenarios::runner::{AttackPoint, ExperimentSpec, RunOutcome, SeedPolicy, SweepRunner};
use pdos_scenarios::spec::ScenarioSpec;
use pdos_sim::time::SimDuration;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Configuration of one equivalence battery run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EquivalenceConfig {
    /// Randomized scenarios to run on top of the four canonical ones.
    pub random_scenarios: usize,
    /// Seed for scenario generation *and* the runner's per-run seeds.
    pub master_seed: u64,
    /// Worker threads (0 = one per CPU).
    pub jobs: usize,
}

impl Default for EquivalenceConfig {
    /// CI defaults: 50 randomized scenarios on seed 7.
    fn default() -> EquivalenceConfig {
        EquivalenceConfig {
            random_scenarios: 50,
            master_seed: 7,
            jobs: 0,
        }
    }
}

/// The pulse widths the battery samples (the paper's §4.1 values).
const TEXTENTS: [f64; 3] = [0.050, 0.075, 0.100];

/// The trace bin width every battery run records at.
const BIN: SimDuration = SimDuration::from_millis(100);

/// The scenario list for `cfg`: the four canonical golden specs followed
/// by `cfg.random_scenarios` randomized attacked specs drawn exactly like
/// the oracle's (same flow/width/rate/γ ranges) — deterministic in
/// `cfg.master_seed`. Every spec records a 100 ms trace; the canonical
/// four additionally run tapped, so the engine-side detector feed is
/// exercised alongside the trace the scorers consume.
pub fn equivalence_specs(cfg: &EquivalenceConfig) -> Vec<ExperimentSpec> {
    let mut specs: Vec<ExperimentSpec> = canonical_specs()
        .into_iter()
        .map(ExperimentSpec::tapped)
        .collect();
    let mut rng = SmallRng::seed_from_u64(cfg.master_seed);
    specs.extend((0..cfg.random_scenarios).map(|i| {
        let n_flows = rng.random_range(3usize..=8);
        let t_extent = TEXTENTS[rng.random_range(0usize..TEXTENTS.len())];
        let r_attack = rng.random_range(25.0f64..=40.0) * 1e6;
        let gamma = rng.random_range(0.10f64..=0.90);
        ExperimentSpec::attacked(
            format!(
                "equiv/{i:03}/f{n_flows}/te{}ms/g{gamma:.3}",
                (t_extent * 1000.0).round() as u64
            ),
            ScenarioSpec::ns2_dumbbell(n_flows),
            AttackPoint {
                t_extent,
                r_attack,
                gamma,
            },
        )
        .warmup(SimDuration::from_secs(4))
        .window(SimDuration::from_secs(8))
        .traced(BIN)
    }));
    specs
}

/// What one battery run found.
#[derive(Debug, Clone, Default)]
pub struct EquivalenceOutcome {
    /// Scenarios executed.
    pub n_runs: usize,
    /// Traces scored both ways (batch and streaming).
    pub n_compared: usize,
    /// Mismatches and failed runs, one message each.
    pub failures: Vec<String>,
}

impl EquivalenceOutcome {
    /// Whether every trace scored identically both ways.
    pub fn pass(&self) -> bool {
        self.failures.is_empty() && self.n_compared == self.n_runs
    }

    /// A human-readable report of the battery.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "equivalence: {} runs, {} traces scored batch and streaming",
            self.n_runs, self.n_compared
        );
        if self.failures.is_empty() {
            let _ = writeln!(s, "  no mismatches");
        } else {
            let _ = writeln!(s, "  {} failure(s):", self.failures.len());
            for f in &self.failures {
                let _ = writeln!(s, "    {f}");
            }
        }
        let _ = writeln!(
            s,
            "  verdict: {}",
            if self.pass() { "PASS" } else { "FAIL" }
        );
        s
    }
}

/// Pushes `series` through `streaming` and checks every emitted alarm
/// against the push it fired on and against `detector.scan(series)`,
/// down to `f64::to_bits`. Empty = equivalent. The exact per-series
/// logic [`run_equivalence`] applies, public so the fuzz campaign's
/// detector stage holds generated traces to the same contract.
pub fn check_cusum_equivalence(
    id: &str,
    detector: &CusumDetector,
    streaming: &mut StreamingCusum,
    series: &[u64],
) -> Vec<String> {
    let mut failures = Vec::new();
    let batch = detector.scan(series);
    let mut pushed_alarm = None;
    for (i, &b) in series.iter().enumerate() {
        if let Some(alarm) = streaming.push(b) {
            if alarm.bin != i {
                failures.push(format!(
                    "{id}: alarm carries bin {} but fired on push {i} — the \
                     streaming state is out of sync with the series",
                    alarm.bin
                ));
            }
            pushed_alarm = Some(alarm);
        }
    }
    let online = streaming.scan();
    match (&batch, &online) {
        (CusumScan::Report(b), CusumScan::Report(s)) => {
            if b != s || b.peak_sigmas.to_bits() != s.peak_sigmas.to_bits() {
                failures.push(format!(
                    "{id}: cusum batch/streaming diverged: batch {b:?} vs streaming {s:?}"
                ));
            }
            if pushed_alarm.map(|a| a.bin) != b.alarm_bin {
                failures.push(format!(
                    "{id}: cusum push emitted alarm at {pushed_alarm:?}, batch alarms at {:?}",
                    b.alarm_bin
                ));
            }
        }
        (CusumScan::TooFewBins { .. }, CusumScan::TooFewBins { .. }) => {
            if batch != online {
                failures.push(format!(
                    "{id}: cusum TooFewBins disagreement: batch {batch:?} vs streaming {online:?}"
                ));
            }
        }
        _ => failures.push(format!(
            "{id}: cusum calibration disagreement: batch {batch:?} vs streaming {online:?}"
        )),
    }
    failures
}

/// Compares the batch rate-threshold run of `series` against a streaming
/// pass, down to `f64::to_bits` on the final utilization. Empty =
/// equivalent.
pub fn check_rate_equivalence(
    id: &str,
    detector: &RateDetector,
    streaming: &mut StreamingRate,
    series: &[u64],
) -> Vec<String> {
    let batch = detector.clone().run(series);
    for &b in series {
        streaming.push(b);
    }
    let online = streaming.report();
    if batch != online || batch.final_utilization.to_bits() != online.final_utilization.to_bits() {
        vec![format!(
            "{id}: rate batch/streaming diverged: batch {batch:?} vs streaming {online:?}"
        )]
    } else {
        Vec::new()
    }
}

/// Runs the battery: simulate every spec, then push each recorded trace
/// through the streaming detectors and hold them to the whole-series
/// verdicts — CUSUM on the raw bins *and* on the bin-to-bin dispersion
/// (the conventional change series), rate-threshold on the raw bins —
/// requiring bit-identical verdicts throughout.
pub fn run_equivalence(cfg: &EquivalenceConfig) -> EquivalenceOutcome {
    let specs = equivalence_specs(cfg);
    let report = SweepRunner::new(cfg.master_seed)
        .seed_policy(SeedPolicy::FromScenario)
        .jobs(cfg.jobs)
        .run(&specs);

    let mut out = EquivalenceOutcome {
        n_runs: specs.len(),
        ..EquivalenceOutcome::default()
    };
    for (spec, record) in specs.iter().zip(&report.records) {
        let trace = match &record.outcome {
            RunOutcome::Point { trace, .. } | RunOutcome::Benign { trace, .. } => trace,
            RunOutcome::Infeasible { reason } | RunOutcome::Failed { reason } => {
                out.failures.push(format!("{}: {reason}", spec.id));
                continue;
            }
        };
        out.n_compared += 1;
        let capacity = spec.scenario.bottleneck.as_bps();
        let bin_secs = BIN.as_secs_f64();
        // The short 8 s windows leave fewer bins than the conventional
        // 50-bin calibration, so size the CUSUM to the trace: half the
        // series calibrates, the other half is scanned.
        let calib = (trace.len() / 2).max(1);
        let dispersion = dispersion(trace);
        for (label, series) in [("raw", trace.as_slice()), ("disp", dispersion.as_slice())] {
            let id = format!("{}/{label}", spec.id);
            out.failures.extend(check_cusum_equivalence(
                &id,
                &CusumDetector::new(calib, 0.5, 8.0),
                &mut StreamingCusum::new(calib, 0.5, 8.0),
                series,
            ));
        }
        out.failures.extend(check_rate_equivalence(
            &spec.id,
            &RateDetector::conventional(capacity, bin_secs),
            &mut StreamingRate::conventional(capacity, bin_secs),
            trace,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_generation_is_deterministic_and_traced() {
        let cfg = EquivalenceConfig {
            random_scenarios: 10,
            ..EquivalenceConfig::default()
        };
        let a = equivalence_specs(&cfg);
        let b = equivalence_specs(&cfg);
        assert_eq!(a.len(), 4 + 10);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.stable_hash(), y.stable_hash());
            assert!(
                x.trace_bin.is_some(),
                "{}: battery runs record traces",
                x.id
            );
        }
        // The canonical four lead the list, tapped.
        assert!(a[..4].iter().all(|s| s.id.starts_with("golden/")));
        assert!(
            a[..4].iter().all(|s| s.detect),
            "canonical specs run tapped"
        );
        // Distinct ids -> distinct derived seeds.
        let mut ids: Vec<&str> = a.iter().map(|s| s.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 14);
    }

    #[test]
    fn different_master_seeds_draw_different_scenarios() {
        let a = equivalence_specs(&EquivalenceConfig {
            random_scenarios: 5,
            master_seed: 1,
            ..EquivalenceConfig::default()
        });
        let b = equivalence_specs(&EquivalenceConfig {
            random_scenarios: 5,
            master_seed: 2,
            ..EquivalenceConfig::default()
        });
        assert!(a.iter().zip(&b).any(|(x, y)| x.id != y.id));
    }

    #[test]
    fn outcome_pass_logic() {
        let mut o = EquivalenceOutcome {
            n_runs: 3,
            n_compared: 3,
            failures: Vec::new(),
        };
        assert!(o.pass());
        assert!(o.summary().contains("PASS"));
        o.failures.push("boom".into());
        assert!(!o.pass());
        assert!(o.summary().contains("FAIL"));
        let short = EquivalenceOutcome {
            n_runs: 3,
            n_compared: 2,
            failures: Vec::new(),
        };
        assert!(!short.pass(), "an unscored run is a failure");
    }

    #[test]
    fn cusum_check_flags_a_drifted_streaming_state() {
        // A deliberately desynchronized streaming detector (fed one extra
        // bin before the comparison) must be caught, not silently passed —
        // this is the seam the fuzz campaign's cusum-drift drill leans on.
        let series: Vec<u64> = (0..40u64)
            .map(|i| if i < 30 { 100 } else { 5_000 })
            .collect();
        let mut drifted = StreamingCusum::new(10, 0.5, 4.0);
        drifted.push(100);
        let failures = check_cusum_equivalence(
            "drift",
            &CusumDetector::new(10, 0.5, 4.0),
            &mut drifted,
            &series,
        );
        assert!(!failures.is_empty(), "drifted state must not pass");
    }

    #[test]
    fn rate_check_flags_a_drifted_streaming_state() {
        let series = vec![2_000_000u64; 20];
        let mut drifted = StreamingRate::conventional(15e6, 0.1);
        drifted.push(2_000_000);
        let failures = check_rate_equivalence(
            "drift",
            &RateDetector::conventional(15e6, 0.1),
            &mut drifted,
            &series,
        );
        assert!(!failures.is_empty(), "drifted state must not pass");
    }
}
