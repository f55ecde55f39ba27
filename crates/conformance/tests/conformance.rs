//! The conformance suite: golden traces, the differential oracle, the
//! seeded-fault drill, and a checked figure smoke sweep.
//!
//! `PDOS_BLESS=1 cargo test -p pdos-conformance` regenerates the golden
//! digests (equivalently: `pdos check --bless`).

use pdos_conformance::{
    canonical_specs, compute_cc_digests, compute_cc_digests_with, compute_digests,
    compute_spec_digests, golden, run_equivalence, run_oracle, run_shard_battery,
    EquivalenceConfig, OracleConfig, ShardBatteryConfig, GOLDEN_FILE,
};
use pdos_scenarios::experiment::{measure_baseline, measure_point, plan_attack, warm_start};
use pdos_scenarios::figures::{gain_figure_specs, FigureGrid, GainFigure};
use pdos_scenarios::runner::{AttackPoint, ExperimentSpec, RunOutcome, SeedPolicy, SweepRunner};
use pdos_scenarios::spec::ScenarioSpec;
use pdos_sim::check::ViolationKind;
use pdos_sim::link::LinkId;
use pdos_sim::time::{SimDuration, SimTime};
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(GOLDEN_FILE)
}

#[test]
fn golden_traces_match_the_stored_digests() {
    let current = compute_digests(2).expect("canonical runs must succeed");
    let path = golden_path();
    if std::env::var_os("PDOS_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create golden dir");
        std::fs::write(&path, golden::format_digests(&current)).expect("write golden file");
        return;
    }
    let stored = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}; bless with PDOS_BLESS=1",
            path.display()
        )
    });
    let stored = golden::parse_digests(&stored).expect("golden file parses");
    let problems = golden::compare(&current, &stored);
    assert!(
        problems.is_empty(),
        "golden trace drift (intentional? bless with PDOS_BLESS=1):\n{}",
        problems.join("\n")
    );
}

/// The literal `(name, bins, total bytes, digest)` rows the pre-rewrite
/// engine produced for the canonical scenarios.
const NO_REBLESS_DIGESTS: &[(&str, usize, u64, u64)] = &[
    ("golden/ns2-benign", 80, 13_238_160, 0xf3c7_3471_d0fa_6ff6),
    (
        "golden/ns2-red-attacked",
        80,
        7_114_880,
        0x46fa_6743_5da4_c0cd,
    ),
    (
        "golden/ns2-droptail-attacked",
        80,
        7_182_480,
        0x5ec8_7067_5582_2f4d,
    ),
    (
        "golden/testbed-attacked",
        80,
        7_127_000,
        0x8bb8_1cfe_ba7b_bae8,
    ),
];

/// Runs the canonical scenarios (checkers always on, warm-started from
/// forked checkpoints) once per `(shards, metered, tapped)` leg and holds
/// every leg to [`NO_REBLESS_DIGESTS`] and to the committed golden file.
///
/// The two-tier event queue and packet arena, the observer set and the
/// sharded engine each claim *exact* behavioural equivalence with the
/// plain sequential engine. Unlike
/// [`golden_traces_match_the_stored_digests`] this ignores `PDOS_BLESS`:
/// a queue, observer hook or shard cut that moves one byte cannot be
/// "fixed" by re-blessing. Metered legs also prove they were observed,
/// not silently unmetered.
fn assert_legs_keep_the_golden_digests(legs: &[(usize, bool, bool)]) {
    let stored = std::fs::read_to_string(golden_path()).expect("golden file readable");
    let stored = golden::parse_digests(&stored).expect("golden file parses");
    for &(shards, metered, tapped) in legs {
        let leg = format!("--shards {shards}, metered: {metered}, tapped: {tapped}");
        let specs: Vec<ExperimentSpec> = canonical_specs()
            .into_iter()
            .map(|mut s| {
                s.metrics = metered;
                s.detect = tapped;
                s.sharded(shards)
            })
            .collect();
        let (current, snapshot) =
            compute_spec_digests(&specs, 2, true).expect("canonical runs must succeed");
        assert_eq!(current.len(), NO_REBLESS_DIGESTS.len(), "{leg}");
        for (got, &(name, n_bins, total, digest)) in current.iter().zip(NO_REBLESS_DIGESTS) {
            assert_eq!(got.name, name, "{leg}");
            assert_eq!(got.n_bins, n_bins, "{name}: bin count moved at {leg}");
            assert_eq!(
                got.total_bytes, total,
                "{name}: traffic total moved at {leg}"
            );
            assert_eq!(
                got.digest, digest,
                "{name}: trace digest moved at {leg} — the event queue, an \
                 observer hook or the shard cut is perturbing the simulation \
                 (re-blessing is not an acceptable fix for this test)"
            );
        }
        let problems = golden::compare(&current, &stored);
        assert!(
            problems.is_empty(),
            "{leg} drifted from the committed golden file:\n{}",
            problems.join("\n")
        );
        assert_eq!(snapshot.is_some(), metered, "{leg}");
        if let Some(snapshot) = snapshot {
            assert!(snapshot.counter("engine", "pops_packet_tier").unwrap() > 0);
            assert!(snapshot.counter("link/0", "enqueued").unwrap() > 0);
        }
    }
}

/// Every subset of {metered, tapped} at 1, 2 and 4 shards: twelve legs.
#[test]
fn every_observer_and_shard_combination_keeps_the_golden_digests_no_rebless() {
    let mut legs = Vec::new();
    for shards in [1usize, 2, 4] {
        for (metered, tapped) in [(false, false), (true, false), (false, true), (true, true)] {
            legs.push((shards, metered, tapped));
        }
    }
    assert_legs_keep_the_golden_digests(&legs);
}

/// The plain single-shard leg: the event queue and packet arena alone.
#[test]
fn event_queue_rewrite_is_digest_equivalent_no_rebless() {
    assert_legs_keep_the_golden_digests(&[(1, false, false)]);
}

#[test]
fn metrics_enabled_runs_keep_all_golden_digests_no_rebless() {
    assert_legs_keep_the_golden_digests(&[(1, true, false)]);
}

#[test]
fn tap_enabled_runs_keep_all_golden_digests_no_rebless() {
    assert_legs_keep_the_golden_digests(&[(1, false, true)]);
}

#[test]
fn sharded_runs_keep_all_golden_digests_no_rebless() {
    assert_legs_keep_the_golden_digests(&[(2, false, false), (4, false, false)]);
}

#[test]
fn sharded_instrumented_runs_keep_all_golden_digests_no_rebless() {
    assert_legs_keep_the_golden_digests(&[(2, true, true), (4, true, true)]);
}

/// Batch-vs-streaming detector equivalence over the canonical golden
/// scenarios plus fifty seeded-random ones: every recorded trace must
/// score bit-for-bit identically — verdict, alarm bin, onset, peak
/// statistic — whether handed to the batch detectors whole or pushed
/// through the streaming detectors bin by bin.
#[test]
fn streaming_detectors_match_batch_over_the_equivalence_battery() {
    let outcome = run_equivalence(&EquivalenceConfig::default());
    assert_eq!(outcome.n_runs, 54);
    assert!(outcome.pass(), "{}", outcome.summary());
}

/// Sharded-vs-unsharded equivalence over fifty seeded-random topologies:
/// every drawn scenario — varying flow counts, queue disciplines, mice
/// and flash-crowd side traffic, attacked and benign — runs unsharded,
/// sharded cold and sharded warm-started, and every sharded trace must
/// fingerprint identically to its unsharded baseline.
#[test]
fn shard_battery_holds_over_fifty_randomized_topologies() {
    let outcome = run_shard_battery(&ShardBatteryConfig::default());
    assert_eq!(outcome.n_runs, 50);
    assert_eq!(outcome.n_compared, 100, "{}", outcome.summary());
    assert!(outcome.pass(), "{}", outcome.summary());
}

#[test]
fn golden_digests_are_stable_across_worker_counts() {
    let serial = compute_digests(1).expect("serial run");
    let parallel = compute_digests(4).expect("parallel run");
    assert_eq!(serial, parallel);
}

#[test]
fn oracle_holds_over_fifty_randomized_scenarios() {
    let outcome = run_oracle(&OracleConfig::default());
    assert_eq!(outcome.n_runs, 50);
    assert!(outcome.pass(), "{}", outcome.summary());
    assert!(
        outcome.n_right >= 10,
        "need a meaningful right-side sample: {}",
        outcome.summary()
    );
}

#[test]
fn seeded_clock_fault_is_flagged() {
    let mut bench = ScenarioSpec::ns2_dumbbell(3).build().expect("build");
    bench.sim.enable_checks();
    bench.run_until(SimTime::from_secs(5));
    assert!(
        bench.audit_violations().is_empty(),
        "healthy run must be clean"
    );
    // Drag the clock ahead of every pending event: each subsequent pop
    // now looks like time running backwards.
    bench.sim.corrupt_clock_for_test(SimTime::from_secs(60));
    bench.run_until(SimTime::from_secs(61));
    let violations = bench.audit_violations();
    assert!(
        violations
            .iter()
            .any(|v| v.kind == ViolationKind::ClockRegression),
        "expected a clock-regression flag, got: {violations:?}"
    );
}

#[test]
fn seeded_link_accounting_fault_is_flagged() {
    let mut bench = ScenarioSpec::ns2_dumbbell(3).build().expect("build");
    bench.sim.enable_checks();
    bench.run_until(SimTime::from_secs(2));
    bench
        .sim
        .link_mut_for_test(LinkId::from_u32(0))
        .corrupt_accounting_for_test();
    bench.run_until(SimTime::from_secs(3));
    let violations = bench.audit_violations();
    assert!(
        violations
            .iter()
            .any(|v| v.kind == ViolationKind::PacketConservation),
        "expected a packet-conservation flag, got: {violations:?}"
    );
}

/// Fork-equivalence lock for warm-start checkpointing.
///
/// Forking a checkpointed warm-up claims *exact* behavioural equivalence
/// with re-simulating it. This runs every canonical scenario both ways —
/// cold and forked, with checkers and metrics on — and requires identical
/// trace digests (every bin byte) and identical merged metrics snapshots
/// (every counter, gauge and histogram bucket). Like the other locks, a
/// drift here cannot be "fixed" by re-blessing: the checkpoint lost or
/// perturbed simulator state.
#[test]
fn forked_runs_match_cold_runs_digests_and_metrics() {
    let specs: Vec<_> = canonical_specs()
        .into_iter()
        .map(ExperimentSpec::metered)
        .collect();
    let (cold_digests, cold_metrics) =
        compute_spec_digests(&specs, 2, false).expect("cold canonical runs must succeed");
    let (warm_digests, warm_metrics) =
        compute_spec_digests(&specs, 2, true).expect("forked canonical runs must succeed");
    assert!(cold_metrics.is_some(), "metered runs produced no metrics");
    assert_eq!(
        cold_digests, warm_digests,
        "forked runs drifted from cold runs — SimCheckpoint is incomplete"
    );
    assert_eq!(
        cold_metrics, warm_metrics,
        "forked metrics drifted from cold metrics — observer state was \
         not checkpointed faithfully"
    );
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(12))]

    /// Property: a checkpoint forks any number of times without being
    /// consumed or mutated — two forks measured with identical parameters
    /// produce identical gain points, trace bins and metrics snapshots.
    #[test]
    fn prop_double_fork_is_identical(gamma_pct in 25u32..65, flows in 2usize..5) {
        let spec = ExperimentSpec::benign("double-fork", ScenarioSpec::ns2_dumbbell(flows))
            .warmup(SimDuration::from_secs(2))
            .window(SimDuration::from_secs(2))
            .traced(SimDuration::from_millis(100))
            .metered();
        let warm = warm_start(&spec).expect("warm start");
        let attack = AttackPoint {
            t_extent: 0.075,
            r_attack: 25e6,
            gamma: f64::from(gamma_pct) / 100.0,
        };
        let plan = plan_attack(&spec, attack).expect("feasible attack");
        let a = measure_point(&spec, warm.fork(), plan.clone(), 1_000_000).expect("first fork");
        let b = measure_point(&spec, warm.fork(), plan, 1_000_000).expect("second fork");
        proptest::prop_assert_eq!(a, b);
    }
}

/// Seeded-fault drill for the checkpoint layer: a checkpoint that silently
/// drops one piece of simulator state (the bottleneck link's accounting)
/// must not produce a quietly-wrong forked run — the always-on invariant
/// checkers have to flag it.
#[test]
fn omitted_checkpoint_state_is_flagged_by_checkers() {
    let spec = ExperimentSpec::benign("omitted-state", ScenarioSpec::ns2_dumbbell(3))
        .warmup(SimDuration::from_secs(2))
        .window(SimDuration::from_secs(2))
        .checked();
    // A healthy checkpoint forks cleanly.
    let warm = warm_start(&spec).expect("warm start");
    measure_baseline(&spec, warm.fork()).expect("healthy forked run must pass the checkers");
    // The same checkpoint minus one state field must be caught.
    let mut corrupted = warm_start(&spec).expect("warm start");
    corrupted.omit_link_stats_for_test();
    let err = measure_baseline(&spec, corrupted.fork())
        .expect_err("a checkpoint missing link state must fail the checkers");
    assert!(
        err.to_string().contains("violation"),
        "expected an invariant violation, got: {err}"
    );
}

/// Differential congestion-control battery.
///
/// The same fig06 canonical attack point runs once per registered
/// algorithm with the invariant checkers on. Every algorithm must hold
/// the engine's audits (a failed run aborts `compute_cc_digests`), the
/// four traces must be pairwise distinct (the state machines really are
/// different physics, not aliases of one another), and each digest is
/// pinned to a literal. `aimd` doubles as a registry-dispatch lock: it is
/// the same sender the legacy golden set exercises, so its digest moving
/// here — while the legacy set stays green — means dispatch, not TCP,
/// broke. This test ignores `PDOS_BLESS`; a CC behaviour change must be
/// reviewed against these literals, not re-blessed away.
#[test]
fn cc_differential_battery_pins_per_algorithm_digests_no_rebless() {
    let expected: &[(&str, u64)] = &[
        ("golden/cc-aimd", 0x9fc1_7dc8_0062_9d39),
        ("golden/cc-cubic", 0xe354_5875_c18c_4f59),
        ("golden/cc-bbr-lite", 0x2f71_d07b_377b_11b2),
        ("golden/cc-dctcp", 0xe266_586c_5873_30cf),
    ];
    let current = compute_cc_digests(2).expect("every algorithm must pass the checkers");
    let listing: String = current
        .iter()
        .map(|d| {
            format!(
                "(\"{}\", {}, {}, {:#018x})\n",
                d.name, d.n_bins, d.total_bytes, d.digest
            )
        })
        .collect();
    assert_eq!(
        current.len(),
        expected.len(),
        "battery size moved:\n{listing}"
    );
    for (got, &(name, digest)) in current.iter().zip(expected) {
        assert_eq!(got.name, name);
        assert_eq!(
            got.digest, digest,
            "{name}: differential digest moved — a congestion-control \
             state machine changed behaviour (current battery:\n{listing})"
        );
    }
    // Pairwise distinct: no algorithm is silently falling back to another.
    for (i, a) in current.iter().enumerate() {
        for b in &current[i + 1..] {
            assert_ne!(
                a.digest, b.digest,
                "{} and {} produced identical traces — registry dispatch \
                 is aliasing algorithms",
                a.name, b.name
            );
        }
    }
}

/// Fork-equivalence matrix across congestion controls: checkpointing a
/// warm-up and forking it must be byte-identical to cold simulation for
/// *every* algorithm, not just the AIMD seed — CUBIC's epoch clock,
/// BBR-lite's bandwidth ring and DCTCP's alpha all live in cloned sender
/// state and must survive the checkpoint unperturbed.
#[test]
fn cc_forked_runs_match_cold_runs_for_every_algorithm() {
    let cold = compute_cc_digests_with(2, false).expect("cold CC runs must succeed");
    let warm = compute_cc_digests_with(2, true).expect("forked CC runs must succeed");
    assert_eq!(
        cold, warm,
        "forked CC runs drifted from cold runs — some congestion-control \
         state is not checkpointed faithfully"
    );
}

/// Seeded-fault drill for the CC layer: a planted CUBIC-style window bug
/// (cwnd gone non-finite, as a broken cubic epoch/cube-root computation
/// produces) must be caught by the TCP window audit at the end of a
/// checked run — it survives the sender's own clamp and a further second
/// of simulation, so it cannot silently skew a gain figure.
#[test]
fn seeded_cubic_window_fault_is_flagged() {
    use pdos_tcp::cc::CcSpec;
    let mut bench = ScenarioSpec::ns2_dumbbell(3)
        .with_cc(CcSpec::Cubic)
        .build()
        .expect("build");
    bench.sim.enable_checks();
    bench.run_until(SimTime::from_secs(2));
    assert!(
        bench.audit_violations().is_empty(),
        "healthy cubic run must be clean"
    );
    bench.corrupt_sender_cwnd_for_test(0, f64::NAN);
    bench.run_until(SimTime::from_secs(3));
    let violations = bench.audit_violations();
    assert!(
        violations
            .iter()
            .any(|v| v.kind == ViolationKind::TcpWindow),
        "expected a TCP window flag, got: {violations:?}"
    );
}

#[test]
fn fig06_smoke_sweep_is_clean_under_checks() {
    let specs: Vec<_> = gain_figure_specs(GainFigure::Fig06, &FigureGrid::smoke())
        .into_iter()
        .map(|s| s.checked())
        .collect();
    let report = SweepRunner::new(0)
        .seed_policy(SeedPolicy::FromScenario)
        .jobs(2)
        .run(&specs);
    for r in &report.records {
        assert!(
            matches!(r.outcome, RunOutcome::Point { .. }),
            "{}: expected a clean point under checks, got {:?}",
            r.id,
            r.outcome
        );
    }
}
