//! Subcommand implementations. Each returns the report text it would
//! print, so the logic is directly unit-testable.

use crate::args::{ArgError, Args};
use pdos_analysis::gain::RiskPreference;
use pdos_analysis::model::{c_psi, mu_from_gamma};
use pdos_analysis::optimize::{plan_for_degradation, solve};
use pdos_analysis::sensitivity::parameter_what_if;
use pdos_attack::pulse::PulseTrain;
use pdos_bench::perf::PerfReport;
use pdos_conformance::{OracleConfig, GOLDEN_FILE};
use pdos_detect::cusum::{dispersion, CusumDetector};
use pdos_detect::rate::RateDetector;
use pdos_detect::roc::{auc, roc_curve};
use pdos_detect::spectral::SpectralDetector;
use pdos_detect::streaming::{
    alarm_stream_json, Alarm, StreamingCusum, StreamingRate, StreamingSpectral,
};
use pdos_scenarios::classify::{GainClass, CLASS_MARGIN};
use pdos_scenarios::experiment::gamma_grid;
use pdos_scenarios::figures::{
    gain_figure_specs, gain_figure_specs_cc, roc_specs, FigureGrid, GainFigure,
};
use pdos_scenarios::runner::{
    AttackPoint, ExperimentSpec, RunOutcome, SeedPolicy, SweepReport, SweepRunner,
};
use pdos_scenarios::spec::{BottleneckQueue, ScenarioSpec};
use pdos_scenarios::sync::SyncExperiment;
use pdos_sim::time::SimDuration;
use pdos_sim::units::BitsPerSec;
use pdos_tcp::cc::CcSpec;
use std::fmt::Write as _;
use std::io::Write as _;

/// The top-level help text.
pub const HELP: &str = "\
pdos — a simulation laboratory for pulsing denial-of-service research
(reproduction of Luo & Chang, DSN 2005; simulation only, no real traffic)

USAGE: pdos <command> [--key value] [--flag]

COMMANDS
  solve      solve the gain model: optimal gamma*, mu*, period, what-if table
             --flows N (25)  --textent-ms T (75)  --rattack-mbps R (30)
             --kappa K (1.0)  --target-degradation D (also plan the
             quietest attack reaching damage level D)
  simulate   run one attacked scenario and report measured vs modelled damage
             --flows N (15)  --textent-ms T (75)  --rattack-mbps R (30)
             --gamma G (0.3)  --window-s W (30)  --seed S (1)
             --queue red|droptail|acc (red)  --ecn  --min-rto-ms M (1000)
             --testbed (the Fig. 11 test bed: 10 Mbps, 150 ms, 200 ms min RTO)
             --trace-out FILE (write the bottleneck's binned byte trace,
             --bin-ms B (100) wide bins, consumable by `pdos detect`)
  sweep      gamma sweep printing CSV rows (gamma,t_aimd,g_curve,g_sim,class)
             --flows --textent-ms --rattack-mbps --window-s --seed --queue
             --ecn --min-rto-ms --testbed as for simulate, --points N (8)
             --jobs N (0 = one worker per CPU)
             --shards N (1): run every point on the sharded engine with
             N conservative-lookahead workers; results are bit-identical
             to --shards 1 (see docs/SHARDING.md)
             --warm-start | --no-warm-start (default on): simulate each
             distinct warm-up prefix once, checkpoint it, and fork every
             sweep point from the checkpoint; results are bitwise
             identical either way (cold fallback is automatic)
             --fig fig06|fig07|fig08|fig09 runs a whole paper figure
             through the parallel deterministic runner instead, with
             --jobs N (0)  --smoke (CI-sized grid)  --master-seed S (0)
             --shards  the warm-start pair  --out FILE (full JSON report)
             --cc aimd|cubic|bbr-lite|dctcp (aimd): victims run the
             chosen congestion control; the summary reports the measured
             per-algorithm (gamma*, mu*) next to the analytic AIMD
             reference
             --fig roc runs the ROC ablation instead: benign and attacked
             traces through the runner, scored by the streaming detectors
             across a threshold sweep (per-scorer curves + AUC), with
             --jobs  --smoke  the warm-start pair  --out FILE (pdos-roc/1)
  sync       the Fig. 3 synchronization experiment
             --flows N (12)  --textent-ms T (50)  --rattack-mbps R (100)
             --period-s P (2)  --window-s W (30)  --seed --queue --ecn
             --min-rto-ms --testbed as for simulate
  detect     run the volume + spectral detectors over a binned byte trace
             --csv FILE (one integer per line: bytes per bin)
             --capacity-mbps C  --bin-ms B (100)
  serve      streaming detection service: feed traces bin by bin through
             the online CUSUM + rate + spectral detector bank and emit
             the deterministic pdos-detect/1 alarm-stream JSON
             --replay FILE (score one recorded trace in the format
             `pdos simulate` writes; requires --capacity-mbps C)
             --bin-ms B (100)
             live mode (default, no --replay): simulate a scenario set
             and score each run's bottleneck trace in spec order —
             --scenario golden|fig06-smoke (golden)  --jobs N (0; never
             affects the alarm stream)
             --out FILE (write the JSON; printed to stdout otherwise)
  bench      engine performance harness: macro workloads (events/s,
             packets/s), the fig06-grid-warmstart macro (cold vs forked
             sweep wall time + checkpoint size), and event-queue and
             queue-discipline microbenches, plus the flow-bank-smoke
             (1e4 flows, gates every PR) and million-flow-smoke (>= 1e5
             struct-of-arrays flows) scale macros, written as a
             BENCH_<date>.json report (schema pdos-bench/4; /1-/3
             baselines still read)
             --shards N (1): add a second million-flow leg on the
             sharded engine for a sequential-vs-sharded comparison
             (speedup gate skipped, with a record, on 1-core hosts)
             --profile: run the scale macros under the engine's
             self-profiler and report the per-event-type breakdown
             --smoke (CI-sized: fig06 smoke macro only)  --out FILE
             (default BENCH_<date>.json)  --baseline FILE (fail on a >20%
             fig06-smoke or flow-bank-smoke events/s regression, >30%
             peak-RSS or allocation-count growth, or a warm-start speedup
             below 1.3x)
  metrics    run a scenario set with the metrics registry enabled and
             export the merged per-link/per-flow/engine snapshot
             --scenario fig06-smoke|golden (fig06-smoke)  --jobs N (0)
             --format json|csv (json)  --out FILE (print to stdout
             when omitted)
  check      conformance suite: a fig06 smoke sweep with the runtime
             invariant checkers on, golden-trace digest regression, and
             the analytic differential oracle (randomized scenarios vs
             the Eq. 5 gain curves within EXPERIMENTS.md tolerance bands)
             --jobs N (0)  --scenarios N (50)  --master-seed S (7)
             --golden-dir DIR (tests/golden)  --bless (regenerate the
             golden digests)  --out FILE (write the report)
             --warm-start | --no-warm-start (default on) for the smoke
             sweep's warm-start checkpointing
             --cc all (also run the congestion-control differential
             battery: every registered algorithm simulates the same
             ECN-marked canonical point and all traces must be
             pairwise distinct)
             --shards N (1; N>1 re-runs the canonical set on a sharded
             engine and requires digest byte-identity with --shards 1)
  fuzz       scenario fuzzing campaign: seeded random case families
             (oracle-envelope and diverse dumbbells, parking-lot,
             fat-tree and flow-bank topologies) through the oracle +
             invariant-checker + golden-digest machinery, with
             shrink-on-violation
             --scenarios N (200)  --budget-secs S (0 = uncapped; the
             unit is *simulated* seconds, so the budget is
             machine-independent)  --master-seed S (7)  --jobs N (0;
             never affects the report bytes)
             --out FILE (stable pdos-fuzz/1 JSON report)
             --repro-dir DIR (one self-contained .repro per violation,
             minimized by the shrinker)
             --shrink-budget N (64; replays allowed per shrink)
             --fault none|link-accounting|omit-link-stats|cubic-window|
             cusum-drift|shard-skew (self-test drill: deliberately
             inject a bug into every dumbbell case; the campaign must
             catch it — cusum-drift desynchronizes the streaming
             detector state, which the detector-equivalence stage must
             flag; shard-skew delivers a cross-shard packet before the
             lookahead window on the sharded engine, which the
             clock-monotonicity checker must flag)
             --replay FILE (re-run one .repro file; exits non-zero
             while the recorded violation still reproduces)
  help       this text
";

/// The warm-up of every run `simulate`, `sweep` and `sync` make.
const WARMUP: SimDuration = SimDuration::from_secs(8);

/// Resolves `--cc` against the congestion-control registry (default:
/// `aimd`, the paper's sender).
fn cc_of(args: &Args) -> Result<CcSpec, ArgError> {
    let key = args.get("cc").unwrap_or("aimd");
    CcSpec::from_key(key).ok_or_else(|| {
        let known: Vec<&str> = CcSpec::ALL.iter().map(|c| c.key()).collect();
        ArgError(format!(
            "--cc must be one of {}; got '{key}'",
            known.join(", ")
        ))
    })
}

fn queue_of(args: &Args) -> Result<BottleneckQueue, ArgError> {
    match args.get("queue").unwrap_or("red") {
        "red" => Ok(BottleneckQueue::Red),
        "droptail" => Ok(BottleneckQueue::DropTail),
        "acc" => Ok(BottleneckQueue::AccRed),
        other => Err(ArgError(format!(
            "--queue must be red, droptail or acc; got '{other}'"
        ))),
    }
}

/// The unit a numeric option is given in; [`positive`] converts
/// milliseconds to seconds and megabits to bits per second.
#[derive(Debug, Clone, Copy)]
enum Unit {
    Secs,
    Millis,
    Mbps,
}

/// Reads a numeric option that sizes a duration, a rate or a bin (`None`
/// makes it required) and converts it from `unit` to seconds or bits per
/// second. This is the one range check for such options: zero, negative
/// and non-finite values are rejected here, before and after the
/// conversion, because they would otherwise reach asserting constructors
/// or divide by zero.
fn positive(args: &Args, key: &str, default: Option<f64>, unit: Unit) -> Result<f64, ArgError> {
    let value = match default {
        Some(d) => args.num(key, d)?,
        None => args.require_num(key)?,
    };
    if !(value.is_finite() && value > 0.0) {
        return Err(ArgError(format!(
            "--{key} must be a finite positive number; got {value}"
        )));
    }
    let converted = match unit {
        Unit::Secs => value,
        Unit::Millis => value / 1000.0,
        Unit::Mbps => value * 1e6,
    };
    if converted.is_finite() && converted > 0.0 {
        Ok(converted)
    } else {
        Err(ArgError(format!(
            "--{key} {value:e} is out of range once converted from {unit:?}"
        )))
    }
}

/// Reads a duration option (`--window-s`, `--period-s`, `--bin-ms`) as a
/// [`SimDuration`]. A positive value that rounds to zero nanoseconds would
/// measure nothing or reach the trace's asserting constructor, so it is
/// rejected here.
fn duration(args: &Args, key: &str, default: f64, unit: Unit) -> Result<SimDuration, ArgError> {
    let d = SimDuration::from_secs_f64(positive(args, key, Some(default), unit)?);
    if d.is_zero() {
        return Err(ArgError(format!(
            "--{key} {} rounds to zero; the resolution is 1 ns",
            args.get(key).unwrap_or_default()
        )));
    }
    Ok(d)
}

/// Reads `--flows`, the victim count: an empty victim set would reach the
/// scenario builder's and the model's assertions, so zero is rejected.
fn flows_of(args: &Args, default: usize) -> Result<usize, ArgError> {
    match args.num("flows", default)? {
        0 => Err(ArgError("--flows must be at least 1; got 0".into())),
        n => Ok(n),
    }
}

/// The scenario, pulse and window options `simulate`, `sweep` and `sync`
/// share.
struct RunOptions {
    spec: ScenarioSpec,
    /// Pulse width, seconds.
    t_extent: f64,
    /// Pulse rate, bits per second.
    r_attack: f64,
    /// The measurement window after [`WARMUP`] (`--window-s`, 30 s).
    window: SimDuration,
}

impl RunOptions {
    /// Reads the options with a command's defaults for `--flows`,
    /// `--textent-ms` and `--rattack-mbps`.
    fn read(
        args: &Args,
        flows: usize,
        textent_ms: f64,
        rattack_mbps: f64,
    ) -> Result<RunOptions, ArgError> {
        let mut spec = if args.flag("testbed") {
            ScenarioSpec::testbed()
        } else {
            ScenarioSpec::ns2_dumbbell(flows)
        };
        spec.n_flows = flows_of(args, spec.n_flows)?;
        spec.queue = queue_of(args)?;
        spec.seed = args.num("seed", 1u64)?;
        spec.tcp.ecn = args.flag("ecn");
        if args.get("min-rto-ms").is_some() {
            let ms: u64 = args.require_num("min-rto-ms")?;
            spec.tcp.min_rto = SimDuration::from_millis(ms);
            // The TCP agents assert a valid configuration; reject it here.
            spec.tcp.validate().map_err(|e| {
                ArgError(format!(
                    "--min-rto-ms {ms}: {e}, which is {}",
                    spec.tcp.max_rto
                ))
            })?;
        }
        Ok(RunOptions {
            spec,
            t_extent: positive(args, "textent-ms", Some(textent_ms), Unit::Millis)?,
            r_attack: positive(args, "rattack-mbps", Some(rattack_mbps), Unit::Mbps)?,
            window: duration(args, "window-s", 30.0, Unit::Secs)?,
        })
    }

    /// An attacked run of these options at `gamma`.
    fn attacked(&self, id: impl Into<String>, gamma: f64) -> ExperimentSpec {
        ExperimentSpec::attacked(
            id,
            self.spec.clone(),
            AttackPoint {
                t_extent: self.t_extent,
                r_attack: self.r_attack,
                gamma,
            },
        )
        .warmup(WARMUP)
        .window(self.window)
    }
}

/// The sweep runner `--jobs` and the `--warm-start`/`--no-warm-start` pair
/// (default on; bitwise result-neutral) configure. It keeps scenario seeds
/// unless `master_seed` is given, which derives each run's seed instead.
fn runner_of(args: &Args, master_seed: Option<u64>) -> Result<SweepRunner, ArgError> {
    if args.flag("warm-start") && args.flag("no-warm-start") {
        return Err(ArgError(
            "--warm-start and --no-warm-start are mutually exclusive".into(),
        ));
    }
    let runner = match master_seed {
        None => SweepRunner::new(0).seed_policy(SeedPolicy::FromScenario),
        Some(seed) => SweepRunner::new(seed).seed_policy(SeedPolicy::Derived),
    };
    Ok(runner
        .jobs(args.num("jobs", 0)?)
        .warm_start(!args.flag("no-warm-start")))
}

/// Reads `--scenario golden|fig06-smoke`: the canonical golden set or the
/// fig06 smoke grid.
fn scenario_set<'a>(
    args: &'a Args,
    default: &'static str,
) -> Result<(&'a str, Vec<ExperimentSpec>), ArgError> {
    let name = args.get("scenario").unwrap_or(default);
    let specs = match name {
        "golden" => pdos_conformance::canonical_specs(),
        "fig06-smoke" => gain_figure_specs(GainFigure::Fig06, &FigureGrid::smoke()),
        other => {
            return Err(ArgError(format!(
                "--scenario must be golden or fig06-smoke; got '{other}'"
            )))
        }
    };
    Ok((name, specs))
}

/// Fails with the first failed run of `report`, if any.
fn first_failure(report: &SweepReport) -> Result<(), ArgError> {
    for r in &report.records {
        if let RunOutcome::Failed { reason } = &r.outcome {
            return Err(ArgError(format!("{}: {reason}", r.id)));
        }
    }
    Ok(())
}

/// A file `--out` or `--trace-out` names, created after every other option
/// has passed its checks and before the work, so that an unwritable path
/// fails fast and a rejected command line leaves no file behind.
struct Output {
    path: String,
    file: std::fs::File,
}

impl Output {
    fn create(path: &str) -> Result<Output, ArgError> {
        let file = std::fs::File::create(path)
            .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        Ok(Output {
            path: path.to_string(),
            file,
        })
    }

    /// The file `--{key}` names, if given.
    fn of(args: &Args, key: &str) -> Result<Option<Output>, ArgError> {
        args.get(key).map(Output::create).transpose()
    }

    /// Writes `body` as the file's contents.
    fn write(&self, body: &str) -> Result<(), ArgError> {
        (&self.file)
            .write_all(body.as_bytes())
            .map_err(|e| ArgError(format!("cannot write {}: {e}", self.path)))
    }
}

/// `pdos solve`.
fn cmd_solve(args: &Args) -> Result<String, ArgError> {
    let flows = flows_of(args, 25)?;
    let t_extent = positive(args, "textent-ms", Some(75.0), Unit::Millis)?;
    let r_attack = positive(args, "rattack-mbps", Some(30.0), Unit::Mbps)?;
    let kappa: f64 = args.num("kappa", 1.0)?;
    let risk = RiskPreference::new(kappa).map_err(ArgError)?;
    let victims = ScenarioSpec::ns2_dumbbell(flows).victims();

    let sol = solve(&victims, t_extent, r_attack, risk).map_err(|e| ArgError(e.to_string()))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "victims: {flows} flows, 15 Mbps bottleneck; pulses {} ms at {} Mbps; kappa = {kappa}",
        t_extent * 1000.0,
        r_attack / 1e6
    );
    let _ = writeln!(out, "  gamma*          = {:.4}", sol.gamma_star);
    let _ = writeln!(out, "  mu*             = {:.3}", sol.mu_star);
    let _ = writeln!(out, "  period T_AIMD   = {:.3} s", sol.period);
    let _ = writeln!(out, "  degradation     = {:.3}", sol.degradation);
    let _ = writeln!(out, "  gain at optimum = {:.3}", sol.gain);
    if args.get("target-degradation").is_some() {
        let target: f64 = args.require_num("target-degradation")?;
        let plan = plan_for_degradation(&victims, t_extent, r_attack, target, risk)
            .map_err(|e| ArgError(e.to_string()))?;
        let _ = writeln!(
            out,
            "\nquietest attack reaching {:.0}% degradation:",
            target * 100.0
        );
        let _ = writeln!(out, "  gamma           = {:.4}", plan.gamma);
        let _ = writeln!(out, "  mu              = {:.3}", plan.mu);
        let _ = writeln!(out, "  period T_AIMD   = {:.3} s", plan.period);
        let _ = writeln!(out, "  exposure factor = {:.3}", plan.exposure_factor);
    }
    let _ = writeln!(out, "\nwhat-if (risk-neutral attacker):");
    let _ = writeln!(
        out,
        "  {:<42} {:>8} {:>8} {:>8}",
        "change", "C_psi", "gamma*", "G*"
    );
    for row in
        parameter_what_if(&victims, t_extent, r_attack).map_err(|e| ArgError(e.to_string()))?
    {
        let _ = writeln!(
            out,
            "  {:<42} {:>8.3} {:>8.3} {:>8.3}",
            row.change, row.c_psi, row.gamma_star, row.g_star
        );
    }
    Ok(out)
}

/// `pdos simulate`: one attacked spec through the runner's single-point
/// path, traced when `--trace-out` is given.
fn cmd_simulate(args: &Args) -> Result<String, ArgError> {
    let opts = RunOptions::read(args, 15, 75.0, 30.0)?;
    let gamma: f64 = args.num("gamma", 0.3)?;
    let mut run = opts.attacked("simulate", gamma);
    if args.get("trace-out").is_some() {
        run = run.traced(duration(args, "bin-ms", 100.0, Unit::Millis)?);
    } else if args.get("bin-ms").is_some() {
        return Err(ArgError("--bin-ms sizes the --trace-out bins".into()));
    }
    let trace_file = Output::of(args, "trace-out")?;
    let record = SweepRunner::new(0)
        .seed_policy(SeedPolicy::FromScenario)
        .execute_one(&run);
    let baseline = record.baseline_bytes;
    let (p, bins) = match record.outcome {
        RunOutcome::Point { point, trace } => (point, trace),
        RunOutcome::Infeasible { reason } => {
            return Err(ArgError(format!("pulse parameters: {reason}")))
        }
        RunOutcome::Failed { reason } => return Err(ArgError(reason)),
        RunOutcome::Benign { .. } => unreachable!("an attacked spec measures a point"),
    };

    let mut out = String::new();
    if let Some(file) = &trace_file {
        file.write(&format_trace(&bins))?;
        let _ = writeln!(out, "wrote {} bins to {}", bins.len(), file.path);
    }
    let _ = writeln!(
        out,
        "attack: {} ms pulses at {} Mbps, gamma = {gamma} (T_AIMD = {:.3} s)",
        opts.t_extent * 1000.0,
        opts.r_attack / 1e6,
        p.t_aimd
    );
    let _ = writeln!(
        out,
        "baseline goodput          : {:.2} Mbps",
        baseline as f64 * 8.0 / opts.window.as_secs_f64() / 1e6
    );
    let _ = writeln!(
        out,
        "degradation (model / sim) : {:.3} / {:.3}",
        p.degradation_analytic, p.degradation_sim
    );
    let _ = writeln!(
        out,
        "gain        (model / sim) : {:.3} / {:.3}",
        p.g_analytic, p.g_sim
    );
    let _ = writeln!(
        out,
        "victim timeouts / FRs     : {} / {}",
        p.timeouts, p.fast_recoveries
    );
    if let Some(n) = p.shrew {
        let _ = writeln!(
            out,
            "NOTE: period sits on the shrew subharmonic min_rto/{n}"
        );
    }
    let _ = writeln!(out, "classification            : {}", p.class);
    Ok(out)
}

/// `pdos sweep`: a γ sweep as CSV.
fn cmd_sweep(args: &Args) -> Result<String, ArgError> {
    let opts = RunOptions::read(args, 15, 75.0, 30.0)?;
    let points: usize = args.num("points", 8)?;
    let shards: usize = args.num("shards", 1)?;
    let runner = runner_of(args, None)?;
    if points < 2 {
        return Err(ArgError("--points must be at least 2".into()));
    }

    // Enumerate the grid as specs and fan it out; `FromScenario` keeps the
    // CSV identical to the historical serial loop at any worker count.
    let specs: Vec<ExperimentSpec> = gamma_grid(0.08, 0.92, points)
        .into_iter()
        .map(|gamma| {
            opts.attacked(format!("sweep/g{gamma:.3}"), gamma)
                .sharded(shards)
        })
        .collect();
    let report = runner.run(&specs);
    first_failure(&report)?;

    let c = c_psi(&opts.spec.victims(), opts.t_extent, opts.r_attack)
        .map_err(|e| ArgError(e.to_string()))?;
    let mut out = String::from("gamma,t_aimd_s,g_curve,g_sim,degradation_sim,timeouts,class\n");
    let points_measured = report.points();
    for p in &points_measured {
        let _ = writeln!(
            out,
            "{:.3},{:.3},{:.4},{:.4},{:.4},{},{}",
            p.gamma, p.t_aimd, p.g_analytic, p.g_sim, p.degradation_sim, p.timeouts, p.class
        );
    }
    let pairs: Vec<(f64, f64)> = points_measured
        .iter()
        .map(|p| (p.g_analytic, p.g_sim))
        .collect();
    let class = GainClass::classify_sweep(&pairs, CLASS_MARGIN);
    let _ = writeln!(out, "# C_psi = {c:.4}, sweep class = {class}");
    Ok(out)
}

/// `pdos sweep --fig figNN`: one gain figure through the runner, with a
/// JSON report.
fn cmd_sweep_figure(args: &Args) -> Result<String, ArgError> {
    let fig_name = args.get("fig").unwrap_or_default();
    let fig = GainFigure::from_name(fig_name).ok_or_else(|| {
        ArgError(format!(
            "--fig must be one of fig06, fig07, fig08, fig09, roc; got '{fig_name}'"
        ))
    })?;
    let grid = if args.flag("smoke") {
        FigureGrid::smoke()
    } else {
        FigureGrid::full()
    };
    // Without --master-seed the figures' pinned scenario seeds are kept
    // (the paper-exact sweep); with it, every run gets an independent
    // seed derived from master seed + spec hash.
    let master_seed = match args.get("master-seed") {
        None => None,
        Some(_) => Some(args.require_num("master-seed")?),
    };
    let runner = runner_of(args, master_seed)?;
    let cc = cc_of(args)?;
    let shards: usize = args.num("shards", 1)?;
    let report_file = Output::of(args, "out")?;
    let specs: Vec<ExperimentSpec> = gain_figure_specs_cc(fig, &grid, cc)
        .into_iter()
        .map(|s| s.sharded(shards))
        .collect();
    let report = runner.run(&specs);

    let mut out = String::new();
    let (mut ok, mut infeasible, mut failed) = (0usize, 0usize, 0usize);
    for r in &report.records {
        match &r.outcome {
            RunOutcome::Point { .. } => ok += 1,
            RunOutcome::Benign { .. } => {}
            RunOutcome::Infeasible { .. } => infeasible += 1,
            RunOutcome::Failed { reason } => {
                failed += 1;
                let _ = writeln!(out, "FAILED {}: {reason}", r.id);
            }
        }
    }
    let _ = writeln!(
        out,
        "{}: {} runs ({} ok, {} infeasible, {} failed) on {} workers",
        fig.name(),
        report.records.len(),
        ok,
        infeasible,
        failed,
        report.jobs
    );
    let _ = writeln!(
        out,
        "wall {:.2} s, cpu {:.2} s, speedup {:.2}x, {:.2} runs/s",
        report.wall.as_secs_f64(),
        report.cpu_time().as_secs_f64(),
        report.cpu_time().as_secs_f64() / report.wall.as_secs_f64().max(1e-9),
        report.runs_per_sec()
    );
    // Per-algorithm optimum: the measured γ* is the argmax of G_sim over
    // the swept grid, with μ* implied by Eq. 2 at that rate; the analytic
    // Eq. 5 solution (which models AIMD senders) is printed alongside as
    // the paper's reference point.
    let points = report.points();
    if let Some(best) = points
        .iter()
        .copied()
        .max_by(|a, b| a.g_sim.total_cmp(&b.g_sim))
    {
        let r_attack = fig.r_attack_mbps() * 1e6;
        let victims = ScenarioSpec::ns2_dumbbell(grid.flows[0]).victims();
        let mu = mu_from_gamma(r_attack / victims.r_bottle(), best.gamma);
        let _ = writeln!(
            out,
            "cc={}: measured gamma* = {:.3}, mu* = {:.2} (T = {:.3} s, G_sim = {:.3})",
            cc.key(),
            best.gamma,
            mu,
            best.t_aimd,
            best.g_sim
        );
        match solve(
            &victims,
            grid.textents[0],
            r_attack,
            RiskPreference::NEUTRAL,
        ) {
            Ok(sol) => {
                let _ = writeln!(
                    out,
                    "analytic AIMD reference ({} flows, {:.0} ms pulses): gamma* = {:.3}, mu* = {:.2}",
                    grid.flows[0],
                    grid.textents[0] * 1000.0,
                    sol.gamma_star,
                    sol.mu_star
                );
            }
            Err(e) => {
                let _ = writeln!(out, "analytic AIMD reference unavailable: {e}");
            }
        }
    }
    if let Some(file) = &report_file {
        file.write(&report.to_json())?;
        let _ = writeln!(out, "report written to {}", file.path);
    }
    if failed > 0 {
        return Err(ArgError(format!("{failed} runs failed:\n{out}")));
    }
    Ok(out)
}

/// The utilization thresholds the ROC ablation sweeps the rate scorer
/// over, and the sigma thresholds for the dispersion-CUSUM scorer.
const ROC_RATE_THRESHOLDS: [f64; 7] = [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
const ROC_CUSUM_THRESHOLDS: [f64; 7] = [2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0];

/// `pdos sweep --fig roc`: the ROC ablation — benign and attacked traces
/// generated through the (warm-startable) runner, then scored by the
/// *streaming* detectors across a threshold sweep. The output — human
/// table and `pdos-roc/1` JSON — is a pure function of the traces, so it
/// is byte-identical across `--jobs` and warm-start settings.
fn cmd_sweep_roc(args: &Args) -> Result<String, ArgError> {
    let runner = runner_of(args, None)?;
    let (n_traces, window) = if args.flag("smoke") {
        (2, SimDuration::from_secs(8))
    } else {
        (5, SimDuration::from_secs(30))
    };
    let report_file = Output::of(args, "out")?;
    let specs = roc_specs(n_traces, window);
    let report = runner.run(&specs);

    let (mut benign, mut attacked): (Vec<Vec<u64>>, Vec<Vec<u64>>) = (Vec::new(), Vec::new());
    for (spec, r) in specs.iter().zip(&report.records) {
        match &r.outcome {
            RunOutcome::Point { trace, .. } => attacked.push(trace.clone()),
            RunOutcome::Benign { trace, .. } => benign.push(trace.clone()),
            RunOutcome::Infeasible { reason } | RunOutcome::Failed { reason } => {
                return Err(ArgError(format!("{}: {reason}", spec.id)));
            }
        }
    }
    let capacity = specs[0].scenario.bottleneck.as_bps();
    let bin_secs = 0.1;

    // Both scorers run *streaming* detectors over each trace — the same
    // state machines `pdos serve` deploys, so the curve measures the
    // online pipeline, not the batch one.
    let rate_points = roc_curve(&benign, &attacked, &ROC_RATE_THRESHOLDS, |th, trace| {
        let det = RateDetector::new(capacity, bin_secs, th, 0.05, 5)
            .expect("roc thresholds are in domain");
        let mut s = StreamingRate::new(det);
        trace.iter().any(|&b| s.push(b).is_some())
    });
    let cusum_points = roc_curve(&benign, &attacked, &ROC_CUSUM_THRESHOLDS, |th, trace| {
        let dispersion = dispersion(trace);
        let calib = (dispersion.len() / 2).max(2);
        let mut s = StreamingCusum::new(calib, 0.5, th);
        dispersion.iter().any(|&b| s.push(b).is_some())
    });

    let mut out = String::new();
    let _ = writeln!(
        out,
        "roc: {} traces ({} benign, {} attacked), gammas {:?}",
        benign.len() + attacked.len(),
        benign.len(),
        attacked.len(),
        pdos_scenarios::figures::ROC_GAMMAS
    );
    let _ = writeln!(out, "scorer,threshold,tpr,fpr");
    for (name, points) in [("rate", &rate_points), ("cusum-dispersion", &cusum_points)] {
        for p in points.iter() {
            let _ = writeln!(out, "{name},{:.2},{:.3},{:.3}", p.threshold, p.tpr, p.fpr);
        }
    }
    let _ = writeln!(out, "rate AUC             = {:.3}", auc(&rate_points));
    let _ = writeln!(out, "cusum-dispersion AUC = {:.3}", auc(&cusum_points));

    if let Some(file) = &report_file {
        let mut json = String::from("{\"schema\":\"pdos-roc/1\",");
        let _ = write!(
            json,
            "\"n_benign\":{},\"n_attacked\":{},\"scorers\":[",
            benign.len(),
            attacked.len()
        );
        for (i, (name, points)) in [("rate", &rate_points), ("cusum-dispersion", &cusum_points)]
            .into_iter()
            .enumerate()
        {
            if i > 0 {
                json.push(',');
            }
            let _ = write!(
                json,
                "{{\"name\":\"{name}\",\"auc\":{},\"points\":[",
                auc(points)
            );
            for (j, p) in points.iter().enumerate() {
                if j > 0 {
                    json.push(',');
                }
                let _ = write!(
                    json,
                    "{{\"threshold\":{},\"tpr\":{},\"fpr\":{}}}",
                    p.threshold, p.tpr, p.fpr
                );
            }
            json.push_str("]}");
        }
        json.push_str("]}");
        file.write(&json)?;
        let _ = writeln!(out, "report written to {}", file.path);
    }
    Ok(out)
}

/// `pdos metrics` — runs a scenario set with the metrics registry on and
/// exports the merged observability snapshot (per-link, per-flow and
/// engine scopes, plus the CLI's own sweep wall-time phase counter).
fn cmd_metrics(args: &Args) -> Result<String, ArgError> {
    let (scenario, specs) = scenario_set(args, "fig06-smoke")?;
    let specs: Vec<ExperimentSpec> = specs.into_iter().map(ExperimentSpec::metered).collect();
    let format = args.get("format").unwrap_or("json");
    if !matches!(format, "json" | "csv") {
        return Err(ArgError(format!(
            "--format must be json or csv; got '{format}'"
        )));
    }
    let runner = runner_of(args, None)?;
    let metrics_file = Output::of(args, "out")?;

    // The sweep itself is a profiled phase: its wall time lands in the
    // snapshot under cli/sweep_wall_nanos (the only wall-clock-dependent
    // entry — everything else is virtual-time deterministic).
    let mut profile = pdos_metrics::MetricsRegistry::new();
    let mut clock = pdos_metrics::WallClock::new();
    let report =
        pdos_metrics::time_phase(&mut profile, &mut clock, "cli", "sweep_wall_nanos", || {
            runner.run(&specs)
        });
    first_failure(&report)?;
    let mut merged = report
        .merged_metrics()
        .ok_or_else(|| ArgError("no successful metered runs to merge".into()))?;
    merged.merge(&profile.snapshot());

    let body = match format {
        "csv" => merged.to_csv(),
        _ => merged.to_json(),
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{scenario}: merged {} metrics from {} runs on {} workers",
        merged.entries.len(),
        report.records.len(),
        report.jobs
    );
    match &metrics_file {
        Some(file) => {
            file.write(&body)?;
            let _ = writeln!(out, "metrics written to {}", file.path);
        }
        None => out.push_str(&body),
    }
    Ok(out)
}

/// `pdos check` — the conformance suite. Fails (non-zero exit) on any
/// invariant violation, golden-trace drift, or oracle band breach; when
/// `--out` is given the report is written even on failure, so CI can
/// upload it as an artifact.
fn cmd_check(args: &Args) -> Result<String, ArgError> {
    let jobs: usize = args.num("jobs", 0)?;
    let scenarios: usize = args.num("scenarios", 50)?;
    let master_seed: u64 = args.num("master-seed", 7)?;
    let shards: usize = args.num("shards", 1)?;
    let golden_path =
        std::path::Path::new(args.get("golden-dir").unwrap_or("tests/golden")).join(GOLDEN_FILE);
    // `--cc` is validated up front so a typo fails before the sweep runs.
    let cc_battery = match args.get("cc") {
        None => false,
        Some(key) if key == "all" || CcSpec::from_key(key).is_some() => true,
        Some(key) => {
            let known: Vec<&str> = CcSpec::ALL.iter().map(|c| c.key()).collect();
            return Err(ArgError(format!(
                "--cc must be 'all' or a registry key ({}); got '{key}'",
                known.join(", ")
            )));
        }
    };
    let runner = runner_of(args, None)?;
    let report_file = Output::of(args, "out")?;
    let mut out = String::new();
    let mut problems: Vec<String> = Vec::new();

    // 1. A whole figure smoke sweep with the invariant checkers on.
    let specs: Vec<ExperimentSpec> = gain_figure_specs(GainFigure::Fig06, &FigureGrid::smoke())
        .into_iter()
        .map(ExperimentSpec::checked)
        .collect();
    let report = runner.run(&specs);
    let clean = report
        .records
        .iter()
        .filter(|r| matches!(r.outcome, RunOutcome::Point { .. }))
        .count();
    let _ = writeln!(
        out,
        "invariants: fig06 smoke sweep under checks: {clean}/{} runs clean ({:.2} s wall)",
        report.records.len(),
        report.wall.as_secs_f64()
    );
    for r in &report.records {
        if let RunOutcome::Failed { reason } | RunOutcome::Infeasible { reason } = &r.outcome {
            problems.push(format!("invariants: {}: {reason}", r.id));
        }
    }

    // 2. Golden-trace digests.
    match pdos_conformance::compute_digests(jobs) {
        Err(e) => problems.push(format!("golden: {e}")),
        Ok(digests) => {
            if args.flag("bless") {
                if let Some(dir) = golden_path.parent() {
                    std::fs::create_dir_all(dir)
                        .map_err(|e| ArgError(format!("cannot create {}: {e}", dir.display())))?;
                }
                std::fs::write(
                    &golden_path,
                    pdos_conformance::golden::format_digests(&digests),
                )
                .map_err(|e| ArgError(format!("cannot write {}: {e}", golden_path.display())))?;
                let _ = writeln!(
                    out,
                    "golden: blessed {} digests into {}",
                    digests.len(),
                    golden_path.display()
                );
            } else {
                match std::fs::read_to_string(&golden_path) {
                    Err(e) => problems.push(format!(
                        "golden: cannot read {} ({e}); run `pdos check --bless`",
                        golden_path.display()
                    )),
                    Ok(text) => match pdos_conformance::golden::parse_digests(&text) {
                        Err(e) => problems.push(format!("golden: {e}")),
                        Ok(stored) => {
                            let drift = pdos_conformance::golden::compare(&digests, &stored);
                            let _ = writeln!(
                                out,
                                "golden: {} digests vs {}: {}",
                                digests.len(),
                                golden_path.display(),
                                if drift.is_empty() { "match" } else { "DRIFT" }
                            );
                            problems.extend(drift.into_iter().map(|d| format!("golden: {d}")));
                        }
                    },
                }
            }
        }
    }

    // 2b. Sharded-engine byte-identity (opt-in via `--shards N`). The
    // canonical set re-runs on a sharded engine; its digests must equal
    // the unsharded golden set exactly — sharding is contractually
    // invisible at digest resolution.
    if shards > 1 {
        match pdos_conformance::compute_digests_sharded(jobs, shards) {
            Err(e) => problems.push(format!("shards: --shards {shards}: {e}")),
            Ok(sharded) => match std::fs::read_to_string(&golden_path)
                .map_err(|e| format!("cannot read {} ({e})", golden_path.display()))
                .and_then(|text| pdos_conformance::golden::parse_digests(&text))
            {
                Err(e) => problems.push(format!("shards: {e}")),
                Ok(stored) => {
                    let drift = pdos_conformance::golden::compare(&sharded, &stored);
                    let _ = writeln!(
                        out,
                        "shards: --shards {shards}: {} digests vs {}: {}",
                        sharded.len(),
                        golden_path.display(),
                        if drift.is_empty() {
                            "byte-identical"
                        } else {
                            "DRIFT"
                        }
                    );
                    problems.extend(drift.into_iter().map(|d| format!("shards: {d}")));
                }
            },
        }
    }

    // 3. The analytic differential oracle.
    let oracle = pdos_conformance::run_oracle(&OracleConfig {
        scenarios,
        master_seed,
        jobs,
        ..OracleConfig::default()
    });
    out.push_str(&oracle.summary());
    if !oracle.pass() {
        problems.push("oracle: tolerance bands breached (see report)".into());
    }

    // 4. The congestion-control differential battery (opt-in via `--cc`).
    // Every registered algorithm simulates the same ECN-marked canonical
    // point; aliasing — two algorithms producing byte-identical traces —
    // means registry dispatch is broken and fails the suite.
    if cc_battery {
        match pdos_conformance::compute_cc_digests(jobs) {
            Err(e) => problems.push(format!("cc: {e}")),
            Ok(digests) => {
                for d in &digests {
                    let _ = writeln!(
                        out,
                        "cc: {} bins={} digest={:016x}",
                        d.name, d.n_bins, d.digest
                    );
                }
                let mut aliased = false;
                for i in 0..digests.len() {
                    for j in i + 1..digests.len() {
                        if digests[i].digest == digests[j].digest {
                            aliased = true;
                            problems.push(format!(
                                "cc: {} and {} produced identical traces — registry dispatch is aliasing algorithms",
                                digests[i].name, digests[j].name
                            ));
                        }
                    }
                }
                let _ = writeln!(
                    out,
                    "cc: differential battery over {} algorithms: {}",
                    digests.len(),
                    if aliased { "ALIASED" } else { "all distinct" }
                );
            }
        }
    }

    if let Some(file) = &report_file {
        let mut full = out.clone();
        for p in &problems {
            let _ = writeln!(full, "PROBLEM: {p}");
        }
        file.write(&full)?;
        let _ = writeln!(out, "report written to {}", file.path);
    }
    if problems.is_empty() {
        let _ = writeln!(out, "conformance: PASS");
        Ok(out)
    } else {
        Err(ArgError(format!(
            "conformance: FAIL ({} problem(s))\n{}\n{out}",
            problems.len(),
            problems.join("\n")
        )))
    }
}

/// `pdos fuzz --replay` — re-runs one repro file; fails while the
/// recorded violation still reproduces.
fn cmd_fuzz_replay(args: &Args) -> Result<String, ArgError> {
    let path = args.get("replay").unwrap_or_default();
    let text =
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    let repro = pdos_fuzz::parse_repro(&text).map_err(ArgError)?;
    match pdos_fuzz::replay_repro(&repro) {
        None => Ok(format!(
            "replay {path}: case {} passes — the recorded {} no longer reproduces\n",
            repro.id,
            repro.class.as_str()
        )),
        Some((class, detail)) if class == repro.class => Err(ArgError(format!(
            "replay {path}: REPRODUCED {} on case {}: {detail}",
            class.as_str(),
            repro.id
        ))),
        Some((class, detail)) => Err(ArgError(format!(
            "replay {path}: case {} now fails as {} (recorded {}): {detail}",
            repro.id,
            class.as_str(),
            repro.class.as_str()
        ))),
    }
}

/// `pdos fuzz` — the scenario fuzzing campaign. Violations are shrunk,
/// written as `.repro` files when `--repro-dir` is given, and fail the
/// command with a non-zero exit; the `--out` report is written even on
/// failure, so CI can upload it as an artifact.
fn cmd_fuzz(args: &Args) -> Result<String, ArgError> {
    let cfg = pdos_fuzz::CampaignConfig {
        scenarios: args.num("scenarios", 200)?,
        master_seed: args.num("master-seed", 7)?,
        budget_sim_secs: args.num("budget-secs", 0)?,
        jobs: args.num("jobs", 0)?,
        fault: pdos_fuzz::fault_from_str(args.get("fault").unwrap_or("none")).map_err(ArgError)?,
        shrink_budget: args.num("shrink-budget", 64)?,
        ..pdos_fuzz::CampaignConfig::default()
    };
    let report_file = Output::of(args, "out")?;
    let mut report = pdos_fuzz::run_campaign(&cfg);
    if !report.pass() {
        pdos_fuzz::shrink_report(&mut report, &cfg);
    }
    let mut out = report.summary();
    if let Some(dir) = args.get("repro-dir") {
        if !report.pass() {
            std::fs::create_dir_all(dir)
                .map_err(|e| ArgError(format!("cannot create {dir}: {e}")))?;
            for v in &report.violations {
                let name = format!("{}.repro", v.case.id.replace('/', "-"));
                let path = std::path::Path::new(dir).join(&name);
                std::fs::write(&path, pdos_fuzz::format_repro(v, &cfg))
                    .map_err(|e| ArgError(format!("cannot write {}: {e}", path.display())))?;
            }
            let _ = writeln!(
                out,
                "wrote {} repro file(s) to {dir}",
                report.violations.len()
            );
        }
    }
    if let Some(file) = &report_file {
        file.write(&report.to_json())?;
        let _ = writeln!(out, "report written to {}", file.path);
    }
    if report.pass() {
        Ok(out)
    } else {
        Err(ArgError(format!(
            "fuzz: FAIL ({} violation(s))\n{out}",
            report.violations.len()
        )))
    }
}

/// The `pdos bench` gate on one macro's events/s: the current run may be
/// at most 20% slower than `base`, the baseline report's reading.
fn events_gate(
    report: &PerfReport,
    gate: &str,
    base: f64,
    out: &mut String,
    failures: &mut Vec<String>,
) -> Result<(), ArgError> {
    let now = report
        .macro_result(gate)
        .map(|m| m.events_per_sec())
        .ok_or_else(|| ArgError(format!("current run has no '{gate}' macro")))?;
    let ratio = now / base.max(1e-9);
    let _ = writeln!(
        out,
        "baseline gate: {gate} {:.0} events/s vs baseline {:.0} ({:+.1}%)",
        now,
        base,
        (ratio - 1.0) * 100.0
    );
    if ratio < 0.8 {
        failures.push(format!(
            "{gate} regressed {:.1}% ({now:.0} events/s vs {base:.0}; >20% budget)",
            (1.0 - ratio) * 100.0
        ));
    }
    Ok(())
}

/// `pdos bench` — the engine performance harness. Writes a
/// `BENCH_<date>.json` report (schema `pdos-bench/4`) and, with
/// `--baseline`, enforces the CI regression gates: the fig06-smoke and
/// flow-bank-smoke macros must stay within 20% of the baseline report's
/// events/sec, peak RSS and allocation count must stay within 30%, and
/// the fig06-grid-warmstart macro must keep forked sweeps at least 1.3x
/// faster than cold ones. Baselines in the older `pdos-bench/1`–`/3`
/// schemas are accepted (their missing fields simply skip the
/// corresponding gates). With `--shards N` the million-flow macro also
/// runs on the sharded engine, and the sharded leg must beat the
/// sequential one — except on 1-core hosts, where that gate records
/// itself as skipped (no parallelism to measure). With `--profile` the
/// scale macros run under the engine's self-profiler and the report
/// carries the per-event-type cost breakdown.
fn cmd_bench(args: &Args) -> Result<String, ArgError> {
    let shards: usize = args.num("shards", 1)?;
    let report_file = Output::of(args, "out")?;
    let report = pdos_bench::perf::run(args.flag("smoke"), shards, args.flag("profile"));
    let report_file = match report_file {
        Some(file) => file,
        None => Output::create(&format!("BENCH_{}.json", report.date))?,
    };
    report_file.write(&report.to_json())?;
    let mut out = report.summary();
    let _ = writeln!(out, "report written to {}", report_file.path);
    if let Some(baseline_path) = args.get("baseline") {
        let baseline = std::fs::read_to_string(baseline_path)
            .map_err(|e| ArgError(format!("cannot read {baseline_path}: {e}")))?;
        if !pdos_bench::perf::schema_supported(&baseline) {
            return Err(ArgError(format!(
                "{baseline_path}: unsupported schema (want pdos-bench/1 through /4)"
            )));
        }
        let mut failures: Vec<String> = Vec::new();

        let gate = "fig06-smoke";
        let base = pdos_bench::perf::extract_macro_events_per_sec(&baseline, gate)
            .ok_or_else(|| ArgError(format!("{baseline_path}: no '{gate}' events_per_sec")))?;
        events_gate(&report, gate, base, &mut out, &mut failures)?;

        // The mid-size scale gate: same 20% budget as fig06-smoke.
        // Baselines from before the flow-bank tier (schemas /1–/3) skip
        // it with a record rather than failing.
        let gate = "flow-bank-smoke";
        match pdos_bench::perf::extract_macro_events_per_sec(&baseline, gate) {
            Some(base) => events_gate(&report, gate, base, &mut out, &mut failures)?,
            None => {
                let _ = writeln!(
                    out,
                    "baseline gate: {gate} skipped (baseline predates the flow-bank tier)"
                );
            }
        }

        // The sharded-speedup gate: when the report carries a sharded
        // million-flow leg, sharding must not lose to the sequential
        // engine — but only where the host can physically parallelize.
        // On a 1-core host the gate is recorded as skipped instead of
        // silently passing (or flakily failing on scheduler noise).
        if let Some(sharded) = report
            .macros
            .iter()
            .find(|m| m.name.starts_with("million-flow-smoke-x"))
        {
            if report.host_cores < 2 {
                let _ = writeln!(
                    out,
                    "baseline gate: sharded-speedup skipped (host_cores=1: \
                     no parallelism to measure)"
                );
            } else if let Some(seq) = report.macro_result("million-flow-smoke") {
                let speedup = sharded.events_per_sec() / seq.events_per_sec().max(1e-9);
                let _ = writeln!(
                    out,
                    "baseline gate: sharded-speedup {speedup:.2}x \
                     ({} cores, floor 1.00x)",
                    report.host_cores
                );
                if speedup < 1.0 {
                    failures.push(format!(
                        "sharded million-flow leg slower than sequential \
                         ({speedup:.2}x on {} cores)",
                        report.host_cores
                    ));
                }
            }
        }

        // Resource gates: 30% budgets, enforced only when both reports
        // carry the reading (a /1 baseline without them skips the gate).
        if let (Some(base_rss), Some(now_rss)) = (
            pdos_bench::perf::extract_peak_rss_bytes(&baseline),
            report.peak_rss_bytes,
        ) {
            let ratio = now_rss as f64 / base_rss.max(1) as f64;
            let _ = writeln!(
                out,
                "baseline gate: peak RSS {:.1} MiB vs baseline {:.1} MiB ({:+.1}%)",
                now_rss as f64 / (1024.0 * 1024.0),
                base_rss as f64 / (1024.0 * 1024.0),
                (ratio - 1.0) * 100.0
            );
            if ratio > 1.3 {
                failures.push(format!(
                    "peak RSS grew {:.1}% ({now_rss} bytes vs {base_rss}; >30% budget)",
                    (ratio - 1.0) * 100.0
                ));
            }
        }
        if let (Some(base_allocs), Some(now_allocs)) = (
            pdos_bench::perf::extract_alloc_allocations(&baseline),
            report.alloc.as_ref().map(|a| a.allocations),
        ) {
            let ratio = now_allocs as f64 / base_allocs.max(1) as f64;
            let _ = writeln!(
                out,
                "baseline gate: allocations {now_allocs} vs baseline {base_allocs} ({:+.1}%)",
                (ratio - 1.0) * 100.0
            );
            if ratio > 1.3 {
                failures.push(format!(
                    "allocation count grew {:.1}% ({now_allocs} vs {base_allocs}; >30% budget)",
                    (ratio - 1.0) * 100.0
                ));
            }
        }

        // Warm-start gate: forked sweeps must stay meaningfully faster
        // than cold ones, independent of what the baseline recorded.
        if let Some(ws) = &report.warm_start {
            let _ = writeln!(
                out,
                "baseline gate: {} speedup {:.2}x (floor 1.30x)",
                ws.name,
                ws.speedup()
            );
            if ws.speedup() < 1.3 {
                failures.push(format!(
                    "{} speedup {:.2}x below 1.30x floor (cold {:.3} s, forked {:.3} s)",
                    ws.name,
                    ws.speedup(),
                    ws.cold_wall_secs,
                    ws.warm_wall_secs
                ));
            }
        }

        if !failures.is_empty() {
            return Err(ArgError(format!(
                "bench: FAIL vs {baseline_path} — {}\n{out}",
                failures.join("; ")
            )));
        }
    }
    Ok(out)
}

/// `pdos sync`.
fn cmd_sync(args: &Args) -> Result<String, ArgError> {
    let opts = RunOptions::read(args, 12, 50.0, 100.0)?;
    let period = duration(args, "period-s", 2.0, Unit::Secs)?;
    let extent = SimDuration::from_secs_f64(opts.t_extent);
    if period <= extent {
        return Err(ArgError("--period-s must exceed --textent-ms".into()));
    }
    let train = PulseTrain::new(extent, BitsPerSec::from_bps(opts.r_attack), period - extent)
        .map_err(|e| ArgError(e.to_string()))?;
    let result = SyncExperiment::new(opts.spec)
        .warmup(WARMUP)
        .window(opts.window)
        .run(train)
        .map_err(|e| ArgError(e.to_string()))?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "attack period              : {:.2} s",
        result.expected_period
    );
    let _ = writeln!(
        out,
        "pinnacles in {} s           : {}",
        opts.window.as_secs_f64(),
        result.peaks
    );
    if let Some(p) = result.period_from_peaks {
        let _ = writeln!(out, "period from peak count     : {p:.2} s");
    }
    if let Some(p) = result.period_from_autocorr {
        let _ = writeln!(out, "period from autocorrelation: {p:.2} s");
    }
    Ok(out)
}

/// `pdos detect` — over an externally supplied binned byte trace.
fn cmd_detect(args: &Args) -> Result<String, ArgError> {
    let path = args
        .get("csv")
        .ok_or_else(|| ArgError("missing required option --csv".into()))?;
    let capacity = positive(args, "capacity-mbps", None, Unit::Mbps)?;
    let bin_secs = duration(args, "bin-ms", 100.0, Unit::Millis)?.as_secs_f64();
    let bytes = read_trace(path)?;
    Ok(detect_report(&bytes, capacity, bin_secs))
}

/// Reads a non-empty trace file in the [`parse_trace`] format.
fn read_trace(path: &str) -> Result<Vec<u64>, ArgError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    let bytes = parse_trace(&text)?;
    if bytes.is_empty() {
        return Err(ArgError(format!("{path} contains no samples")));
    }
    Ok(bytes)
}

/// Parses a one-integer-per-line trace (blank lines and `#` comments
/// ignored).
///
/// # Errors
///
/// Returns [`ArgError`] naming the first bad line.
pub fn parse_trace(text: &str) -> Result<Vec<u64>, ArgError> {
    text.lines()
        .enumerate()
        .map(|(i, l)| (i, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
        .map(|(i, l)| {
            l.parse::<u64>()
                .map_err(|_| ArgError(format!("line {}: '{l}' is not a byte count", i + 1)))
        })
        .collect()
}

/// Formats a trace one integer per line, as `pdos simulate --trace-out`
/// writes it and [`parse_trace`] reads it.
fn format_trace(bins: &[u64]) -> String {
    bins.iter().map(|b| format!("{b}\n")).collect()
}

/// Runs both detectors over a binned trace and formats the report.
pub fn detect_report(bytes: &[u64], capacity_bps: f64, bin_secs: f64) -> String {
    let volume = RateDetector::conventional(capacity_bps, bin_secs).run(bytes);
    let series: Vec<f64> = bytes.iter().map(|&b| b as f64).collect();
    let max_period = (bytes.len() / 3).max(3);
    let spectral = SpectralDetector::new(2, max_period, 12.0).sweep(&series);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "samples: {} bins of {:.0} ms",
        bytes.len(),
        bin_secs * 1000.0
    );
    let _ = writeln!(
        out,
        "volume detector   : {} (final EWMA utilization {:.3})",
        if volume.detected { "ALARM" } else { "quiet" },
        volume.final_utilization
    );
    match spectral.dominant_period {
        Some(p) => {
            let _ = writeln!(
                out,
                "spectral detector : PERIODIC, dominant period ~ {:.2} s (power ratio {:.1})",
                p as f64 * bin_secs,
                spectral.peak_power / spectral.median_power.max(1e-12)
            );
        }
        None => {
            let _ = writeln!(out, "spectral detector : no dominant period");
        }
    }
    // CUSUM runs on both the raw volume (mean shifts: floods) and the
    // successive-difference dispersion (spikiness: pulsing attacks).
    let calib = (bytes.len() / 4).clamp(2, 100);
    let on_mean = CusumDetector::new(calib, 0.5, 8.0).scan(bytes);
    let dispersion = dispersion(bytes);
    let on_dispersion = CusumDetector::new(
        calib.min(dispersion.len().saturating_sub(1).max(2)),
        0.5,
        8.0,
    )
    .scan(&dispersion);
    let describe = |scan: &pdos_detect::cusum::CusumScan| match scan {
        pdos_detect::cusum::CusumScan::Report(rep) => match (rep.detected, rep.onset_bin) {
            (true, Some(onset)) => {
                format!("CHANGE at ~{:.1} s into the trace", onset as f64 * bin_secs)
            }
            _ => "no shift".to_string(),
        },
        pdos_detect::cusum::CusumScan::TooFewBins { needed, got } => {
            format!("uncalibrated ({got}/{needed} bins)")
        }
    };
    let _ = writeln!(out, "cusum (volume)    : {}", describe(&on_mean));
    let _ = writeln!(out, "cusum (dispersion): {}", describe(&on_dispersion));
    out
}

/// Feeds one binned trace through the online detector bank and collects
/// every alarm in the fixed bank order (cusum, rate, spectral) so the
/// stream is deterministic even when several detectors fire on one bin.
fn serve_alarms(bytes: &[u64], capacity_bps: f64, bin_secs: f64) -> Vec<Alarm> {
    let calib = (bytes.len() / 4).clamp(2, 100);
    let mut cusum = StreamingCusum::new(calib, 0.5, 8.0);
    let mut rate = StreamingRate::conventional(capacity_bps, bin_secs);
    let mut spectral = StreamingSpectral::conventional();
    let mut alarms = Vec::new();
    for &b in bytes {
        alarms.extend(cusum.push(b));
        alarms.extend(rate.push(b));
        alarms.extend(spectral.push(b));
    }
    alarms
}

/// `pdos serve --replay` — scores one recorded trace through the online
/// detector bank.
fn cmd_serve_replay(args: &Args) -> Result<String, ArgError> {
    let path = args.get("replay").unwrap_or_default();
    let capacity = positive(args, "capacity-mbps", None, Unit::Mbps)?;
    let bin_secs = duration(args, "bin-ms", 100.0, Unit::Millis)?.as_secs_f64();
    let bytes = read_trace(path)?;
    let stream_file = Output::of(args, "out")?;
    let head = format!("serve: replaying {} bins from {path}\n", bytes.len());
    let runs = [(path.to_string(), serve_alarms(&bytes, capacity, bin_secs))];
    serve_report(head, &runs, bin_secs, stream_file.as_ref())
}

/// `pdos serve` — the streaming detection service: simulates a scenario
/// set and scores every run's bottleneck trace bin by bin through the
/// online detector bank.
fn cmd_serve(args: &Args) -> Result<String, ArgError> {
    let bin = duration(args, "bin-ms", 100.0, Unit::Millis)?;
    let (scenario, specs) = scenario_set(args, "golden")?;
    let specs: Vec<ExperimentSpec> = specs.into_iter().map(|s| s.traced(bin).tapped()).collect();
    let runner = runner_of(args, None)?;
    let stream_file = Output::of(args, "out")?;
    let head = format!(
        "serve: scoring {} live runs from scenario set '{scenario}'\n",
        specs.len()
    );
    let report = runner.run(&specs);
    let mut runs = Vec::with_capacity(specs.len());
    for (spec, r) in specs.iter().zip(&report.records) {
        let trace = match &r.outcome {
            RunOutcome::Point { trace, .. } | RunOutcome::Benign { trace, .. } => trace,
            RunOutcome::Infeasible { reason } | RunOutcome::Failed { reason } => {
                return Err(ArgError(format!("{}: {reason}", spec.id)));
            }
        };
        let capacity = spec.scenario.bottleneck.as_bps();
        runs.push((
            spec.id.clone(),
            serve_alarms(trace, capacity, bin.as_secs_f64()),
        ));
    }
    serve_report(head, &runs, bin.as_secs_f64(), stream_file.as_ref())
}

/// Appends each alarm and the `pdos-detect/1` alarm stream (to `file` if
/// given) to `out`. The stream never mentions worker counts or wall-clock,
/// so it is byte-identical across `--jobs`.
fn serve_report(
    mut out: String,
    runs: &[(String, Vec<Alarm>)],
    bin_secs: f64,
    file: Option<&Output>,
) -> Result<String, ArgError> {
    let mut total = 0usize;
    for (id, alarms) in runs {
        for a in alarms {
            let _ = writeln!(
                out,
                "{id}: {} alarm at bin {} (t={:.1} s, statistic {:.3})",
                a.detector,
                a.bin,
                a.bin as f64 * bin_secs,
                a.statistic
            );
        }
        total += alarms.len();
    }
    let _ = writeln!(out, "serve: {total} alarm(s) across {} run(s)", runs.len());

    let json = alarm_stream_json(runs, bin_secs);
    match file {
        Some(file) => {
            file.write(&json)?;
            let _ = writeln!(out, "alarm stream written to {}", file.path);
        }
        None => {
            let _ = writeln!(out, "{json}");
        }
    }
    Ok(out)
}

/// Dispatches a parsed command line to the mode it selects, once every
/// option and flag given is one that mode reads.
///
/// # Errors
///
/// Returns [`ArgError`] for unknown commands, options the mode does not
/// read, or command failures.
pub fn run(args: &Args) -> Result<String, ArgError> {
    if args.flag("help") || matches!(args.command.as_str(), "help" | "--help" | "-h") {
        return Ok(HELP.to_string());
    }
    match args.mode()?.name() {
        "solve" => cmd_solve(args),
        "simulate" => cmd_simulate(args),
        "sweep" => cmd_sweep(args),
        "sweep --fig" => cmd_sweep_figure(args),
        "sweep --fig roc" => cmd_sweep_roc(args),
        "sync" => cmd_sync(args),
        "detect" => cmd_detect(args),
        "serve --replay" => cmd_serve_replay(args),
        "serve" => cmd_serve(args),
        "metrics" => cmd_metrics(args),
        "check" => cmd_check(args),
        "fuzz --replay" => cmd_fuzz_replay(args),
        "fuzz" => cmd_fuzz(args),
        "bench" => cmd_bench(args),
        other => unreachable!("mode `{other}` of the table has no handler"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).expect("parses")
    }

    #[test]
    fn help_is_reachable_every_way() {
        assert!(run(&parse("help")).unwrap().contains("USAGE"));
        assert!(run(&parse("solve --help")).unwrap().contains("USAGE"));
    }

    #[test]
    fn unknown_command_rejected() {
        let e = run(&parse("frobnicate")).unwrap_err();
        assert!(e.to_string().contains("unknown command"));
    }

    #[test]
    fn solve_prints_the_optimum_and_what_if() {
        let out = run(&parse("solve --flows 25 --textent-ms 75 --rattack-mbps 30")).unwrap();
        assert!(out.contains("gamma*"));
        assert!(out.contains("what-if"));
        assert!(out.contains("double bottleneck capacity"));
        // Corollary 3: neutral gamma* = sqrt(C_psi); both printed.
        assert!(out.contains("period T_AIMD"));
    }

    #[test]
    fn solve_respects_kappa() {
        let neutral = run(&parse("solve --kappa 1.0")).unwrap();
        let averse = run(&parse("solve --kappa 8.0")).unwrap();
        let g = |s: &str| -> f64 {
            s.lines()
                .find(|l| l.contains("gamma*"))
                .and_then(|l| l.split('=').nth(1))
                .and_then(|v| v.trim().parse().ok())
                .expect("gamma* line")
        };
        assert!(g(&averse) < g(&neutral));
    }

    #[test]
    fn solve_plans_for_a_damage_target() {
        let out = run(&parse("solve --flows 25 --target-degradation 0.5")).unwrap();
        assert!(out.contains("quietest attack reaching 50%"), "{out}");
        assert!(out.contains("exposure factor"), "{out}");
        // Infeasible targets surface the model's explanation.
        let err = run(&parse("solve --flows 25 --target-degradation 0.95")).unwrap_err();
        assert!(err.to_string().contains("flood"), "{err}");
    }

    #[test]
    fn solve_rejects_bad_kappa() {
        assert!(run(&parse("solve --kappa -1")).is_err());
    }

    #[test]
    fn queue_parsing() {
        assert!(run(&parse("sweep --queue nonsense --points 2")).is_err());
    }

    #[test]
    fn trace_parsing_accepts_comments_and_rejects_garbage() {
        let ok = parse_trace("# header\n100\n\n200\n").unwrap();
        assert_eq!(ok, vec![100, 200]);
        let err = parse_trace("100\nxyz\n").unwrap_err();
        assert!(err.to_string().contains("line 2"));
    }

    /// Characters that make up trace lines, digits and `#` comments
    /// among them, for random traces.
    const TRACE_CHARS: [char; 16] = [
        '0', '1', '7', '9', ' ', '\t', '\n', '\n', '\r', '#', '-', '+', '.', 'x', 'é', '\0',
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn parse_trace_never_panics(picks in proptest::collection::vec(0..TRACE_CHARS.len(), 0..120)) {
            let text: String = picks.iter().map(|&i| TRACE_CHARS[i]).collect();
            let _ = parse_trace(&text);
        }

        #[test]
        fn traces_round_trip(bins in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..40)) {
            proptest::prop_assert_eq!(parse_trace(&format_trace(&bins)).unwrap(), bins);
        }
    }

    #[test]
    fn detect_report_flags_flooding_and_periodicity() {
        // Flooding: full-capacity bins (15 Mbps, 100 ms bins = 187.5 kB).
        let flood = vec![187_500u64; 120];
        let rep = detect_report(&flood, 15e6, 0.1);
        assert!(rep.contains("ALARM"), "{rep}");

        // Pulsing: one big bin every 20.
        let pulses: Vec<u64> = (0..240)
            .map(|i| if i % 20 == 0 { 400_000 } else { 30_000 })
            .collect();
        let rep = detect_report(&pulses, 15e6, 0.1);
        assert!(rep.contains("quiet"), "{rep}");
        assert!(rep.contains("PERIODIC"), "{rep}");
        assert!(rep.contains("2.00 s"), "{rep}");
    }

    #[test]
    fn detect_requires_capacity() {
        let e = run(&parse("detect --csv nowhere.csv")).unwrap_err();
        assert!(e.to_string().contains("capacity-mbps"));
    }

    #[test]
    fn detect_reports_missing_file() {
        let e = run(&parse("detect --csv /nonexistent.csv --capacity-mbps 15")).unwrap_err();
        assert!(e.to_string().contains("cannot read"));
    }

    /// Options that size a duration, a rate or a bin are range-checked: a
    /// degenerate value is an error naming the option, raised before any
    /// file is written — never a panic (which aborts the release binary)
    /// or a NaN goodput.
    #[test]
    fn degenerate_numeric_options_are_errors_not_panics() {
        let trace = std::env::temp_dir().join("pdos_cli_degenerate_trace.txt");
        std::fs::write(&trace, "1000\n2000\n3000\n4000\n").unwrap();
        let trace = trace.to_str().expect("utf8 temp path");
        let unwritten = std::env::temp_dir().join("pdos_cli_degenerate_out.txt");
        let _ = std::fs::remove_file(&unwritten);
        let out = unwritten.to_str().expect("utf8 temp path");
        for (cmd, key) in [
            ("simulate --textent-ms -5".to_string(), "--textent-ms"),
            ("simulate --rattack-mbps nan".to_string(), "--rattack-mbps"),
            (format!("simulate --trace-out {out} --bin-ms 0"), "--bin-ms"),
            (
                "sweep --textent-ms -5 --points 2".to_string(),
                "--textent-ms",
            ),
            (
                format!("detect --csv {trace} --capacity-mbps 15 --bin-ms 0"),
                "--bin-ms",
            ),
            (
                format!("detect --csv {trace} --capacity-mbps 0"),
                "--capacity-mbps",
            ),
            (
                format!("serve --replay {trace} --capacity-mbps 15 --bin-ms -1"),
                "--bin-ms",
            ),
            ("simulate --window-s 0".to_string(), "--window-s"),
            (
                format!("simulate --flows 2 --window-s 2 --trace-out {out} --bin-ms 1e-7"),
                "--bin-ms",
            ),
            (
                "serve --scenario golden --bin-ms 1e-7".to_string(),
                "--bin-ms",
            ),
            ("simulate --flows 0".to_string(), "--flows"),
            ("sweep --flows 0 --points 2".to_string(), "--flows"),
            ("sync --flows 0".to_string(), "--flows"),
            ("solve --flows 0".to_string(), "--flows"),
            ("sync --period-s nan".to_string(), "--period-s"),
            ("sync --period-s -1".to_string(), "--period-s"),
            ("sync --rattack-mbps 1e308".to_string(), "--rattack-mbps"),
            (
                "simulate --min-rto-ms 70000 --window-s 2".to_string(),
                "--min-rto-ms",
            ),
            (
                "sweep --min-rto-ms 70000 --points 2 --window-s 1 --jobs 1".to_string(),
                "--min-rto-ms",
            ),
            (
                "sync --min-rto-ms 70000 --window-s 1".to_string(),
                "--min-rto-ms",
            ),
            (
                "simulate --flows 100000 --window-s 0.001".to_string(),
                "11585",
            ),
            (
                format!("detect --csv {trace} --capacity-mbps 1e308"),
                "--capacity-mbps",
            ),
            (
                format!("serve --replay {trace} --capacity-mbps 1e308"),
                "--capacity-mbps",
            ),
            (
                "simulate --flows 2 --window-s 1e-300".to_string(),
                "--window-s",
            ),
            (
                "sweep --flows 2 --points 2 --window-s 1e-300".to_string(),
                "--window-s",
            ),
            ("sync --flows 2 --window-s 0".to_string(), "--window-s"),
        ] {
            let err = run(&parse(&cmd)).expect_err(&cmd);
            assert!(err.to_string().contains(key), "{cmd}: {err}");
        }
        assert!(!unwritten.exists(), "a rejected simulate wrote its trace");
        let _ = std::fs::remove_file(trace);
    }

    /// An unwritable `--out` fails before the work: the fault drill below
    /// would write a repro file for each violation before the report, so
    /// an empty repro directory shows the campaign never ran.
    #[test]
    fn unwritable_output_fails_before_the_work() {
        let dir = std::env::temp_dir().join("pdos-cli-test-unwritable-out");
        let _ = std::fs::remove_dir_all(&dir);
        let cmd = format!(
            "fuzz --scenarios 2 --master-seed {} --jobs 1 --fault link-accounting \
             --repro-dir {} --out /nonexistent/f.json",
            fuzz_drill_seed(2),
            dir.display()
        );
        let err = run(&parse(&cmd)).unwrap_err();
        assert!(
            err.to_string().contains("cannot write /nonexistent/f.json"),
            "{err}"
        );
        assert!(!dir.exists(), "the campaign ran before --out was checked");
        for cmd in [
            "sweep --fig fig06 --jobs 1 --out /nonexistent/r.json",
            "simulate --flows 2 --window-s 1 --trace-out /nonexistent/t.txt",
            "metrics --out /nonexistent/m.json",
            "serve --out /nonexistent/a.json",
            "bench --out /nonexistent/b.json",
        ] {
            let err = run(&parse(cmd)).unwrap_err();
            assert!(
                err.to_string().contains("cannot write /nonexistent/"),
                "{cmd}: {err}"
            );
        }
    }

    /// `--bin-ms` only sizes the `--trace-out` bins, so it is an error
    /// without them rather than a silently ignored option.
    #[test]
    fn simulate_bin_width_needs_a_trace() {
        let err = run(&parse("simulate --flows 2 --window-s 1 --bin-ms 50")).unwrap_err();
        assert!(err.to_string().contains("--trace-out"), "{err}");
    }

    /// Every name each command's HELP block mentions is one its modes
    /// read, and every name they read is mentioned.
    #[test]
    fn help_names_exactly_the_options_each_command_reads() {
        use crate::args::{Mode, MODES};
        use std::collections::BTreeSet;
        let mut blocks: Vec<(&str, BTreeSet<&str>)> = Vec::new();
        let commands = HELP.lines().skip_while(|l| *l != "COMMANDS").skip(1);
        for line in commands.take_while(|l| !l.is_empty()) {
            if let Some(head) = line.strip_prefix("  ").filter(|l| !l.starts_with(' ')) {
                let command = head.split(' ').next().expect("a command name");
                blocks.push((command, BTreeSet::new()));
            }
            let named = line
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter_map(|word| word.strip_prefix("--"));
            blocks.last_mut().expect("a block").1.extend(named);
        }
        let command_of = |mode: &Mode| mode.name().split(' ').next().unwrap_or_default();
        for mode in MODES {
            let block = blocks
                .iter()
                .any(|(command, _)| *command == command_of(mode));
            assert!(block, "HELP has no block for {}", mode.name());
        }
        for (command, named) in blocks {
            let read: BTreeSet<&str> = MODES
                .iter()
                .filter(|mode| command_of(mode) == command)
                .flat_map(|mode| mode.reads())
                .collect();
            assert_eq!(named, read, "HELP block of {command}");
        }
    }

    // The simulate/sweep/sync paths run real (short) simulations; keep one
    // fast smoke test each.
    #[test]
    fn simulate_smoke() {
        let out = run(&parse(
            "simulate --flows 4 --gamma 0.4 --window-s 6 --textent-ms 75 --rattack-mbps 30",
        ))
        .unwrap();
        assert!(out.contains("degradation (model / sim)"), "{out}");
    }

    #[test]
    fn simulate_trace_out_roundtrips_into_detect() {
        let path = std::env::temp_dir().join("pdos_cli_trace_test.txt");
        let path_s = path.to_str().expect("utf8 temp path");
        let cmd = format!("simulate --flows 4 --gamma 0.4 --window-s 8 --trace-out {path_s}");
        let out = run(&parse(&cmd)).unwrap();
        assert!(out.contains("wrote"), "{out}");
        let detect_cmd = format!("detect --csv {path_s} --capacity-mbps 15 --bin-ms 100");
        let rep = run(&parse(&detect_cmd)).unwrap();
        assert!(rep.contains("volume detector"), "{rep}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn testbed_flag_switches_the_scenario() {
        let out = run(&parse(
            "simulate --testbed --flows 3 --gamma 0.3 --window-s 6 --rattack-mbps 20",
        ))
        .unwrap();
        // The test-bed bottleneck is 10 Mbps, so the baseline must be
        // below 10 Mbps (the dumbbell would show ~13).
        let line = out
            .lines()
            .find(|l| l.contains("baseline goodput"))
            .expect("baseline line");
        let mbps: f64 = line
            .split(':')
            .nth(1)
            .and_then(|v| v.trim().trim_end_matches(" Mbps").parse().ok())
            .expect("parse baseline");
        assert!(mbps < 10.5, "{line}");
    }

    #[test]
    fn sweep_smoke_emits_csv() {
        let out = run(&parse(
            "sweep --flows 3 --points 2 --window-s 5 --textent-ms 75 --rattack-mbps 30",
        ))
        .unwrap();
        assert!(out.starts_with("gamma,"), "{out}");
        assert!(out.lines().count() >= 3, "{out}");
    }

    #[test]
    fn sweep_csv_is_identical_at_any_job_count() {
        let base = "sweep --flows 3 --points 2 --window-s 5 --textent-ms 75 --rattack-mbps 30";
        let serial = run(&parse(&format!("{base} --jobs 1"))).unwrap();
        let parallel = run(&parse(&format!("{base} --jobs 4"))).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn sweep_fig_smoke_runs_and_writes_report() {
        let out_path = std::env::temp_dir().join("pdos-cli-test-fig06.json");
        let out = run(&parse(&format!(
            "sweep --fig fig06 --smoke --jobs 2 --out {}",
            out_path.display()
        )))
        .unwrap();
        assert!(out.contains("fig06: 4 runs"), "{out}");
        assert!(out.contains("runs/s"), "{out}");
        let json = std::fs::read_to_string(&out_path).unwrap();
        std::fs::remove_file(&out_path).ok();
        assert!(json.contains("\"seed_policy\":\"from-scenario\""), "{json}");
        assert!(json.contains("\"status\":\"ok\""), "{json}");
    }

    #[test]
    fn sweep_fig_warm_start_matches_cold_hash_for_hash() {
        // The acceptance bar for warm-start checkpointing: the fig06 grid's
        // SweepReport JSON must be identical (per-run results, seeds,
        // baselines, traces) with forked runs and with cold runs. Only the
        // wall-clock fields may differ, so compare from "runs": onward.
        let warm_path = std::env::temp_dir().join("pdos-cli-test-fig06-warm.json");
        let cold_path = std::env::temp_dir().join("pdos-cli-test-fig06-cold.json");
        run(&parse(&format!(
            "sweep --fig fig06 --smoke --jobs 2 --warm-start --out {}",
            warm_path.display()
        )))
        .unwrap();
        run(&parse(&format!(
            "sweep --fig fig06 --smoke --jobs 2 --no-warm-start --out {}",
            cold_path.display()
        )))
        .unwrap();
        let runs_of = |path: &std::path::Path| -> String {
            let json = std::fs::read_to_string(path).unwrap();
            json.split("\"runs\":")
                .nth(1)
                .expect("runs section")
                .to_string()
        };
        let (warm, cold) = (runs_of(&warm_path), runs_of(&cold_path));
        std::fs::remove_file(&warm_path).ok();
        std::fs::remove_file(&cold_path).ok();
        assert!(!warm.is_empty());
        assert_eq!(
            pdos_scenarios::runner::fnv1a64(warm.as_bytes()),
            pdos_scenarios::runner::fnv1a64(cold.as_bytes()),
            "warm-start must be bitwise result-neutral"
        );
        assert_eq!(warm, cold);
    }

    #[test]
    fn warm_start_flags_are_mutually_exclusive() {
        let e = run(&parse(
            "sweep --fig fig06 --smoke --warm-start --no-warm-start",
        ))
        .unwrap_err();
        assert!(e.to_string().contains("mutually exclusive"), "{e}");
    }

    #[test]
    fn sweep_fig_rejects_unknown_figure() {
        let e = run(&parse("sweep --fig fig42 --smoke")).unwrap_err();
        assert!(e.to_string().contains("fig06"), "{e}");
    }

    #[test]
    fn sweep_fig_cc_runs_per_algorithm_and_reports_the_optimum() {
        let out_path = std::env::temp_dir().join("pdos-cli-test-fig06-cubic.json");
        let out = run(&parse(&format!(
            "sweep --fig fig06 --smoke --jobs 2 --cc cubic --out {}",
            out_path.display()
        )))
        .unwrap();
        assert!(out.contains("cc=cubic: measured gamma* ="), "{out}");
        assert!(out.contains("mu* ="), "{out}");
        assert!(out.contains("analytic AIMD reference"), "{out}");
        let json = std::fs::read_to_string(&out_path).unwrap();
        std::fs::remove_file(&out_path).ok();
        // Every run id carries the algorithm tag, so reports never
        // collide with the legacy AIMD grid.
        assert!(json.contains("/cc-cubic"), "{json}");
    }

    #[test]
    fn sweep_fig_default_cc_is_byte_identical_to_explicit_aimd() {
        let default_path = std::env::temp_dir().join("pdos-cli-test-fig06-ccdefault.json");
        let aimd_path = std::env::temp_dir().join("pdos-cli-test-fig06-ccaimd.json");
        run(&parse(&format!(
            "sweep --fig fig06 --smoke --jobs 2 --out {}",
            default_path.display()
        )))
        .unwrap();
        run(&parse(&format!(
            "sweep --fig fig06 --smoke --jobs 2 --cc aimd --out {}",
            aimd_path.display()
        )))
        .unwrap();
        let runs_of = |path: &std::path::Path| -> String {
            let json = std::fs::read_to_string(path).unwrap();
            json.split("\"runs\":")
                .nth(1)
                .expect("runs section")
                .to_string()
        };
        let (default_runs, aimd_runs) = (runs_of(&default_path), runs_of(&aimd_path));
        std::fs::remove_file(&default_path).ok();
        std::fs::remove_file(&aimd_path).ok();
        // `--cc aimd` must be the legacy grid: same ids, seeds, traces.
        assert_eq!(default_runs, aimd_runs);
    }

    #[test]
    fn sweep_fig_rejects_unknown_cc() {
        let e = run(&parse("sweep --fig fig06 --smoke --cc tahoe99")).unwrap_err();
        assert!(
            e.to_string().contains("aimd, cubic, bbr-lite, dctcp"),
            "{e}"
        );
    }

    #[test]
    fn check_bless_then_verify_roundtrips() {
        // A tiny conformance pass against a temp golden dir: bless writes
        // the digests, the verify pass then matches them; --out lands the
        // report on disk both times. 4 oracle scenarios keep it fast —
        // the full 50-scenario run lives in the conformance crate's suite.
        let dir = std::env::temp_dir().join("pdos-cli-test-golden");
        let report_path = std::env::temp_dir().join("pdos-cli-test-check.txt");
        let _ = std::fs::remove_dir_all(&dir);
        let base = format!(
            "check --scenarios 4 --jobs 2 --golden-dir {} --out {}",
            dir.display(),
            report_path.display()
        );
        let blessed = run(&parse(&format!("{base} --bless"))).unwrap();
        assert!(blessed.contains("blessed 4 digests"), "{blessed}");
        assert!(blessed.contains("conformance: PASS"), "{blessed}");
        // The verify pass adds the sharded leg: the canonical set re-runs
        // on a two-shard engine and must match the file just blessed from
        // unsharded runs, digest for digest.
        let verified = run(&parse(&format!("{base} --shards 2"))).unwrap();
        assert!(verified.contains("golden:"), "{verified}");
        assert!(verified.contains("match"), "{verified}");
        assert!(
            verified.contains("shards: --shards 2: 4 digests"),
            "{verified}"
        );
        assert!(verified.contains("byte-identical"), "{verified}");
        assert!(verified.contains("conformance: PASS"), "{verified}");
        let report = std::fs::read_to_string(&report_path).unwrap();
        assert!(report.contains("oracle:"), "{report}");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(&report_path);
    }

    #[test]
    fn check_fails_on_golden_drift_but_still_writes_the_report() {
        let dir = std::env::temp_dir().join("pdos-cli-test-golden-drift");
        let report_path = std::env::temp_dir().join("pdos-cli-test-check-drift.txt");
        std::fs::create_dir_all(&dir).unwrap();
        // A stale golden file with a wrong digest for one canonical run.
        std::fs::write(
            dir.join(pdos_conformance::GOLDEN_FILE),
            "golden/ns2-benign bins=1 total=1 digest=0000000000000001\n",
        )
        .unwrap();
        let cmd = format!(
            "check --scenarios 4 --jobs 2 --golden-dir {} --out {}",
            dir.display(),
            report_path.display()
        );
        let err = run(&parse(&cmd)).unwrap_err();
        assert!(err.to_string().contains("conformance: FAIL"), "{err}");
        assert!(err.to_string().contains("golden:"), "{err}");
        // The report exists despite the failure (the CI artifact path).
        let report = std::fs::read_to_string(&report_path).unwrap();
        assert!(report.contains("PROBLEM: golden:"), "{report}");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(&report_path);
    }

    #[test]
    fn check_cc_battery_reports_distinct_algorithms() {
        let dir = std::env::temp_dir().join("pdos-cli-test-golden-cc");
        let _ = std::fs::remove_dir_all(&dir);
        let cmd = format!(
            "check --scenarios 4 --jobs 2 --cc all --bless --golden-dir {}",
            dir.display()
        );
        let out = run(&parse(&cmd)).unwrap();
        assert!(out.contains("cc: golden/cc-aimd"), "{out}");
        assert!(out.contains("cc: golden/cc-dctcp"), "{out}");
        assert!(
            out.contains("cc: differential battery over 4 algorithms: all distinct"),
            "{out}"
        );
        assert!(out.contains("conformance: PASS"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn check_rejects_unknown_cc() {
        let e = run(&parse("check --cc tahoe99 --scenarios 1")).unwrap_err();
        assert!(e.to_string().contains("'all' or a registry key"), "{e}");
    }

    #[test]
    fn metrics_smoke_writes_json_snapshot() {
        let out_path = std::env::temp_dir().join("pdos-cli-test-metrics.json");
        let out = run(&parse(&format!(
            "metrics --scenario fig06-smoke --jobs 2 --out {}",
            out_path.display()
        )))
        .unwrap();
        assert!(out.contains("fig06-smoke: merged"), "{out}");
        let json = std::fs::read_to_string(&out_path).unwrap();
        std::fs::remove_file(&out_path).ok();
        assert!(json.contains("\"schema\": \"pdos-metrics/1\""), "{json}");
        assert!(json.contains("\"scope\": \"link/0\""), "{json}");
        assert!(json.contains("\"scope\": \"flow/0\""), "{json}");
        assert!(json.contains("pops_packet_tier"), "{json}");
        assert!(json.contains("sweep_wall_nanos"), "{json}");
    }

    #[test]
    fn metrics_csv_prints_to_stdout_without_out() {
        let out = run(&parse(
            "metrics --scenario fig06-smoke --jobs 2 --format csv",
        ))
        .unwrap();
        assert!(out.contains("scope,name,kind,field,value"), "{out}");
        assert!(out.contains("link/0,enqueued,counter,value,"), "{out}");
    }

    #[test]
    fn metrics_rejects_unknown_scenario_and_format() {
        let e = run(&parse("metrics --scenario nonsense")).unwrap_err();
        assert!(e.to_string().contains("fig06-smoke"), "{e}");
        let e = run(&parse("metrics --format xml")).unwrap_err();
        assert!(e.to_string().contains("json or csv"), "{e}");
    }

    #[test]
    fn sync_smoke_reports_period() {
        let out = run(&parse(
            "sync --flows 4 --window-s 8 --period-s 2 --textent-ms 50 --rattack-mbps 100",
        ))
        .unwrap();
        assert!(out.contains("attack period"), "{out}");
    }

    #[test]
    fn sync_reads_fractional_extent_and_window() {
        let out = run(&parse(
            "sync --flows 2 --textent-ms 2.5 --window-s 2.5 --period-s 1",
        ))
        .unwrap();
        assert!(out.contains("pinnacles in 2.5 s"), "{out}");
    }

    #[test]
    fn sync_rejects_degenerate_period() {
        assert!(run(&parse("sync --period-s 0.01 --textent-ms 50")).is_err());
    }

    /// The smallest master seed whose generated set contains a
    /// multi-case dumbbell family (deterministic scan; see the fuzz
    /// crate's own suite for the same idiom).
    fn fuzz_drill_seed(n_cases: usize) -> u64 {
        (0u64..64)
            .find(|&s| {
                pdos_fuzz::gen::generate(s, n_cases)
                    .iter()
                    .any(|f| f.is_dumbbell() && f.cases.len() >= 2)
            })
            .expect("some small seed draws a dumbbell family")
    }

    #[test]
    fn fuzz_smoke_passes_and_reports_identically_at_any_job_count() {
        let seed = fuzz_drill_seed(4);
        let out_1 = std::env::temp_dir().join("pdos-cli-test-fuzz-j1.json");
        let out_2 = std::env::temp_dir().join("pdos-cli-test-fuzz-j2.json");
        let base = format!("fuzz --scenarios 4 --master-seed {seed}");
        let text = run(&parse(&format!(
            "{base} --jobs 1 --out {}",
            out_1.display()
        )))
        .unwrap();
        assert!(text.contains("no violations"), "{text}");
        assert!(text.contains("warm starts:"), "{text}");
        run(&parse(&format!(
            "{base} --jobs 2 --out {}",
            out_2.display()
        )))
        .unwrap();
        let (a, b) = (
            std::fs::read_to_string(&out_1).unwrap(),
            std::fs::read_to_string(&out_2).unwrap(),
        );
        let _ = std::fs::remove_file(&out_1);
        let _ = std::fs::remove_file(&out_2);
        assert!(a.starts_with("{\"schema\":\"pdos-fuzz/1\""), "{a}");
        assert_eq!(a, b, "the report must be byte-identical across --jobs");
    }

    #[test]
    fn fuzz_fault_drill_writes_repros_that_replay_red() {
        let seed = fuzz_drill_seed(2);
        let dir = std::env::temp_dir().join("pdos-cli-test-fuzz-repros");
        let report_path = std::env::temp_dir().join("pdos-cli-test-fuzz-drill.json");
        let _ = std::fs::remove_dir_all(&dir);
        let cmd = format!(
            "fuzz --scenarios 2 --master-seed {seed} --jobs 1 --fault link-accounting \
             --shrink-budget 12 --repro-dir {} --out {}",
            dir.display(),
            report_path.display()
        );
        let err = run(&parse(&cmd)).unwrap_err();
        assert!(err.to_string().contains("fuzz: FAIL"), "{err}");
        // The report was still written (the CI artifact path), and the
        // violations carry their shrunk cases.
        let json = std::fs::read_to_string(&report_path).unwrap();
        assert!(json.contains("\"status\":\"run-failed\""), "{json}");
        assert!(json.contains("\"shrunk\":{"), "{json}");

        // Every violation produced a repro file; replaying one under the
        // same fault reproduces the violation (non-zero exit).
        let mut repros: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        repros.sort();
        assert!(!repros.is_empty());
        let replay = format!("fuzz --replay {}", repros[0].display());
        let err = run(&parse(&replay)).unwrap_err();
        assert!(err.to_string().contains("REPRODUCED run-failed"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_file(&report_path);
    }

    #[test]
    fn fuzz_rejects_unknown_fault_and_missing_replay_file() {
        let e = run(&parse("fuzz --fault nonsense")).unwrap_err();
        assert!(e.to_string().contains("unknown fault"), "{e}");
        let e = run(&parse("fuzz --replay /nonexistent.repro")).unwrap_err();
        assert!(e.to_string().contains("cannot read"), "{e}");
    }

    #[test]
    fn bench_smoke_writes_a_report_and_passes_a_fair_baseline() {
        let out_path = std::env::temp_dir().join("pdos-cli-test-bench.json");
        let cmd = format!("bench --smoke --profile --out {}", out_path.display());
        let out = run(&parse(&cmd)).unwrap();
        assert!(out.contains("fig06-smoke"), "{out}");
        assert!(out.contains("event-queue"), "{out}");
        assert!(out.contains("flow-bank-smoke"), "{out}");
        assert!(out.contains("host cores"), "{out}");
        assert!(out.contains("profile (scale macros)"), "{out}");
        let json = std::fs::read_to_string(&out_path).unwrap();
        assert!(json.contains("\"schema\":\"pdos-bench/4\""), "{json}");
        assert!(json.contains("\"warm_start\":{"), "{json}");
        let eps = pdos_bench::perf::extract_macro_events_per_sec(&json, "fig06-smoke").unwrap();
        assert!(eps > 0.0, "{eps}");
        let eps = pdos_bench::perf::extract_macro_events_per_sec(&json, "flow-bank-smoke").unwrap();
        assert!(eps > 0.0, "{eps}");
        let bytes = pdos_bench::perf::extract_warm_start_checkpoint_bytes(&json).unwrap();
        assert!(bytes > 0, "{json}");
        assert!(pdos_bench::perf::extract_host_cores(&json).unwrap() >= 1);
        let delivers = pdos_bench::perf::extract_profile_kind_count(&json, "deliver").unwrap();
        assert!(delivers > 0, "{json}");

        // The report it just wrote is a same-speed baseline: the gate
        // must pass against it.
        let cmd = format!(
            "bench --smoke --out {} --baseline {}",
            out_path.display(),
            out_path.display()
        );
        let out = run(&parse(&cmd)).unwrap();
        assert!(out.contains("baseline gate"), "{out}");
        assert!(out.contains("flow-bank-smoke"), "{out}");
        assert!(out.contains("peak RSS"), "{out}");
        assert!(out.contains("fig06-grid-warmstart speedup"), "{out}");
        let _ = std::fs::remove_file(&out_path);
    }

    #[test]
    fn bench_flow_bank_gate_skips_on_pre_tier_baselines() {
        let base_path = std::env::temp_dir().join("pdos-cli-test-bench-v3base.json");
        let out_path = std::env::temp_dir().join("pdos-cli-test-bench-v3base-out.json");
        // A /3 baseline: fig06-smoke gates; the flow-bank gate must be
        // recorded as skipped, not failed.
        std::fs::write(
            &base_path,
            "{\"schema\":\"pdos-bench/3\",\"macros\":[{\"name\":\"fig06-smoke\",\
             \"events_per_sec\":1.0}]}",
        )
        .unwrap();
        let cmd = format!(
            "bench --smoke --out {} --baseline {}",
            out_path.display(),
            base_path.display()
        );
        let out = run(&parse(&cmd)).unwrap();
        assert!(
            out.contains("flow-bank-smoke skipped (baseline predates"),
            "{out}"
        );
        let _ = std::fs::remove_file(&base_path);
        let _ = std::fs::remove_file(&out_path);
    }

    #[test]
    fn bench_baseline_rejects_unknown_schema() {
        let base_path = std::env::temp_dir().join("pdos-cli-test-bench-badschema.json");
        let out_path = std::env::temp_dir().join("pdos-cli-test-bench-badschema-out.json");
        std::fs::write(&base_path, "{\"schema\":\"pdos-bench/99\",\"macros\":[]}").unwrap();
        let cmd = format!(
            "bench --smoke --out {} --baseline {}",
            out_path.display(),
            base_path.display()
        );
        let err = run(&parse(&cmd)).unwrap_err();
        assert!(err.to_string().contains("unsupported schema"), "{err}");
        let _ = std::fs::remove_file(&base_path);
        let _ = std::fs::remove_file(&out_path);
    }

    #[test]
    fn bench_baseline_gate_fails_on_a_big_regression() {
        let base_path = std::env::temp_dir().join("pdos-cli-test-bench-base.json");
        let out_path = std::env::temp_dir().join("pdos-cli-test-bench-out.json");
        // A fabricated baseline claiming an impossibly fast engine.
        std::fs::write(
            &base_path,
            "{\"schema\":\"pdos-bench/1\",\"macros\":[{\"name\":\"fig06-smoke\",\
             \"events_per_sec\":900000000000.0}]}",
        )
        .unwrap();
        let cmd = format!(
            "bench --smoke --out {} --baseline {}",
            out_path.display(),
            base_path.display()
        );
        let err = run(&parse(&cmd)).unwrap_err();
        assert!(err.to_string().contains("regressed"), "{err}");
        let _ = std::fs::remove_file(&base_path);
        let _ = std::fs::remove_file(&out_path);
    }

    #[test]
    fn serve_replay_scores_a_recorded_trace() {
        let path = std::env::temp_dir().join("pdos-cli-test-serve-replay.txt");
        let out = run(&parse(&format!(
            "simulate --flows 4 --gamma 0.4 --window-s 8 --trace-out {}",
            path.display()
        )))
        .unwrap();
        assert!(out.contains("bins to"), "{out}");
        let served = run(&parse(&format!(
            "serve --replay {} --capacity-mbps 15",
            path.display()
        )))
        .unwrap();
        assert!(served.contains("serve: replaying"), "{served}");
        assert!(served.contains("pdos-detect/1"), "{served}");
        assert!(served.contains("alarm(s) across 1 run(s)"), "{served}");
        let _ = std::fs::remove_file(&path);
    }

    /// The golden and fig06-smoke streams carry no alarms, so this trace
    /// pins the exact alarm values: 500 bins of 100 ms on a 15 Mbps link,
    /// quiet (bins 0–199), then pulses on two bins in every 25 (200–399),
    /// then a flood (400–499), each bin plus the noise term
    /// `(i·2654435761) mod 7`. Every streaming detector fires on it, and
    /// every batch verdict of `detect` flips.
    #[test]
    fn serve_and_detect_pin_the_alarms_of_a_quiet_pulses_flood_trace() {
        let text: String = (0..500usize)
            .map(|i| {
                let base = match i {
                    0..=199 => 10_000,
                    200..=399 if i % 25 < 2 => 150_000,
                    200..=399 => 10_000,
                    _ => 190_000,
                };
                format!("{}\n", base + (i * 2654435761) % 7)
            })
            .collect();
        let path = std::env::temp_dir().join("pdos-cli-test-quiet-pulses-flood.txt");
        std::fs::write(&path, text).unwrap();
        let p = path.display();

        let served = run(&parse(&format!("serve --replay {p} --capacity-mbps 15"))).unwrap();
        assert_eq!(
            served,
            format!(
                "serve: replaying 500 bins from {p}\n\
                 {p}: cusum alarm at bin 200 (t=20.0 s, statistic 13995.616)\n\
                 {p}: spectral alarm at bin 255 (t=25.5 s, statistic 17.604)\n\
                 {p}: rate alarm at bin 446 (t=44.6 s, statistic 0.930)\n\
                 serve: 3 alarm(s) across 1 run(s)\n\
                 {{\"schema\":\"pdos-detect/1\",\"bin_secs\":0.1,\"runs\":[{{\"id\":\"{p}\",\"alarms\":[\
                 {{\"detector\":\"cusum\",\"bin\":200,\"statistic\":13995.61616126778}},\
                 {{\"detector\":\"spectral\",\"bin\":255,\"statistic\":17.603907929471113}},\
                 {{\"detector\":\"rate\",\"bin\":446,\"statistic\":0.9299736854720556}}]}}]}}\n"
            )
        );

        let detected = run(&parse(&format!("detect --csv {p} --capacity-mbps 15"))).unwrap();
        assert_eq!(
            detected,
            "samples: 500 bins of 100 ms\n\
             volume detector   : ALARM (final EWMA utilization 1.008)\n\
             spectral detector : PERIODIC, dominant period ~ 16.60 s (power ratio 14.8)\n\
             cusum (volume)    : CHANGE at ~20.0 s into the trace\n\
             cusum (dispersion): CHANGE at ~19.9 s into the trace\n"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn serve_replay_requires_capacity() {
        let err = run(&parse("serve --replay nope.txt")).unwrap_err();
        assert!(err.to_string().contains("capacity-mbps"), "{err}");
        let err = run(&parse("serve --scenario warp-core")).unwrap_err();
        assert!(err.to_string().contains("golden or fig06-smoke"), "{err}");
    }

    #[test]
    fn serve_live_is_byte_identical_at_any_job_count() {
        let one = run(&parse("serve --scenario fig06-smoke --jobs 1")).unwrap();
        let two = run(&parse("serve --scenario fig06-smoke --jobs 2")).unwrap();
        assert_eq!(one, two, "the alarm stream must not depend on --jobs");
        assert!(one.contains("pdos-detect/1"), "{one}");
    }

    #[test]
    fn serve_replay_matches_live_on_the_same_trace() {
        // Score the first fig06-smoke run live, then record its trace
        // and replay it — the per-run alarm sequences must coincide.
        let live_path = std::env::temp_dir().join("pdos-cli-test-serve-live.json");
        run(&parse(&format!(
            "serve --scenario fig06-smoke --jobs 2 --out {}",
            live_path.display()
        )))
        .unwrap();
        let live_json = std::fs::read_to_string(&live_path).unwrap();

        let spec = gain_figure_specs(GainFigure::Fig06, &FigureGrid::smoke())
            .remove(0)
            .traced(SimDuration::from_millis(100))
            .tapped();
        let record = SweepRunner::new(0)
            .seed_policy(SeedPolicy::FromScenario)
            .jobs(1)
            .execute_one(&spec);
        let trace = match &record.outcome {
            RunOutcome::Point { trace, .. } | RunOutcome::Benign { trace, .. } => trace.clone(),
            other => panic!("unexpected outcome {other:?}"),
        };
        let trace_path = std::env::temp_dir().join("pdos-cli-test-serve-trace.txt");
        let text: String = trace.iter().map(|b| format!("{b}\n")).collect();
        std::fs::write(&trace_path, text).unwrap();
        let replay_path = std::env::temp_dir().join("pdos-cli-test-serve-replay.json");
        run(&parse(&format!(
            "serve --replay {} --capacity-mbps 15 --out {}",
            trace_path.display(),
            replay_path.display()
        )))
        .unwrap();
        let replay_json = std::fs::read_to_string(&replay_path).unwrap();

        // Alarm objects contain no nested brackets, so the first
        // "alarms":[...] segment of each stream is directly comparable.
        let alarms_of = |json: &str| -> String {
            json.split("\"alarms\":[")
                .nth(1)
                .expect("stream has a run")
                .split(']')
                .next()
                .unwrap()
                .to_string()
        };
        assert_eq!(
            alarms_of(&live_json),
            alarms_of(&replay_json),
            "replaying the recorded trace must reproduce the live alarms"
        );
        for p in [&live_path, &trace_path, &replay_path] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn sweep_roc_smoke_reports_curves_and_auc() {
        let out_path = std::env::temp_dir().join("pdos-cli-test-roc.json");
        let out = run(&parse(&format!(
            "sweep --fig roc --smoke --jobs 2 --out {}",
            out_path.display()
        )))
        .unwrap();
        assert!(out.contains("scorer,threshold,tpr,fpr"), "{out}");
        assert!(out.contains("rate AUC"), "{out}");
        assert!(out.contains("cusum-dispersion AUC"), "{out}");
        let json = std::fs::read_to_string(&out_path).unwrap();
        assert!(json.starts_with("{\"schema\":\"pdos-roc/1\""), "{json}");
        assert!(json.contains("\"name\":\"rate\""), "{json}");
        let _ = std::fs::remove_file(&out_path);
    }

    #[test]
    fn sweep_roc_warm_start_matches_cold_hash_for_hash() {
        let warm_path = std::env::temp_dir().join("pdos-cli-test-roc-warm.json");
        let cold_path = std::env::temp_dir().join("pdos-cli-test-roc-cold.json");
        run(&parse(&format!(
            "sweep --fig roc --smoke --warm-start --out {}",
            warm_path.display()
        )))
        .unwrap();
        run(&parse(&format!(
            "sweep --fig roc --smoke --no-warm-start --out {}",
            cold_path.display()
        )))
        .unwrap();
        let warm = std::fs::read_to_string(&warm_path).unwrap();
        let cold = std::fs::read_to_string(&cold_path).unwrap();
        assert_eq!(
            pdos_scenarios::runner::fnv1a64(warm.as_bytes()),
            pdos_scenarios::runner::fnv1a64(cold.as_bytes()),
            "warm-started ROC curves must match the cold run hash-for-hash"
        );
        let _ = std::fs::remove_file(&warm_path);
        let _ = std::fs::remove_file(&cold_path);
    }
}
