//! The traced run: each workload replayed through the public calls of its
//! layers, with a span around every call.
//!
//! The sweep runner and the gain experiment keep their inner steps
//! private, so the replica is a copy of them that re-drives those steps
//! one level down — through `ScenarioSpec::build`,
//! `Testbench::checkpoint`/`fork`, `Simulator::run_until` and the
//! `pdos-analysis` gain formulas — in the order `SweepRunner::run` (one
//! worker, warm start on) and `GainExperiment` use. The harness checks
//! that the replica's report digest and its warm-up and fork counts equal
//! the untraced job's, so a replica that drifts from the program's
//! results or warm-start policy shows up as failed operations. The
//! copy's own bookkeeping (`runner.self_s`, `experiment.self_s`) is not
//! the program's: it runs on the main thread, without the runner's worker
//! thread, locks or panic guard.
//!
//! Every owned `Simulator` runs with the engine's self-profiler armed;
//! its per-event-kind counters are read as deltas around each
//! `run_until`, because a forked simulator inherits the warm-up's counts.

use crate::e2e::{self, bank_totals, million_outputs, MILLION_FLOWS, MILLION_SHARDS};
use crate::host;
use crate::json::Obj;
use pdos_analysis::gain::{attack_gain, attack_gain_measured, RiskPreference};
use pdos_analysis::model::{c_psi, degradation};
use pdos_attack::pulse::PulseTrain;
use pdos_attack::shrew::classify_shrew;
use pdos_bench::alloc::AllocSnapshot;
use pdos_bench::perf::build_million_flow_sim;
use pdos_cli::args::Args;
use pdos_conformance::{check_cusum_equivalence, check_point, digest_bins, ToleranceBands};
use pdos_detect::cusum::CusumDetector;
use pdos_detect::streaming::StreamingCusum;
use pdos_fuzz::gen::{self, Family};
use pdos_fuzz::topo::run_topology;
use pdos_fuzz::{
    shrink_report, CampaignConfig, CampaignReport, CampaignViolation, CaseParams, CaseResult,
    DumbbellCase, TopologyCase, ViolationClass,
};
use pdos_metrics::MetricsSnapshot;
use pdos_scenarios::bench::{BenchCheckpoint, Testbench};
use pdos_scenarios::classify::GainClass;
use pdos_scenarios::experiment::{ExperimentError, GainPoint};
use pdos_scenarios::runner::{
    derive_seed, fnv1a64, AttackPoint, ExperimentSpec, RunOutcome, RunRecord, SeedPolicy,
    SweepReport, SweepRunner, DEFAULT_CHECKPOINT_CAPACITY,
};
use pdos_scenarios::spec::ScenarioSpec;
use pdos_sim::engine::{SimStats, Simulator};
use pdos_sim::profile::{ProfileSnapshot, EVENT_KINDS};
use pdos_sim::time::{SimDuration, SimTime};
use pdos_sim::trace::{TraceFilter, TraceId};
use pdos_sim::units::BitsPerSec;
use std::collections::HashMap;
use std::time::Instant;

/// The layers whose self times partition the traced wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Parse,
    Build,
    ShardPlan,
    Engine,
    Take,
    Fork,
    Experiment,
    Runner,
    Oracle,
    Detect,
    Gen,
    Topology,
    Report,
}

impl Layer {
    pub const ALL: [Layer; 13] = [
        Layer::Parse,
        Layer::Build,
        Layer::ShardPlan,
        Layer::Engine,
        Layer::Take,
        Layer::Fork,
        Layer::Experiment,
        Layer::Runner,
        Layer::Oracle,
        Layer::Detect,
        Layer::Gen,
        Layer::Topology,
        Layer::Report,
    ];

    /// The metric carrying this layer's self time.
    pub fn metric(self) -> &'static str {
        match self {
            Layer::Parse => "cli.parse_s",
            Layer::Build => "spec.build_s",
            Layer::ShardPlan => "shard.plan_s",
            Layer::Engine => "engine.run_s",
            Layer::Take => "checkpoint.take_s",
            Layer::Fork => "checkpoint.fork_s",
            Layer::Experiment => "experiment.self_s",
            Layer::Runner => "runner.self_s",
            Layer::Oracle => "oracle.check_s",
            Layer::Detect => "detect.equivalence_s",
            Layer::Gen => "fuzz.gen_s",
            Layer::Topology => "fuzz.topology_s",
            Layer::Report => "cli.report_s",
        }
    }
}

/// Span bookkeeping: self time (span duration minus the part its child
/// spans cover) and call count per layer. Spans nest through an explicit
/// stack, so a layer's self time never double-counts its children.
#[derive(Default)]
pub struct Tracer {
    stack: Vec<(Instant, f64)>,
    self_s: [f64; Layer::ALL.len()],
    calls: [u64; Layer::ALL.len()],
}

impl Tracer {
    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self) {
        self.stack.push((Instant::now(), 0.0));
    }

    /// Closes the innermost span, attributing it to `layer`. Returns the
    /// span's full duration.
    pub fn exit(&mut self, layer: Layer) -> f64 {
        let (start, children) = self.stack.pop().expect("exit without a matching enter");
        let dur = start.elapsed().as_secs_f64();
        self.self_s[layer as usize] += dur - children;
        self.calls[layer as usize] += 1;
        if let Some(parent) = self.stack.last_mut() {
            parent.1 += dur;
        }
        dur
    }

    /// Runs `f` inside a span attributed to `layer`.
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        self.enter();
        let out = f();
        self.exit(layer);
        out
    }

    pub fn self_s(&self, layer: Layer) -> f64 {
        self.self_s[layer as usize]
    }

    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }
}

/// A prepared bench plus its bottleneck trace registration.
struct Run {
    bench: Testbench,
    trace: Option<(TraceId, SimDuration)>,
}

/// A checkpoint at the end of warm-up (the runner's `WarmStart`).
struct Warm {
    cp: BenchCheckpoint,
    trace: Option<(TraceId, SimDuration)>,
}

/// The runner's bounded checkpoint cache: least recently used first.
struct Lru {
    capacity: usize,
    cells: HashMap<u64, Option<Warm>>,
    order: Vec<u64>,
}

/// Why a replicated run produced no data.
enum Fail {
    /// Infeasible pulse parameters (the runner's `Infeasible` outcome).
    Pulse(String),
    /// Anything else (the runner's `Failed` outcome).
    Other(String),
}

impl From<ExperimentError> for Fail {
    fn from(e: ExperimentError) -> Fail {
        match e {
            ExperimentError::Pulse(_) => Fail::Pulse(e.to_string()),
            other => Fail::Other(other.to_string()),
        }
    }
}

/// Engine counters summed over every `run_until` the replica made.
#[derive(Default)]
struct EngineTotals {
    stats: SimStats,
    profile: ProfileSnapshot,
}

impl EngineTotals {
    fn add(&mut self, before: (SimStats, ProfileSnapshot), after: (SimStats, ProfileSnapshot)) {
        let (s0, p0) = before;
        let (s1, p1) = after;
        self.stats.events += s1.events - s0.events;
        self.stats.delivered += s1.delivered - s0.delivered;
        self.stats.unclaimed += s1.unclaimed - s0.unclaimed;
        self.stats.queue_drops += s1.queue_drops - s0.queue_drops;
        self.stats.ecn_marks += s1.ecn_marks - s0.ecn_marks;
        self.stats.routeless += s1.routeless - s0.routeless;
        for ((acc, a), b) in self.profile.kinds.iter_mut().zip(&p1.kinds).zip(&p0.kinds) {
            acc.count += a.count - b.count;
            acc.wall_nanos += a.wall_nanos - b.wall_nanos;
            acc.allocations += a.allocations - b.allocations;
            acc.alloc_bytes += a.alloc_bytes - b.alloc_bytes;
        }
    }
}

fn engine_reading(sim: &Simulator) -> (SimStats, ProfileSnapshot) {
    (sim.stats(), sim.profile_snapshot().unwrap_or_default())
}

/// The replica's state: the tracer plus every per-layer counter.
#[derive(Default)]
pub struct Replica {
    pub tr: Tracer,
    engine: EngineTotals,
    checkpoint_bytes: u64,
    run_walls: Vec<f64>,
    sweep_wall: f64,
    runs_failed: u64,
    /// Warm-ups and forked runs as the copy's `SweepReport`s count them.
    warmups: u64,
    forked_runs: u64,
    max_engaged: usize,
    detect_bins: u64,
    routeless_topology: u64,
}

impl Replica {
    /// `Simulator::run_until` (which `Testbench::run_until` delegates to).
    fn engine_run(&mut self, sim: &mut Simulator, until: SimTime) {
        let before = engine_reading(sim);
        self.tr.span(Layer::Engine, || sim.run_until(until));
        self.engine.add(before, engine_reading(sim));
    }

    /// `GainExperiment::prepare`: build, wire observers, register the
    /// trace, shard — then arm the profiler.
    fn prepare(
        &mut self,
        spec: &ExperimentSpec,
        scenario: &ScenarioSpec,
        trace_bin: Option<SimDuration>,
    ) -> Result<Run, Fail> {
        let built = self.tr.span(Layer::Build, || scenario.build());
        let mut bench = built.map_err(ExperimentError::Build)?;
        if spec.checks {
            bench.sim.enable_checks();
        }
        if spec.metrics {
            bench.sim.enable_metrics();
        }
        if spec.detect {
            bench
                .sim
                .enable_tap(trace_bin.unwrap_or(SimDuration::from_millis(100)));
        }
        let trace = trace_bin.map(|bin| (bench.trace_bottleneck(TraceFilter::All, bin), bin));
        if spec.shards > 1 {
            let engaged = self
                .tr
                .span(Layer::ShardPlan, || bench.sim.enable_sharding(spec.shards));
            self.max_engaged = self.max_engaged.max(engaged);
        }
        bench.sim.enable_profiler();
        Ok(Run { bench, trace })
    }

    /// A cold run at the end of warm-up (no checkpoint).
    fn cold(
        &mut self,
        spec: &ExperimentSpec,
        scenario: &ScenarioSpec,
        trace_bin: Option<SimDuration>,
    ) -> Result<Run, Fail> {
        self.tr.enter();
        let run = self.prepare(spec, scenario, trace_bin).map(|mut run| {
            self.engine_run(&mut run.bench.sim, SimTime::ZERO + spec.warmup);
            run
        });
        self.tr.exit(Layer::Experiment);
        run
    }

    /// `GainExperiment::warm_start`: the cold prefix, then a checkpoint.
    fn warm_start(&mut self, spec: &ExperimentSpec, scenario: &ScenarioSpec) -> Option<Warm> {
        let run = self.cold(spec, scenario, spec.trace_bin).ok()?;
        let cp = self.tr.span(Layer::Take, || run.bench.checkpoint()).ok()?;
        self.checkpoint_bytes += cp.approx_bytes() as u64;
        Some(Warm {
            cp,
            trace: run.trace,
        })
    }

    /// The runner's `get_or_warm`: the LRU cell for `key`, warming the
    /// prefix on first use. Returns whether a warm-up ran.
    fn get_or_warm(
        &mut self,
        lru: &mut Lru,
        key: u64,
        spec: &ExperimentSpec,
        scenario: &ScenarioSpec,
    ) -> bool {
        lru.order.retain(|&k| k != key);
        lru.order.push(key);
        if lru.cells.contains_key(&key) {
            return false;
        }
        if lru.cells.len() >= lru.capacity {
            let evict = lru.order.remove(0);
            lru.cells.remove(&evict);
        }
        let warm = self.warm_start(spec, scenario);
        lru.cells.insert(key, warm);
        true
    }

    /// `GainExperiment::fork_run`.
    fn fork(&mut self, warm: Option<&Warm>) -> Option<Run> {
        let warm = warm?;
        let bench = self.tr.span(Layer::Fork, || Testbench::fork(&warm.cp));
        Some(Run {
            bench,
            trace: warm.trace,
        })
    }

    fn audit(&self, spec: &ExperimentSpec, bench: &Testbench) -> Result<(), Fail> {
        if !spec.checks {
            return Ok(());
        }
        let violations = bench.audit_violations();
        if violations.is_empty() {
            return Ok(());
        }
        let shown: Vec<String> = violations.iter().take(4).map(|v| v.to_string()).collect();
        let mut msg = format!("{} violation(s): {}", violations.len(), shown.join("; "));
        if violations.len() > shown.len() {
            msg.push_str("; ...");
        }
        Err(ExperimentError::Invariant(msg).into())
    }

    fn window_bins(&self, spec: &ExperimentSpec, run: &Run) -> Vec<u64> {
        run.trace
            .map(|(id, bin)| {
                let trace = run.bench.sim.trace(id);
                let first = (spec.warmup.as_nanos() / bin.as_nanos()) as usize;
                trace.bytes_per_bin()[first.min(trace.n_bins())..].to_vec()
            })
            .unwrap_or_default()
    }

    /// `GainExperiment::measure_baseline`.
    fn measure_baseline(
        &mut self,
        spec: &ExperimentSpec,
        mut run: Run,
    ) -> Result<(u64, Vec<u64>, Option<MetricsSnapshot>), Fail> {
        self.tr.enter();
        let before = run.bench.goodput_bytes();
        self.engine_run(
            &mut run.bench.sim,
            SimTime::ZERO + spec.warmup + spec.window,
        );
        let result = self.audit(spec, &run.bench).map(|()| {
            let bytes = run.bench.goodput_bytes() - before;
            let bins = self.window_bins(spec, &run);
            (bytes, bins, run.bench.metrics_snapshot())
        });
        self.tr.exit(Layer::Experiment);
        result
    }

    /// `GainExperiment::plan_train`.
    fn plan(scenario: &ScenarioSpec, attack: AttackPoint) -> Result<(PulseTrain, f64, f64), Fail> {
        let train = PulseTrain::from_gamma(
            SimDuration::from_secs_f64(attack.t_extent),
            BitsPerSec::from_bps(attack.r_attack),
            scenario.bottleneck,
            attack.gamma,
        )
        .map_err(ExperimentError::Pulse)?;
        let t_aimd = train.period().as_secs_f64();
        let c = c_psi(&scenario.victims(), attack.t_extent, attack.r_attack)
            .map_err(ExperimentError::Model)?;
        Ok((train, t_aimd, c))
    }

    /// `GainExperiment::measure_point`.
    #[allow(clippy::too_many_arguments)]
    fn measure_point(
        &mut self,
        spec: &ExperimentSpec,
        scenario: &ScenarioSpec,
        risk: RiskPreference,
        mut run: Run,
        plan: (PulseTrain, f64, f64),
        gamma: f64,
        baseline_bytes: u64,
    ) -> Result<(GainPoint, Vec<u64>, Option<MetricsSnapshot>), Fail> {
        self.tr.enter();
        let (train, t_aimd, c) = plan;
        let bench = &mut run.bench;
        bench.attach_pulse_attack(train, SimTime::ZERO + spec.warmup, None);
        let before = bench.goodput_bytes();
        let fr_before = bench.total_fast_recoveries();
        let to_before = bench.total_timeouts();
        self.engine_run(
            &mut run.bench.sim,
            SimTime::ZERO + spec.warmup + spec.window,
        );
        let result = self.audit(spec, &run.bench).map(|()| {
            let bench = &mut run.bench;
            let attacked = bench.goodput_bytes() - before;
            let degradation_sim = if baseline_bytes == 0 {
                0.0
            } else {
                (1.0 - attacked as f64 / baseline_bytes as f64).clamp(0.0, 1.0)
            };
            let g_analytic = attack_gain(gamma, c, risk);
            let g_sim = attack_gain_measured(gamma, degradation_sim, risk);
            let point = GainPoint {
                gamma,
                t_aimd,
                g_analytic,
                g_sim,
                degradation_analytic: degradation(gamma, c),
                degradation_sim,
                timeouts: bench.total_timeouts() - to_before,
                fast_recoveries: bench.total_fast_recoveries() - fr_before,
                shrew: classify_shrew(
                    SimDuration::from_secs_f64(t_aimd),
                    scenario.tcp.min_rto,
                    5,
                    0.05,
                ),
                class: GainClass::classify(g_analytic, g_sim, 0.12),
            };
            let snapshot = run.bench.metrics_snapshot();
            (point, self.window_bins(spec, &run), snapshot)
        });
        self.tr.exit(Layer::Experiment);
        result
    }

    /// `SweepRunner::execute` for one spec under `SeedPolicy::FromScenario`.
    fn execute(
        &mut self,
        master_seed: u64,
        spec: &ExperimentSpec,
        lru: &mut Lru,
        baselines: &mut HashMap<u64, Result<u64, String>>,
        counts: &mut (usize, usize),
    ) -> RunRecord {
        let started = Instant::now();
        let run_seed = derive_seed(master_seed, spec);
        let scenario = spec.scenario.clone();
        let record = |outcome, baseline_bytes, metrics, started: Instant| RunRecord {
            id: spec.id.clone(),
            run_seed,
            scenario_seed: scenario.seed,
            baseline_bytes,
            outcome,
            metrics,
            wall: started.elapsed(),
        };
        let risk = match RiskPreference::new(spec.kappa) {
            Ok(r) => r,
            Err(reason) => return record(RunOutcome::Failed { reason }, 0, None, started),
        };
        let baseline_key = fnv1a64(
            format!(
                "{:?}|{:?}|{:?}|{:?}",
                scenario, spec.warmup, spec.window, spec.fault
            )
            .as_bytes(),
        );
        let prefix_key = ExperimentSpec::prefix_hash_of(
            &scenario,
            spec.warmup,
            spec.trace_bin,
            spec.checks,
            spec.metrics,
            spec.detect,
            spec.shards,
        );
        if self.get_or_warm(lru, prefix_key, spec, &scenario) {
            counts.0 += 1;
        }
        let warm = lru.cells.get(&prefix_key).and_then(Option::as_ref);
        let mut fork = |me: &mut Replica| {
            let run = me.fork(warm);
            if run.is_some() {
                counts.1 += 1;
            }
            run
        };

        let outcome = match spec.attack {
            None => {
                let run = match fork(self) {
                    Some(run) => Ok(run),
                    None => self.cold(spec, &scenario, spec.trace_bin),
                };
                match run.and_then(|run| self.measure_baseline(spec, run)) {
                    Ok((goodput_bytes, trace, snapshot)) => {
                        return record(
                            RunOutcome::Benign {
                                goodput_bytes,
                                trace,
                            },
                            goodput_bytes,
                            snapshot,
                            started,
                        )
                    }
                    Err(Fail::Pulse(reason) | Fail::Other(reason)) => RunOutcome::Failed { reason },
                }
            }
            Some(attack) => {
                let baseline = match baselines.get(&baseline_key) {
                    Some(b) => b.clone(),
                    None => {
                        let run = match fork(self) {
                            Some(run) => Ok(run),
                            None => self.cold(spec, &scenario, None),
                        };
                        let b = match run.and_then(|run| self.measure_baseline(spec, run)) {
                            Ok((bytes, _, _)) => Ok(bytes),
                            Err(Fail::Pulse(e) | Fail::Other(e)) => Err(e),
                        };
                        baselines.insert(baseline_key, b.clone());
                        b
                    }
                };
                match baseline {
                    Err(reason) => RunOutcome::Failed { reason },
                    Ok(baseline) => {
                        let result = match fork(self) {
                            Some(run) => Self::plan(&scenario, attack).and_then(|plan| {
                                self.measure_point(
                                    spec,
                                    &scenario,
                                    risk,
                                    run,
                                    plan,
                                    attack.gamma,
                                    baseline,
                                )
                            }),
                            None => Self::plan(&scenario, attack).and_then(|plan| {
                                let run = self.cold(spec, &scenario, spec.trace_bin)?;
                                self.measure_point(
                                    spec,
                                    &scenario,
                                    risk,
                                    run,
                                    plan,
                                    attack.gamma,
                                    baseline,
                                )
                            }),
                        };
                        match result {
                            Ok((point, trace, snapshot)) => {
                                return record(
                                    RunOutcome::Point { point, trace },
                                    baseline,
                                    snapshot,
                                    started,
                                )
                            }
                            Err(Fail::Pulse(reason)) => RunOutcome::Infeasible { reason },
                            Err(Fail::Other(reason)) => RunOutcome::Failed { reason },
                        }
                    }
                }
            }
        };
        record(outcome, 0, None, started)
    }

    /// `SweepRunner::run` with one worker and warm start on.
    fn run_specs(
        &mut self,
        master_seed: u64,
        capacity: usize,
        specs: &[ExperimentSpec],
    ) -> SweepReport {
        let started = Instant::now();
        let mut lru = Lru {
            capacity: capacity.max(1),
            cells: HashMap::new(),
            order: Vec::new(),
        };
        let mut baselines = HashMap::new();
        let mut counts = (0, 0);
        let mut records = Vec::with_capacity(specs.len());
        for spec in specs {
            self.tr.enter();
            let record = self.execute(master_seed, spec, &mut lru, &mut baselines, &mut counts);
            self.tr.exit(Layer::Runner);
            self.run_walls.push(record.wall.as_secs_f64());
            if matches!(record.outcome, RunOutcome::Failed { .. }) {
                self.runs_failed += 1;
            }
            records.push(record);
        }
        let wall = started.elapsed();
        self.sweep_wall += wall.as_secs_f64();
        self.warmups += counts.0 as u64;
        self.forked_runs += counts.1 as u64;
        SweepReport {
            master_seed,
            jobs: 1,
            seed_policy: SeedPolicy::FromScenario,
            records,
            warmups: counts.0,
            forked_runs: counts.1,
            wall,
        }
    }
}

/// Classifies an oracle failure string (the campaign's private mapping).
fn classify_failure(detail: &str) -> ViolationClass {
    if detail.contains("out of range") {
        ViolationClass::GainRange
    } else if detail.contains("hard ceiling") {
        ViolationClass::OracleBand
    } else {
        ViolationClass::OracleIdentity
    }
}

/// What auditing one dumbbell record concluded.
struct DumbbellEval {
    g_sim: Option<f64>,
    trace: Vec<u64>,
    violation: Option<(ViolationClass, String)>,
    right_err: Option<f64>,
    within: bool,
}

impl Replica {
    /// The campaign's dumbbell audit: oracle point check, then the
    /// batch-vs-streaming detector equivalence on `detect=` cases.
    fn evaluate_dumbbell(
        &mut self,
        id: &str,
        c: &DumbbellCase,
        record: &RunRecord,
        bands: &ToleranceBands,
    ) -> DumbbellEval {
        let mut eval = DumbbellEval {
            g_sim: None,
            trace: Vec::new(),
            violation: None,
            right_err: None,
            within: false,
        };
        match &record.outcome {
            RunOutcome::Failed { reason } => {
                eval.violation = Some((ViolationClass::RunFailed, reason.clone()));
            }
            RunOutcome::Infeasible { reason } => {
                eval.violation = Some((ViolationClass::Infeasible, reason.clone()));
            }
            RunOutcome::Benign {
                goodput_bytes,
                trace,
            } => {
                eval.trace = trace.clone();
                if *goodput_bytes == 0 {
                    eval.violation = Some((
                        ViolationClass::NoTraffic,
                        "benign run delivered zero goodput".to_string(),
                    ));
                }
            }
            RunOutcome::Point { point, trace } => {
                eval.trace = trace.clone();
                eval.g_sim = Some(point.g_sim);
                let attack = c.attack.expect("point outcome implies an attack").point();
                let effective = if c.oracle {
                    *bands
                } else {
                    ToleranceBands {
                        gamma_right: 2.0,
                        ..*bands
                    }
                };
                let verdict = self.tr.span(Layer::Oracle, || {
                    check_point(id, &c.scenario(), attack, point, &effective)
                });
                if c.oracle {
                    eval.right_err = verdict.right_err;
                    eval.within = verdict.within;
                }
                if !verdict.failures.is_empty() {
                    let class = classify_failure(&verdict.failures[0]);
                    eval.violation = Some((class, verdict.failures.join("; ")));
                }
            }
        }
        if eval.violation.is_none() && !eval.trace.is_empty() && c.detect {
            self.detect_bins += eval.trace.len() as u64;
            let trace = &eval.trace;
            let failures = self.tr.span(Layer::Detect, || {
                let calib = (trace.len() / 2).max(2);
                let mut streaming = StreamingCusum::new(calib, 0.5, 8.0);
                check_cusum_equivalence(
                    id,
                    &CusumDetector::new(calib, 0.5, 8.0),
                    &mut streaming,
                    trace,
                )
            });
            if !failures.is_empty() {
                eval.violation = Some((ViolationClass::DetectorMismatch, failures.join("; ")));
            }
        }
        eval
    }

    /// The campaign's topology audit around `topo::run_topology`.
    fn evaluate_topology(
        &mut self,
        c: &TopologyCase,
    ) -> (Vec<u64>, Option<(ViolationClass, String)>) {
        let out = self.tr.span(Layer::Topology, || run_topology(c));
        self.routeless_topology += out.routeless;
        let violation = if out.violations > 0 {
            Some((
                ViolationClass::TopologyInvariant,
                format!(
                    "{} checker violation(s); first: {}",
                    out.violations,
                    out.first_violation.as_deref().unwrap_or("<none recorded>")
                ),
            ))
        } else if out.routeless > 0 {
            Some((
                ViolationClass::TopologyInvariant,
                format!("{} packet(s) dropped for lack of a route", out.routeless),
            ))
        } else if !out.conserved {
            Some((
                ViolationClass::Conservation,
                "link-level packet conservation failed".to_string(),
            ))
        } else if out.goodput_bytes == 0 {
            Some((
                ViolationClass::NoTraffic,
                "topology run delivered zero goodput".to_string(),
            ))
        } else {
            None
        };
        (out.bins, violation)
    }

    /// `pdos_fuzz::run_campaign` for a campaign without an injected fault.
    fn campaign(&mut self, cfg: &CampaignConfig) -> CampaignReport {
        assert!(
            cfg.fault.is_none(),
            "the replica covers fault-free campaigns"
        );
        self.tr.enter();
        let mut families = gen::generate(cfg.master_seed, cfg.scenarios);
        let families_generated = families.len();
        let cases_generated: usize = families.iter().map(|f| f.cases.len()).sum();
        let plan = gen::truncate_to_budget(&mut families, cfg.budget_sim_secs);
        self.tr.exit(Layer::Gen);

        let cap = cfg.checkpoint_capacity.max(1);
        let dumbbell: Vec<&Family> = families.iter().filter(|f| f.is_dumbbell()).collect();
        let mut records: HashMap<String, RunRecord> = HashMap::new();
        let (mut warmups, mut forked_runs) = (0, 0);
        for chunk in dumbbell.chunks(cap) {
            let specs: Vec<ExperimentSpec> = chunk
                .iter()
                .flat_map(|f| &f.cases)
                .filter_map(|case| match &case.params {
                    CaseParams::Dumbbell(c) => Some(c.spec(&case.id)),
                    CaseParams::Topology(_) => None,
                })
                .collect();
            let report = self.run_specs(cfg.master_seed, cap, &specs);
            warmups += report.warmups;
            forked_runs += report.forked_runs;
            for r in report.records {
                records.insert(r.id.clone(), r);
            }
        }

        let mut results = Vec::new();
        let mut violations = Vec::new();
        let (mut oracle_points, mut oracle_right, mut oracle_within) = (0, 0, 0);
        let mut oracle_max_abs_err = 0.0f64;
        for family in &families {
            for case in &family.cases {
                let (violation, trace, g_sim) = match &case.params {
                    CaseParams::Dumbbell(c) => {
                        let record = records
                            .get(&case.id)
                            .expect("every dumbbell case was swept");
                        let eval = self.evaluate_dumbbell(&case.id, c, record, &cfg.bands);
                        if eval.g_sim.is_some() && c.oracle {
                            oracle_points += 1;
                            if let Some(err) = eval.right_err {
                                oracle_right += 1;
                                oracle_max_abs_err = oracle_max_abs_err.max(err);
                                if eval.within {
                                    oracle_within += 1;
                                }
                            }
                        }
                        (eval.violation, eval.trace, eval.g_sim)
                    }
                    CaseParams::Topology(c) => {
                        let (bins, violation) = self.evaluate_topology(c);
                        (violation, bins, None)
                    }
                };
                results.push(CaseResult {
                    id: case.id.clone(),
                    kind: case.params.kind_tag(),
                    violation: violation.as_ref().map(|(class, _)| *class),
                    n_bins: trace.len(),
                    digest: (!trace.is_empty()).then(|| digest_bins(&trace)),
                    g_sim,
                });
                if let Some((class, detail)) = violation {
                    violations.push(CampaignViolation {
                        case: case.clone(),
                        class,
                        detail,
                        shrunk: None,
                    });
                }
            }
        }
        CampaignReport {
            master_seed: cfg.master_seed,
            scenarios_requested: cfg.scenarios,
            fault: cfg.fault,
            families_generated,
            families_run: families.len(),
            cases_generated,
            cases_run: results.len(),
            budget_sim_secs: cfg.budget_sim_secs,
            planned_sim_secs: plan.planned_sim_secs,
            sim_secs_run: plan.kept_sim_secs,
            truncated: plan.truncated,
            warmups,
            forked_runs,
            oracle_points,
            oracle_right,
            oracle_within,
            oracle_max_abs_err,
            results,
            violations,
        }
    }
}

/// Dumbbell cases of the campaign that the observer-overhead sample runs.
const OBSERVE_SAMPLE: usize = 16;

/// Runs the first [`OBSERVE_SAMPLE`] dumbbell cases of the campaign cold
/// through `SweepRunner::execute_one`, once with checks, a 100 ms trace
/// and the detector tap on and once with all three off, alternating which
/// goes first. Returns (seconds with − seconds without, cases whose
/// physics differed between the two).
fn observer_overhead(cfg: &CampaignConfig) -> (f64, u64) {
    let runner = SweepRunner::new(cfg.master_seed)
        .seed_policy(SeedPolicy::FromScenario)
        .jobs(1);
    let cases: Vec<ExperimentSpec> = gen::generate(cfg.master_seed, cfg.scenarios)
        .iter()
        .flat_map(|f| &f.cases)
        .filter_map(|case| match &case.params {
            CaseParams::Dumbbell(c) => Some(c.spec(&case.id)),
            CaseParams::Topology(_) => None,
        })
        .take(OBSERVE_SAMPLE)
        .collect();
    let (mut with_s, mut without_s, mut mismatches) = (0.0, 0.0, 0);
    for (i, spec) in cases.iter().enumerate() {
        let on = spec
            .clone()
            .checked()
            .tapped()
            .traced(SimDuration::from_millis(100));
        let mut off = spec.clone();
        (off.checks, off.detect, off.trace_bin) = (false, false, None);
        let timed = |s: &ExperimentSpec| {
            let t = Instant::now();
            let r = runner.execute_one(s);
            (t.elapsed().as_secs_f64(), r)
        };
        let ((t_on, r_on), (t_off, r_off)) = if i % 2 == 0 {
            let a = timed(&on);
            (a, timed(&off))
        } else {
            let b = timed(&off);
            (timed(&on), b)
        };
        with_s += t_on;
        without_s += t_off;
        let same = match (&r_on.outcome, &r_off.outcome) {
            (RunOutcome::Point { point: a, .. }, RunOutcome::Point { point: b, .. }) => a == b,
            (
                RunOutcome::Benign {
                    goodput_bytes: a, ..
                },
                RunOutcome::Benign {
                    goodput_bytes: b, ..
                },
            ) => a == b,
            (a, b) => std::mem::discriminant(a) == std::mem::discriminant(b),
        };
        if !same {
            mismatches += 1;
        }
    }
    (with_s - without_s, mismatches)
}

/// The profiler's allocation probe, backed by the counting allocator.
fn alloc_probe() -> (u64, u64) {
    let s = pdos_bench::alloc::snapshot();
    (s.allocations, s.bytes)
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Readings taken once the traced job's report is written: the end of
/// `trace.wall_s`, before any extra leg runs.
struct Mark {
    wall: f64,
    peak_rss_mib: f64,
    allocs: AllocSnapshot,
}

impl Mark {
    fn take(start: &Instant, alloc0: AllocSnapshot) -> Mark {
        Mark {
            wall: start.elapsed().as_secs_f64(),
            peak_rss_mib: host::peak_rss_mib(),
            allocs: pdos_bench::alloc::snapshot().since(alloc0),
        }
    }
}

/// Readings only some workloads produce; zero where the layer is not on
/// the workload's path.
#[derive(Default)]
struct Extra {
    banks: e2e::BankTotals,
    bank_rss_bytes: f64,
    rss_after_setup_mib: f64,
    shard_speedup: f64,
    cpu_ratio: f64,
    observe_overhead_s: f64,
    fuzz_cases: u64,
    fuzz_violations: u64,
    report_bytes: u64,
}

/// Runs one workload through the replica. Returns the result line: the
/// per-layer metrics plus the outputs the harness compares with the
/// untraced job's.
pub fn run(workload: &str, argv: Vec<String>, start: &Instant) -> Result<Obj, String> {
    pdos_sim::profile::set_alloc_probe(alloc_probe);
    let alloc0 = pdos_bench::alloc::snapshot();
    let cpu0 = host::cpu_secs();
    let mut rep = Replica::default();
    let mut extra = Extra::default();
    let mut out = Obj::default();

    rep.tr.enter();
    let args = Args::parse(argv).map_err(|e| e.0)?;
    let end = match workload {
        "fig06-sweep" => {
            let specs = e2e::fig06_specs(e2e::seed(&args)?);
            rep.tr.exit(Layer::Parse);
            out.raw("params", e2e::fig06_params(&specs).render());
            extra.rss_after_setup_mib = host::rss_mib();
            let report = rep.run_specs(0, DEFAULT_CHECKPOINT_CAPACITY, &specs);
            rep.tr.enter();
            let report_bytes = e2e::write_report(&args, &report.to_json())?;
            rep.tr.exit(Layer::Report);
            let end = Mark::take(start, alloc0);
            extra.report_bytes = report_bytes;
            extra.cpu_ratio = (host::cpu_secs() - cpu0) / end.wall;
            e2e::fig06_outputs(&report, &mut out);
            end
        }
        "fuzz-campaign" => {
            let cfg = e2e::fuzz_config(e2e::seed(&args)?);
            rep.tr.exit(Layer::Parse);
            out.raw("params", e2e::fuzz_params(&cfg).render());
            extra.rss_after_setup_mib = host::rss_mib();
            let mut report = rep.campaign(&cfg);
            if !report.pass() {
                shrink_report(&mut report, &cfg);
            }
            rep.tr.enter();
            let json = report.to_json();
            let report_bytes = e2e::write_report(&args, &json)?;
            rep.tr.exit(Layer::Report);
            let end = Mark::take(start, alloc0);
            extra.report_bytes = report_bytes;
            extra.cpu_ratio = (host::cpu_secs() - cpu0) / end.wall;
            extra.fuzz_cases = report.cases_run as u64;
            extra.fuzz_violations = report.violations.len() as u64;
            e2e::fuzz_outputs(&report, &json, &mut out);
            let (overhead, mismatches) = observer_overhead(&cfg);
            extra.observe_overhead_s = overhead;
            out.int("observe_mismatches", mismatches);
            end
        }
        "million-flow" => {
            if e2e::seed(&args)?.is_some() {
                return Err("million-flow has no random input; it takes no --seed".into());
            }
            rep.tr.exit(Layer::Parse);
            out.raw("params", e2e::million_params().render());
            let horizon = e2e::million_horizon();
            let rss_before = host::rss_mib();
            let mut sim = rep
                .tr
                .span(Layer::Build, || build_million_flow_sim(MILLION_FLOWS));
            let engaged = rep
                .tr
                .span(Layer::ShardPlan, || sim.enable_sharding(MILLION_SHARDS));
            rep.max_engaged = engaged;
            sim.enable_profiler();
            extra.rss_after_setup_mib = host::rss_mib();
            let cpu_a = host::cpu_secs();
            let t = Instant::now();
            rep.engine_run(&mut sim, horizon);
            let sharded_s = t.elapsed().as_secs_f64();
            extra.cpu_ratio = (host::cpu_secs() - cpu_a) / sharded_s;
            extra.banks = bank_totals(&sim);
            let outputs = million_outputs(&sim, &extra.banks).render();
            rep.tr.enter();
            let report_bytes = e2e::write_report(&args, &outputs)?;
            rep.tr.exit(Layer::Report);
            let end = Mark::take(start, alloc0);
            extra.report_bytes = report_bytes;
            extra.bank_rss_bytes = (end.peak_rss_mib - rss_before) * 1024.0 * 1024.0;
            drop(sim);
            // The sequential leg: the same run on one event loop, so the
            // shard speed-up is measured and the outputs cross-checked.
            let mut seq = build_million_flow_sim(MILLION_FLOWS);
            seq.enable_profiler();
            let t = Instant::now();
            seq.run_until(horizon);
            let sequential_s = t.elapsed().as_secs_f64();
            extra.shard_speedup = sequential_s / sharded_s;
            let seq_outputs = million_outputs(&seq, &bank_totals(&seq)).render();
            out.int("ops", 2)
                .int("ops_ok", 1 + u64::from(seq_outputs == outputs))
                .raw("outputs", outputs)
                .raw("sequential_outputs", seq_outputs);
            end
        }
        other => return Err(format!("unknown workload '{other}'")),
    };
    out.raw("metrics", metrics(&rep, &extra, &end).render());
    Ok(out)
}

fn metrics(rep: &Replica, extra: &Extra, end: &Mark) -> Obj {
    let wall = end.wall;
    let allocs = end.allocs;
    let mut m = Obj::default();
    let tr = &rep.tr;
    let attributed: f64 = Layer::ALL.iter().map(|&l| tr.self_s(l)).sum();
    for layer in Layer::ALL {
        m.num(layer.metric(), tr.self_s(layer));
    }
    m.num("trace.unattributed_s", wall - attributed)
        .num("trace.wall_s", wall)
        .int("cli.report_bytes", extra.report_bytes);

    let mut walls = rep.run_walls.clone();
    walls.sort_by(f64::total_cmp);
    let runs_wall: f64 = walls.iter().sum();
    m.int("runner.runs", walls.len() as u64)
        .int("runner.failed", rep.runs_failed)
        .int("runner.warmups", rep.warmups)
        .int("runner.forked_runs", rep.forked_runs)
        .num("runner.run_p50_s", percentile(&walls, 0.5))
        .num("runner.run_p90_s", percentile(&walls, 0.9))
        .num("runner.overhead_s", rep.sweep_wall - runs_wall);
    m.int("checkpoint.takes", tr.calls(Layer::Take))
        .int("checkpoint.forks", tr.calls(Layer::Fork))
        .int("checkpoint.bytes", rep.checkpoint_bytes);
    m.int("spec.builds", tr.calls(Layer::Build));

    let stats = &rep.engine.stats;
    let packets = stats.delivered + stats.unclaimed;
    let engine_s = tr.self_s(Layer::Engine);
    m.int("engine.events", stats.events)
        .int("engine.packets", packets)
        .num(
            "engine.events_per_packet",
            stats.events as f64 / packets.max(1) as f64,
        )
        .num(
            "engine.ns_per_event",
            engine_s * 1e9 / stats.events.max(1) as f64,
        );
    for (name, k) in EVENT_KINDS.iter().zip(&rep.engine.profile.kinds) {
        let name = name.replace('-', "_");
        m.int(&format!("engine.{name}.count"), k.count)
            .num(&format!("engine.{name}.s"), k.wall_nanos as f64 / 1e9)
            .int(&format!("engine.{name}.allocs"), k.allocations);
    }
    m.int("link.queue_drops", stats.queue_drops)
        .int("link.ecn_marks", stats.ecn_marks)
        .int("link.routeless", stats.routeless + rep.routeless_topology);

    let b = &extra.banks;
    let per_flow = |x: f64| {
        if b.flows == 0 {
            0.0
        } else {
            x / b.flows as f64
        }
    };
    m.int("bank.segments_sent", b.segments_sent)
        .int("bank.retransmissions", b.retransmissions)
        .int("bank.timeouts", b.timeouts)
        .int("bank.acked", b.acked)
        .num("bank.state_bytes_per_flow", per_flow(b.state_bytes as f64))
        .num("bank.rss_bytes_per_flow", per_flow(extra.bank_rss_bytes))
        .num("mem.rss_after_setup_mib", extra.rss_after_setup_mib)
        .num("mem.peak_rss_mib", end.peak_rss_mib);
    m.int("shard.engaged", rep.max_engaged.max(1) as u64)
        .num("shard.speedup", extra.shard_speedup)
        .num("shard.cpu_ratio", extra.cpu_ratio);
    m.num("observe.overhead_s", extra.observe_overhead_s);
    m.int("fuzz.cases", extra.fuzz_cases)
        .int("fuzz.violations", extra.fuzz_violations)
        .int("detect.bins", rep.detect_bins);
    m.int("alloc.count", allocs.allocations)
        .int("alloc.bytes", allocs.bytes)
        .num(
            "alloc.per_event",
            allocs.allocations as f64 / stats.events.max(1) as f64,
        );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_exclude_children() {
        let mut tr = Tracer::default();
        tr.enter();
        tr.span(Layer::Engine, || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        let total = tr.exit(Layer::Runner);
        let runner = tr.self_s(Layer::Runner);
        let engine = tr.self_s(Layer::Engine);
        assert!(engine >= 0.02);
        assert!(
            runner < engine,
            "runner self {runner} must exclude engine {engine}"
        );
        assert!((runner + engine - total).abs() < 1e-9);
        assert_eq!((tr.calls(Layer::Runner), tr.calls(Layer::Engine)), (1, 1));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&xs, 0.5), 5.0);
        assert_eq!(percentile(&xs, 0.9), 9.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
