//! The parallel, deterministic experiment runner.
//!
//! The paper's results are sweeps over hundreds of `(T_extent, R_attack,
//! γ)` points, each an independent simulation. [`SweepRunner`] fans a grid
//! of [`ExperimentSpec`]s out over a pool of worker threads and collects
//! per-run results plus wall-clock/throughput metrics into a single
//! [`SweepReport`] (serializable to JSON with no external dependencies).
//!
//! ## Determinism
//!
//! Every run's RNG seed is a pure function of the runner's **master seed**
//! and the spec itself:
//!
//! ```text
//! run_seed = fnv1a64( master_seed ‖ fnv1a64(spec identity) )
//! ```
//!
//! so results are bitwise-identical regardless of worker count or
//! scheduling order, and distinct specs get distinct seeds. Two seed
//! policies cover the two kinds of study:
//!
//! * [`SeedPolicy::FromScenario`] keeps each spec's `scenario.seed`
//!   untouched — runs reproduce the serial figure sweeps exactly;
//! * [`SeedPolicy::Derived`] overwrites `scenario.seed` with the derived
//!   seed — independent replications (ROC studies, error bars) fall out
//!   of simply enumerating specs with distinct ids.
//!
//! Baselines (the no-attack goodput a gain measurement normalizes by) are
//! memoized across runs keyed by the effective scenario, so a figure panel
//! sharing one scenario measures its baseline once, exactly like the
//! serial protocol — and because a baseline is a pure function of the
//! scenario, memoization cannot perturb determinism.

use crate::experiment::{
    cold_start, measure_baseline, measure_point, plan_attack, warm_start, ExperimentError,
    GainPoint, ReadyRun, SeededFault, WarmStart,
};
use crate::spec::ScenarioSpec;
use pdos_analysis::gain::RiskPreference;
use pdos_sim::time::SimDuration;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One attacked parameter point of a sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackPoint {
    /// Pulse width, seconds.
    pub t_extent: f64,
    /// Pulse rate, bits per second.
    pub r_attack: f64,
    /// Normalized average attack rate.
    pub gamma: f64,
}

/// A self-contained description of one simulation run.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Stable identifier, e.g. `fig06/flows15/te50ms/g0.320`. Part of the
    /// seed-derivation input, so replications can share physics but not
    /// seeds by differing only in id.
    pub id: String,
    /// The scenario to build.
    pub scenario: ScenarioSpec,
    /// Warm-up before the measurement window.
    pub warmup: SimDuration,
    /// Measurement window length.
    pub window: SimDuration,
    /// The attack to apply; `None` measures a benign baseline run.
    pub attack: Option<AttackPoint>,
    /// When set, record the bottleneck's ingress byte bins at this width
    /// over the measurement window (detector studies).
    pub trace_bin: Option<SimDuration>,
    /// Risk preference κ folded into gain (1.0 = the figures' neutral).
    pub kappa: f64,
    /// Run with the simulator's runtime invariant checkers enabled; a
    /// violation turns the run into [`RunOutcome::Failed`]. Deliberately
    /// **not** part of [`ExperimentSpec::stable_hash`] — auditing a run
    /// must not change its seed or its physics.
    pub checks: bool,
    /// Run with the metrics registry enabled: the record then carries a
    /// per-link/per-flow [`pdos_metrics::MetricsSnapshot`]. Like `checks`,
    /// deliberately **not** part of [`ExperimentSpec::stable_hash`] —
    /// observing a run must not change its seed or its physics.
    pub metrics: bool,
    /// Run with the engine's per-link detector tap enabled (streaming
    /// detector feed; see `pdos_sim::observe`). The tap bins at the spec's
    /// `trace_bin` width when set, else at the 100 ms detector default.
    /// Like `checks`/`metrics`, deliberately **not** part of
    /// [`ExperimentSpec::stable_hash`] — tapping a run must not change
    /// its seed or its physics — but it *is* part of
    /// [`ExperimentSpec::prefix_hash`], because a checkpoint physically
    /// carries the tap's bins.
    pub detect: bool,
    /// Deliberately inject a known physics bug into the measurement phase
    /// (fuzz-campaign self-test drills; see [`SeededFault`]). Applied
    /// *after* the warm-up fork, so checkpoints stay uncorrupted and
    /// shareable. Excluded from [`ExperimentSpec::stable_hash`] and
    /// [`ExperimentSpec::prefix_hash`] (it must not re-seed or re-warm
    /// anything), but folded into the baseline memo key so a faulted
    /// baseline can never be served to an unfaulted run.
    pub fault: Option<SeededFault>,
    /// Run on a sharded engine with this many requested shards (`1` =
    /// the legacy single event loop; the engine may effect fewer when
    /// the topology resists cutting). Sharded output is bit-identical
    /// to unsharded by contract, so — like `checks` — this is
    /// deliberately **not** part of [`ExperimentSpec::stable_hash`]:
    /// sharding a run must not change its seed or its physics. It *is*
    /// part of [`ExperimentSpec::prefix_hash`], because a checkpoint
    /// physically carries the shard structure.
    pub shards: usize,
}

impl ExperimentSpec {
    /// A spec with the paper's defaults (10 s warm-up, 60 s window,
    /// risk-neutral) for an attacked point.
    pub fn attacked(
        id: impl Into<String>,
        scenario: ScenarioSpec,
        attack: AttackPoint,
    ) -> ExperimentSpec {
        ExperimentSpec {
            id: id.into(),
            scenario,
            warmup: SimDuration::from_secs(10),
            window: SimDuration::from_secs(60),
            attack: Some(attack),
            trace_bin: None,
            kappa: 1.0,
            checks: false,
            metrics: false,
            detect: false,
            fault: None,
            shards: 1,
        }
    }

    /// A benign (no-attack) spec with the paper's default windows.
    pub fn benign(id: impl Into<String>, scenario: ScenarioSpec) -> ExperimentSpec {
        ExperimentSpec {
            id: id.into(),
            scenario,
            warmup: SimDuration::from_secs(10),
            window: SimDuration::from_secs(60),
            attack: None,
            trace_bin: None,
            kappa: 1.0,
            checks: false,
            metrics: false,
            detect: false,
            fault: None,
            shards: 1,
        }
    }

    /// Overrides the warm-up length.
    #[must_use]
    pub fn warmup(mut self, warmup: SimDuration) -> ExperimentSpec {
        self.warmup = warmup;
        self
    }

    /// Overrides the measurement window.
    #[must_use]
    pub fn window(mut self, window: SimDuration) -> ExperimentSpec {
        self.window = window;
        self
    }

    /// Requests a bottleneck ingress trace at `bin` width.
    #[must_use]
    pub fn traced(mut self, bin: SimDuration) -> ExperimentSpec {
        self.trace_bin = Some(bin);
        self
    }

    /// Enables the runtime invariant checkers for this run. Hash-neutral:
    /// a checked run uses the same seed and produces the same physics as
    /// an unchecked one.
    #[must_use]
    pub fn checked(mut self) -> ExperimentSpec {
        self.checks = true;
        self
    }

    /// Enables the metrics registry for this run. Hash-neutral: a metered
    /// run uses the same seed and produces the same physics as an
    /// unmetered one.
    #[must_use]
    pub fn metered(mut self) -> ExperimentSpec {
        self.metrics = true;
        self
    }

    /// Enables the engine's per-link detector tap for this run.
    /// Hash-neutral: a tapped run uses the same seed and produces the
    /// same physics as an untapped one.
    #[must_use]
    pub fn tapped(mut self) -> ExperimentSpec {
        self.detect = true;
        self
    }

    /// Injects `fault` into the measurement phase of this run (fuzz-drill
    /// seam). Hash-neutral: a faulted spec keeps its seed and warm-up
    /// prefix; only the measured physics are (deliberately) corrupted.
    #[must_use]
    pub fn faulted(mut self, fault: SeededFault) -> ExperimentSpec {
        self.fault = Some(fault);
        self
    }

    /// Runs this spec on a sharded engine (`1` = legacy). Seed-neutral:
    /// a sharded run uses the same seed and produces the same physics
    /// as an unsharded one — but prefix-relevant, so sharded and
    /// unsharded runs never share a warm-start checkpoint.
    #[must_use]
    pub fn sharded(mut self, shards: usize) -> ExperimentSpec {
        self.shards = shards.max(1);
        self
    }

    /// A stable 64-bit digest of the spec's identity: id, scenario,
    /// windows, attack point and κ. Used as the spec half of the seed
    /// derivation.
    pub fn stable_hash(&self) -> u64 {
        let mut ident = String::with_capacity(256);
        let _ = write!(
            ident,
            "{}|{:?}|{:?}|{:?}|{:?}|{}",
            self.id, self.scenario, self.warmup, self.window, self.attack, self.kappa
        );
        fnv1a64(ident.as_bytes())
    }

    /// A stable 64-bit digest of everything that shapes the simulation up
    /// to the attack start: the scenario (seed included), the warm-up
    /// length, the trace registration, and the checks/metrics observer
    /// wiring (a checkpoint physically carries checker and registry state,
    /// so forks must match the spec's wiring). The id, measurement window,
    /// attack point and κ are deliberately excluded — sweep points that
    /// differ only in those share one warm-up prefix, which is what lets
    /// the warm-start cache simulate each prefix once and fork per point.
    pub fn prefix_hash(&self) -> u64 {
        Self::prefix_hash_of(
            &self.scenario,
            self.warmup,
            self.trace_bin,
            self.checks,
            self.metrics,
            self.detect,
            self.shards,
        )
    }

    /// [`ExperimentSpec::prefix_hash`] for an explicit effective
    /// `scenario` — the runner hashes the scenario *after* applying its
    /// [`SeedPolicy`], so only runs with equal physics share a prefix.
    #[allow(clippy::too_many_arguments)]
    pub fn prefix_hash_of(
        scenario: &ScenarioSpec,
        warmup: SimDuration,
        trace_bin: Option<SimDuration>,
        checks: bool,
        metrics: bool,
        detect: bool,
        shards: usize,
    ) -> u64 {
        let mut ident = String::with_capacity(256);
        let _ = write!(
            ident,
            "{scenario:?}|{warmup:?}|{trace_bin:?}|{checks}|{metrics}|{detect}"
        );
        // Appended conditionally so legacy (unsharded) specs keep the
        // prefix digests they had before sharding existed.
        if shards > 1 {
            let _ = write!(ident, "|shards={shards}");
        }
        fnv1a64(ident.as_bytes())
    }
}

/// FNV-1a, 64-bit: tiny, portable, and stable across platforms — unlike
/// `std::hash::DefaultHasher`, whose output may change between releases.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Derives the run seed for `spec` under `master_seed`.
pub fn derive_seed(master_seed: u64, spec: &ExperimentSpec) -> u64 {
    let mut input = [0u8; 16];
    input[..8].copy_from_slice(&master_seed.to_le_bytes());
    input[8..].copy_from_slice(&spec.stable_hash().to_le_bytes());
    fnv1a64(&input)
}

/// How the derived seed enters the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeedPolicy {
    /// Keep each spec's `scenario.seed`: reproduces the serial figure
    /// sweeps exactly (the figure definition pins the seed).
    FromScenario,
    /// Overwrite `scenario.seed` with the derived seed: independent
    /// deterministic replications.
    #[default]
    Derived,
}

/// What one run produced.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// An attacked run's measured point (plus its trace when requested).
    Point {
        /// The measured gain point.
        point: GainPoint,
        /// Bottleneck ingress bins over the window (empty unless traced).
        trace: Vec<u64>,
    },
    /// A benign run's goodput (plus its trace when requested).
    Benign {
        /// Aggregate goodput over the window, bytes.
        goodput_bytes: u64,
        /// Bottleneck ingress bins over the window (empty unless traced).
        trace: Vec<u64>,
    },
    /// The requested pulse train is infeasible at this point (skipped, as
    /// in the serial sweeps).
    Infeasible {
        /// Why the pulse parameters are infeasible.
        reason: String,
    },
    /// The run failed hard (bad model parameters, topology error).
    Failed {
        /// The error message.
        reason: String,
    },
}

/// One run's record in the report.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The spec's id.
    pub id: String,
    /// The derived seed (equals `scenario.seed` under
    /// [`SeedPolicy::Derived`]).
    pub run_seed: u64,
    /// The effective scenario seed the simulation used.
    pub scenario_seed: u64,
    /// The baseline goodput this run's gain was normalized by (0 for
    /// benign/failed runs).
    pub baseline_bytes: u64,
    /// The run's outcome.
    pub outcome: RunOutcome,
    /// The run's metrics snapshot (`Some` only for successful runs of a
    /// metered spec). Not part of [`RunRecord::result_json`] — the sweep
    /// aggregates snapshots via [`SweepReport::merged_metrics`] instead.
    pub metrics: Option<pdos_metrics::MetricsSnapshot>,
    /// Wall-clock time of this run on its worker.
    pub wall: Duration,
}

impl RunRecord {
    /// Serializes everything *except* timing — the byte-identical part of
    /// the record across worker counts and scheduling orders.
    pub fn result_json(&self) -> String {
        let mut s = String::with_capacity(256);
        let _ = write!(
            s,
            "{{\"id\":{},\"run_seed\":{},\"scenario_seed\":{},\"baseline_bytes\":{}",
            json_str(&self.id),
            self.run_seed,
            self.scenario_seed,
            self.baseline_bytes
        );
        match &self.outcome {
            RunOutcome::Point { point, trace } => {
                let _ = write!(s, ",\"status\":\"ok\",\"point\":{}", point_json(point));
                if !trace.is_empty() {
                    let _ = write!(s, ",\"trace\":{}", json_u64_array(trace));
                }
            }
            RunOutcome::Benign {
                goodput_bytes,
                trace,
            } => {
                let _ = write!(
                    s,
                    ",\"status\":\"benign\",\"goodput_bytes\":{goodput_bytes}"
                );
                if !trace.is_empty() {
                    let _ = write!(s, ",\"trace\":{}", json_u64_array(trace));
                }
            }
            RunOutcome::Infeasible { reason } => {
                let _ = write!(
                    s,
                    ",\"status\":\"infeasible\",\"reason\":{}",
                    json_str(reason)
                );
            }
            RunOutcome::Failed { reason } => {
                let _ = write!(s, ",\"status\":\"failed\",\"reason\":{}", json_str(reason));
            }
        }
        s.push('}');
        s
    }
}

fn point_json(p: &GainPoint) -> String {
    let mut s = String::with_capacity(256);
    let _ = write!(
        s,
        "{{\"gamma\":{},\"t_aimd\":{},\"g_analytic\":{},\"g_sim\":{},\
         \"degradation_analytic\":{},\"degradation_sim\":{},\
         \"timeouts\":{},\"fast_recoveries\":{},\"shrew\":{},\"class\":\"{}\"}}",
        p.gamma,
        p.t_aimd,
        p.g_analytic,
        p.g_sim,
        p.degradation_analytic,
        p.degradation_sim,
        p.timeouts,
        p.fast_recoveries,
        p.shrew.map_or_else(|| "null".into(), |n| n.to_string()),
        p.class,
    );
    s
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_u64_array(xs: &[u64]) -> String {
    let mut s = String::with_capacity(xs.len() * 8 + 2);
    s.push('[');
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{x}");
    }
    s.push(']');
    s
}

/// The full report of one sweep: per-run records in spec order plus
/// wall-clock/throughput metrics.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// The master seed the runner used.
    pub master_seed: u64,
    /// Worker threads used.
    pub jobs: usize,
    /// The seed policy in force.
    pub seed_policy: SeedPolicy,
    /// Per-run records, in the order the specs were given.
    pub records: Vec<RunRecord>,
    /// Warm-up prefixes actually simulated (cold starts): how many times a
    /// shared prefix had to be simulated from `t = 0`. With warm-starting
    /// on and no LRU evictions this equals the number of distinct
    /// [`ExperimentSpec::prefix_hash`] values; without it this is `0`
    /// (every run pays its own cold warm-up instead). Not part of
    /// [`SweepReport::results_json`] — it is a cache statistic, not a
    /// physics result.
    pub warmups: usize,
    /// Runs that resumed from a forked checkpoint instead of cold-starting
    /// (attacked measurements, memoized baseline measurements and benign
    /// runs each count once). Not part of [`SweepReport::results_json`].
    pub forked_runs: usize,
    /// End-to-end wall-clock time of the sweep.
    pub wall: Duration,
}

impl SweepReport {
    /// Total per-run compute time (the serial-equivalent cost).
    pub fn cpu_time(&self) -> Duration {
        self.records.iter().map(|r| r.wall).sum()
    }

    /// Completed runs per wall-clock second.
    pub fn runs_per_sec(&self) -> f64 {
        self.records.len() as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// The measured points of successful attacked runs, in spec order.
    pub fn points(&self) -> Vec<&GainPoint> {
        self.records
            .iter()
            .filter_map(|r| match &r.outcome {
                RunOutcome::Point { point, .. } => Some(point),
                _ => None,
            })
            .collect()
    }

    /// Merges the metrics snapshots of every successful metered run into
    /// one aggregate, or `None` when no record carries metrics. Records
    /// whose outcome is [`RunOutcome::Failed`] are skipped explicitly: a
    /// failed worker (panic caught at the run boundary, invariant
    /// violation, build error) may have died mid-run, so any counters it
    /// accumulated are partial and must not contaminate the aggregate.
    pub fn merged_metrics(&self) -> Option<pdos_metrics::MetricsSnapshot> {
        let mut merged: Option<pdos_metrics::MetricsSnapshot> = None;
        for r in &self.records {
            if matches!(r.outcome, RunOutcome::Failed { .. }) {
                continue;
            }
            let Some(snap) = &r.metrics else { continue };
            match &mut merged {
                None => merged = Some(snap.clone()),
                Some(m) => m.merge(snap),
            }
        }
        merged
    }

    /// Serializes only the deterministic per-run results (no timing):
    /// byte-identical across worker counts for the same master seed and
    /// specs.
    pub fn results_json(&self) -> String {
        let mut s = String::from("[");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&r.result_json());
        }
        s.push(']');
        s
    }

    /// Serializes the whole report (results + timing + throughput).
    pub fn to_json(&self) -> String {
        let policy = match self.seed_policy {
            SeedPolicy::FromScenario => "from-scenario",
            SeedPolicy::Derived => "derived",
        };
        let mut s = String::with_capacity(1024);
        let _ = write!(
            s,
            "{{\"master_seed\":{},\"jobs\":{},\"seed_policy\":\"{}\",\
             \"n_runs\":{},\"warmups\":{},\"forked_runs\":{},\
             \"wall_secs\":{},\"cpu_secs\":{},\"runs_per_sec\":{},\
             \"speedup\":{},\"run_wall_secs\":[",
            self.master_seed,
            self.jobs,
            policy,
            self.records.len(),
            self.warmups,
            self.forked_runs,
            self.wall.as_secs_f64(),
            self.cpu_time().as_secs_f64(),
            self.runs_per_sec(),
            self.cpu_time().as_secs_f64() / self.wall.as_secs_f64().max(1e-9),
        );
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}", r.wall.as_secs_f64());
        }
        let _ = write!(s, "],\"runs\":{}}}", self.results_json());
        s
    }
}

type BaselineCell = Arc<OnceLock<Result<u64, String>>>;
type WarmCell = Arc<OnceLock<Result<Mutex<WarmStart>, String>>>;

/// Memoizes warm-start checkpoints by [`ExperimentSpec::prefix_hash`],
/// bounded to an LRU of [`SweepRunner::checkpoint_capacity`] entries so a
/// sweep over many distinct prefixes cannot hold every simulator image in
/// memory at once. The `OnceLock` cell collapses concurrent warm-ups of
/// the same prefix into one; the `Mutex` serializes only the (cheap) fork
/// operation, never the measurement.
struct CheckpointCache {
    capacity: usize,
    inner: Mutex<CheckpointLru>,
}

#[derive(Default)]
struct CheckpointLru {
    cells: HashMap<u64, WarmCell>,
    /// Keys from least- to most-recently used.
    order: Vec<u64>,
}

impl CheckpointCache {
    fn new(capacity: usize) -> CheckpointCache {
        CheckpointCache {
            capacity: capacity.max(1),
            inner: Mutex::new(CheckpointLru::default()),
        }
    }

    /// The cell for `key`, marking it most-recently used; evicts the
    /// least-recently used checkpoint when the cache is full. Workers that
    /// grabbed an evicted cell keep their `Arc` — eviction only stops new
    /// lookups from reviving it.
    fn cell(&self, key: u64) -> WarmCell {
        let mut lru = self.inner.lock().expect("checkpoint cache poisoned");
        lru.order.retain(|&k| k != key);
        lru.order.push(key);
        if let Some(cell) = lru.cells.get(&key) {
            return Arc::clone(cell);
        }
        if lru.cells.len() >= self.capacity {
            let evict = lru.order.remove(0);
            lru.cells.remove(&evict);
        }
        let cell = WarmCell::default();
        lru.cells.insert(key, Arc::clone(&cell));
        cell
    }

    /// The warmed-up cell for `spec`'s prefix, simulating it on first
    /// use. A failed warm-up (un-checkpointable state) is memoized too, so
    /// every run of that prefix falls back to cold exactly once per sweep.
    /// Each actual warm-up simulation (the `OnceLock` closure firing)
    /// bumps `stats.warmups` — the sweep's cold-start count.
    fn get_or_warm(&self, spec: &ExperimentSpec, stats: &WarmStats) -> WarmCell {
        let cell = self.cell(spec.prefix_hash());
        cell.get_or_init(|| {
            stats.warmups.fetch_add(1, Ordering::Relaxed);
            warm_start(spec).map(Mutex::new).map_err(|e| e.to_string())
        });
        cell
    }
}

/// Shared warm-start accounting for one sweep: how many cold prefix
/// warm-ups ran and how many runs resumed from a forked checkpoint.
#[derive(Default)]
struct WarmStats {
    warmups: AtomicUsize,
    forked_runs: AtomicUsize,
}

/// The usable warm start inside a warmed cell, or `None` when the warm-up
/// failed and the caller must run cold.
fn forkable(cell: &WarmCell) -> Option<&Mutex<WarmStart>> {
    match cell.get() {
        Some(Ok(m)) => Some(m),
        _ => None,
    }
}

/// Memoizes baseline goodputs by effective-scenario digest. A baseline
/// is a pure function of `(scenario, warmup, window)`, so sharing it
/// across runs cannot perturb determinism; `OnceLock` also collapses
/// concurrent computations of the same baseline into one.
#[derive(Default)]
struct BaselineCache {
    cells: Mutex<HashMap<u64, BaselineCell>>,
}

impl BaselineCache {
    fn get_or_measure(
        &self,
        key: u64,
        measure: impl FnOnce() -> Result<u64, String>,
    ) -> Result<u64, String> {
        let cell = {
            let mut map = self.cells.lock().expect("baseline cache poisoned");
            Arc::clone(map.entry(key).or_default())
        };
        cell.get_or_init(measure).clone()
    }
}

/// Default bound on the warm-start checkpoint LRU: a figure panel keeps a
/// handful of distinct prefixes (one per scenario variant), so eight
/// simulator images comfortably cover the grids while bounding memory.
pub const DEFAULT_CHECKPOINT_CAPACITY: usize = 8;

/// The parallel sweep runner.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    master_seed: u64,
    jobs: usize,
    seed_policy: SeedPolicy,
    warm_start: bool,
    checkpoint_capacity: usize,
}

impl Default for SweepRunner {
    fn default() -> SweepRunner {
        SweepRunner::new(0)
    }
}

impl SweepRunner {
    /// A runner with `master_seed`, one worker per available CPU, the
    /// default [`SeedPolicy::Derived`], and warm-start checkpointing on.
    pub fn new(master_seed: u64) -> SweepRunner {
        SweepRunner {
            master_seed,
            jobs: 0,
            seed_policy: SeedPolicy::default(),
            warm_start: true,
            checkpoint_capacity: DEFAULT_CHECKPOINT_CAPACITY,
        }
    }

    /// Sets the worker count (`0` = one per available CPU).
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> SweepRunner {
        self.jobs = jobs;
        self
    }

    /// Sets the seed policy.
    #[must_use]
    pub fn seed_policy(mut self, policy: SeedPolicy) -> SweepRunner {
        self.seed_policy = policy;
        self
    }

    /// Enables or disables warm-start checkpointing (default on). When on,
    /// each distinct [`ExperimentSpec::prefix_hash`] simulates its warm-up
    /// once, is checkpointed, and every run of that prefix forks from the
    /// checkpoint; results are bitwise-identical either way, so this is a
    /// pure wall-clock knob. Runs whose state cannot be checkpointed fall
    /// back to cold automatically.
    #[must_use]
    pub fn warm_start(mut self, enabled: bool) -> SweepRunner {
        self.warm_start = enabled;
        self
    }

    /// Bounds the warm-start checkpoint LRU (entries; clamped to ≥ 1).
    #[must_use]
    pub fn checkpoint_capacity(mut self, capacity: usize) -> SweepRunner {
        self.checkpoint_capacity = capacity.max(1);
        self
    }

    /// The effective worker count.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }

    /// Runs every spec and collects the report. Records come back in spec
    /// order; the per-run results are a pure function of
    /// `(master_seed, specs)` — worker count only changes the timing
    /// metrics.
    pub fn run(&self, specs: &[ExperimentSpec]) -> SweepReport {
        let jobs = self.effective_jobs().max(1).min(specs.len().max(1));
        let cache = BaselineCache::default();
        let warm_cache = CheckpointCache::new(self.checkpoint_capacity);
        let stats = WarmStats::default();
        let next = AtomicUsize::new(0);
        let slots: Vec<OnceLock<RunRecord>> = specs.iter().map(|_| OnceLock::new()).collect();

        let started = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(spec) = specs.get(i) else { break };
                    let record = self.execute_caught(spec, &cache, &warm_cache, &stats);
                    slots[i].set(record).expect("slot set twice");
                });
            }
        });
        let wall = started.elapsed();

        SweepReport {
            master_seed: self.master_seed,
            jobs,
            seed_policy: self.seed_policy,
            records: slots
                .into_iter()
                .map(|s| s.into_inner().expect("worker filled every slot"))
                .collect(),
            warmups: stats.warmups.load(Ordering::Relaxed),
            forked_runs: stats.forked_runs.load(Ordering::Relaxed),
            wall,
        }
    }

    /// Executes one spec (the per-worker body). Public so callers can run
    /// single points through exactly the runner's code path.
    pub fn execute_one(&self, spec: &ExperimentSpec) -> RunRecord {
        self.execute_caught(
            spec,
            &BaselineCache::default(),
            &CheckpointCache::new(self.checkpoint_capacity),
            &WarmStats::default(),
        )
    }

    /// Runs [`SweepRunner::execute`] with a panic boundary: a spec that
    /// panics anywhere inside the simulation surfaces as
    /// [`RunOutcome::Failed`] instead of tearing down the whole sweep.
    fn execute_caught(
        &self,
        spec: &ExperimentSpec,
        cache: &BaselineCache,
        warm_cache: &CheckpointCache,
        stats: &WarmStats,
    ) -> RunRecord {
        let started = Instant::now();
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.execute(spec, cache, warm_cache, stats)
        })) {
            Ok(record) => record,
            Err(payload) => {
                let what = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                let run_seed = derive_seed(self.master_seed, spec);
                RunRecord {
                    id: spec.id.clone(),
                    run_seed,
                    scenario_seed: if self.seed_policy == SeedPolicy::Derived {
                        run_seed
                    } else {
                        spec.scenario.seed
                    },
                    baseline_bytes: 0,
                    outcome: RunOutcome::Failed {
                        reason: format!("worker panicked: {what}"),
                    },
                    metrics: None,
                    wall: started.elapsed(),
                }
            }
        }
    }

    fn execute(
        &self,
        spec: &ExperimentSpec,
        cache: &BaselineCache,
        warm_cache: &CheckpointCache,
        stats: &WarmStats,
    ) -> RunRecord {
        let started = Instant::now();
        let run_seed = derive_seed(self.master_seed, spec);
        // The effective spec: the scenario after the seed policy, so the
        // memo and prefix keys below only pair runs with equal physics.
        let mut spec = spec.clone();
        if self.seed_policy == SeedPolicy::Derived {
            spec.scenario.seed = run_seed;
        }
        let spec = &spec;
        let record = |outcome, baseline_bytes, metrics| RunRecord {
            id: spec.id.clone(),
            run_seed,
            scenario_seed: spec.scenario.seed,
            baseline_bytes,
            outcome,
            metrics,
            wall: started.elapsed(),
        };
        let failed = |reason: String| record(RunOutcome::Failed { reason }, 0, None);

        if let Err(reason) = RiskPreference::new(spec.kappa) {
            return failed(reason);
        }

        // Warm start: simulate the shared prefix once per distinct digest,
        // then fork per run. Forking holds the cell lock only as long as
        // the (cheap) state clone; the measurement runs unlocked. A prefix
        // that cannot be checkpointed memoizes its failure and every run
        // of it starts cold — results are identical either way, so
        // warm-starting is purely a wall-clock optimization.
        let warm_cell = self.warm_start.then(|| warm_cache.get_or_warm(spec, stats));
        let fork = || {
            let warm = forkable(warm_cell.as_ref()?)?
                .lock()
                .expect("warm start poisoned");
            stats.forked_runs.fetch_add(1, Ordering::Relaxed);
            Some(warm.fork())
        };
        let ready = |forked: Option<ReadyRun>| forked.map_or_else(|| cold_start(spec), Ok);

        let Some(attack) = spec.attack else {
            return match ready(fork()).and_then(|run| measure_baseline(spec, run)) {
                Ok((goodput_bytes, trace, snapshot)) => record(
                    RunOutcome::Benign {
                        goodput_bytes,
                        trace,
                    },
                    goodput_bytes,
                    snapshot,
                ),
                Err(e) => failed(e.to_string()),
            };
        };
        // The baseline key digests the effective scenario plus the
        // windows — and the fault seam, so a deliberately corrupted
        // baseline is never shared with a clean run.
        let baseline_key = fnv1a64(
            format!(
                "{:?}|{:?}|{:?}|{:?}",
                spec.scenario, spec.warmup, spec.window, spec.fault
            )
            .as_bytes(),
        );
        let baseline = match cache.get_or_measure(baseline_key, || {
            ready(fork())
                .and_then(|run| measure_baseline(spec, run))
                .map(|(bytes, _, _)| bytes)
                .map_err(|e| e.to_string())
        }) {
            Ok(baseline) => baseline,
            Err(reason) => return failed(reason),
        };
        // Fork before planning: an infeasible point still takes (and
        // counts) its fork, while a cold one fails before simulating.
        let forked = fork();
        let measured = plan_attack(spec, attack)
            .and_then(|plan| measure_point(spec, ready(forked)?, plan, baseline));
        match measured {
            Ok((point, trace, snapshot)) => {
                record(RunOutcome::Point { point, trace }, baseline, snapshot)
            }
            Err(ExperimentError::Pulse(e)) => record(
                RunOutcome::Infeasible {
                    reason: e.to_string(),
                },
                0,
                None,
            ),
            Err(e) => failed(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::GainExperiment;

    fn quick_scenario(n_flows: usize) -> ScenarioSpec {
        ScenarioSpec::ns2_dumbbell(n_flows)
    }

    fn quick_spec(id: &str, gamma: f64) -> ExperimentSpec {
        ExperimentSpec::attacked(
            id,
            quick_scenario(3),
            AttackPoint {
                t_extent: 0.1,
                r_attack: 30e6,
                gamma,
            },
        )
        .warmup(SimDuration::from_secs(4))
        .window(SimDuration::from_secs(6))
    }

    #[test]
    fn distinct_specs_get_distinct_seeds() {
        let a = quick_spec("a", 0.3);
        let b = quick_spec("b", 0.3);
        let c = quick_spec("a", 0.4);
        assert_ne!(derive_seed(7, &a), derive_seed(7, &b), "id enters the hash");
        assert_ne!(
            derive_seed(7, &a),
            derive_seed(7, &c),
            "gamma enters the hash"
        );
        assert_ne!(derive_seed(7, &a), derive_seed(8, &a), "master seed enters");
        assert_eq!(
            derive_seed(7, &a),
            derive_seed(7, &a.clone()),
            "pure function"
        );
    }

    #[test]
    fn jobs_do_not_change_results() {
        let specs: Vec<ExperimentSpec> = [0.2, 0.4, 0.6]
            .iter()
            .enumerate()
            .map(|(i, &g)| quick_spec(&format!("p{i}"), g))
            .collect();
        let serial = SweepRunner::new(42).jobs(1).run(&specs);
        let parallel = SweepRunner::new(42).jobs(4).run(&specs);
        assert_eq!(serial.results_json(), parallel.results_json());
        assert_eq!(serial.points().len(), 3);
    }

    #[test]
    fn from_scenario_policy_matches_serial_experiment() {
        let specs = vec![quick_spec("s", 0.4)];
        let report = SweepRunner::new(0)
            .seed_policy(SeedPolicy::FromScenario)
            .jobs(2)
            .run(&specs);
        let exp = GainExperiment::new(quick_scenario(3))
            .warmup(SimDuration::from_secs(4))
            .window(SimDuration::from_secs(6));
        let baseline = exp.baseline_bytes().unwrap();
        let expected = exp.run_point(0.1, 30e6, 0.4, baseline).unwrap();
        match &report.records[0].outcome {
            RunOutcome::Point { point, .. } => assert_eq!(*point, expected),
            other => panic!("expected a point, got {other:?}"),
        }
        assert_eq!(report.records[0].baseline_bytes, baseline);
    }

    #[test]
    fn warm_start_matches_cold_hash_for_hash() {
        // A mixed grid sharing one prefix under FromScenario: benign +
        // attacked + traced specs. The whole report — every point, trace
        // bin, baseline and seed — must be bitwise-identical with
        // warm-starting on (forked runs) and off (cold runs).
        let mut specs: Vec<ExperimentSpec> = [0.2, 0.4, 0.6]
            .iter()
            .enumerate()
            .map(|(i, &g)| quick_spec(&format!("w{i}"), g).traced(SimDuration::from_millis(100)))
            .collect();
        specs.push(
            ExperimentSpec::benign("w-base", quick_scenario(3))
                .warmup(SimDuration::from_secs(4))
                .window(SimDuration::from_secs(6))
                .traced(SimDuration::from_millis(100)),
        );
        for policy in [SeedPolicy::FromScenario, SeedPolicy::Derived] {
            let warm = SweepRunner::new(42)
                .seed_policy(policy)
                .jobs(2)
                .warm_start(true)
                .run(&specs);
            let cold = SweepRunner::new(42)
                .seed_policy(policy)
                .jobs(2)
                .warm_start(false)
                .run(&specs);
            assert_eq!(
                warm.results_json(),
                cold.results_json(),
                "policy {policy:?}"
            );
            assert_eq!(
                fnv1a64(warm.results_json().as_bytes()),
                fnv1a64(cold.results_json().as_bytes())
            );
        }
    }

    #[test]
    fn checkpoint_lru_eviction_keeps_results_exact() {
        // Four distinct prefixes through a capacity-1 cache: every lookup
        // beyond the first of each prefix either re-warms or runs cold —
        // results must not depend on cache hits at all.
        let specs: Vec<ExperimentSpec> = (0..4)
            .map(|i| {
                let mut s = quick_spec(&format!("e{i}"), 0.4);
                s.scenario.seed = 1000 + i;
                s
            })
            .collect();
        let tiny = SweepRunner::new(9)
            .seed_policy(SeedPolicy::FromScenario)
            .checkpoint_capacity(1)
            .run(&specs);
        let cold = SweepRunner::new(9)
            .seed_policy(SeedPolicy::FromScenario)
            .warm_start(false)
            .run(&specs);
        assert_eq!(tiny.results_json(), cold.results_json());
    }

    #[test]
    fn prefix_hash_groups_points_and_splits_scenarios() {
        let a = quick_spec("a", 0.2);
        let b = quick_spec("b", 0.6); // same prefix, different attack/id
        assert_eq!(a.prefix_hash(), b.prefix_hash());
        let mut c = quick_spec("c", 0.2);
        c.scenario.seed ^= 1;
        assert_ne!(a.prefix_hash(), c.prefix_hash(), "seed is prefix-relevant");
        let d = quick_spec("d", 0.2).traced(SimDuration::from_millis(100));
        assert_ne!(
            a.prefix_hash(),
            d.prefix_hash(),
            "trace wiring is prefix-relevant"
        );
        let e = quick_spec("e", 0.2).window(SimDuration::from_secs(30));
        assert_eq!(a.prefix_hash(), e.prefix_hash(), "window is post-prefix");
    }

    #[test]
    fn infeasible_points_are_recorded_not_fatal() {
        // R_attack = 10 Mbps -> C_attack = 2/3: gamma = 0.8 infeasible.
        // A non-finite or non-positive width or rate is infeasible too,
        // on the forked path (fork, then plan) and the cold one (plan
        // first), never a panic.
        let specs: Vec<ExperimentSpec> = [
            (0.1, 10e6, 0.8),
            (-0.1, 30e6, 0.4),
            (f64::NAN, 30e6, 0.4),
            (0.1, 0.0, 0.4),
            (0.1, f64::INFINITY, 0.4),
        ]
        .iter()
        .enumerate()
        .map(|(i, &(t_extent, r_attack, gamma))| {
            let mut spec = quick_spec(&format!("inf{i}"), gamma);
            spec.attack = Some(AttackPoint {
                t_extent,
                r_attack,
                gamma,
            });
            spec
        })
        .collect();
        for warm in [true, false] {
            let report = SweepRunner::new(1).warm_start(warm).run(&specs);
            for r in &report.records {
                assert!(
                    matches!(r.outcome, RunOutcome::Infeasible { .. }),
                    "{}: {:?}",
                    r.id,
                    r.outcome
                );
            }
        }
    }

    #[test]
    fn benign_runs_report_goodput_and_trace() {
        let spec = ExperimentSpec::benign("base", quick_scenario(3))
            .warmup(SimDuration::from_secs(4))
            .window(SimDuration::from_secs(6))
            .traced(SimDuration::from_millis(100));
        let report = SweepRunner::new(5).run(&[spec]);
        match &report.records[0].outcome {
            RunOutcome::Benign {
                goodput_bytes,
                trace,
            } => {
                assert!(*goodput_bytes > 0);
                assert!((50..=65).contains(&trace.len()), "got {} bins", trace.len());
            }
            other => panic!("expected benign, got {other:?}"),
        }
    }

    #[test]
    fn report_json_is_wellformed_enough() {
        let report = SweepRunner::new(3).jobs(2).run(&[quick_spec("j", 0.3)]);
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"master_seed\":3"));
        assert!(json.contains("\"runs\":["));
        assert!(json.contains("\"status\":\"ok\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn stable_hash_and_derived_seed_are_pinned() {
        // Golden values: any change to the spec identity format, the
        // `Debug` representations feeding it, or the seed derivation
        // silently re-seeds every derived-policy sweep. If a change here
        // is *intentional*, update the constants and say so in the commit.
        let spec = quick_spec("pin", 0.5);
        assert_eq!(spec.stable_hash(), 0x6f14_23d5_379e_2643);
        assert_eq!(derive_seed(0, &spec), 0x8e4f_476b_4557_9e9e);
        assert_eq!(derive_seed(42, &spec), 0xc0b9_e410_12e1_d370);
    }

    #[test]
    fn checks_flag_is_hash_neutral() {
        let plain = quick_spec("n", 0.4);
        let checked = quick_spec("n", 0.4).checked();
        assert_eq!(plain.stable_hash(), checked.stable_hash());
        assert_eq!(derive_seed(9, &plain), derive_seed(9, &checked));
    }

    #[test]
    fn checked_spec_runs_clean_and_matches_unchecked() {
        let plain = SweepRunner::new(11).jobs(1).run(&[quick_spec("c", 0.4)]);
        let checked = SweepRunner::new(11)
            .jobs(1)
            .run(&[quick_spec("c", 0.4).checked()]);
        assert_eq!(plain.results_json(), checked.results_json());
        assert!(matches!(
            checked.records[0].outcome,
            RunOutcome::Point { .. }
        ));
    }

    #[test]
    fn panicking_spec_fails_without_sinking_the_sweep() {
        // An AIMD decrease ratio of 2.0 passes the type system but fails
        // TcpConfig::validate, so TcpSender::new panics while the
        // scenario builds — a stand-in for any agent bug.
        let mut bad = quick_spec("bad", 0.4);
        bad.scenario.tcp.aimd.b = 2.0;
        let specs = vec![quick_spec("ok1", 0.3), bad, quick_spec("ok2", 0.5)];
        let report = SweepRunner::new(2).jobs(2).run(&specs);
        assert_eq!(report.records.len(), 3);
        assert!(matches!(
            report.records[0].outcome,
            RunOutcome::Point { .. }
        ));
        match &report.records[1].outcome {
            RunOutcome::Failed { reason } => {
                assert!(reason.contains("worker panicked"), "got: {reason}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert!(matches!(
            report.records[2].outcome,
            RunOutcome::Point { .. }
        ));

        // The single-spec entry point survives the same panic.
        let mut lone = quick_spec("lone", 0.4);
        lone.scenario.tcp.aimd.b = 2.0;
        let record = SweepRunner::new(2).execute_one(&lone);
        assert!(matches!(record.outcome, RunOutcome::Failed { .. }));
    }

    #[test]
    fn metrics_flag_is_hash_neutral() {
        let plain = quick_spec("m", 0.4);
        let metered = quick_spec("m", 0.4).metered();
        assert_eq!(plain.stable_hash(), metered.stable_hash());
        assert_eq!(derive_seed(9, &plain), derive_seed(9, &metered));
    }

    #[test]
    fn metered_spec_runs_identically_and_carries_a_snapshot() {
        let plain = SweepRunner::new(11).jobs(1).run(&[quick_spec("m", 0.4)]);
        let metered = SweepRunner::new(11)
            .jobs(1)
            .run(&[quick_spec("m", 0.4).metered()]);
        // Physics and serialized results are untouched by observation.
        assert_eq!(plain.results_json(), metered.results_json());
        assert!(plain.records[0].metrics.is_none());
        assert!(plain.merged_metrics().is_none());
        let snap = metered.records[0]
            .metrics
            .as_ref()
            .expect("metered run carries a snapshot");
        assert!(snap.counter("engine", "pops_packet_tier").unwrap() > 0);
        assert_eq!(metered.merged_metrics().as_ref(), Some(snap));
    }

    /// Satellite fix: merging a sweep's metrics must skip Failed
    /// (panicked) workers explicitly — their counters are partial — and
    /// must not panic doing so.
    #[test]
    fn merged_metrics_excludes_failed_workers() {
        let mut bad = quick_spec("bad", 0.4).metered();
        bad.scenario.tcp.aimd.b = 2.0; // panics in TcpSender::new
        let specs = vec![
            quick_spec("ok1", 0.3).metered(),
            bad,
            quick_spec("ok2", 0.5).metered(),
        ];
        let report = SweepRunner::new(2).jobs(2).run(&specs);
        assert!(matches!(
            report.records[1].outcome,
            RunOutcome::Failed { .. }
        ));
        let merged = report.merged_metrics().expect("two runs succeeded");
        // The aggregate is exactly the two successful snapshots merged.
        let mut expected = report.records[0].metrics.clone().unwrap();
        expected.merge(report.records[2].metrics.as_ref().unwrap());
        assert_eq!(merged, expected);
        assert!(merged.counter("engine", "pops_packet_tier").unwrap() > 0);
    }

    #[test]
    fn warm_start_counters_reflect_amortization() {
        // Three attacked points over one scenario (one shared prefix):
        // exactly one cold warm-up, then one fork per measurement plus one
        // for the memoized baseline.
        let specs: Vec<ExperimentSpec> = [0.2, 0.4, 0.6]
            .iter()
            .enumerate()
            .map(|(i, &g)| quick_spec(&format!("a{i}"), g))
            .collect();
        let warm = SweepRunner::new(3)
            .seed_policy(SeedPolicy::FromScenario)
            .jobs(2)
            .run(&specs);
        assert_eq!(warm.warmups, 1, "one prefix, one cold start");
        assert_eq!(warm.forked_runs, 4, "3 points + 1 memoized baseline");
        let cold = SweepRunner::new(3)
            .seed_policy(SeedPolicy::FromScenario)
            .jobs(2)
            .warm_start(false)
            .run(&specs);
        assert_eq!((cold.warmups, cold.forked_runs), (0, 0));
        assert_eq!(warm.results_json(), cold.results_json());
        assert!(warm.to_json().contains("\"warmups\":1"));
    }

    #[test]
    fn fault_field_is_hash_neutral() {
        let plain = quick_spec("f", 0.4);
        let faulted = quick_spec("f", 0.4).faulted(SeededFault::LinkAccounting);
        assert_eq!(plain.stable_hash(), faulted.stable_hash());
        assert_eq!(plain.prefix_hash(), faulted.prefix_hash());
        assert_eq!(derive_seed(9, &plain), derive_seed(9, &faulted));
    }

    #[test]
    fn detect_flag_is_hash_neutral_but_prefix_relevant() {
        let plain = quick_spec("d", 0.4);
        let tapped = quick_spec("d", 0.4).tapped();
        // Seed identity is untouched: tapping never re-seeds a sweep.
        assert_eq!(plain.stable_hash(), tapped.stable_hash());
        assert_eq!(derive_seed(9, &plain), derive_seed(9, &tapped));
        // But a checkpoint physically carries the tap's bins, so tapped
        // and untapped runs must not share warm-start prefixes.
        assert_ne!(plain.prefix_hash(), tapped.prefix_hash());
    }

    #[test]
    fn tapped_spec_runs_identically() {
        let plain = SweepRunner::new(11).jobs(1).run(&[quick_spec("d", 0.4)]);
        let tapped = SweepRunner::new(11)
            .jobs(1)
            .run(&[quick_spec("d", 0.4).tapped()]);
        assert_eq!(plain.results_json(), tapped.results_json());
        assert!(matches!(
            tapped.records[0].outcome,
            RunOutcome::Point { .. }
        ));
    }

    #[test]
    fn faulted_spec_fails_only_when_checked() {
        let clean = SweepRunner::new(4).jobs(1).run(&[quick_spec("q", 0.4)]);
        for fault in [SeededFault::LinkAccounting, SeededFault::OmitLinkStats] {
            // The injected counter bug is invisible without the checkers
            // and leaves the physics untouched...
            let quiet = SweepRunner::new(4)
                .jobs(1)
                .run(&[quick_spec("q", 0.4).faulted(fault)]);
            assert!(matches!(quiet.records[0].outcome, RunOutcome::Point { .. }));
            assert_eq!(
                quiet.results_json(),
                clean.results_json(),
                "{fault:?} must not perturb physics"
            );
            // ...and an invariant-violation failure with them.
            let caught = SweepRunner::new(4)
                .jobs(1)
                .run(&[quick_spec("q", 0.4).faulted(fault).checked()]);
            match &caught.records[0].outcome {
                RunOutcome::Failed { reason } => {
                    assert!(reason.contains("violation"), "{fault:?}: got {reason}");
                }
                other => panic!("{fault:?}: expected Failed, got {other:?}"),
            }
        }
    }

    #[test]
    fn shards_field_is_hash_neutral_but_prefix_relevant() {
        let plain = quick_spec("s", 0.4);
        let sharded = quick_spec("s", 0.4).sharded(4);
        // Seed identity is untouched: sharding never re-seeds a sweep.
        assert_eq!(plain.stable_hash(), sharded.stable_hash());
        assert_eq!(derive_seed(9, &plain), derive_seed(9, &sharded));
        // But a checkpoint physically carries the shard structure, so
        // sharded and unsharded runs must not share warm-start prefixes.
        assert_ne!(plain.prefix_hash(), sharded.prefix_hash());
        // Requesting one shard IS the legacy engine — including its
        // pre-sharding prefix digest.
        assert_eq!(
            plain.prefix_hash(),
            quick_spec("s", 0.4).sharded(1).prefix_hash()
        );
    }

    /// Tentpole contract at the runner layer: a sharded sweep (with the
    /// warm-start cache forking sharded checkpoints) serializes byte-for-
    /// byte identically to the legacy engine's sweep.
    #[test]
    fn sharded_sweep_matches_unsharded_byte_for_byte() {
        let specs: Vec<ExperimentSpec> = [0.2, 0.6]
            .iter()
            .enumerate()
            .map(|(i, &g)| quick_spec(&format!("s{i}"), g))
            .collect();
        let plain = SweepRunner::new(11).jobs(1).run(&specs);
        for shards in [2, 4] {
            let sharded_specs: Vec<ExperimentSpec> =
                specs.iter().map(|s| s.clone().sharded(shards)).collect();
            let sharded = SweepRunner::new(11).jobs(2).run(&sharded_specs);
            assert_eq!(
                plain.results_json(),
                sharded.results_json(),
                "--shards {shards} must reproduce --shards 1"
            );
        }
    }

    #[test]
    fn shard_skew_drill_turns_a_checked_sharded_sweep_red() {
        let spec = quick_spec("skew", 0.4)
            .sharded(2)
            .checked()
            .faulted(SeededFault::ShardSkew);
        let report = SweepRunner::new(4).jobs(1).run(&[spec]);
        match &report.records[0].outcome {
            RunOutcome::Failed { reason } => {
                assert!(reason.contains("violation"), "got: {reason}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn baseline_cache_shares_equal_scenarios() {
        // Two gammas over the same scenario under FromScenario: both
        // records must be normalized by the same baseline.
        let specs = vec![quick_spec("g1", 0.3), quick_spec("g2", 0.6)];
        let report = SweepRunner::new(0)
            .seed_policy(SeedPolicy::FromScenario)
            .jobs(2)
            .run(&specs);
        assert_eq!(
            report.records[0].baseline_bytes,
            report.records[1].baseline_bytes
        );
        assert!(report.records[0].baseline_bytes > 0);
    }
}
