//! The campaign runner: generated families through the sweep runner and
//! the topology harness, every outcome audited, everything reported in
//! the stable `pdos-fuzz/1` JSON schema.
//!
//! ## Determinism contract
//!
//! A campaign report is a pure function of its [`CampaignConfig`] fields
//! `(scenarios, master_seed, budget_sim_secs, fault, bands)` — **not**
//! of `jobs` or wall-clock. Dumbbell families run through
//! [`SweepRunner`] under [`SeedPolicy::FromScenario`] in chunks of at
//! most [`CampaignConfig::checkpoint_capacity`] families, so every
//! family's warm-up prefix stays resident (no LRU evictions) and the
//! cold-start counters are scheduling-independent. Topology cases run
//! single-threaded. The report JSON therefore compares byte-identical
//! across `--jobs` settings — CI pins exactly that.

use crate::case::{format_case, CaseParams, DumbbellCase, FuzzCase, TopologyCase};
use crate::gen::{self, Family};
use crate::topo::run_topology;
use pdos_conformance::{check_cusum_equivalence, check_point, digest_bins, ToleranceBands};
use pdos_detect::cusum::CusumDetector;
use pdos_detect::streaming::StreamingCusum;
use pdos_scenarios::experiment::SeededFault;
use pdos_scenarios::runner::{
    ExperimentSpec, RunOutcome, RunRecord, SeedPolicy, SweepRunner, DEFAULT_CHECKPOINT_CAPACITY,
};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Configuration of one fuzz campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// Cases to generate (whole families, so a few more may run).
    pub scenarios: usize,
    /// Master seed: shapes generation and the runner's derived seeds.
    pub master_seed: u64,
    /// Budget in *simulated* seconds (`0` = uncapped); see
    /// [`gen::truncate_to_budget`] for the semantics.
    pub budget_sim_secs: u64,
    /// Worker threads for the sweep chunks (`0` = one per CPU). Does not
    /// affect the report bytes.
    pub jobs: usize,
    /// Families per sweep chunk — must not exceed the runner's
    /// checkpoint LRU capacity, or eviction makes the cold-start
    /// counters scheduling-dependent.
    pub checkpoint_capacity: usize,
    /// Deliberately inject this physics bug into every dumbbell case
    /// (self-test drills; topology cases are not faulted).
    pub fault: Option<SeededFault>,
    /// Replay budget per shrink (see `shrink`).
    pub shrink_budget: usize,
    /// Bands enforced on oracle-envelope cases.
    pub bands: ToleranceBands,
}

impl Default for CampaignConfig {
    /// PR-smoke defaults: 200 cases, uncapped budget, CI bands.
    fn default() -> CampaignConfig {
        CampaignConfig {
            scenarios: 200,
            master_seed: 7,
            budget_sim_secs: 0,
            jobs: 0,
            checkpoint_capacity: DEFAULT_CHECKPOINT_CAPACITY,
            fault: None,
            shrink_budget: 64,
            bands: ToleranceBands::ci_default(),
        }
    }
}

/// The campaign's violation taxonomy. Stable string forms (see
/// [`ViolationClass::as_str`]) appear in reports and repro files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationClass {
    /// The run failed hard: worker panic, build error, or a runtime
    /// invariant-checker violation.
    RunFailed,
    /// The drawn pulse parameters were infeasible — the generator is
    /// supposed to never draw these, so reaching it is a generator bug.
    Infeasible,
    /// A recorded analytic value disagreed with an independent
    /// recomputation through `pdos-analysis`.
    OracleIdentity,
    /// The measured gain left `[0, 1]` or went non-finite.
    GainRange,
    /// A right-side point breached the oracle's hard error ceiling.
    OracleBand,
    /// A topology run recorded checker violations or routeless packets.
    TopologyInvariant,
    /// Link-level packet conservation failed on a topology run.
    Conservation,
    /// A run that should carry traffic delivered zero goodput.
    NoTraffic,
    /// The streaming detector disagreed with its batch counterpart on
    /// the case's recorded trace (the equivalence contract of
    /// `pdos_conformance::equivalence`).
    DetectorMismatch,
}

impl ViolationClass {
    /// The stable kebab-case form used in reports and repro files.
    pub fn as_str(self) -> &'static str {
        match self {
            ViolationClass::RunFailed => "run-failed",
            ViolationClass::Infeasible => "infeasible",
            ViolationClass::OracleIdentity => "oracle-identity",
            ViolationClass::GainRange => "gain-range",
            ViolationClass::OracleBand => "oracle-band",
            ViolationClass::TopologyInvariant => "topology-invariant",
            ViolationClass::Conservation => "conservation",
            ViolationClass::NoTraffic => "no-traffic",
            ViolationClass::DetectorMismatch => "detector-mismatch",
        }
    }
}

/// Parses [`ViolationClass::as_str`] output.
impl std::str::FromStr for ViolationClass {
    type Err = String;

    fn from_str(s: &str) -> Result<ViolationClass, String> {
        Ok(match s {
            "run-failed" => ViolationClass::RunFailed,
            "infeasible" => ViolationClass::Infeasible,
            "oracle-identity" => ViolationClass::OracleIdentity,
            "gain-range" => ViolationClass::GainRange,
            "oracle-band" => ViolationClass::OracleBand,
            "topology-invariant" => ViolationClass::TopologyInvariant,
            "conservation" => ViolationClass::Conservation,
            "no-traffic" => ViolationClass::NoTraffic,
            "detector-mismatch" => ViolationClass::DetectorMismatch,
            other => return Err(format!("unknown violation class {other:?}")),
        })
    }
}

/// The stable text form of a campaign fault setting.
pub fn fault_to_str(fault: Option<SeededFault>) -> &'static str {
    match fault {
        None => "none",
        Some(SeededFault::LinkAccounting) => "link-accounting",
        Some(SeededFault::OmitLinkStats) => "omit-link-stats",
        Some(SeededFault::CubicWindow) => "cubic-window",
        Some(SeededFault::CusumDrift) => "cusum-drift",
        Some(SeededFault::ShardSkew) => "shard-skew",
    }
}

/// Parses [`fault_to_str`] output.
///
/// # Errors
///
/// Returns a message naming the unknown fault.
pub fn fault_from_str(s: &str) -> Result<Option<SeededFault>, String> {
    Ok(match s {
        "none" => None,
        "link-accounting" => Some(SeededFault::LinkAccounting),
        "omit-link-stats" => Some(SeededFault::OmitLinkStats),
        "cubic-window" => Some(SeededFault::CubicWindow),
        "cusum-drift" => Some(SeededFault::CusumDrift),
        "shard-skew" => Some(SeededFault::ShardSkew),
        other => return Err(format!("unknown fault {other:?}")),
    })
}

/// One case's verdict in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseResult {
    /// The case id.
    pub id: String,
    /// The case class tag (`oracle`, `diverse`, `flash-crowd`,
    /// `parking-lot`, `fat-tree`).
    pub kind: &'static str,
    /// `None` when the case passed, the violation class otherwise.
    pub violation: Option<ViolationClass>,
    /// Bins in the case's bottleneck ingress trace.
    pub n_bins: usize,
    /// The trace fingerprint (the golden file's `digest_bins` scheme);
    /// `None` when the run produced no trace.
    pub digest: Option<u64>,
    /// The measured gain of an attacked dumbbell case.
    pub g_sim: Option<f64>,
}

/// A minimized reproduction attached to a violation by the shrinker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShrunkRepro {
    /// The minimized parameters (still reproducing the same class).
    pub params: CaseParams,
    /// The violation detail observed at the minimized parameters.
    pub detail: String,
    /// Replays the shrink consumed.
    pub replays: usize,
}

/// One violation the campaign caught.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignViolation {
    /// The offending case.
    pub case: FuzzCase,
    /// Its violation class.
    pub class: ViolationClass,
    /// The full failure detail.
    pub detail: String,
    /// Filled by the shrinker; `None` until (or unless) shrunk.
    pub shrunk: Option<ShrunkRepro>,
}

/// The full campaign outcome, serializable as `pdos-fuzz/1`.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The master seed the campaign ran under.
    pub master_seed: u64,
    /// Cases requested (`--scenarios`).
    pub scenarios_requested: usize,
    /// The injected fault, if any.
    pub fault: Option<SeededFault>,
    /// Families the generator produced before the budget pass.
    pub families_generated: usize,
    /// Families that ran after the budget pass.
    pub families_run: usize,
    /// Cases generated before the budget pass.
    pub cases_generated: usize,
    /// Cases that ran.
    pub cases_run: usize,
    /// The configured budget (`0` = uncapped).
    pub budget_sim_secs: u64,
    /// Simulated seconds the full generated set would have cost.
    pub planned_sim_secs: u64,
    /// Simulated seconds actually run.
    pub sim_secs_run: u64,
    /// Whether the budget dropped any family.
    pub truncated: bool,
    /// Cold warm-up simulations across all sweep chunks — with family
    /// batching this counts *prefixes*, not cases, so it stays well
    /// under `cases_run` (the amortization evidence).
    pub warmups: usize,
    /// Runs that resumed from a forked checkpoint.
    pub forked_runs: usize,
    /// Oracle-envelope points measured.
    pub oracle_points: usize,
    /// Oracle points right of the gain maximum.
    pub oracle_right: usize,
    /// Right-side points inside the effective band.
    pub oracle_within: usize,
    /// Largest right-side error observed.
    pub oracle_max_abs_err: f64,
    /// Per-case verdicts, in generation order.
    pub results: Vec<CaseResult>,
    /// Violations, in generation order.
    pub violations: Vec<CampaignViolation>,
}

/// What evaluating one dumbbell record concluded.
struct DumbbellEval {
    g_sim: Option<f64>,
    trace: Vec<u64>,
    violation: Option<(ViolationClass, String)>,
    right_err: Option<f64>,
    within: bool,
}

/// Classifies an oracle failure string into the campaign taxonomy. The
/// strings are produced by `check_point` and stable.
fn classify_failure(detail: &str) -> ViolationClass {
    if detail.contains("out of range") {
        ViolationClass::GainRange
    } else if detail.contains("hard ceiling") {
        ViolationClass::OracleBand
    } else {
        ViolationClass::OracleIdentity
    }
}

fn evaluate_dumbbell(
    id: &str,
    c: &DumbbellCase,
    record: &RunRecord,
    bands: &ToleranceBands,
    fault: Option<SeededFault>,
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
            // Oracle-envelope cases are held to the CI bands; diverse
            // cases only to the identity and range checks (the bands were
            // tuned on the oracle distribution), so their band gate is
            // pushed out of reach.
            let effective = if c.oracle {
                *bands
            } else {
                ToleranceBands {
                    gamma_right: 2.0,
                    ..*bands
                }
            };
            let verdict = check_point(id, &c.scenario(), attack, point, &effective);
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
    // The detector-equivalence stage: cases drawn with detect=on — and
    // every dumbbell case under the cusum-drift drill — hold their
    // recorded trace to the batch-vs-streaming contract. The drill
    // desynchronizes the streaming state by one bin before the check,
    // which the equivalence comparison must flag.
    let drill = fault == Some(SeededFault::CusumDrift);
    if eval.violation.is_none() && !eval.trace.is_empty() && (c.detect || drill) {
        let calib = (eval.trace.len() / 2).max(2);
        let mut streaming = StreamingCusum::new(calib, 0.5, 8.0);
        if drill {
            streaming.push(eval.trace[0]);
        }
        let failures = check_cusum_equivalence(
            id,
            &CusumDetector::new(calib, 0.5, 8.0),
            &mut streaming,
            &eval.trace,
        );
        if !failures.is_empty() {
            eval.violation = Some((ViolationClass::DetectorMismatch, failures.join("; ")));
        }
    }
    eval
}

fn evaluate_topology(c: &TopologyCase) -> (Vec<u64>, Option<(ViolationClass, String)>) {
    let out = run_topology(c);
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

/// Builds the runner spec for a dumbbell case under `cfg` (applying the
/// campaign fault, if set). The shard-skew drill additionally forces
/// every case onto the sharded engine: the fault is a no-op unsharded
/// (there are no cross-shard channels to skew), so a drill that left the
/// cases at `shards = 1` would catch nothing.
fn dumbbell_spec(id: &str, c: &DumbbellCase, cfg: &CampaignConfig) -> ExperimentSpec {
    let spec = c.spec(id);
    match cfg.fault {
        Some(f @ SeededFault::ShardSkew) => spec.sharded(c.shards.max(2) as usize).faulted(f),
        Some(f) => spec.faulted(f),
        None => spec,
    }
}

/// Re-evaluates a single case exactly as the campaign would — the
/// shrinker's replay primitive. Under [`SeedPolicy::FromScenario`] the
/// case's physics seed is its own, so a solo replay reproduces the
/// campaign run bit-for-bit regardless of ids or worker counts.
pub fn evaluate_params(
    params: &CaseParams,
    cfg: &CampaignConfig,
) -> Option<(ViolationClass, String)> {
    match params {
        CaseParams::Dumbbell(c) => {
            let spec = dumbbell_spec("replay", c, cfg);
            let record = SweepRunner::new(cfg.master_seed)
                .seed_policy(SeedPolicy::FromScenario)
                .jobs(1)
                .execute_one(&spec);
            evaluate_dumbbell("replay", c, &record, &cfg.bands, cfg.fault).violation
        }
        CaseParams::Topology(c) => evaluate_topology(c).1,
    }
}

/// Runs the campaign (generation → budget → sweeps → audit). Does not
/// shrink — see `shrink::shrink_report` for that pass.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let mut families = gen::generate(cfg.master_seed, cfg.scenarios);
    let families_generated = families.len();
    let cases_generated: usize = families.iter().map(|f| f.cases.len()).sum();
    let plan = gen::truncate_to_budget(&mut families, cfg.budget_sim_secs);

    // Dumbbell families run through the sweep runner in chunks of at
    // most `checkpoint_capacity` families (one warm-up prefix each), so
    // the checkpoint LRU never evicts and the cold-start counters are
    // deterministic. Caches are per-`run` call, so chunking is also what
    // bounds peak memory to `capacity` simulator images.
    let cap = cfg.checkpoint_capacity.max(1);
    let dumbbell: Vec<&Family> = families.iter().filter(|f| f.is_dumbbell()).collect();
    let mut records: HashMap<String, RunRecord> = HashMap::new();
    let mut warmups = 0;
    let mut forked_runs = 0;
    for chunk in dumbbell.chunks(cap) {
        let specs: Vec<ExperimentSpec> = chunk
            .iter()
            .flat_map(|f| &f.cases)
            .map(|case| {
                let CaseParams::Dumbbell(c) = &case.params else {
                    unreachable!("dumbbell family holds dumbbell cases")
                };
                dumbbell_spec(&case.id, c, cfg)
            })
            .collect();
        let report = SweepRunner::new(cfg.master_seed)
            .seed_policy(SeedPolicy::FromScenario)
            .jobs(cfg.jobs)
            .checkpoint_capacity(cap)
            .run(&specs);
        warmups += report.warmups;
        forked_runs += report.forked_runs;
        for r in report.records {
            records.insert(r.id.clone(), r);
        }
    }

    // Audit every case in generation order (topology cases run here,
    // single-threaded — they are few and must not depend on `jobs`).
    let mut results = Vec::new();
    let mut violations = Vec::new();
    let mut oracle_points = 0;
    let mut oracle_right = 0;
    let mut oracle_within = 0;
    let mut oracle_max_abs_err = 0.0f64;
    for family in &families {
        for case in &family.cases {
            let (violation, trace, g_sim) = match &case.params {
                CaseParams::Dumbbell(c) => {
                    let record = records
                        .get(&case.id)
                        .expect("every dumbbell case was swept");
                    let eval = evaluate_dumbbell(&case.id, c, record, &cfg.bands, cfg.fault);
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
                    let (bins, violation) = evaluate_topology(c);
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

impl CampaignReport {
    /// Whether the campaign found no violations.
    pub fn pass(&self) -> bool {
        self.violations.is_empty()
    }

    /// Serializes the report in the stable `pdos-fuzz/1` schema. No
    /// wall-clock, worker-count or host field enters the output — the
    /// bytes are a pure function of the campaign's deterministic inputs.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        let _ = write!(
            s,
            "{{\"schema\":\"pdos-fuzz/1\",\"master_seed\":{},\
             \"scenarios_requested\":{},\"fault\":{},\
             \"families_generated\":{},\"families_run\":{},\
             \"cases_generated\":{},\"cases_run\":{},\
             \"budget_sim_secs\":{},\"planned_sim_secs\":{},\
             \"sim_secs_run\":{},\"budget_truncated\":{},\
             \"warmups\":{},\"forked_runs\":{},\
             \"oracle\":{{\"points\":{},\"right\":{},\"within\":{},\
             \"max_abs_err\":{}}},\"cases\":[",
            self.master_seed,
            self.scenarios_requested,
            json_str(fault_to_str(self.fault)),
            self.families_generated,
            self.families_run,
            self.cases_generated,
            self.cases_run,
            self.budget_sim_secs,
            self.planned_sim_secs,
            self.sim_secs_run,
            self.truncated,
            self.warmups,
            self.forked_runs,
            self.oracle_points,
            self.oracle_right,
            self.oracle_within,
            self.oracle_max_abs_err,
        );
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"id\":{},\"kind\":{},\"status\":{},\"n_bins\":{},\"digest\":{},\"g_sim\":{}}}",
                json_str(&r.id),
                json_str(r.kind),
                json_str(r.violation.map_or("pass", ViolationClass::as_str)),
                r.n_bins,
                r.digest
                    .map_or_else(|| "null".to_string(), |d| json_str(&format!("{d:#018x}"))),
                r.g_sim
                    .map_or_else(|| "null".to_string(), |g| g.to_string()),
            );
        }
        s.push_str("],\"violations\":[");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let shrunk = match &v.shrunk {
                None => "null".to_string(),
                Some(sh) => format!(
                    "{{\"case\":{},\"detail\":{},\"replays\":{}}}",
                    json_str(&format_case(&sh.params)),
                    json_str(&sh.detail),
                    sh.replays
                ),
            };
            let _ = write!(
                s,
                "{{\"id\":{},\"class\":{},\"detail\":{},\"case\":{},\"shrunk\":{}}}",
                json_str(&v.case.id),
                json_str(v.class.as_str()),
                json_str(&v.detail),
                json_str(&format_case(&v.case.params)),
                shrunk,
            );
        }
        s.push_str("]}");
        s
    }

    /// A short human-readable summary for CLI output.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "fuzz: {} case(s) in {} family(ies), {} sim-sec ({})",
            self.cases_run,
            self.families_run,
            self.sim_secs_run,
            if self.truncated {
                format!(
                    "budget-truncated from {} case(s) / {} sim-sec",
                    self.cases_generated, self.planned_sim_secs
                )
            } else {
                "within budget".to_string()
            }
        );
        let _ = writeln!(
            s,
            "  warm starts: {} cold warm-up(s), {} forked run(s) \
             (family batching amortizes {} case(s))",
            self.warmups, self.forked_runs, self.cases_run
        );
        if self.oracle_points > 0 {
            let _ = writeln!(
                s,
                "  oracle: {} point(s), {} right-side, {} within band, max |err| {:.4}",
                self.oracle_points, self.oracle_right, self.oracle_within, self.oracle_max_abs_err
            );
        }
        if self.pass() {
            let _ = writeln!(s, "  no violations");
        } else {
            let _ = writeln!(s, "  {} violation(s):", self.violations.len());
            for v in &self.violations {
                let _ = writeln!(s, "    {} [{}]: {}", v.case.id, v.class.as_str(), v.detail);
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::parse_case;

    /// A small config that still exercises dumbbell sweeps: the smallest
    /// master seed whose generated set contains a multi-case dumbbell
    /// family (found by deterministic scan, so the test never flakes).
    fn small_cfg() -> CampaignConfig {
        let seed = (0u64..64)
            .find(|&s| {
                gen::generate(s, 5)
                    .iter()
                    .any(|f| f.is_dumbbell() && f.cases.len() >= 2)
            })
            .expect("some small seed draws a multi-case dumbbell family");
        CampaignConfig {
            scenarios: 5,
            master_seed: seed,
            jobs: 1,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn campaign_is_byte_identical_across_worker_counts() {
        let cfg = small_cfg();
        let one = run_campaign(&CampaignConfig { jobs: 1, ..cfg });
        let two = run_campaign(&CampaignConfig { jobs: 2, ..cfg });
        assert_eq!(one.to_json(), two.to_json());
        assert!(one.pass(), "clean physics must pass: {}", one.summary());
    }

    #[test]
    fn family_batching_amortizes_warmups() {
        let cfg = small_cfg();
        let report = run_campaign(&cfg);
        let dumbbell_cases = report
            .results
            .iter()
            .filter(|r| matches!(r.kind, "oracle" | "diverse" | "flash-crowd"))
            .count();
        assert!(dumbbell_cases >= 2, "seed scan guarantees a family");
        assert!(
            report.warmups < dumbbell_cases,
            "prefix sharing must beat one-cold-start-per-case: {} warmups for {} cases",
            report.warmups,
            dumbbell_cases
        );
        assert!(report.forked_runs > 0);
        // Every successful case carries a trace digest.
        for r in &report.results {
            assert!(r.violation.is_some() || r.digest.is_some(), "{}", r.id);
        }
    }

    #[test]
    fn budget_cap_shrinks_the_run_and_is_reported() {
        let base = small_cfg();
        let full = run_campaign(&base);
        let capped = run_campaign(&CampaignConfig {
            budget_sim_secs: full.planned_sim_secs / 2,
            ..base
        });
        assert!(capped.truncated);
        assert!(capped.cases_run < full.cases_run || capped.families_run < full.families_run);
        assert!(capped.sim_secs_run <= full.planned_sim_secs / 2);
        // The capped run is a prefix of the full run, case for case.
        for (c, f) in capped.results.iter().zip(&full.results) {
            assert_eq!(c, f);
        }
        assert!(capped.to_json().contains("\"budget_truncated\":true"));
    }

    #[test]
    fn report_json_is_wellformed_enough() {
        let report = run_campaign(&small_cfg());
        let json = report.to_json();
        assert!(json.starts_with("{\"schema\":\"pdos-fuzz/1\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"warmups\":"));
        assert!(!json.contains("wall"), "no wall-clock may enter the report");
    }

    /// A dumbbell too large for memory fails its run with the node limit
    /// in the detail, instead of aborting the process.
    #[test]
    fn oversized_dumbbells_are_failed_runs_naming_the_limit() {
        let base = "topo=dumbbell class=diverse base=ns2 flows=3 queue=red mice=0 loss_e4=0 \
                    rtt=paper seed=1 warmup_s=2 window_s=4 attack=none";
        for line in [
            base.replace("flows=3", "flows=100000"),
            format!("{base} crowd=100000"),
        ] {
            let params = parse_case(&line).expect(&line);
            let (class, detail) =
                evaluate_params(&params, &CampaignConfig::default()).expect("the run fails");
            assert_eq!(class, ViolationClass::RunFailed, "{line}: {detail}");
            assert!(detail.contains("limit of 11585"), "{line}: {detail}");
        }
    }

    #[test]
    fn class_and_fault_strings_round_trip() {
        use ViolationClass as V;
        for class in [
            V::RunFailed,
            V::Infeasible,
            V::OracleIdentity,
            V::GainRange,
            V::OracleBand,
            V::TopologyInvariant,
            V::Conservation,
            V::NoTraffic,
            V::DetectorMismatch,
        ] {
            assert_eq!(class.as_str().parse::<V>().unwrap(), class);
        }
        assert!("nope".parse::<V>().is_err());
        for fault in [
            None,
            Some(SeededFault::LinkAccounting),
            Some(SeededFault::OmitLinkStats),
            Some(SeededFault::CubicWindow),
            Some(SeededFault::CusumDrift),
            Some(SeededFault::ShardSkew),
        ] {
            assert_eq!(fault_from_str(fault_to_str(fault)).unwrap(), fault);
        }
        assert!(fault_from_str("nope").is_err());
    }
}
