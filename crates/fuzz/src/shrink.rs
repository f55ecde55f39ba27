//! Shrink-on-violation: deterministic minimization of a failing case
//! and self-contained `pdos-fuzz-repro/1` files.
//!
//! The shrinker replays transformed copies of the failing case through
//! the exact campaign evaluation path ([`evaluate_params`]) and accepts
//! a candidate only when it reproduces the **same violation class**.
//! Transformations are tried in a fixed order and the loop runs to a
//! fixpoint, bounded by [`CampaignConfig::shrink_budget`] replays — so
//! shrinking is as deterministic as the campaign itself.

use crate::campaign::{
    evaluate_params, fault_from_str, fault_to_str, CampaignConfig, CampaignReport,
    CampaignViolation, ShrunkRepro, ViolationClass,
};
use crate::case::{format_case, parse_case, BaseScenario, CaseParams, RttProfile};
use pdos_scenarios::experiment::SeededFault;
use pdos_scenarios::spec::BottleneckQueue;
use std::fmt::Write as _;

/// Violations shrunk per report: shrinking replays simulations, so a
/// campaign drowning in violations (a deep physics regression) shrinks
/// only the first few — enough to debug, bounded in cost.
pub const MAX_SHRINKS_PER_REPORT: usize = 8;

/// The ordered simplification candidates for `params`, given the
/// violation class being preserved. Oracle-verdict classes restrict to
/// flow reduction — any other transformation would move the case off
/// the oracle envelope the bands were tuned on, making the "violation"
/// meaningless at the shrunk parameters.
fn candidates(params: &CaseParams, class: ViolationClass) -> Vec<CaseParams> {
    let mut out = Vec::new();
    match params {
        CaseParams::Dumbbell(c) => {
            let oracle_verdict = matches!(
                class,
                ViolationClass::OracleIdentity
                    | ViolationClass::GainRange
                    | ViolationClass::OracleBand
            );
            let min_flows = if oracle_verdict { 3 } else { 2 };
            let mut push = |c| out.push(CaseParams::Dumbbell(c));
            if c.n_flows / 2 >= min_flows {
                let mut n = c.clone();
                n.n_flows /= 2;
                push(n);
            }
            if c.n_flows > min_flows {
                let mut n = c.clone();
                n.n_flows -= 1;
                push(n);
            }
            if oracle_verdict {
                return out;
            }
            if c.mice_flows > 0 {
                let mut n = c.clone();
                n.mice_flows = 0;
                push(n);
            }
            if c.crowd > 0 {
                let mut n = c.clone();
                n.crowd = 0;
                push(n);
            }
            if c.shards > 1 {
                // Simplify toward the sequential engine. A shard-skew
                // drill still reproduces: the campaign forces faulted
                // cases onto the sharded engine regardless of the case's
                // own shard count.
                let mut n = c.clone();
                n.shards = 1;
                push(n);
            }
            if c.loss_e4 > 0 {
                let mut n = c.clone();
                n.loss_e4 = 0;
                push(n);
            }
            if c.window_s > 4 {
                let mut n = c.clone();
                n.window_s = (c.window_s / 2).max(4);
                push(n);
            }
            if c.warmup_s > 2 {
                let mut n = c.clone();
                n.warmup_s = (c.warmup_s / 2).max(2);
                push(n);
            }
            if c.base == BaseScenario::Testbed {
                let mut n = c.clone();
                n.base = BaseScenario::Ns2;
                push(n);
            }
            if c.queue != BottleneckQueue::Red {
                let mut n = c.clone();
                n.queue = BottleneckQueue::Red;
                push(n);
            }
            if c.rtt != RttProfile::Paper {
                let mut n = c.clone();
                n.rtt = RttProfile::Paper;
                push(n);
            }
            if c.cc != pdos_tcp::cc::CcSpec::Aimd {
                // Simplify toward the paper's sender: a bug that still
                // reproduces under AIMD is not algorithm-specific.
                let mut n = c.clone();
                n.cc = pdos_tcp::cc::CcSpec::Aimd;
                push(n);
            }
            if let Some(a) = c.attack {
                if a.extent_ms > 50 {
                    let mut n = c.clone();
                    n.attack = Some(crate::case::AttackParams { extent_ms: 50, ..a });
                    push(n);
                }
            }
        }
        CaseParams::Topology(c) => {
            let mut push = |c| out.push(CaseParams::Topology(c));
            if c.groups > 1 {
                let mut n = *c;
                n.groups = 1;
                push(n);
                let mut n = *c;
                n.groups -= 1;
                push(n);
            }
            if c.run_s > 8 {
                let mut n = *c;
                n.run_s = (c.run_s / 2).max(8);
                push(n);
            }
            // The flow-bank dimension shrinks toward the smallest bank
            // that still reproduces — a violation that survives at 64
            // flows is not a scale bug.
            if c.flows > 64 {
                let mut n = *c;
                n.flows = (c.flows / 2).max(64);
                push(n);
                let mut n = *c;
                n.flows = 64;
                push(n);
            }
        }
    }
    out
}

/// Minimizes `params` while preserving `class`, starting from the
/// campaign-observed `detail`. Every accepted candidate replayed with
/// [`evaluate_params`] under the campaign's own config, so the shrunk
/// case fails for the same reason the original did.
pub fn shrink(
    params: &CaseParams,
    class: ViolationClass,
    detail: &str,
    cfg: &CampaignConfig,
) -> ShrunkRepro {
    let mut best = params.clone();
    let mut best_detail = detail.to_string();
    let mut replays = 0;
    'fixpoint: loop {
        for cand in candidates(&best, class) {
            if replays >= cfg.shrink_budget {
                break 'fixpoint;
            }
            replays += 1;
            if let Some((hit, hit_detail)) = evaluate_params(&cand, cfg) {
                if hit == class {
                    best = cand;
                    best_detail = hit_detail;
                    continue 'fixpoint;
                }
            }
        }
        break;
    }
    ShrunkRepro {
        params: best,
        detail: best_detail,
        replays,
    }
}

/// Shrinks the first [`MAX_SHRINKS_PER_REPORT`] violations of `report`
/// in place.
pub fn shrink_report(report: &mut CampaignReport, cfg: &CampaignConfig) {
    for v in report.violations.iter_mut().take(MAX_SHRINKS_PER_REPORT) {
        v.shrunk = Some(shrink(&v.case.params, v.class, &v.detail, cfg));
    }
}

/// A parsed self-contained reproduction file.
#[derive(Debug, Clone, PartialEq)]
pub struct ReproFile {
    /// The originating case id.
    pub id: String,
    /// The violation class the case must reproduce.
    pub class: ViolationClass,
    /// The violation detail observed when the repro was written.
    pub detail: String,
    /// The campaign master seed (drives derived run seeds).
    pub master_seed: u64,
    /// The campaign fault injection, if any.
    pub fault: Option<SeededFault>,
    /// The (shrunk) case parameters.
    pub params: CaseParams,
}

/// Flattens newlines out of a detail string so it fits one repro line.
fn one_line(s: &str) -> String {
    s.replace(['\n', '\r'], "; ")
}

/// Renders a violation as a self-contained `pdos-fuzz-repro/1` file.
/// Uses the shrunk parameters when the violation carries them, the
/// original case otherwise; the original line rides along as a comment
/// field either way.
pub fn format_repro(v: &CampaignViolation, cfg: &CampaignConfig) -> String {
    let (params, detail) = match &v.shrunk {
        Some(sh) => (&sh.params, sh.detail.as_str()),
        None => (&v.case.params, v.detail.as_str()),
    };
    let mut s = String::with_capacity(512);
    let _ = writeln!(s, "pdos-fuzz-repro/1");
    let _ = writeln!(s, "id = {}", v.case.id);
    let _ = writeln!(s, "class = {}", v.class.as_str());
    let _ = writeln!(s, "detail = {}", one_line(detail));
    let _ = writeln!(s, "master_seed = {}", cfg.master_seed);
    let _ = writeln!(s, "fault = {}", fault_to_str(cfg.fault));
    let _ = writeln!(s, "case = {}", format_case(params));
    let _ = writeln!(s, "original = {}", format_case(&v.case.params));
    s
}

/// Parses a `pdos-fuzz-repro/1` file. Unknown keys are ignored (the
/// `original =` line is informational).
///
/// # Errors
///
/// Returns a message naming the malformed or missing field.
pub fn parse_repro(text: &str) -> Result<ReproFile, String> {
    let mut lines = text.lines();
    let header = lines.next().map(str::trim).unwrap_or_default();
    if header != "pdos-fuzz-repro/1" {
        return Err(format!("not a pdos-fuzz-repro/1 file (header {header:?})"));
    }
    let mut id = None;
    let mut class = None;
    let mut detail = None;
    let mut master_seed = None;
    let mut fault = None;
    let mut params = None;
    for line in lines {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("malformed line {line:?} (expected key = value)"))?;
        let (key, value) = (key.trim(), value.trim());
        match key {
            "id" => id = Some(value.to_string()),
            "class" => class = Some(value.parse::<ViolationClass>()?),
            "detail" => detail = Some(value.to_string()),
            "master_seed" => {
                master_seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("bad master_seed: {e}"))?,
                );
            }
            "fault" => fault = Some(fault_from_str(value)?),
            "case" => params = Some(parse_case(value)?),
            _ => {}
        }
    }
    Ok(ReproFile {
        id: id.ok_or("missing id =")?,
        class: class.ok_or("missing class =")?,
        detail: detail.unwrap_or_default(),
        master_seed: master_seed.ok_or("missing master_seed =")?,
        fault: fault.ok_or("missing fault =")?,
        params: params.ok_or("missing case =")?,
    })
}

/// Replays a repro file through the campaign evaluation path. Returns
/// the violation observed at the recorded parameters (which reproduction
/// requires to match [`ReproFile::class`]), or `None` when the case now
/// passes — i.e. the bug is fixed.
pub fn replay_repro(repro: &ReproFile) -> Option<(ViolationClass, String)> {
    let cfg = CampaignConfig {
        master_seed: repro.master_seed,
        fault: repro.fault,
        jobs: 1,
        ..CampaignConfig::default()
    };
    evaluate_params(&repro.params, &cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;
    use crate::case::{DumbbellCase, TopoKind, TopologyCase};
    use crate::gen;

    /// The seeded-fault drill the issue pins: inject a known physics bug,
    /// assert the campaign catches it, the shrinker minimizes it below a
    /// pinned size, and the emitted repro file replays to the same
    /// violation class.
    #[test]
    fn seeded_fault_drill_catches_shrinks_and_replays() {
        // Deterministic seed scan: the smallest master seed whose first
        // generated set (2 cases) contains a multi-case dumbbell family.
        let seed = (0u64..64)
            .find(|&s| {
                gen::generate(s, 2)
                    .iter()
                    .any(|f| f.is_dumbbell() && f.cases.len() >= 2)
            })
            .expect("some small seed draws a dumbbell family");
        let cfg = CampaignConfig {
            scenarios: 2,
            master_seed: seed,
            jobs: 1,
            fault: Some(SeededFault::LinkAccounting),
            shrink_budget: 12,
            ..CampaignConfig::default()
        };
        let mut report = run_campaign(&cfg);

        // 1. The campaign catches the injected bug on every faulted
        //    (dumbbell) case, as an invariant-checker failure.
        assert!(!report.pass(), "the drill must catch the seeded fault");
        let dumbbell_violations = report
            .violations
            .iter()
            .filter(|v| matches!(v.case.params, CaseParams::Dumbbell(_)))
            .count();
        assert!(dumbbell_violations >= 2, "every faulted case must fail");
        for v in &report.violations {
            assert_eq!(v.class, ViolationClass::RunFailed, "{}", v.detail);
            assert!(v.detail.contains("violation"), "got: {}", v.detail);
        }

        // 2. The shrinker minimizes below the pinned size while still
        //    reproducing the same class.
        shrink_report(&mut report, &cfg);
        let v = &report.violations[0];
        let sh = v.shrunk.as_ref().expect("first violation was shrunk");
        let CaseParams::Dumbbell(c) = &sh.params else {
            panic!("faulted violations are dumbbell cases")
        };
        assert!(c.n_flows <= 3, "flows shrunk: {}", c.n_flows);
        assert!(c.window_s <= 4, "window shrunk: {}", c.window_s);
        assert_eq!((c.mice_flows, c.loss_e4), (0, 0), "traffic mix shrunk");
        assert!(sh.replays <= cfg.shrink_budget);

        // 3. The emitted repro file round-trips and replays to the same
        //    violation class.
        let text = format_repro(v, &cfg);
        let repro = parse_repro(&text).expect("repro file parses");
        assert_eq!(repro.class, v.class);
        assert_eq!(repro.params, sh.params);
        let (hit, detail) = replay_repro(&repro).expect("the shrunk case still fails");
        assert_eq!(hit, v.class, "replay reproduces the class: {detail}");
    }

    /// The CC-layer drill: `--fault cubic-window` plants a non-finite
    /// window (the broken-CUBIC failure shape) in every dumbbell case;
    /// the campaign must catch it as an invariant failure, the shrinker
    /// must minimize it, and the repro must replay to the same class.
    #[test]
    fn cubic_window_fault_drill_catches_shrinks_and_replays() {
        // Deterministic seed scan for an affected multi-case dumbbell
        // family. BBR-lite recomputes cwnd from its bandwidth filter on
        // every ACK — repairing the planted NaN — so the scan requires a
        // family on one of the other three algorithms.
        let affected = |f: &gen::Family| {
            f.cases.len() >= 2
                && f.cases.iter().all(|case| match &case.params {
                    CaseParams::Dumbbell(c) => c.cc != pdos_tcp::cc::CcSpec::BbrLite,
                    CaseParams::Topology(_) => false,
                })
        };
        let seed = (0u64..64)
            .find(|&s| gen::generate(s, 2).iter().any(affected))
            .expect("some small seed draws an affected dumbbell family");
        let cfg = CampaignConfig {
            scenarios: 2,
            master_seed: seed,
            jobs: 1,
            fault: Some(SeededFault::CubicWindow),
            shrink_budget: 24,
            ..CampaignConfig::default()
        };
        let mut report = run_campaign(&cfg);

        // 1. The TCP window audit catches the planted CC bug.
        assert!(!report.pass(), "the drill must catch the seeded CC fault");
        let idx = report
            .violations
            .iter()
            .position(|v| v.class == ViolationClass::RunFailed && v.detail.contains("cwnd"))
            .expect("a cwnd window violation is reported");

        // 2. The shrinker minimizes while preserving the class.
        shrink_report(&mut report, &cfg);
        let v = &report.violations[idx];
        let sh = v.shrunk.as_ref().expect("violation within shrink quota");
        let CaseParams::Dumbbell(c) = &sh.params else {
            panic!("faulted violations are dumbbell cases")
        };
        assert!(c.n_flows <= 3, "flows shrunk: {}", c.n_flows);
        assert!(sh.replays <= cfg.shrink_budget);

        // 3. The repro file round-trips and replays to the same class.
        let text = format_repro(v, &cfg);
        assert!(text.contains("fault = cubic-window"));
        let repro = parse_repro(&text).expect("repro file parses");
        assert_eq!(repro.fault, Some(SeededFault::CubicWindow));
        assert_eq!(repro.params, sh.params);
        let (hit, detail) = replay_repro(&repro).expect("the shrunk case still fails");
        assert_eq!(hit, v.class, "replay reproduces the class: {detail}");
    }

    /// The detector-layer drill: `--fault cusum-drift` desynchronizes
    /// the streaming CUSUM by one bin at evaluation time (the engine
    /// physics is untouched — the fault is a no-op there); the
    /// campaign's equivalence stage must catch it as a
    /// detector-mismatch, the shrinker must minimize it, and the repro
    /// must replay to the same class.
    #[test]
    fn cusum_drift_fault_drill_catches_shrinks_and_replays() {
        // Deterministic seed scan: the smallest master seed whose first
        // generated set contains a multi-case dumbbell family.
        let seed = (0u64..64)
            .find(|&s| {
                gen::generate(s, 2)
                    .iter()
                    .any(|f| f.is_dumbbell() && f.cases.len() >= 2)
            })
            .expect("some small seed draws a dumbbell family");
        let cfg = CampaignConfig {
            scenarios: 2,
            master_seed: seed,
            jobs: 1,
            fault: Some(SeededFault::CusumDrift),
            shrink_budget: 12,
            ..CampaignConfig::default()
        };
        let mut report = run_campaign(&cfg);

        // 1. The equivalence stage flags the drifted streaming state.
        assert!(!report.pass(), "the drill must catch the drifted detector");
        let idx = report
            .violations
            .iter()
            .position(|v| v.class == ViolationClass::DetectorMismatch)
            .expect("a detector-mismatch violation is reported");

        // 2. The shrinker minimizes while preserving the class.
        shrink_report(&mut report, &cfg);
        let v = &report.violations[idx];
        let sh = v.shrunk.as_ref().expect("violation within shrink quota");
        let CaseParams::Dumbbell(c) = &sh.params else {
            panic!("drifted violations are dumbbell cases")
        };
        assert!(c.n_flows <= 3, "flows shrunk: {}", c.n_flows);
        assert!(sh.replays <= cfg.shrink_budget);

        // 3. The repro file round-trips and replays to the same class.
        let text = format_repro(v, &cfg);
        assert!(text.contains("fault = cusum-drift"));
        assert!(text.contains("class = detector-mismatch"));
        let repro = parse_repro(&text).expect("repro file parses");
        assert_eq!(repro.fault, Some(SeededFault::CusumDrift));
        assert_eq!(repro.params, sh.params);
        let (hit, detail) = replay_repro(&repro).expect("the shrunk case still fails");
        assert_eq!(hit, v.class, "replay reproduces the class: {detail}");
    }

    /// The sharding drill: `--fault shard-skew` delivers one cross-shard
    /// packet *before* the conservative-lookahead window on every
    /// dumbbell case (the campaign forces faulted cases onto the sharded
    /// engine, since the fault is a no-op unsharded); the engine's
    /// clock-monotonicity checker must flag the run, the shrinker must
    /// minimize it, and the emitted `.repro` must replay red.
    #[test]
    fn shard_skew_fault_drill_catches_shrinks_and_replays() {
        // Deterministic seed scan: the smallest master seed whose first
        // generated set (2 cases) contains a multi-case dumbbell family.
        let seed = (0u64..64)
            .find(|&s| {
                gen::generate(s, 2)
                    .iter()
                    .any(|f| f.is_dumbbell() && f.cases.len() >= 2)
            })
            .expect("some small seed draws a dumbbell family");
        let cfg = CampaignConfig {
            scenarios: 2,
            master_seed: seed,
            jobs: 1,
            fault: Some(SeededFault::ShardSkew),
            shrink_budget: 12,
            ..CampaignConfig::default()
        };
        let mut report = run_campaign(&cfg);

        // 1. The invariant checkers catch the skewed delivery.
        assert!(!report.pass(), "the drill must catch the skewed shard");
        let idx = report
            .violations
            .iter()
            .position(|v| v.class == ViolationClass::RunFailed && v.detail.contains("violation"))
            .expect("an invariant violation is reported");

        // 2. The shrinker minimizes while preserving the class.
        shrink_report(&mut report, &cfg);
        let v = &report.violations[idx];
        let sh = v.shrunk.as_ref().expect("violation within shrink quota");
        let CaseParams::Dumbbell(c) = &sh.params else {
            panic!("faulted violations are dumbbell cases")
        };
        assert!(c.n_flows <= 3, "flows shrunk: {}", c.n_flows);
        assert!(sh.replays <= cfg.shrink_budget);

        // 3. The repro file round-trips and replays to the same class —
        // the forced sharding travels through `fault = shard-skew`, not
        // the case line, so the replay re-arms it identically.
        let text = format_repro(v, &cfg);
        assert!(text.contains("fault = shard-skew"));
        let repro = parse_repro(&text).expect("repro file parses");
        assert_eq!(repro.fault, Some(SeededFault::ShardSkew));
        assert_eq!(repro.params, sh.params);
        let (hit, detail) = replay_repro(&repro).expect("the shrunk case still fails");
        assert_eq!(hit, v.class, "replay reproduces the class: {detail}");
    }

    #[test]
    fn repro_files_round_trip_without_a_campaign() {
        let v = CampaignViolation {
            case: crate::case::FuzzCase {
                id: "fuzz/0003/c0".into(),
                params: CaseParams::Topology(TopologyCase {
                    kind: TopoKind::FatTree,
                    groups: 3,
                    flows: 0,
                    seed: 1234,
                    run_s: 18,
                    extent_ms: 75,
                    rate_mbps: 33,
                    space_ms: 300,
                }),
            },
            class: ViolationClass::Conservation,
            detail: "link-level packet conservation failed\nover two lines".into(),
            shrunk: None,
        };
        let cfg = CampaignConfig {
            master_seed: 99,
            fault: None,
            ..CampaignConfig::default()
        };
        let text = format_repro(&v, &cfg);
        assert!(text.starts_with("pdos-fuzz-repro/1\n"));
        let r = parse_repro(&text).expect("parses");
        assert_eq!(r.id, "fuzz/0003/c0");
        assert_eq!(r.class, ViolationClass::Conservation);
        assert_eq!(r.master_seed, 99);
        assert_eq!(r.fault, None);
        assert_eq!(r.params, v.case.params);
        assert!(!r.detail.contains('\n'), "detail flattened to one line");

        assert!(parse_repro("not-a-repro\nid = x").is_err());
        assert!(
            parse_repro("pdos-fuzz-repro/1\nid = x").is_err(),
            "missing fields"
        );
    }

    #[test]
    fn oracle_verdict_classes_shrink_flows_only() {
        let c = DumbbellCase {
            oracle: true,
            base: BaseScenario::Ns2,
            n_flows: 8,
            queue: BottleneckQueue::Red,
            mice_flows: 0,
            loss_e4: 0,
            rtt: RttProfile::Paper,
            seed: 5,
            warmup_s: 4,
            window_s: 8,
            attack: Some(crate::case::AttackParams {
                extent_ms: 100,
                rate_mbps: 30,
                gamma_milli: 700,
            }),
            cc: pdos_tcp::cc::CcSpec::Aimd,
            detect: false,
            shards: 1,
            crowd: 0,
        };
        let cands = candidates(&CaseParams::Dumbbell(c.clone()), ViolationClass::OracleBand);
        assert!(!cands.is_empty());
        for cand in &cands {
            let CaseParams::Dumbbell(n) = cand else {
                panic!()
            };
            assert!(n.n_flows >= 3, "stays on the oracle envelope");
            assert_eq!((n.window_s, n.warmup_s), (8, 4), "windows untouched");
            assert_eq!(n.attack, c.attack, "attack untouched");
        }
        // RunFailed on the same case may touch everything.
        let full = candidates(&CaseParams::Dumbbell(c), ViolationClass::RunFailed);
        assert!(full.len() > cands.len());
    }
}
