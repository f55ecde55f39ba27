//! The deterministic scenario generator: a seeded stream of case
//! *families*, each a group of cases sharing one warm-up prefix.
//!
//! Generation is a pure function of `(master_seed, n_cases)` — the RNG
//! is consumed in one fixed order, so the same inputs always produce the
//! same families, ids and parameters, on any machine and worker count.
//! The budget pass ([`truncate_to_budget`]) runs *after* generation and
//! drops whole families from the end, so a budgeted campaign is always a
//! prefix of the unbudgeted one — a nightly run strictly extends the PR
//! smoke slice for the same seed.

use crate::case::{
    AttackParams, BaseScenario, CaseParams, DumbbellCase, FuzzCase, RttProfile, TopoKind,
    TopologyCase,
};
use pdos_scenarios::spec::BottleneckQueue;
use pdos_tcp::cc::CcSpec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A group of cases sharing one scenario (dumbbell families) or a single
/// topology-shape case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Family {
    /// The family's cases, in draw order.
    pub cases: Vec<FuzzCase>,
}

impl Family {
    /// Whether this family runs through the sweep runner (dumbbell) as
    /// opposed to the direct topology harness.
    pub fn is_dumbbell(&self) -> bool {
        matches!(
            self.cases.first().map(|c| &c.params),
            Some(CaseParams::Dumbbell(_))
        )
    }

    /// Simulated seconds this family costs (the budget unit): the sum of
    /// its cases' warm-up + window (or run) lengths.
    pub fn sim_secs(&self) -> u64 {
        self.cases.iter().map(|c| c.params.sim_secs()).sum()
    }
}

/// The pulse widths the generator samples (the paper's §4.1 values).
const EXTENTS_MS: [u32; 3] = [50, 75, 100];

fn draw_attack(rng: &mut SmallRng, rate_lo: u32, rate_hi: u32) -> AttackParams {
    AttackParams {
        extent_ms: EXTENTS_MS[rng.random_range(0usize..EXTENTS_MS.len())],
        rate_mbps: rng.random_range(rate_lo..=rate_hi),
        gamma_milli: rng.random_range(100u32..=900),
    }
}

fn draw_seed(rng: &mut SmallRng) -> u64 {
    rng.random_range(1u64..(1 << 62))
}

/// An oracle-envelope family: the exact scenario/attack distribution the
/// differential oracle validates (ns-2 base, RED, pure elephants, 4 s /
/// 8 s windows, ≥ 25 Mbps pulses so no draw is infeasible), so every
/// case is held to the tolerance bands.
fn draw_oracle_family(rng: &mut SmallRng, fam: usize) -> Family {
    let template = DumbbellCase {
        oracle: true,
        base: BaseScenario::Ns2,
        n_flows: rng.random_range(3u32..=8),
        queue: BottleneckQueue::Red,
        mice_flows: 0,
        loss_e4: 0,
        rtt: RttProfile::Paper,
        seed: draw_seed(rng),
        warmup_s: 4,
        window_s: 8,
        attack: None,
        // Oracle cases stay on the AIMD model the bands were tuned on,
        // with no detector tap, no sharding and no flash crowd: exactly
        // the envelope distribution.
        cc: CcSpec::Aimd,
        detect: false,
        shards: 1,
        crowd: 0,
    };
    let n_points = rng.random_range(2u32..=3);
    let cases = (0..n_points)
        .map(|i| {
            let mut c = template.clone();
            c.attack = Some(draw_attack(rng, 25, 40));
            FuzzCase {
                id: format!("fuzz/{fam:04}/c{i}"),
                params: CaseParams::Dumbbell(c),
            }
        })
        .collect();
    Family { cases }
}

/// A diverse dumbbell family: both bases, all three queue disciplines,
/// mice, ambient loss, off-distribution RTT spreads and the full
/// congestion-control registry (oracle families pin AIMD; only diverse
/// families draw CUBIC/BBR-lite/DCTCP victims, which the bands were
/// never tuned on). Held to the identity/range/invariant checks but not
/// the oracle bands. Pulse rates stay ≥ 20 Mbps — above both bases'
/// bottlenecks — so γ ≤ 0.9 is never infeasible.
fn draw_diverse_family(rng: &mut SmallRng, fam: usize) -> Family {
    let base = if rng.random_range(0u32..4) == 0 {
        BaseScenario::Testbed
    } else {
        BaseScenario::Ns2
    };
    let n_flows = rng.random_range(2u32..=10);
    let template = DumbbellCase {
        oracle: false,
        base,
        n_flows,
        queue: match rng.random_range(0u32..3) {
            0 => BottleneckQueue::Red,
            1 => BottleneckQueue::DropTail,
            _ => BottleneckQueue::AccRed,
        },
        mice_flows: rng.random_range(0..=n_flows.min(4)),
        loss_e4: if rng.random_range(0u32..4) == 0 {
            rng.random_range(10u32..=50)
        } else {
            0
        },
        rtt: match rng.random_range(0u32..3) {
            0 => RttProfile::Paper,
            1 => RttProfile::Narrow,
            _ => RttProfile::Wide,
        },
        seed: draw_seed(rng),
        warmup_s: rng.random_range(2u32..=4),
        window_s: rng.random_range(4u32..=8),
        attack: None,
        cc: CcSpec::ALL[rng.random_range(0usize..CcSpec::ALL.len())],
        // A third of diverse families run with the detector tap on and
        // hold their traces to the batch-vs-streaming contract.
        detect: rng.random_range(0u32..3) == 0,
        // A quarter run on the sharded engine, fuzzing its bit-identity
        // contract across the whole diverse scenario distribution.
        shards: if rng.random_range(0u32..4) == 0 { 2 } else { 1 },
        crowd: 0,
    };
    let n_attacked = rng.random_range(1u32..=2);
    let benign = rng.random_range(0u32..3) == 0;
    let mut cases = Vec::new();
    for i in 0..n_attacked {
        let mut c = template.clone();
        c.attack = Some(draw_attack(rng, 20, 40));
        cases.push(FuzzCase {
            id: format!("fuzz/{fam:04}/c{i}"),
            params: CaseParams::Dumbbell(c),
        });
    }
    if benign {
        cases.push(FuzzCase {
            id: format!("fuzz/{fam:04}/c{n_attacked}"),
            params: CaseParams::Dumbbell(template),
        });
    }
    Family { cases }
}

/// A flash-crowd family (the `tests/flash_crowd.rs` traffic class): a
/// few standing elephants, then 8–16 request/response mice all arriving
/// at the warm-up boundary — exactly when an attack would start. The
/// detector tap is always on (the crowd exists to stress the
/// batch-vs-streaming contract with a benign event as sharp as an
/// attack), and half the families also run on the sharded engine. Each
/// family draws one attacked case and one benign one, so both "crowd
/// plus attack" and "crowd alone" traces are covered.
fn draw_flash_crowd_family(rng: &mut SmallRng, fam: usize) -> Family {
    let template = DumbbellCase {
        oracle: false,
        base: BaseScenario::Ns2,
        n_flows: rng.random_range(3u32..=5),
        queue: BottleneckQueue::Red,
        mice_flows: 0,
        loss_e4: 0,
        rtt: RttProfile::Paper,
        seed: draw_seed(rng),
        warmup_s: rng.random_range(2u32..=4),
        window_s: rng.random_range(6u32..=8),
        attack: None,
        cc: CcSpec::Aimd,
        detect: true,
        shards: if rng.random_range(0u32..2) == 0 { 2 } else { 1 },
        crowd: rng.random_range(8u32..=16),
    };
    let mut attacked = template.clone();
    attacked.attack = Some(draw_attack(rng, 20, 40));
    Family {
        cases: vec![
            FuzzCase {
                id: format!("fuzz/{fam:04}/c0"),
                params: CaseParams::Dumbbell(attacked),
            },
            FuzzCase {
                id: format!("fuzz/{fam:04}/c1"),
                params: CaseParams::Dumbbell(template),
            },
        ],
    }
}

fn draw_topology_family(rng: &mut SmallRng, fam: usize, kind: TopoKind) -> Family {
    let case = TopologyCase {
        kind,
        groups: rng.random_range(1u32..=3),
        flows: 0,
        seed: draw_seed(rng),
        run_s: rng.random_range(14u32..=20),
        extent_ms: EXTENTS_MS[rng.random_range(0usize..EXTENTS_MS.len())],
        rate_mbps: rng.random_range(20u32..=40),
        space_ms: rng.random_range(250u32..=550),
    };
    Family {
        cases: vec![FuzzCase {
            id: format!("fuzz/{fam:04}/c0"),
            params: CaseParams::Topology(case),
        }],
    }
}

/// A flow-bank family: the high-flow-count dimension. One or two SoA
/// bank pairs of 1,000–4,000 dense flows each share a RED bottleneck
/// under a pulse train — two to three orders of magnitude more flows
/// than any dumbbell family draws, so regressions on the bank hot path
/// (range bindings, the RTO wheel, bucketed expiry) surface here and
/// shrink toward a minimal flow count. Runs stay short: the budget unit
/// is simulated seconds, and a bank second costs far more wall than a
/// dumbbell one.
fn draw_flow_bank_family(rng: &mut SmallRng, fam: usize) -> Family {
    let case = TopologyCase {
        kind: TopoKind::FlowBank,
        groups: rng.random_range(1u32..=2),
        flows: rng.random_range(1_000u32..=4_000),
        seed: draw_seed(rng),
        run_s: rng.random_range(6u32..=10),
        extent_ms: EXTENTS_MS[rng.random_range(0usize..EXTENTS_MS.len())],
        rate_mbps: rng.random_range(20u32..=40),
        space_ms: rng.random_range(250u32..=550),
    };
    Family {
        cases: vec![FuzzCase {
            id: format!("fuzz/{fam:04}/c0"),
            params: CaseParams::Topology(case),
        }],
    }
}

/// Generates families until at least `n_cases` cases exist (whole
/// families only, so the count can slightly exceed the request). The
/// class mix is drawn per family: five elevenths oracle-envelope
/// dumbbells, two elevenths diverse dumbbells, one eleventh each
/// flash-crowd, parking-lot, fat-tree and flow-bank.
pub fn generate(master_seed: u64, n_cases: usize) -> Vec<Family> {
    let mut rng = SmallRng::seed_from_u64(master_seed);
    let mut families = Vec::new();
    let mut total = 0usize;
    while total < n_cases.max(1) {
        let fam = families.len();
        let family = match rng.random_range(0u32..11) {
            0..=4 => draw_oracle_family(&mut rng, fam),
            5..=6 => draw_diverse_family(&mut rng, fam),
            7 => draw_flash_crowd_family(&mut rng, fam),
            8 => draw_topology_family(&mut rng, fam, TopoKind::ParkingLot),
            9 => draw_topology_family(&mut rng, fam, TopoKind::FatTree),
            _ => draw_flow_bank_family(&mut rng, fam),
        };
        total += family.cases.len();
        families.push(family);
    }
    families
}

/// What the budget pass decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetPlan {
    /// Simulated seconds the full generated set would cost.
    pub planned_sim_secs: u64,
    /// Simulated seconds of the kept prefix.
    pub kept_sim_secs: u64,
    /// Whether any family was dropped.
    pub truncated: bool,
}

/// Truncates `families` to `budget_sim_secs` *simulated* seconds by
/// dropping whole families from the end (never the first — a campaign
/// always runs at least one family). `0` means uncapped. The unit is
/// simulated time, not wall-clock: it is machine-independent, so the
/// same seed and budget keep the same cases everywhere.
pub fn truncate_to_budget(families: &mut Vec<Family>, budget_sim_secs: u64) -> BudgetPlan {
    let planned: u64 = families.iter().map(Family::sim_secs).sum();
    let mut kept = planned;
    let mut truncated = false;
    if budget_sim_secs > 0 {
        while kept > budget_sim_secs && families.len() > 1 {
            let dropped = families.pop().expect("len > 1").sim_secs();
            kept -= dropped;
            truncated = true;
        }
    }
    BudgetPlan {
        planned_sim_secs: planned,
        kept_sim_secs: kept,
        truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(42, 30);
        let b = generate(42, 30);
        assert_eq!(a, b);
        let c = generate(43, 30);
        assert_ne!(a, c, "master seed shapes the draw");
    }

    #[test]
    fn generation_covers_the_request_with_unique_ids() {
        let families = generate(7, 25);
        let cases: Vec<&FuzzCase> = families.iter().flat_map(|f| &f.cases).collect();
        assert!(cases.len() >= 25);
        let mut ids: Vec<&str> = cases.iter().map(|c| c.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), cases.len(), "ids are unique");
        assert!(!generate(7, 0).is_empty(), "at least one family always");
    }

    #[test]
    fn families_share_one_scenario() {
        // Every dumbbell family's cases differ only in the attack point —
        // that is what lets the runner warm up the family's prefix once.
        for family in generate(3, 60) {
            if !family.is_dumbbell() {
                continue;
            }
            let strip = |p: &CaseParams| match p {
                CaseParams::Dumbbell(c) => {
                    let mut c = c.clone();
                    c.attack = None;
                    c
                }
                CaseParams::Topology(_) => unreachable!(),
            };
            let first = strip(&family.cases[0].params);
            for case in &family.cases[1..] {
                assert_eq!(strip(&case.params), first, "family shares a scenario");
            }
        }
    }

    #[test]
    fn generated_classes_all_appear_and_expand() {
        let families = generate(11, 120);
        let mut seen = std::collections::HashSet::new();
        for f in &families {
            for case in &f.cases {
                seen.insert(case.params.kind_tag());
                // Every generated dumbbell must expand to a buildable
                // scenario (profile bounds, mice counts, loss ranges).
                if let CaseParams::Dumbbell(c) = &case.params {
                    c.scenario().build().expect("generated case builds");
                    if c.oracle {
                        assert_eq!((c.warmup_s, c.window_s), (4, 8));
                        assert!(c.mice_flows == 0 && c.loss_e4 == 0);
                    }
                }
            }
        }
        for tag in [
            "oracle",
            "diverse",
            "flash-crowd",
            "parking-lot",
            "fat-tree",
            "flow-bank",
        ] {
            assert!(seen.contains(tag), "missing class {tag} in {seen:?}");
        }
        // The high-flow-count dimension draws in its range, only on the
        // flow-bank kind.
        for f in &families {
            for case in &f.cases {
                if let CaseParams::Topology(c) = &case.params {
                    match c.kind {
                        TopoKind::FlowBank => {
                            assert!((1_000..=4_000).contains(&c.flows), "flows in range");
                        }
                        _ => assert_eq!(c.flows, 0, "classic kinds stay bank-free"),
                    }
                }
            }
        }
    }

    #[test]
    fn shards_and_crowd_dimensions_stay_off_oracle_families() {
        let families = generate(11, 240);
        let mut sharded = 0usize;
        let mut crowds = 0usize;
        for f in &families {
            for case in &f.cases {
                if let CaseParams::Dumbbell(c) = &case.params {
                    if c.oracle {
                        assert_eq!(
                            (c.shards, c.crowd),
                            (1, 0),
                            "oracle cases stay sequential and crowd-free"
                        );
                    } else {
                        if c.shards > 1 {
                            sharded += 1;
                        }
                        if c.crowd > 0 {
                            crowds += 1;
                            assert!((8..=16).contains(&c.crowd), "crowd size drawn in range");
                            assert!(c.detect, "flash-crowd cases hold the detector contract");
                        }
                    }
                }
            }
        }
        assert!(sharded > 0, "a 240-case draw should include sharded cases");
        assert!(crowds > 0, "a 240-case draw should include flash crowds");
    }

    #[test]
    fn cc_dimension_stays_on_diverse_families_and_covers_the_registry() {
        let families = generate(11, 240);
        let mut diverse_ccs = std::collections::HashSet::new();
        for f in &families {
            for case in &f.cases {
                if let CaseParams::Dumbbell(c) = &case.params {
                    if c.oracle {
                        assert_eq!(
                            c.cc,
                            CcSpec::Aimd,
                            "oracle cases must stay on the AIMD envelope"
                        );
                    } else {
                        diverse_ccs.insert(c.cc);
                    }
                }
            }
        }
        assert!(
            diverse_ccs.len() >= 3,
            "a 240-case draw should cover most of the registry: {diverse_ccs:?}"
        );
    }

    #[test]
    fn detect_dimension_stays_on_diverse_families_and_appears() {
        let families = generate(11, 240);
        let mut detect_on = 0usize;
        for f in &families {
            for case in &f.cases {
                if let CaseParams::Dumbbell(c) = &case.params {
                    if c.oracle {
                        assert!(!c.detect, "oracle cases never run the tap");
                    } else if c.detect {
                        detect_on += 1;
                    }
                }
            }
        }
        assert!(
            detect_on > 0,
            "a 240-case draw should include tapped diverse cases"
        );
    }

    #[test]
    fn budget_drops_whole_families_from_the_end() {
        let full = generate(9, 40);
        let planned: u64 = full.iter().map(Family::sim_secs).sum();
        let mut capped = full.clone();
        let plan = truncate_to_budget(&mut capped, planned / 2);
        assert!(plan.truncated);
        assert_eq!(plan.planned_sim_secs, planned);
        assert!(plan.kept_sim_secs <= planned / 2);
        assert_eq!(capped[..], full[..capped.len()], "kept set is a prefix");

        // Uncapped: nothing dropped.
        let mut free = full.clone();
        let plan = truncate_to_budget(&mut free, 0);
        assert!(!plan.truncated);
        assert_eq!(free, full);

        // A budget below the first family still keeps one family.
        let mut floor = full.clone();
        let plan = truncate_to_budget(&mut floor, 1);
        assert_eq!(floor.len(), 1);
        assert!(plan.truncated);
    }
}
