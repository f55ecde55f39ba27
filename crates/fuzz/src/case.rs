//! The fuzz campaign's case model: the compact drawn parameters of one
//! generated scenario, with an exact text serialization.
//!
//! A case stores the *dimensions the generator drew* — base topology,
//! flow counts, queue discipline, traffic mix, windows, attack point —
//! not the expanded `ScenarioSpec`. That keeps repro files small and
//! diffable, makes the shrinker's transformations trivial (decrement a
//! field, re-expand), and, because every field is an integer, makes the
//! `format_case`/`parse_case` round trip exact with no float-printing
//! subtleties.

use pdos_scenarios::runner::{AttackPoint, ExperimentSpec};
use pdos_scenarios::spec::{BottleneckQueue, ScenarioSpec};
use pdos_sim::time::SimDuration;
use pdos_tcp::cc::CcSpec;

/// The dumbbell preset a case starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaseScenario {
    /// The ns-2 dumbbell (§4.1): 15 Mbps RED bottleneck, heterogeneous
    /// 20–460 ms RTTs.
    Ns2,
    /// The testbed dumbbell (§4.2): 10 Mbps bottleneck, 300 ms base RTT.
    Testbed,
}

/// The victim RTT spread of a case (only meaningful on the ns-2 base;
/// the testbed pins its own RTT).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RttProfile {
    /// The paper's heterogeneous 20–460 ms spread.
    Paper,
    /// A tight 40–120 ms cluster (homogeneous victims).
    Narrow,
    /// A 20–800 ms spread (satellite-grade stragglers).
    Wide,
}

/// One drawn attack point, in exact integer units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackParams {
    /// Pulse width, milliseconds.
    pub extent_ms: u32,
    /// Pulse rate, Mbps.
    pub rate_mbps: u32,
    /// Normalized average attack rate γ, thousandths.
    pub gamma_milli: u32,
}

impl AttackParams {
    /// The equivalent floating-point [`AttackPoint`].
    pub fn point(&self) -> AttackPoint {
        AttackPoint {
            t_extent: f64::from(self.extent_ms) / 1000.0,
            r_attack: f64::from(self.rate_mbps) * 1e6,
            gamma: f64::from(self.gamma_milli) / 1000.0,
        }
    }
}

/// A generated dumbbell case: a [`ScenarioSpec`] variation plus at most
/// one attack point (families with several points expand to several
/// cases sharing one scenario, and therefore one warm-start prefix).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DumbbellCase {
    /// Whether the case sits inside the differential oracle's envelope
    /// (ns-2 base, RED, pure elephants, 3–8 flows, oracle attack ranges,
    /// 4 s/8 s windows) and is therefore held to the tolerance bands,
    /// not just the identity/range/invariant checks.
    pub oracle: bool,
    /// The preset the scenario starts from.
    pub base: BaseScenario,
    /// Long-lived (elephant) victim flows.
    pub n_flows: u32,
    /// Bottleneck queue discipline.
    pub queue: BottleneckQueue,
    /// Short request/response (mice) flows riding along.
    pub mice_flows: u32,
    /// Ambient bottleneck loss, in 1e-4 units (0 = lossless).
    pub loss_e4: u32,
    /// Victim RTT spread.
    pub rtt: RttProfile,
    /// The scenario's physics seed (kept verbatim by the campaign's
    /// `SeedPolicy::FromScenario`, so a case replays bit-identically).
    pub seed: u64,
    /// Warm-up, whole seconds.
    pub warmup_s: u32,
    /// Measurement window, whole seconds.
    pub window_s: u32,
    /// The attack point; `None` measures a benign baseline.
    pub attack: Option<AttackParams>,
    /// The victims' congestion-control algorithm. Oracle-envelope cases
    /// always run [`CcSpec::Aimd`] — the tolerance bands were derived
    /// from the paper's AIMD model — while diverse families draw from
    /// the whole registry.
    pub cc: CcSpec,
    /// Whether the case runs with the engine's per-link detector tap
    /// enabled and holds its recorded trace to the batch-vs-streaming
    /// detector-equivalence contract. Drawn on diverse families only;
    /// oracle cases pin `false` (the tap is physics-neutral, but the
    /// envelope stays exactly the distribution the bands were tuned on).
    pub detect: bool,
    /// Engine shards the case runs on (`1` = the classic sequential
    /// engine). The sharded engine is bit-identical to the unsharded
    /// one by contract, so this dimension exists to fuzz exactly that
    /// claim over drawn scenarios. Oracle cases pin `1`.
    pub shards: u32,
    /// Flash-crowd mice riding along (the `tests/flash_crowd.rs`
    /// shapes: 30-segment bursts, 400 ms think time, 29 ms arrival
    /// stagger), all arriving at the warm-up boundary — benign traffic
    /// whose onset is as sharp as an attack's. `0` = no crowd; drawn on
    /// its own family class.
    pub crowd: u32,
}

impl DumbbellCase {
    /// Expands the drawn dimensions into a concrete [`ScenarioSpec`].
    pub fn scenario(&self) -> ScenarioSpec {
        let mut s = match self.base {
            BaseScenario::Ns2 => ScenarioSpec::ns2_dumbbell(self.n_flows as usize),
            BaseScenario::Testbed => ScenarioSpec::testbed(),
        };
        s.n_flows = self.n_flows as usize;
        s.queue = self.queue;
        s.mice_flows = self.mice_flows as usize;
        s.bottleneck_loss = f64::from(self.loss_e4) * 1e-4;
        if self.base == BaseScenario::Ns2 {
            // The testbed pins its own RTT; profiles apply to ns-2 only.
            // All three lower bounds respect the builder's requirement
            // that rtt/2 exceed the bottleneck delay plus 1 ms.
            let (lo, hi) = match self.rtt {
                RttProfile::Paper => (s.rtt_lo, s.rtt_hi),
                RttProfile::Narrow => (0.040, 0.120),
                RttProfile::Wide => (0.020, 0.800),
            };
            s.rtt_lo = lo;
            s.rtt_hi = hi;
        }
        s.seed = self.seed;
        s.tcp.cc = self.cc;
        s.crowd_flows = self.crowd as usize;
        if self.crowd > 0 {
            // The crowd arrives exactly when the attack would: at the
            // warm-up boundary, so it plays out inside the window.
            s.crowd_at = SimDuration::from_secs(u64::from(self.warmup_s));
        }
        s
    }

    /// Expands the case into the runner's [`ExperimentSpec`] (traced at
    /// the golden 100 ms bins, invariant checkers on).
    pub fn spec(&self, id: &str) -> ExperimentSpec {
        let scenario = self.scenario();
        let spec = match self.attack {
            Some(a) => ExperimentSpec::attacked(id, scenario, a.point()),
            None => ExperimentSpec::benign(id, scenario),
        };
        let spec = spec
            .warmup(SimDuration::from_secs(u64::from(self.warmup_s)))
            .window(SimDuration::from_secs(u64::from(self.window_s)))
            .traced(SimDuration::from_millis(100))
            .checked()
            .sharded(self.shards as usize);
        if self.detect {
            spec.tapped()
        } else {
            spec
        }
    }

    /// Simulated seconds this case costs (the budget unit).
    pub fn sim_secs(&self) -> u64 {
        u64::from(self.warmup_s) + u64::from(self.window_s)
    }
}

/// The non-dumbbell topology shapes of `pdos_scenarios::shape` the
/// campaign exercises (no `ScenarioSpec`, no gain protocol — these cases
/// check routing, conservation and invariants under attack on shapes the
/// dumbbell cannot express).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoKind {
    /// Three routers in a chain, two bottleneck hops, three flow groups
    /// (long/right/left); the attack targets the middle hop.
    ParkingLot,
    /// A small two-level fat-tree: two aggregation cores joined by the
    /// bottleneck, leaf switches on each side, cross-core flows.
    FatTree,
    /// A struct-of-arrays flow-bank dumbbell: `flows` dense
    /// [`pdos_tcp::bank::SenderBank`] flows per host pair, bound through
    /// flow-range bindings — the high-flow-count hot path the bench
    /// tiers gate, fuzzed so bank regressions shrink to minimal repros.
    FlowBank,
}

/// A generated non-dumbbell topology case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopologyCase {
    /// Which shape to build.
    pub kind: TopoKind,
    /// Host pairs per flow group (parking lot), leaf switches per core
    /// side (fat tree), or bank host pairs (flow bank).
    pub groups: u32,
    /// Dense bank flows per host pair — the flow-bank kind's
    /// high-flow-count dimension. Always `0` on the classic kinds, whose
    /// flow count is implied by `groups`, so legacy repro lines (which
    /// carry no `flows=` token) re-serialize byte-identically.
    pub flows: u32,
    /// The topology/physics seed.
    pub seed: u64,
    /// Total simulated run length, whole seconds (the attack starts a
    /// third of the way in).
    pub run_s: u32,
    /// Pulse width, milliseconds.
    pub extent_ms: u32,
    /// Pulse rate, Mbps.
    pub rate_mbps: u32,
    /// Pulse spacing, milliseconds.
    pub space_ms: u32,
}

impl TopologyCase {
    /// Simulated seconds this case costs (the budget unit).
    pub fn sim_secs(&self) -> u64 {
        u64::from(self.run_s)
    }
}

/// The drawn parameters of one case, either shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaseParams {
    /// A dumbbell case running the full gain protocol.
    Dumbbell(DumbbellCase),
    /// A topology-shape case.
    Topology(TopologyCase),
}

impl CaseParams {
    /// Simulated seconds this case costs (the budget unit).
    pub fn sim_secs(&self) -> u64 {
        match self {
            CaseParams::Dumbbell(c) => c.sim_secs(),
            CaseParams::Topology(c) => c.sim_secs(),
        }
    }

    /// A short display tag for reports (`oracle`, `diverse`,
    /// `flash-crowd`, `parking-lot`, `fat-tree`).
    pub fn kind_tag(&self) -> &'static str {
        match self {
            CaseParams::Dumbbell(c) if c.oracle => "oracle",
            CaseParams::Dumbbell(c) if c.crowd > 0 => "flash-crowd",
            CaseParams::Dumbbell(_) => "diverse",
            CaseParams::Topology(c) => match c.kind {
                TopoKind::ParkingLot => "parking-lot",
                TopoKind::FatTree => "fat-tree",
                TopoKind::FlowBank => "flow-bank",
            },
        }
    }
}

/// One generated case: a stable id plus its drawn parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzCase {
    /// Stable id, `fuzz/<family>/<case>` — also the run id inside sweep
    /// records and reports.
    pub id: String,
    /// The drawn parameters.
    pub params: CaseParams,
}

/// Serializes a case to its exact single-line text form (the `case =`
/// payload of repro files). Inverse of [`parse_case`].
pub fn format_case(params: &CaseParams) -> String {
    match params {
        CaseParams::Dumbbell(c) => {
            let class = if c.oracle { "oracle" } else { "diverse" };
            let base = match c.base {
                BaseScenario::Ns2 => "ns2",
                BaseScenario::Testbed => "testbed",
            };
            let queue = match c.queue {
                BottleneckQueue::Red => "red",
                BottleneckQueue::DropTail => "droptail",
                BottleneckQueue::AccRed => "accred",
            };
            let rtt = match c.rtt {
                RttProfile::Paper => "paper",
                RttProfile::Narrow => "narrow",
                RttProfile::Wide => "wide",
            };
            let attack = match c.attack {
                None => "none".to_string(),
                Some(a) => format!("{}/{}/{}", a.extent_ms, a.rate_mbps, a.gamma_milli),
            };
            let mut line = format!(
                "topo=dumbbell class={class} base={base} flows={} queue={queue} mice={} \
                 loss_e4={} rtt={rtt} seed={} warmup_s={} window_s={} attack={attack}",
                c.n_flows, c.mice_flows, c.loss_e4, c.seed, c.warmup_s, c.window_s
            );
            // Emitted only for non-default algorithms, so every repro
            // line written before the CC registry existed still
            // re-serializes byte-identically (absent ≡ aimd).
            if c.cc != CcSpec::Aimd {
                line.push_str(" cc=");
                line.push_str(c.cc.key());
            }
            // Same legacy rule as cc=: only the non-default value emits
            // a token, so pre-detector repro lines stay byte-stable.
            if c.detect {
                line.push_str(" detect=on");
            }
            // And again for the sharding and flash-crowd dimensions:
            // shards=1 (the sequential engine) and crowd=0 (no crowd)
            // stay implicit, so pre-sharding repro lines re-serialize
            // byte-identically.
            if c.shards != 1 {
                line.push_str(&format!(" shards={}", c.shards));
            }
            if c.crowd != 0 {
                line.push_str(&format!(" crowd={}", c.crowd));
            }
            line
        }
        CaseParams::Topology(c) => {
            let kind = match c.kind {
                TopoKind::ParkingLot => "parking-lot",
                TopoKind::FatTree => "fat-tree",
                TopoKind::FlowBank => "flow-bank",
            };
            let mut line = format!(
                "topo={kind} groups={} seed={} run_s={} extent_ms={} rate_mbps={} space_ms={}",
                c.groups, c.seed, c.run_s, c.extent_ms, c.rate_mbps, c.space_ms
            );
            // Same legacy rule as the dumbbell's cc=/detect= tokens:
            // only a non-zero bank flow count emits a token, so every
            // parking-lot/fat-tree repro line written before the
            // flow-bank kind existed re-serializes byte-identically.
            if c.flows != 0 {
                line.push_str(&format!(" flows={}", c.flows));
            }
            line
        }
    }
}

/// The most `groups` a topology line may ask for.
const MAX_GROUPS: u32 = 1_000;

/// The most bank flows (`groups × flows`) a topology line may ask for.
const MAX_BANK_FLOWS: u64 = 1_000_000;

/// Parses the output of [`format_case`] back into parameters.
///
/// # Errors
///
/// Returns a message naming the missing or malformed token.
pub fn parse_case(line: &str) -> Result<CaseParams, String> {
    let mut kv = std::collections::HashMap::new();
    for token in line.split_whitespace() {
        let (k, v) = token
            .split_once('=')
            .ok_or_else(|| format!("malformed token {token:?} (expected key=value)"))?;
        kv.insert(k, v);
    }
    let fetch = |k: &str| -> Result<&str, String> {
        kv.get(k).copied().ok_or_else(|| format!("missing {k}="))
    };
    let int = |k: &str| -> Result<u32, String> {
        fetch(k)?
            .parse::<u32>()
            .map_err(|e| format!("bad {k}: {e}"))
    };
    let long = |k: &str| -> Result<u64, String> {
        fetch(k)?
            .parse::<u64>()
            .map_err(|e| format!("bad {k}: {e}"))
    };
    // The scenario builders assert on these; a repro line outside the
    // range is an error naming the field, never a panic.
    let positive = |k: &str| -> Result<u32, String> {
        match int(k)? {
            0 => Err(format!("bad {k}: 0 (want >= 1)")),
            v => Ok(v),
        }
    };

    match fetch("topo")? {
        "dumbbell" => {
            let oracle = match fetch("class")? {
                "oracle" => true,
                "diverse" => false,
                other => return Err(format!("bad class: {other:?}")),
            };
            let base = match fetch("base")? {
                "ns2" => BaseScenario::Ns2,
                "testbed" => BaseScenario::Testbed,
                other => return Err(format!("bad base: {other:?}")),
            };
            let queue = match fetch("queue")? {
                "red" => BottleneckQueue::Red,
                "droptail" => BottleneckQueue::DropTail,
                "accred" => BottleneckQueue::AccRed,
                other => return Err(format!("bad queue: {other:?}")),
            };
            let rtt = match fetch("rtt")? {
                "paper" => RttProfile::Paper,
                "narrow" => RttProfile::Narrow,
                "wide" => RttProfile::Wide,
                other => return Err(format!("bad rtt: {other:?}")),
            };
            let attack = match fetch("attack")? {
                "none" => None,
                spec => {
                    let parts: Vec<&str> = spec.split('/').collect();
                    let [e, r, g] = parts.as_slice() else {
                        return Err(format!("bad attack: {spec:?} (want e/r/g)"));
                    };
                    Some(AttackParams {
                        extent_ms: e.parse().map_err(|x| format!("bad extent: {x}"))?,
                        rate_mbps: r.parse().map_err(|x| format!("bad rate: {x}"))?,
                        gamma_milli: g.parse().map_err(|x| format!("bad gamma: {x}"))?,
                    })
                }
            };
            let cc = match kv.get("cc") {
                None => CcSpec::Aimd,
                Some(v) => CcSpec::from_key(v).ok_or_else(|| format!("bad cc: {v:?}"))?,
            };
            let detect = match kv.get("detect") {
                None => false,
                Some(&"on") => true,
                Some(v) => return Err(format!("bad detect: {v:?} (want on)")),
            };
            let shards = match kv.get("shards") {
                None => 1,
                Some(v) => match v.parse::<u32>() {
                    Ok(n) if n >= 1 => n,
                    Ok(n) => return Err(format!("bad shards: {n} (want >= 1)")),
                    Err(e) => return Err(format!("bad shards: {e}")),
                },
            };
            let crowd = match kv.get("crowd") {
                None => 0,
                Some(v) => v.parse::<u32>().map_err(|e| format!("bad crowd: {e}"))?,
            };
            Ok(CaseParams::Dumbbell(DumbbellCase {
                oracle,
                base,
                n_flows: positive("flows")?,
                queue,
                mice_flows: int("mice")?,
                loss_e4: match int("loss_e4")? {
                    v @ 0..=9_999 => v,
                    v => {
                        return Err(format!(
                            "bad loss_e4: {v} (want < 10000, a probability below 1)"
                        ))
                    }
                },
                rtt,
                seed: long("seed")?,
                warmup_s: int("warmup_s")?,
                window_s: int("window_s")?,
                attack,
                cc,
                detect,
                shards,
                crowd,
            }))
        }
        kind @ ("parking-lot" | "fat-tree" | "flow-bank") => {
            let kind = match kind {
                "parking-lot" => TopoKind::ParkingLot,
                "fat-tree" => TopoKind::FatTree,
                _ => TopoKind::FlowBank,
            };
            // Absent ≡ 0 keeps pre-flow-bank repro lines parsing; the
            // flow-bank kind itself requires a positive count.
            let flows = match kv.get("flows") {
                None => 0,
                Some(v) => v.parse::<u32>().map_err(|e| format!("bad flows: {e}"))?,
            };
            if kind == TopoKind::FlowBank && flows == 0 {
                return Err("flow-bank needs flows= >= 1".to_string());
            }
            // Bounds that keep a hand-edited line from building a
            // topology or a flow range too large for memory.
            let groups = int("groups")?;
            if groups > MAX_GROUPS {
                return Err(format!("bad groups: {groups} (want <= {MAX_GROUPS})"));
            }
            if u64::from(groups) * u64::from(flows) > MAX_BANK_FLOWS {
                return Err(format!(
                    "bad flows: groups × flows = {} (want <= {MAX_BANK_FLOWS})",
                    u64::from(groups) * u64::from(flows)
                ));
            }
            Ok(CaseParams::Topology(TopologyCase {
                kind,
                groups,
                flows,
                seed: long("seed")?,
                run_s: int("run_s")?,
                extent_ms: positive("extent_ms")?,
                rate_mbps: positive("rate_mbps")?,
                space_ms: int("space_ms")?,
            }))
        }
        other => Err(format!("bad topo: {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dumbbell() -> CaseParams {
        CaseParams::Dumbbell(DumbbellCase {
            oracle: false,
            base: BaseScenario::Ns2,
            n_flows: 5,
            queue: BottleneckQueue::DropTail,
            mice_flows: 2,
            loss_e4: 20,
            rtt: RttProfile::Wide,
            seed: 0xDEAD_BEEF,
            warmup_s: 3,
            window_s: 6,
            attack: Some(AttackParams {
                extent_ms: 75,
                rate_mbps: 32,
                gamma_milli: 413,
            }),
            cc: CcSpec::Aimd,
            detect: false,
            shards: 1,
            crowd: 0,
        })
    }

    #[test]
    fn case_text_round_trips_exactly() {
        let cases = [
            sample_dumbbell(),
            CaseParams::Dumbbell(DumbbellCase {
                oracle: true,
                base: BaseScenario::Ns2,
                n_flows: 4,
                queue: BottleneckQueue::Red,
                mice_flows: 0,
                loss_e4: 0,
                rtt: RttProfile::Paper,
                seed: 1,
                warmup_s: 4,
                window_s: 8,
                attack: None,
                cc: CcSpec::Aimd,
                detect: false,
                shards: 1,
                crowd: 0,
            }),
            CaseParams::Dumbbell(DumbbellCase {
                oracle: false,
                base: BaseScenario::Ns2,
                n_flows: 6,
                queue: BottleneckQueue::Red,
                mice_flows: 1,
                loss_e4: 0,
                rtt: RttProfile::Narrow,
                seed: 42,
                warmup_s: 2,
                window_s: 4,
                attack: Some(AttackParams {
                    extent_ms: 50,
                    rate_mbps: 25,
                    gamma_milli: 300,
                }),
                cc: CcSpec::BbrLite,
                detect: true,
                shards: 4,
                crowd: 12,
            }),
            CaseParams::Topology(TopologyCase {
                kind: TopoKind::FatTree,
                groups: 2,
                flows: 0,
                seed: 99,
                run_s: 16,
                extent_ms: 50,
                rate_mbps: 25,
                space_ms: 450,
            }),
            CaseParams::Topology(TopologyCase {
                kind: TopoKind::FlowBank,
                groups: 2,
                flows: 2500,
                seed: 4242,
                run_s: 8,
                extent_ms: 75,
                rate_mbps: 30,
                space_ms: 400,
            }),
        ];
        for c in &cases {
            let line = format_case(c);
            let back = parse_case(&line).expect("round trip parses");
            assert_eq!(&back, c, "line: {line}");
            assert_eq!(format_case(&back), line, "stable re-serialization");
        }
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_case("topo=dumbbell").is_err(), "missing fields");
        assert!(parse_case("topo=moebius groups=1").is_err(), "bad shape");
        assert!(parse_case("garbage").is_err(), "no key=value");
        let line = format_case(&sample_dumbbell()).replace("flows=5", "flows=x");
        assert!(parse_case(&line).is_err(), "non-integer field");
        let line = format!("{} cc=tahoe99", format_case(&sample_dumbbell()));
        assert!(parse_case(&line).is_err(), "unknown cc key");
    }

    /// Fields the scenario builders assert on: a hand-edited or corrupted
    /// repro line outside their range must fail to parse, naming the
    /// field, instead of aborting `pdos fuzz --replay`.
    #[test]
    fn out_of_range_fields_are_errors_not_panics() {
        let parking =
            "topo=parking-lot groups=1 seed=1 run_s=9 extent_ms=0 rate_mbps=30 space_ms=425";
        let dumbbell = format_case(&sample_dumbbell());
        for (line, field) in [
            (parking.to_string(), "extent_ms"),
            (
                parking
                    .replace("extent_ms=0", "extent_ms=75")
                    .replace("rate_mbps=30", "rate_mbps=0"),
                "rate_mbps",
            ),
            (
                parking
                    .replace("extent_ms=0", "extent_ms=75")
                    .replace("groups=1", "groups=100000"),
                "groups",
            ),
            (
                "topo=flow-bank groups=1 seed=1 run_s=9 extent_ms=75 rate_mbps=30 \
                 space_ms=425 flows=4000000000"
                    .to_string(),
                "flows",
            ),
            (dumbbell.replace("flows=5", "flows=0"), "flows"),
            (dumbbell.replace("loss_e4=20", "loss_e4=99999"), "loss_e4"),
        ] {
            let err = parse_case(&line).expect_err(&line);
            assert!(err.contains(field), "{line}: {err}");
        }
        // The largest loss below certainty still parses.
        let edge = dumbbell.replace("loss_e4=20", "loss_e4=9999");
        assert!(parse_case(&edge).is_ok(), "{edge}");
    }

    #[test]
    fn cc_token_defaults_to_aimd_and_stays_off_legacy_lines() {
        // Pre-registry repro lines carry no cc= token; they must parse
        // to the aimd default and re-serialize without gaining one.
        let legacy = format_case(&sample_dumbbell());
        assert!(!legacy.contains("cc="), "aimd stays implicit: {legacy}");
        let CaseParams::Dumbbell(parsed) = parse_case(&legacy).expect("legacy line parses") else {
            unreachable!()
        };
        assert_eq!(parsed.cc, CcSpec::Aimd);
        // Every registered algorithm round-trips through its key.
        for cc in CcSpec::ALL {
            let CaseParams::Dumbbell(mut c) = sample_dumbbell() else {
                unreachable!()
            };
            c.cc = cc;
            let line = format_case(&CaseParams::Dumbbell(c.clone()));
            assert_eq!(line.contains("cc="), cc != CcSpec::Aimd, "{line}");
            let back = parse_case(&line).expect("cc line parses");
            assert_eq!(back, CaseParams::Dumbbell(c));
        }
    }

    #[test]
    fn detect_token_defaults_off_and_stays_off_legacy_lines() {
        // Repro lines written before the detector dimension existed
        // carry no detect= token; they must parse to `false` and
        // re-serialize byte-identically (absent ≡ off).
        let legacy = format_case(&sample_dumbbell());
        assert!(!legacy.contains("detect="), "off stays implicit: {legacy}");
        let CaseParams::Dumbbell(parsed) = parse_case(&legacy).expect("legacy line parses") else {
            unreachable!()
        };
        assert!(!parsed.detect);
        assert_eq!(format_case(&CaseParams::Dumbbell(parsed)), legacy);
        // detect=on round-trips and flips the spec's tap on.
        let CaseParams::Dumbbell(mut c) = sample_dumbbell() else {
            unreachable!()
        };
        c.detect = true;
        let line = format_case(&CaseParams::Dumbbell(c.clone()));
        assert!(line.ends_with(" detect=on"), "{line}");
        assert_eq!(parse_case(&line).unwrap(), CaseParams::Dumbbell(c.clone()));
        assert!(c.spec("fuzz/test/c0").detect, "detect=on enables the tap");
        c.detect = false;
        assert!(!c.spec("fuzz/test/c0").detect);
        // A malformed value is rejected, not silently ignored.
        let bad = format!("{legacy} detect=off");
        assert!(parse_case(&bad).is_err(), "only 'on' is a valid value");
    }

    #[test]
    fn shards_and_crowd_tokens_default_and_stay_off_legacy_lines() {
        // Repro lines written before the sharded engine and the
        // flash-crowd class existed carry neither token; they must
        // parse to the defaults and re-serialize byte-identically.
        let legacy = format_case(&sample_dumbbell());
        assert!(!legacy.contains("shards="), "1 stays implicit: {legacy}");
        assert!(!legacy.contains("crowd="), "0 stays implicit: {legacy}");
        let CaseParams::Dumbbell(parsed) = parse_case(&legacy).expect("legacy line parses") else {
            unreachable!()
        };
        assert_eq!((parsed.shards, parsed.crowd), (1, 0));
        assert_eq!(format_case(&CaseParams::Dumbbell(parsed)), legacy);
        // Non-default values round-trip and reach the expanded spec.
        let CaseParams::Dumbbell(mut c) = sample_dumbbell() else {
            unreachable!()
        };
        c.shards = 2;
        c.crowd = 9;
        let line = format_case(&CaseParams::Dumbbell(c.clone()));
        assert!(line.ends_with(" shards=2 crowd=9"), "{line}");
        assert_eq!(parse_case(&line).unwrap(), CaseParams::Dumbbell(c.clone()));
        assert_eq!(c.spec("fuzz/test/c0").shards, 2);
        let scenario = c.scenario();
        assert_eq!(scenario.crowd_flows, 9);
        assert_eq!(
            scenario.crowd_at,
            SimDuration::from_secs(u64::from(c.warmup_s)),
            "the crowd arrives at the warm-up boundary"
        );
        // Malformed values are rejected, not silently defaulted.
        assert!(parse_case(&format!("{legacy} shards=0")).is_err());
        assert!(parse_case(&format!("{legacy} shards=x")).is_err());
        assert!(parse_case(&format!("{legacy} crowd=-3")).is_err());
    }

    #[test]
    fn flows_token_stays_off_legacy_topology_lines() {
        // Parking-lot/fat-tree repro lines written before the flow-bank
        // kind carried no flows= token; they must parse to 0 and
        // re-serialize byte-identically.
        let legacy = "topo=parking-lot groups=2 seed=11 run_s=15 extent_ms=75 \
                      rate_mbps=30 space_ms=400";
        let CaseParams::Topology(parsed) = parse_case(legacy).expect("legacy line parses") else {
            unreachable!()
        };
        assert_eq!(parsed.flows, 0);
        assert_eq!(format_case(&CaseParams::Topology(parsed)), legacy);

        // The flow-bank kind always emits its count and rejects zero.
        let bank = CaseParams::Topology(TopologyCase {
            kind: TopoKind::FlowBank,
            groups: 1,
            flows: 1000,
            seed: 3,
            run_s: 6,
            extent_ms: 50,
            rate_mbps: 25,
            space_ms: 300,
        });
        let line = format_case(&bank);
        assert!(line.ends_with(" flows=1000"), "{line}");
        assert_eq!(parse_case(&line).unwrap(), bank);
        let zeroed = line.replace(" flows=1000", "");
        assert!(parse_case(&zeroed).is_err(), "flow-bank requires flows=");
        let bad = line.replace("flows=1000", "flows=x");
        assert!(parse_case(&bad).is_err(), "non-integer flows rejected");
    }

    #[test]
    fn dumbbell_case_expands_to_a_buildable_scenario() {
        let CaseParams::Dumbbell(c) = sample_dumbbell() else {
            unreachable!()
        };
        let scenario = c.scenario();
        assert_eq!(scenario.n_flows, 5);
        assert_eq!(scenario.mice_flows, 2);
        assert_eq!(scenario.seed, 0xDEAD_BEEF);
        assert!((scenario.bottleneck_loss - 0.002).abs() < 1e-12);
        // The expansion must satisfy the topology builder's constraints.
        let bench = scenario.build().expect("case expands to a valid topology");
        assert_eq!(bench.flows.len(), 5);
        let spec = c.spec("fuzz/test/c0");
        assert!(spec.checks, "fuzz cases always audit invariants");
        assert!(spec.trace_bin.is_some(), "fuzz cases always trace");
        assert_eq!(c.sim_secs(), 9);
    }

    #[test]
    fn rtt_profiles_respect_builder_bounds() {
        // Every profile × base must expand to a buildable scenario even
        // at the extremes the generator can draw.
        for rtt in [RttProfile::Paper, RttProfile::Narrow, RttProfile::Wide] {
            for base in [BaseScenario::Ns2, BaseScenario::Testbed] {
                let c = DumbbellCase {
                    oracle: false,
                    base,
                    n_flows: 2,
                    queue: BottleneckQueue::Red,
                    mice_flows: 0,
                    loss_e4: 0,
                    rtt,
                    seed: 7,
                    warmup_s: 2,
                    window_s: 4,
                    attack: None,
                    cc: CcSpec::Aimd,
                    detect: false,
                    shards: 1,
                    crowd: 0,
                };
                c.scenario().build().expect("profile builds");
            }
        }
    }
}
