//! Topology cases: the parking lot, fat tree and flow-bank dumbbell of
//! [`pdos_scenarios::shape`], attacked with a pulse train and audited
//! for the invariants the gain protocol never checks on these shapes —
//! routing totality, link-level packet conservation, and the runtime
//! checkers.
//!
//! Everything here is single-threaded and seeded, so a
//! [`TopologyCase`] replays bit-identically from its drawn parameters.

use crate::case::{TopoKind, TopologyCase};
use pdos_attack::pulse::PulseTrain;
use pdos_attack::source::PulseSource;
use pdos_scenarios::shape;
use pdos_sim::packet::FlowId;
use pdos_sim::time::{SimDuration, SimTime};
use pdos_sim::trace::TraceFilter;
use pdos_sim::units::{BitsPerSec, Bytes};

/// What one topology run observed.
#[derive(Debug, Clone)]
pub struct TopoOutcome {
    /// Aggregate sink goodput over the whole run, bytes.
    pub goodput_bytes: u64,
    /// Bottleneck ingress bytes in 100 ms bins (the digest input).
    pub bins: Vec<u64>,
    /// Runtime-checker violations recorded by the engine.
    pub violations: usize,
    /// The first violation, rendered, when any fired.
    pub first_violation: Option<String>,
    /// Packets dropped for lack of a route (must be 0 on these shapes).
    pub routeless: u64,
    /// Whether link-level packet conservation held across every link.
    pub conserved: bool,
}

/// Builds, attacks and runs one topology case with the runtime checkers
/// and a 100 ms bottleneck ingress trace, then audits the outcome.
pub fn run_topology(case: &TopologyCase) -> TopoOutcome {
    let groups = case.groups as usize;
    let mut w = match case.kind {
        TopoKind::ParkingLot => shape::parking_lot(groups, case.seed),
        TopoKind::FatTree => shape::fat_tree(groups, case.seed),
        TopoKind::FlowBank => shape::flow_bank(groups, case.flows.max(1), case.seed),
    };
    w.sim.enable_checks();
    let trace = w.sim.trace_link_ingress(
        w.bottleneck,
        TraceFilter::All,
        SimDuration::from_millis(100),
    );

    // The attack starts a third of the way in, after TCP has converged.
    let train = PulseTrain::new(
        SimDuration::from_millis(u64::from(case.extent_ms)),
        BitsPerSec::from_mbps(f64::from(case.rate_mbps)),
        SimDuration::from_millis(u64::from(case.space_ms)),
    )
    .expect("generator draws positive pulse parameters");
    // The attack flow id must stay clear of victim ids: the classic
    // kinds keep their historical 9999, while flow banks can own tens of
    // thousands of dense ids, so their attack rides far above the range.
    let attack_flow = match case.kind {
        TopoKind::ParkingLot | TopoKind::FatTree => 9999,
        TopoKind::FlowBank => 1 << 20,
    };
    let src = Box::new(PulseSource::new(
        train,
        FlowId::from_u32(attack_flow),
        w.attack_sink,
        Bytes::from_u64(1000),
        None,
    ));
    let attack_start = SimTime::from_secs(u64::from(case.run_s) / 3);
    w.sim.attach_agent_at(w.attacker, src, attack_start);

    w.sim.run_until(SimTime::from_secs(u64::from(case.run_s)));

    let goodput_bytes = (0..w.sinks.len()).map(|i| w.goodput_bytes(i)).sum();

    // Link-level conservation: offered = tx + dropped + backlog, give or
    // take one in-flight packet per link (the random-topology suite's
    // bound).
    let mut offered = 0u64;
    let mut accounted = 0u64;
    for link in w.sim.links() {
        offered += link.stats().offered_packets;
        accounted += link.stats().tx_packets + link.drops() + link.backlog_packets() as u64;
    }
    let slack = w.sim.links().len() as u64;
    let conserved = offered >= accounted && offered <= accounted + slack;

    TopoOutcome {
        goodput_bytes,
        bins: w.sim.trace(trace).bytes_per_bin().to_vec(),
        violations: w.sim.violations().len(),
        first_violation: w.sim.violations().first().map(ToString::to_string),
        routeless: w.sim.stats().routeless,
        conserved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdos_conformance::digest_bins;

    fn quick_case(kind: TopoKind) -> TopologyCase {
        TopologyCase {
            kind,
            groups: 1,
            flows: if kind == TopoKind::FlowBank { 1000 } else { 0 },
            seed: 5,
            run_s: 9,
            extent_ms: 75,
            rate_mbps: 30,
            space_ms: 425,
        }
    }

    #[test]
    fn parking_lot_runs_clean_and_carries_traffic() {
        let out = run_topology(&quick_case(TopoKind::ParkingLot));
        assert_eq!(out.violations, 0, "{:?}", out.first_violation);
        assert_eq!(out.routeless, 0);
        assert!(out.conserved);
        assert!(out.goodput_bytes > 100_000, "got {}", out.goodput_bytes);
        assert!(!out.bins.is_empty());
        // The attack is visible in the trace: post-start bins carry more
        // bytes than the bottleneck alone would (pulse ingress spikes).
        let peak = out.bins.iter().copied().max().unwrap_or(0);
        assert!(peak > 0);
        // Pinned: a change to the shape's wiring moves these.
        assert_eq!(out.bins.len(), 86);
        assert_eq!(digest_bins(&out.bins), 0xafa1_c0c1_57ea_5a22);
        assert_eq!(out.goodput_bytes, 18_441_000);
    }

    #[test]
    fn fat_tree_runs_clean_and_carries_traffic() {
        let out = run_topology(&quick_case(TopoKind::FatTree));
        assert_eq!(out.violations, 0, "{:?}", out.first_violation);
        assert_eq!(out.routeless, 0);
        assert!(out.conserved);
        assert!(out.goodput_bytes > 100_000, "got {}", out.goodput_bytes);
        assert_eq!(out.bins.len(), 87);
        assert_eq!(digest_bins(&out.bins), 0x4774_7133_3481_9d0f);
        assert_eq!(out.goodput_bytes, 5_231_000);
    }

    #[test]
    fn flow_bank_runs_clean_at_a_thousand_flows() {
        let out = run_topology(&quick_case(TopoKind::FlowBank));
        assert_eq!(out.violations, 0, "{:?}", out.first_violation);
        assert_eq!(out.routeless, 0);
        assert!(out.conserved);
        assert!(out.goodput_bytes > 100_000, "got {}", out.goodput_bytes);
        assert!(!out.bins.is_empty());
        assert_eq!(out.bins.len(), 90);
        assert_eq!(digest_bins(&out.bins), 0xae6d_8273_430c_54f4);
        assert_eq!(out.goodput_bytes, 11_326_000);
    }

    #[test]
    fn flow_bank_runs_are_deterministic() {
        let case = quick_case(TopoKind::FlowBank);
        let a = run_topology(&case);
        let b = run_topology(&case);
        assert_eq!(a.goodput_bytes, b.goodput_bytes);
        assert_eq!(a.bins, b.bins);
    }

    #[test]
    fn topology_runs_are_deterministic() {
        let case = quick_case(TopoKind::ParkingLot);
        let a = run_topology(&case);
        let b = run_topology(&case);
        assert_eq!(a.goodput_bytes, b.goodput_bytes);
        assert_eq!(a.bins, b.bins);
    }
}
