//! Generative robustness: random tree topologies with random endpoint
//! pairs must always route, deliver, and conserve packets. This guards
//! the routing/forwarding core against shapes the hand-built scenarios
//! never exercise.

use pdos::prelude::*;
use pdos::tcp::sink::TcpSink;
use proptest::prelude::*;

/// Builds a random tree: node `i > 0` hangs off `parents[i-1] % i`.
fn tree_sim(parents: &[u8], src_pick: u8, dst_pick: u8) -> (Simulator, u64) {
    let n = parents.len() + 1;
    let mut t = TopologyBuilder::with_seed(3);
    let nodes: Vec<NodeId> = (0..n).map(|i| t.add_host(format!("n{i}"))).collect();
    let q = QueueSpec::DropTail { capacity: 200 };
    for (i, &p) in parents.iter().enumerate() {
        let child = nodes[i + 1];
        let parent = nodes[(p as usize) % (i + 1)];
        t.add_duplex_link(
            child,
            parent,
            BitsPerSec::from_mbps(10.0),
            SimDuration::from_millis(1 + (i as u64 % 5)),
            q.clone(),
        );
    }
    let mut sim = t.build().expect("tree builds");

    let src = nodes[src_pick as usize % n];
    let mut dst = nodes[dst_pick as usize % n];
    if dst == src {
        dst = nodes[(dst_pick as usize + 1) % n];
    }
    let mut goodput_probe = 0;
    if src != dst {
        let flow = FlowId::from_u32(7);
        let cfg = TcpConfig::ns2_newreno();
        let (_, rx) = pdos::tcp::connect(&mut sim, src, dst, flow, cfg, SimTime::ZERO);
        sim.run_until(SimTime::from_secs(3));
        goodput_probe = sim.agent_as::<TcpSink>(rx).expect("sink").goodput_bytes();
    }
    (sim, goodput_probe)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn random_trees_route_and_deliver(
        parents in proptest::collection::vec(any::<u8>(), 1..14),
        src_pick in any::<u8>(),
        dst_pick in any::<u8>(),
    ) {
        let (sim, goodput) = tree_sim(&parents, src_pick, dst_pick);
        let stats = sim.stats();
        // A tree is connected: no packet may die for lack of a route.
        prop_assert_eq!(stats.routeless, 0);
        // The flow moved real data end-to-end.
        prop_assert!(goodput > 100_000, "goodput {} too small", goodput);
        // Link-level conservation: offered = tx + dropped + backlog
        // (+ at most one in-flight packet per link).
        let mut offered = 0u64;
        let mut accounted = 0u64;
        for link in sim.links() {
            offered += link.stats().offered_packets;
            accounted += link.stats().tx_packets + link.drops() + link.backlog_packets() as u64;
        }
        prop_assert!(offered >= accounted);
        prop_assert!(offered <= accounted + sim.links().len() as u64);
    }
}
