//! Every topology beyond the paper's dumbbell: the parking lot, the fat
//! tree and the flow-bank dumbbell the fuzz campaign attacks, and the
//! bank ring of the million-flow benchmark.
//!
//! They are wired from the same primitives as
//! [`ScenarioSpec::build`](crate::spec::ScenarioSpec::build):
//! [`pdos_tcp::connect`], [`pdos_tcp::bank::attach_pair`],
//! [`attack_hosts`] and [`ample`]. Each builder makes its calls in a
//! fixed order, so node, link and agent ids — and every output — are a
//! function of its arguments alone.

use pdos_sim::agent::AgentId;
use pdos_sim::engine::Simulator;
use pdos_sim::link::LinkId;
use pdos_sim::node::NodeId;
use pdos_sim::packet::FlowId;
use pdos_sim::queue::{QueueSpec, RedConfig};
use pdos_sim::time::{SimDuration, SimTime};
use pdos_sim::topology::TopologyBuilder;
use pdos_sim::units::{BitsPerSec, Bytes};
use pdos_tcp::bank::{attach_pair, SinkBank};
use pdos_tcp::config::TcpConfig;
use pdos_tcp::sink::TcpSink;

/// A built topology with its handles, before any attack is attached.
pub struct Wired {
    /// The wired simulator.
    pub sim: Simulator,
    /// The link the attack targets.
    pub bottleneck: LinkId,
    /// The receiving agents in flow-id order: a [`TcpSink`] per flow, or
    /// a [`SinkBank`] per bank pair on the flow bank.
    pub sinks: Vec<AgentId>,
    /// The attacker host, next to the bottleneck's ingress.
    pub attacker: NodeId,
    /// The attack's destination, behind the bottleneck.
    pub attack_sink: NodeId,
}

impl Wired {
    /// In-order payload bytes delivered so far to `sinks[i]`.
    pub fn goodput_bytes(&self, i: usize) -> u64 {
        let (sim, rx) = (&self.sim, self.sinks[i]);
        sim.agent_as::<TcpSink>(rx)
            .map(TcpSink::goodput_bytes)
            .or_else(|| sim.agent_as::<SinkBank>(rx).map(SinkBank::goodput_bytes))
            .expect("a sink agent")
    }
}

/// The drop-tail queue of every link that is not under test: plenty of
/// room for ACKs and unshaped access traffic.
pub fn ample() -> QueueSpec {
    QueueSpec::DropTail { capacity: 10_000 }
}

/// Adds the attacker host on `near` and the attack sink on `far`, each
/// on a duplex `access` link with 1 ms delay. Returns
/// `(attacker, attack sink)`.
pub fn attack_hosts(
    t: &mut TopologyBuilder,
    near: NodeId,
    far: NodeId,
    access: BitsPerSec,
) -> (NodeId, NodeId) {
    let attacker = t.add_host("attacker");
    let attack_sink = t.add_host("attack-sink");
    let d = SimDuration::from_millis(1);
    t.add_duplex_link(attacker, near, access, d, ample());
    t.add_duplex_link(attack_sink, far, access, d, ample());
    (attacker, attack_sink)
}

/// Adds the 15 Mbps, 5 ms RED bottleneck `from → to` (60 packets of
/// 1040 bytes on average) and its ample reverse link. Returns the
/// forward link.
fn red_hop(t: &mut TopologyBuilder, from: NodeId, to: NodeId) -> LinkId {
    let mut red = RedConfig::paper_testbed(60);
    red.mean_packet_size = Bytes::from_u64(1040);
    let (rate, delay) = (BitsPerSec::from_mbps(15.0), SimDuration::from_millis(5));
    let forward = t.add_link(from, to, rate, delay, QueueSpec::Red(red));
    t.add_link(to, from, rate, delay, ample());
    forward
}

/// Adds hosts `{tag}-src{i}` on `src_router` and `{tag}-dst{i}` on
/// `dst_router`, each on a duplex `access` link with 2 ms delay.
fn add_pair(
    t: &mut TopologyBuilder,
    (src_router, dst_router): (NodeId, NodeId),
    access: BitsPerSec,
    tag: &str,
    i: usize,
) -> (NodeId, NodeId) {
    let src = t.add_host(format!("{tag}-src{i}"));
    let dst = t.add_host(format!("{tag}-dst{i}"));
    let d = SimDuration::from_millis(2);
    t.add_duplex_link(src, src_router, access, d, ample());
    t.add_duplex_link(dst, dst_router, access, d, ample());
    (src, dst)
}

/// Builds `t` and wires pair `i` with `connect(sim, i, src, dst)`, which
/// returns the pair's receiving agent.
fn wire(
    t: TopologyBuilder,
    pairs: &[(NodeId, NodeId)],
    bottleneck: LinkId,
    (attacker, attack_sink): (NodeId, NodeId),
    mut connect: impl FnMut(&mut Simulator, u32, NodeId, NodeId) -> AgentId,
) -> Wired {
    let mut sim = t.build().expect("topology builds");
    let sinks = pairs
        .iter()
        .enumerate()
        .map(|(i, &(src, dst))| connect(&mut sim, i as u32, src, dst))
        .collect();
    Wired {
        sim,
        bottleneck,
        sinks,
        attacker,
        attack_sink,
    }
}

/// Connects NewReno flow `i` from `src` to `dst`, starting at `53·i` ms.
fn tcp_flow(sim: &mut Simulator, i: u32, src: NodeId, dst: NodeId) -> AgentId {
    let (flow, start) = (FlowId::from_u32(i), SimTime::from_millis(53 * u64::from(i)));
    pdos_tcp::connect(sim, src, dst, flow, TcpConfig::ns2_newreno(), start).1
}

/// Three routers in a chain with two RED bottleneck hops, and three flow
/// groups of `groups` pairs each: long (r1→r3), right (r2→r3) and left
/// (r1→r2), interleaved so sink `i` belongs to group `i % 3`. The
/// attack targets the middle hop r2→r3.
pub fn parking_lot(groups: usize, seed: u64) -> Wired {
    let mut t = TopologyBuilder::with_seed(seed);
    let r1 = t.add_router("r1");
    let r2 = t.add_router("r2");
    let r3 = t.add_router("r3");
    red_hop(&mut t, r1, r2);
    let middle = red_hop(&mut t, r2, r3);

    let access = BitsPerSec::from_mbps(50.0);
    let mut pairs = Vec::new();
    for i in 0..groups {
        pairs.push(add_pair(&mut t, (r1, r3), access, "long", i));
        pairs.push(add_pair(&mut t, (r2, r3), access, "right", i));
        pairs.push(add_pair(&mut t, (r1, r2), access, "left", i));
    }
    let attack = attack_hosts(&mut t, r2, r3, BitsPerSec::from_mbps(1000.0));
    wire(t, &pairs, middle, attack, tcp_flow)
}

/// Two aggregation cores joined by one RED bottleneck, `groups` leaf
/// switches per side and two hosts per leaf; every flow crosses the core
/// link left→right. The attack targets the core bottleneck.
pub fn fat_tree(groups: usize, seed: u64) -> Wired {
    let mut t = TopologyBuilder::with_seed(seed);
    let c0 = t.add_router("c0");
    let c1 = t.add_router("c1");
    let bottleneck = red_hop(&mut t, c0, c1);

    let (uplink, d) = (BitsPerSec::from_mbps(50.0), SimDuration::from_millis(2));
    let mut pairs = Vec::new();
    for l in 0..groups {
        let left = t.add_router(format!("leaf-l{l}"));
        let right = t.add_router(format!("leaf-r{l}"));
        t.add_duplex_link(left, c0, uplink, d, ample());
        t.add_duplex_link(right, c1, uplink, d, ample());
        let tag = format!("pod{l}");
        for h in 0..2 {
            pairs.push(add_pair(&mut t, (left, right), uplink, &tag, h));
        }
    }
    let attack = attack_hosts(&mut t, c0, c1, BitsPerSec::from_mbps(1000.0));
    wire(t, &pairs, bottleneck, attack, tcp_flow)
}

/// One dumbbell carrying `groups` bank pairs through one RED bottleneck:
/// pair `i` serves the dense flows `[i·flows, (i+1)·flows)` from its
/// sender-bank host to its sink-bank host, bound through flow-range
/// bindings.
///
/// # Panics
///
/// Panics when `flows` is zero or `groups · flows` exceeds `u32`.
pub fn flow_bank(groups: usize, flows: u32, seed: u64) -> Wired {
    let mut t = TopologyBuilder::with_seed(seed);
    let r1 = t.add_router("r1");
    let r2 = t.add_router("r2");
    let bottleneck = red_hop(&mut t, r1, r2);

    let access = BitsPerSec::from_mbps(1000.0);
    let pairs: Vec<_> = (0..groups)
        .map(|i| add_pair(&mut t, (r1, r2), access, "bank", i))
        .collect();
    let attack = attack_hosts(&mut t, r1, r2, access);
    wire(t, &pairs, bottleneck, attack, |sim, i, src, dst| {
        attach_pair(sim, src, dst, i * flows..(i + 1) * flows).1
    })
}

/// Number of clusters in the [`bank_ring`] (and the upper bound on
/// useful shards for it).
pub const RING_CLUSTERS: usize = 8;

/// The million-flow topology: [`RING_CLUSTERS`] dumbbell clusters
/// (sender host → router → sink host; the router→sink hop is the 50 Mbps
/// bottleneck) joined into a ring by 50 ms core links. The core carries
/// no traffic but keeps the graph connected, and its high latency is
/// where [`pdos_sim::shard::ShardPlan`] cuts — every shard gets a 50 ms
/// lookahead horizon. `flows` are spread evenly across the clusters as
/// bank pairs, so per-flow state is struct-of-arrays flat and nothing in
/// the build keeps a per-flow map. Cluster `c` holds agents `2c` (its
/// sender bank) and `2c + 1` (its sink bank).
///
/// # Panics
///
/// Panics when `flows` is below [`RING_CLUSTERS`].
pub fn bank_ring(flows: usize) -> Simulator {
    assert!(flows >= RING_CLUSTERS, "need at least one flow per cluster");
    let (per, extra) = (flows / RING_CLUSTERS, flows % RING_CLUSTERS);
    let mut t = TopologyBuilder::with_seed(42);
    let mut hosts = Vec::new();
    let mut routers = Vec::new();
    for c in 0..RING_CLUSTERS {
        let tx = t.add_host(format!("tx{c}"));
        let r = t.add_router(format!("r{c}"));
        let rx = t.add_host(format!("rx{c}"));
        let n = per + usize::from(c < extra);
        // Access: fat and deep enough that the initial window burst of
        // every flow in the cluster queues instead of dropping.
        t.add_duplex_link(
            tx,
            r,
            BitsPerSec::from_mbps(1000.0),
            SimDuration::from_millis(1),
            QueueSpec::DropTail { capacity: n + 64 },
        );
        t.add_duplex_link(
            r,
            rx,
            BitsPerSec::from_mbps(50.0),
            SimDuration::from_millis(5),
            QueueSpec::DropTail { capacity: 100 },
        );
        hosts.push((tx, rx, n as u32));
        routers.push(r);
    }
    for c in 0..RING_CLUSTERS {
        let next = routers[(c + 1) % RING_CLUSTERS];
        t.add_duplex_link(
            routers[c],
            next,
            BitsPerSec::from_mbps(100.0),
            SimDuration::from_millis(50),
            QueueSpec::DropTail { capacity: 64 },
        );
    }
    let mut sim = t.build().expect("bank ring builds");
    let mut first = 0u32;
    for (tx, rx, n) in hosts {
        attach_pair(&mut sim, tx, rx, first..first + n);
        first += n;
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_ring_puts_cluster_c_at_agents_2c_and_2c_plus_1() {
        let sim = bank_ring(RING_CLUSTERS * 3 + 1);
        assert_eq!(sim.nodes().len(), 3 * RING_CLUSTERS);
        let sizes: Vec<usize> = (0..RING_CLUSTERS as u32)
            .map(|c| {
                let bank = sim.agent_as::<SinkBank>(AgentId::from_u32(2 * c + 1));
                bank.expect("sink bank").n_flows()
            })
            .collect();
        assert_eq!(sizes, [4, 3, 3, 3, 3, 3, 3, 3]);
    }
}
