//! Declarative topology construction.

use crate::engine::Simulator;
use crate::link::{Impairments, Link, LinkId};
use crate::node::{Node, NodeId, NodeKind};
use crate::queue::QueueSpec;
use crate::routing::RoutingTable;
use crate::time::SimDuration;
use crate::units::BitsPerSec;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// A problem found while building a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A link referenced a node id that was never added.
    UnknownNode {
        /// The offending node id.
        node: NodeId,
    },
    /// A link connects a node to itself.
    SelfLoop {
        /// The node with the self-loop.
        node: NodeId,
    },
    /// The topology has no nodes.
    Empty,
    /// The topology has more than [`MAX_NODES`] nodes.
    TooManyNodes {
        /// Nodes in the description.
        nodes: usize,
    },
}

/// The most nodes a topology may have: the largest `n` whose dense
/// routing table, `n² × 8` bytes, fits in 1 GiB.
pub const MAX_NODES: usize = 11_585;

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnknownNode { node } => {
                write!(f, "link references unknown node {node}")
            }
            BuildError::SelfLoop { node } => write!(f, "self-loop at {node}"),
            BuildError::Empty => write!(f, "topology has no nodes"),
            BuildError::TooManyNodes { nodes } => write!(
                f,
                "topology has {nodes} nodes, above the limit of {MAX_NODES} \
                 (its routing table would exceed 1 GiB)"
            ),
        }
    }
}

impl Error for BuildError {}

#[derive(Debug, Clone)]
struct LinkSpec {
    src: NodeId,
    dst: NodeId,
    bandwidth: BitsPerSec,
    delay: SimDuration,
    queue: Arc<QueueSpec>,
    impairments: Impairments,
}

/// Incrementally describes a topology, then builds a [`Simulator`].
///
/// # Examples
///
/// A minimal dumbbell:
///
/// ```
/// use pdos_sim::topology::TopologyBuilder;
/// use pdos_sim::queue::QueueSpec;
/// use pdos_sim::units::BitsPerSec;
/// use pdos_sim::time::SimDuration;
///
/// let mut t = TopologyBuilder::with_seed(7);
/// let s = t.add_router("S");
/// let r = t.add_router("R");
/// let src = t.add_host("sender");
/// let dst = t.add_host("receiver");
/// // Wrapping the spec in an `Arc` shares it across links without
/// // cloning; passing a bare `QueueSpec` works too.
/// let q = std::sync::Arc::new(QueueSpec::DropTail { capacity: 64 });
/// t.add_duplex_link(src, s, BitsPerSec::from_mbps(50.0), SimDuration::from_millis(1), q.clone());
/// t.add_duplex_link(s, r, BitsPerSec::from_mbps(15.0), SimDuration::from_millis(10), q.clone());
/// t.add_duplex_link(r, dst, BitsPerSec::from_mbps(50.0), SimDuration::from_millis(1), q);
/// let sim = t.build()?;
/// assert_eq!(sim.nodes().len(), 4);
/// assert_eq!(sim.links().len(), 6);
/// # Ok::<(), pdos_sim::topology::BuildError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct TopologyBuilder {
    nodes: Vec<(NodeKind, String)>,
    links: Vec<LinkSpec>,
    seed: u64,
}

impl TopologyBuilder {
    /// Creates an empty builder with seed 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder whose queue disciplines derive their RNG
    /// streams from `seed`.
    pub fn with_seed(seed: u64) -> Self {
        TopologyBuilder {
            seed,
            ..Self::default()
        }
    }

    /// Adds an endpoint node.
    pub fn add_host(&mut self, label: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Host, label)
    }

    /// Adds a forwarding node.
    pub fn add_router(&mut self, label: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Router, label)
    }

    fn add_node(&mut self, kind: NodeKind, label: impl Into<String>) -> NodeId {
        let id = NodeId::from_u32(self.nodes.len() as u32);
        self.nodes.push((kind, label.into()));
        id
    }

    /// Adds a simplex link `src -> dst`.
    ///
    /// `queue` accepts either a bare [`QueueSpec`] or an
    /// `Arc<QueueSpec>`; pass a shared `Arc` to describe many links
    /// without cloning the spec per link.
    pub fn add_link(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bandwidth: BitsPerSec,
        delay: SimDuration,
        queue: impl Into<Arc<QueueSpec>>,
    ) -> LinkId {
        let id = LinkId::from_u32(self.links.len() as u32);
        self.links.push(LinkSpec {
            src,
            dst,
            bandwidth,
            delay,
            queue: queue.into(),
            impairments: Impairments::NONE,
        });
        id
    }

    /// Installs Dummynet-style impairments (random loss, delay jitter) on
    /// a previously added link.
    ///
    /// # Panics
    ///
    /// Panics if `link` was not returned by this builder or the
    /// impairments are invalid.
    pub fn set_impairments(&mut self, link: LinkId, impairments: Impairments) {
        if let Err(e) = impairments.validate() {
            panic!("invalid link impairments: {e}");
        }
        self.links[link.index()].impairments = impairments;
    }

    /// Adds a pair of simplex links `a -> b` and `b -> a` with identical
    /// parameters. Returns `(forward, reverse)`. The spec is shared, not
    /// cloned, between the two directions.
    pub fn add_duplex_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        bandwidth: BitsPerSec,
        delay: SimDuration,
        queue: impl Into<Arc<QueueSpec>>,
    ) -> (LinkId, LinkId) {
        let queue = queue.into();
        let fwd = self.add_link(a, b, bandwidth, delay, Arc::clone(&queue));
        let rev = self.add_link(b, a, bandwidth, delay, queue);
        (fwd, rev)
    }

    /// Number of nodes added so far.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of simplex links added so far.
    pub fn n_links(&self) -> usize {
        self.links.len()
    }

    /// Validates the description and builds the simulator.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] when the description is inconsistent (unknown
    /// node ids, self-loops, no nodes at all) or has more than
    /// [`MAX_NODES`] nodes.
    pub fn build(&self) -> Result<Simulator, BuildError> {
        if self.nodes.is_empty() {
            return Err(BuildError::Empty);
        }
        let n = self.nodes.len();
        if n > MAX_NODES {
            return Err(BuildError::TooManyNodes { nodes: n });
        }
        for spec in &self.links {
            for endpoint in [spec.src, spec.dst] {
                if endpoint.index() >= n {
                    return Err(BuildError::UnknownNode { node: endpoint });
                }
            }
            if spec.src == spec.dst {
                return Err(BuildError::SelfLoop { node: spec.src });
            }
        }

        let nodes: Vec<Node> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, (kind, label))| Node::new(NodeId::from_u32(i as u32), *kind, label.clone()))
            .collect();

        let links: Vec<Link> = self
            .links
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let id = LinkId::from_u32(i as u32);
                // Derive a distinct, stable RNG stream per link from the
                // topology seed.
                let link_seed = self
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(i as u64 + 1);
                let mut link = Link::new(
                    id,
                    spec.src,
                    spec.dst,
                    spec.bandwidth,
                    spec.delay,
                    spec.queue.build(spec.bandwidth, link_seed),
                );
                if !spec.impairments.is_none() {
                    link.set_impairments(spec.impairments, link_seed ^ 0xDAD0);
                }
                link
            })
            .collect();

        let edge_list: Vec<(LinkId, NodeId, NodeId)> =
            links.iter().map(|l| (l.id(), l.src(), l.dst())).collect();
        let routing = RoutingTable::compute(n, &edge_list);

        Ok(Simulator::from_parts(nodes, links, routing))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q() -> QueueSpec {
        QueueSpec::DropTail { capacity: 10 }
    }

    #[test]
    fn empty_topology_rejected() {
        assert_eq!(
            TopologyBuilder::new().build().unwrap_err(),
            BuildError::Empty
        );
    }

    #[test]
    fn self_loop_rejected() {
        let mut t = TopologyBuilder::new();
        let a = t.add_host("a");
        t.add_link(
            a,
            a,
            BitsPerSec::from_mbps(1.0),
            SimDuration::from_millis(1),
            q(),
        );
        assert_eq!(t.build().unwrap_err(), BuildError::SelfLoop { node: a });
    }

    #[test]
    fn unknown_node_rejected() {
        let mut t = TopologyBuilder::new();
        let a = t.add_host("a");
        let ghost = NodeId::from_u32(99);
        t.add_link(
            a,
            ghost,
            BitsPerSec::from_mbps(1.0),
            SimDuration::from_millis(1),
            q(),
        );
        assert_eq!(
            t.build().unwrap_err(),
            BuildError::UnknownNode { node: ghost }
        );
    }

    #[test]
    fn build_produces_working_routing() {
        let mut t = TopologyBuilder::new();
        let a = t.add_host("a");
        let r = t.add_router("r");
        let b = t.add_host("b");
        t.add_duplex_link(
            a,
            r,
            BitsPerSec::from_mbps(1.0),
            SimDuration::from_millis(1),
            q(),
        );
        t.add_duplex_link(
            r,
            b,
            BitsPerSec::from_mbps(1.0),
            SimDuration::from_millis(1),
            q(),
        );
        let sim = t.build().unwrap();
        assert!(sim.routing().reachable(a, b));
        assert!(sim.routing().reachable(b, a));
        assert_eq!(sim.nodes()[1].label(), "r");
        assert_eq!(t.n_nodes(), 3);
        assert_eq!(t.n_links(), 4);
    }

    #[test]
    fn thousand_links_share_one_spec_without_cloning() {
        // Regression: link specs used to be cloned per link (and per
        // duplex direction). With `Arc` sharing, a 1k-link topology holds
        // exactly one spec: 1 owner here + 1 per link, and building it
        // never clones the spec either.
        let mut t = TopologyBuilder::new();
        let a = t.add_router("a");
        let b = t.add_router("b");
        let shared = Arc::new(QueueSpec::DropTail { capacity: 50 });
        for i in 0..1_000 {
            let (src, dst) = if i % 2 == 0 { (a, b) } else { (b, a) };
            t.add_link(
                src,
                dst,
                BitsPerSec::from_mbps(10.0),
                SimDuration::from_millis(1),
                Arc::clone(&shared),
            );
        }
        assert_eq!(t.n_links(), 1_000);
        assert_eq!(Arc::strong_count(&shared), 1_001);
        let sim = t.build().unwrap();
        assert_eq!(sim.links().len(), 1_000);
        // build() borrowed the specs; no hidden clones survived it.
        assert_eq!(Arc::strong_count(&shared), 1_001);
    }

    #[test]
    fn oversized_topology_is_an_error_not_an_allocation() {
        // The routing table stores one `Option<LinkId>` per node pair.
        assert_eq!(std::mem::size_of::<Option<LinkId>>(), 8);
        const { assert!(MAX_NODES * MAX_NODES * 8 <= 1 << 30) };
        const { assert!((MAX_NODES + 1) * (MAX_NODES + 1) * 8 > 1 << 30) };
        let mut t = TopologyBuilder::new();
        for i in 0..=MAX_NODES {
            t.add_host(format!("h{i}"));
        }
        let err = t.build().unwrap_err();
        assert_eq!(err, BuildError::TooManyNodes { nodes: 11_586 });
        assert!(err.to_string().contains("11586 nodes"), "{err}");
        assert!(err.to_string().contains("limit of 11585"), "{err}");
    }

    #[test]
    fn error_messages_are_informative() {
        assert_eq!(BuildError::Empty.to_string(), "topology has no nodes");
        assert!(BuildError::SelfLoop {
            node: NodeId::from_u32(2)
        }
        .to_string()
        .contains("n2"));
        assert!(BuildError::UnknownNode {
            node: NodeId::from_u32(5)
        }
        .to_string()
        .contains("n5"));
    }
}
