//! # pdos-tcp — pluggable-CC TCP agents for `pdos-sim`
//!
//! Segment-granularity TCP endpoints in the style of ns-2's agents, built
//! for the PDoS-lab reproduction of Luo & Chang (DSN 2005):
//!
//! * [`sender::TcpSender`] — greedy source with slow start, fast
//!   retransmit, NewReno/Reno/Tahoe loss recovery, and an RFC 6298-style
//!   retransmission timeout with a configurable floor (`min_rto`) — the
//!   knob the shrew attack exploits. Window growth and backoff fold
//!   through the [`cc`] registry: the paper's general
//!   additive-increase/multiplicative-decrease rule
//!   ([`config::AimdParams`], the default), RFC 8312 CUBIC, a simplified
//!   BBR and DCTCP, selected declaratively by [`cc::CcSpec`].
//! * [`sink::TcpSink`] — cumulative ACKs with the delayed-ACK factor `d`
//!   that appears throughout the paper's throughput model.
//!
//! The paper's Eq. (1) predicts that under a pulsing attack of period
//! `T_AIMD`, the window converges to `W̄ = a·T_AIMD / ((1-b)·d·RTT)`; the
//! integration tests of the workspace check this against these agents.
//!
//! ## Example
//!
//! ```
//! use pdos_sim::prelude::*;
//! use pdos_tcp::prelude::*;
//!
//! // Two hosts, one duplex link; a single greedy TCP flow between them.
//! let mut t = TopologyBuilder::with_seed(1);
//! let a = t.add_host("sender");
//! let b = t.add_host("receiver");
//! t.add_duplex_link(a, b, BitsPerSec::from_mbps(10.0),
//!                   SimDuration::from_millis(20),
//!                   QueueSpec::DropTail { capacity: 100 });
//! let mut sim = t.build()?;
//!
//! let flow = FlowId::from_u32(1);
//! let cfg = TcpConfig::ns2_newreno();
//! let (_tx, rx) = pdos_tcp::connect(&mut sim, a, b, flow, cfg, SimTime::ZERO);
//!
//! sim.run_until(SimTime::from_secs(5));
//! let sink = sim.agent_as::<TcpSink>(rx).unwrap();
//! assert!(sink.goodput_bytes() > 0);
//! # Ok::<(), pdos_sim::topology::BuildError>(())
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bank;
pub mod cc;
pub mod config;
pub mod rto;
pub mod rto_wheel;
pub mod sender;
pub mod sink;
pub mod stats;

use config::TcpConfig;
use pdos_sim::agent::AgentId;
use pdos_sim::engine::Simulator;
use pdos_sim::node::NodeId;
use pdos_sim::packet::FlowId;
use pdos_sim::time::SimTime;
use sender::TcpSender;
use sink::TcpSink;

/// Wires one connection: a [`TcpSender`] on `src` started at `start`, a
/// [`TcpSink`] on `dst`, and the two bindings that carry `flow`'s data
/// to the sink and its ACKs back. Returns `(sender, sink)`.
///
/// The sink reads only the ACK-side fields of `cfg` (segment size,
/// delayed ACKs, SACK), so one configuration serves both ends.
pub fn connect(
    sim: &mut Simulator,
    src: NodeId,
    dst: NodeId,
    flow: FlowId,
    cfg: TcpConfig,
    start: SimTime,
) -> (AgentId, AgentId) {
    let tx = sim.attach_agent_at(src, Box::new(TcpSender::new(cfg.clone(), flow, dst)), start);
    let rx = sim.attach_agent(dst, Box::new(TcpSink::new(cfg, flow, src)));
    sim.bind_flow(src, flow, tx);
    sim.bind_flow(dst, flow, rx);
    (tx, rx)
}

/// Convenient re-exports.
pub mod prelude {
    pub use crate::bank::{SenderBank, SinkBank};
    pub use crate::cc::{parse_cc_key, AckSample, CcSpec, CcState, CongestionControl};
    pub use crate::config::{AimdParams, CcVariant, TcpConfig};
    pub use crate::rto::RttEstimator;
    pub use crate::sender::TcpSender;
    pub use crate::sink::TcpSink;
    pub use crate::stats::{CwndSample, SenderStats, SinkStats};
}
