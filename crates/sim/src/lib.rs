//! # pdos-sim — a deterministic packet-level network simulator
//!
//! This crate is the simulation substrate of the PDoS-lab workspace: a
//! compact, deterministic discrete-event simulator playing the role ns-2
//! plays in Luo & Chang's DSN 2005 paper *"Optimizing the Pulsing
//! Denial-of-Service Attacks"*. Everything runs in simulated time; no real
//! network traffic is ever produced.
//!
//! ## Model
//!
//! * **Nodes** are hosts (which carry [`agent::Agent`] state machines) or
//!   routers (pure forwarders).
//! * **Links** are simplex: a serializing transmitter at a fixed
//!   [`units::BitsPerSec`] rate, a fixed propagation delay, and a pluggable
//!   [`queue::QueueDiscipline`] (DropTail or RED with `gentle_`).
//! * **Routing** is static minimum-hop, computed at build time.
//! * **Time** is integer nanoseconds; ties in the event queue resolve in
//!   scheduling order, so every run is exactly reproducible from its seeds.
//!
//! ## Example
//!
//! ```
//! use pdos_sim::prelude::*;
//!
//! let mut t = TopologyBuilder::with_seed(1);
//! let a = t.add_host("a");
//! let b = t.add_host("b");
//! t.add_duplex_link(a, b, BitsPerSec::from_mbps(10.0),
//!                   SimDuration::from_millis(5),
//!                   QueueSpec::DropTail { capacity: 100 });
//! let mut sim = t.build()?;
//! sim.run_until(SimTime::from_secs(10));
//! assert_eq!(sim.now(), SimTime::from_secs(10));
//! # Ok::<(), pdos_sim::topology::BuildError>(())
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod agent;
pub mod check;
pub mod engine;
pub mod event;
pub mod fnv;
pub mod link;
pub mod metrics;
pub mod node;
pub mod observe;
pub mod packet;
pub mod profile;
pub mod queue;
pub mod routing;
pub mod shard;
pub mod time;
pub mod topology;
pub mod trace;
pub mod units;

/// Convenient re-exports of the types almost every user touches.
pub mod prelude {
    pub use crate::agent::{Agent, AgentCtx, AgentId};
    pub use crate::check::{Violation, ViolationKind};
    pub use crate::engine::{CheckpointError, SimCheckpoint, SimStats, Simulator};
    pub use crate::link::{Impairments, LinkId};
    pub use crate::node::NodeId;
    pub use crate::packet::{FlowId, Packet, PacketKind};
    pub use crate::queue::{AccConfig, QueueSpec, RedConfig};
    pub use crate::shard::ShardPlan;
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::TopologyBuilder;
    pub use crate::trace::{TraceFilter, TraceId};
    pub use crate::units::{BitsPerSec, Bytes};
}
