//! The discrete-event engine: owns nodes, links, agents and the event
//! queue, and advances simulated time.

use crate::agent::{Agent, AgentCtx, AgentId, Effect};
use crate::check::{CheckState, Violation};
use crate::event::{Event, EventQueue, TimerHandle};
use crate::fnv::FnvHashMap;
use crate::link::{Link, LinkAccept, LinkId};
use crate::metrics::EngineMetrics;
use crate::node::{Node, NodeId};
use crate::observe::Observers;
use crate::packet::{FlowId, Packet, PacketArena};
use crate::profile::ProfileSnapshot;
use crate::routing::RoutingTable;
use crate::shard::{merge_outboxes, CrossPacket, ShardMembership, ShardPlan};
use crate::time::{SimDuration, SimTime};
use crate::trace::{RateTrace, TraceFilter, TraceId};

/// Aggregate counters kept by the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Events processed.
    pub events: u64,
    /// Packets delivered to a bound agent.
    pub delivered: u64,
    /// Packets that reached their destination node but had no agent bound
    /// to their `(node, flow)` — attack sinks typically land here.
    pub unclaimed: u64,
    /// Packets dropped by queue disciplines.
    pub queue_drops: u64,
    /// ECN congestion-experienced marks applied by queue disciplines.
    pub ecn_marks: u64,
    /// Packets discarded because no route existed to their destination.
    pub routeless: u64,
}

impl SimStats {
    /// Accumulates another counter set (used to merge per-shard stats).
    fn add(&mut self, other: SimStats) {
        self.events += other.events;
        self.delivered += other.delivered;
        self.unclaimed += other.unclaimed;
        self.queue_drops += other.queue_drops;
        self.ecn_marks += other.ecn_marks;
        self.routeless += other.routeless;
    }
}

struct AgentSlot {
    node: NodeId,
    agent: Option<Box<dyn Agent>>,
    /// Live timer handles by token, so `Effect::CancelTimer` can cancel in
    /// the wheel for real — O(1) per arm/cancel/fire regardless of how many
    /// timers the agent keeps live (a million-flow bank used to pay a full
    /// scan of this table per ACK when it was a `Vec`).
    timers: FnvHashMap<u64, TimerHandle>,
    /// The rare second live timer armed on the *same* token spills here;
    /// swept lazily on cancel/fire, so it stays empty for every agent that
    /// keeps at most one live timer per token.
    timer_spill: Vec<(u64, TimerHandle)>,
}

impl AgentSlot {
    /// Deep-copies the slot, or `None` when the agent does not implement
    /// [`Agent::clone_box`].
    fn try_clone(&self) -> Option<AgentSlot> {
        let agent = match &self.agent {
            Some(a) => Some(a.clone_box()?),
            None => None,
        };
        Some(AgentSlot {
            node: self.node,
            agent,
            timers: self.timers.clone(),
            timer_spill: self.timer_spill.clone(),
        })
    }
}

/// The simulator: a deterministic single-threaded event loop.
///
/// Build one with [`crate::topology::TopologyBuilder`], attach agents, then
/// call [`Simulator::run_until`].
///
/// # Examples
///
/// ```
/// use pdos_sim::topology::TopologyBuilder;
/// use pdos_sim::queue::QueueSpec;
/// use pdos_sim::units::BitsPerSec;
/// use pdos_sim::time::{SimDuration, SimTime};
///
/// let mut t = TopologyBuilder::new();
/// let a = t.add_host("a");
/// let b = t.add_host("b");
/// t.add_duplex_link(a, b, BitsPerSec::from_mbps(10.0),
///                   SimDuration::from_millis(5),
///                   QueueSpec::DropTail { capacity: 100 });
/// let mut sim = t.build()?;
/// sim.run_until(SimTime::from_secs(1));
/// assert_eq!(sim.now(), SimTime::from_secs(1));
/// # Ok::<(), pdos_sim::topology::BuildError>(())
/// ```
pub struct Simulator {
    clock: SimTime,
    events: EventQueue,
    nodes: Vec<Node>,
    links: Vec<Link>,
    routing: RoutingTable,
    agents: Vec<AgentSlot>,
    bindings: FnvHashMap<(NodeId, FlowId), AgentId>,
    /// Dense flow-range bindings, indexed by node: a bank claiming a
    /// contiguous flow-id block registers one entry here instead of one
    /// point binding per flow, so million-flow lookups touch a handful of
    /// cache-hot range records rather than a DRAM-sized hash table.
    flow_ranges: Vec<Vec<FlowRange>>,
    /// In-flight packets, parked here while their `Deliver` event is
    /// pending so the event itself carries only a small handle.
    arena: PacketArena,
    next_uid: u64,
    stats: SimStats,
    effects_scratch: Vec<Effect>,
    /// Every read-only instrument — traces, tap, checkers, metrics,
    /// profiler (see [`crate::observe`]); `None` (the default) costs one
    /// branch per hook site.
    observers: Option<Box<Observers>>,
    /// Shard identity when this simulator is one shard of a larger
    /// sharded run (set by `enable_sharding` on the sub-simulators);
    /// `None` for standalone simulators.
    shard_ctx: Option<Box<ShardMembership>>,
    /// The sharded runtime when this simulator coordinates a
    /// conservative-lookahead parallel run; `None` (the default) keeps
    /// the legacy single-threaded event loop.
    sharding: Option<Box<ShardRuntime>>,
}

/// The coordinator state of a sharded run: the plan, one private
/// sub-simulator per shard, and the maps translating the outer handle
/// space (agent/trace ids handed to callers) to per-shard handles.
struct ShardRuntime {
    plan: ShardPlan,
    shards: Vec<Simulator>,
    /// Outer `AgentId` index -> (shard, shard-local id).
    agent_map: Vec<(usize, AgentId)>,
    /// Outer `TraceId` index -> (shard, shard-local id).
    trace_map: Vec<(usize, TraceId)>,
    /// Owning shard per link (the shard of the link's source node).
    link_owner: Vec<usize>,
    /// Seeded-fault flag: corrupt the next cross-shard packet's
    /// timestamp to simulate a delivery past the lookahead horizon.
    skew_armed: bool,
}

impl ShardRuntime {
    fn try_clone(&self) -> Result<ShardRuntime, CheckpointError> {
        let mut shards = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            shards.push(shard.try_clone()?);
        }
        Ok(ShardRuntime {
            plan: self.plan.clone(),
            shards,
            agent_map: self.agent_map.clone(),
            trace_map: self.trace_map.clone(),
            link_owner: self.link_owner.clone(),
            skew_armed: self.skew_armed,
        })
    }
}

/// One synchronization round sent to a shard worker: inject this round's
/// cross-shard packets, advance through the window, hand back the outbox.
struct RoundCmd {
    end: SimTime,
    /// `true`: process events strictly before `end` (a half-open
    /// lookahead window). `false`: the final inclusive pass — run to and
    /// including `end`, leaving the shard clock there.
    strict: bool,
    inject: Vec<CrossPacket>,
}

/// A shard worker's answer to one [`RoundCmd`].
struct RoundReply {
    outbox: Vec<CrossPacket>,
    next: Option<SimTime>,
}

/// One dense binding: flows `start..end` arriving at their node route to
/// `agent`. See [`Simulator::bind_flow_range`].
#[derive(Debug, Clone, Copy)]
struct FlowRange {
    start: u32,
    /// Exclusive upper bound.
    end: u32,
    agent: AgentId,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.clock)
            .field("nodes", &self.nodes.len())
            .field("links", &self.links.len())
            .field("agents", &self.agents.len())
            .field("pending_events", &self.events.len())
            .field("shards", &self.shard_count())
            .finish()
    }
}

impl Simulator {
    pub(crate) fn from_parts(nodes: Vec<Node>, links: Vec<Link>, routing: RoutingTable) -> Self {
        let n_nodes = nodes.len();
        Simulator {
            clock: SimTime::ZERO,
            events: EventQueue::new(),
            nodes,
            links,
            routing,
            agents: Vec::new(),
            bindings: FnvHashMap::default(),
            flow_ranges: vec![Vec::new(); n_nodes],
            arena: PacketArena::new(),
            next_uid: 1,
            stats: SimStats::default(),
            effects_scratch: Vec::new(),
            observers: None,
            shard_ctx: None,
            sharding: None,
        }
    }

    /// Arms one instrument on this simulator's observer set and on every
    /// shard's (a sharded run observes inside its shards).
    fn arm(&mut self, arm: fn(&mut Observers, &[Link])) {
        arm(self.observers.get_or_insert_default(), &self.links);
        for shard in self.shards_mut() {
            shard.arm(arm);
        }
    }

    /// The shards of a sharded run, in shard order (empty otherwise).
    fn shards(&self) -> &[Simulator] {
        self.sharding.as_deref().map_or(&[], |rt| &rt.shards)
    }

    fn shards_mut(&mut self) -> &mut [Simulator] {
        match self.sharding.as_deref_mut() {
            Some(rt) => &mut rt.shards,
            None => &mut [],
        }
    }

    /// Turns on the runtime invariant checkers (see [`crate::check`]).
    ///
    /// From this point on, every processed event audits event-time
    /// monotonicity and the touched link's packet conservation, queue
    /// occupancy and RED drop-probability monotonicity. Breaches are
    /// recorded — with sim-time and entity id — instead of panicking, and
    /// read back with [`Simulator::violations`].
    pub fn enable_checks(&mut self) {
        self.arm(|o, links| {
            o.checks.get_or_insert_with(|| CheckState::new(links.len()));
        });
    }

    /// Turns on the observability layer (see [`crate::metrics`]).
    ///
    /// From this point on the engine maintains per-link enqueue/dequeue/
    /// drop counts, a time-weighted occupancy gauge, a tx-busy gauge,
    /// discipline-specific metrics (RED drop-probability histogram,
    /// DropTail overflow counter) and per-wheel-tier event-pop counters.
    /// Metrics are read-only with respect to the simulation: an enabled
    /// run is event-for-event identical to a disabled one.
    pub fn enable_metrics(&mut self) {
        self.arm(|o, links| {
            o.metrics.get_or_insert_with(|| EngineMetrics::new(links));
        });
    }

    /// Snapshots every engine metric, finalizing time-weighted gauges at
    /// the current virtual clock. `None` while metrics are disabled.
    ///
    /// On a sharded run the per-shard registries are merged metric-wise
    /// (counters add; time-weighted gauges combine their spans), so
    /// per-link counters equal the unsharded run's — each link is
    /// exercised by exactly one shard.
    pub fn metrics_snapshot(&mut self) -> Option<pdos_metrics::MetricsSnapshot> {
        let now = self.clock;
        let mut snap = self
            .observers
            .as_deref_mut()?
            .metrics
            .as_mut()?
            .snapshot(now);
        for shard in self.shards_mut() {
            if let Some(sub) = shard.metrics_snapshot() {
                snap.merge(&sub);
            }
        }
        Some(snap)
    }

    /// Arms the deterministic self-profiler (see [`crate::profile`]): a
    /// per-event-type breakdown of dispatch counts, handler wall-clock
    /// and (when an allocation probe is registered) handler allocations.
    /// Profiling is read-only with respect to the simulation — an armed
    /// run is event-for-event identical to a disabled one — and costs
    /// nothing until armed: wall-clock reads happen only while a profiler
    /// is armed.
    pub fn enable_profiler(&mut self) {
        self.arm(|o, _| {
            o.profiler.get_or_insert_default();
        });
    }

    /// The accumulated per-event-type breakdown, `None` while the
    /// profiler is disabled. On a sharded run the per-shard breakdowns
    /// are summed — every event is dispatched by exactly one shard, so
    /// the merged counts equal the unsharded run's.
    pub fn profile_snapshot(&self) -> Option<ProfileSnapshot> {
        let mut snap = self.observers.as_deref()?.profiler?;
        for shard in self.shards() {
            if let Some(sub) = shard.profile_snapshot() {
                snap.merge(&sub);
            }
        }
        Some(snap)
    }

    /// Turns on the per-link detector tap (see [`crate::observe`]): one
    /// [`TraceFilter::All`] trace per link, registered like
    /// [`Simulator::trace_link_ingress`], so every packet *offered* to a
    /// link adds its bytes to that link's fixed-width bin. The tap is
    /// read-only with respect to the simulation: an enabled run is
    /// event-for-event identical to a disabled one (golden digests
    /// unchanged). Calling again, with any bin width, is a no-op.
    pub fn enable_tap(&mut self, bin: SimDuration) {
        if self.observers.as_deref().is_some_and(|o| !o.tap.is_empty()) {
            return;
        }
        let tap = (0..self.links.len() as u32)
            .map(|i| self.trace_link_ingress(LinkId::from_u32(i), TraceFilter::All, bin))
            .collect();
        self.observers.get_or_insert_default().tap = tap;
    }

    /// Offered bytes per bin on `link`, in time order — the tap's trace
    /// for that link. `None` while the tap is disabled.
    pub fn tap_bins(&self, link: LinkId) -> Option<&[u64]> {
        let id = *self.observers.as_deref()?.tap.get(link.index())?;
        Some(self.trace(id).bytes_per_bin())
    }

    /// Invariant violations recorded so far (empty when checks are off).
    pub fn violations(&self) -> &[Violation] {
        self.checks().map_or(&[], |c| c.violations.as_slice())
    }

    /// Violations beyond the recording cap, counted but not stored.
    pub fn violations_truncated(&self) -> u64 {
        self.checks().map_or(0, |c| c.truncated)
    }

    fn checks(&self) -> Option<&CheckState> {
        self.observers.as_deref()?.checks.as_ref()
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Engine counters. On a sharded run, the sum over every shard (each
    /// event is processed by exactly one shard, so the sum equals the
    /// unsharded run's counters).
    pub fn stats(&self) -> SimStats {
        let mut stats = self.stats;
        for shard in self.shards() {
            stats.add(shard.stats());
        }
        stats
    }

    /// The nodes of the topology.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The links of the topology.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// One link by id. On a sharded run this is the live copy on the
    /// link's owning shard (the outer copies are frozen at split time).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a link of this topology.
    pub fn link(&self, id: LinkId) -> &Link {
        if let Some(rt) = self.sharding.as_deref() {
            return rt.shards[rt.link_owner[id.index()]].link(id);
        }
        &self.links[id.index()]
    }

    /// The routing table in force.
    pub fn routing(&self) -> &RoutingTable {
        &self.routing
    }

    /// Attaches `agent` to `node` and schedules its [`Agent::start`] at
    /// `start_at`.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not exist.
    pub fn attach_agent_at(
        &mut self,
        node: NodeId,
        agent: Box<dyn Agent>,
        start_at: SimTime,
    ) -> AgentId {
        assert!(
            node.index() < self.nodes.len(),
            "cannot attach agent to unknown {node}"
        );
        if let Some(rt) = self.sharding.as_deref_mut() {
            let s = rt.plan.shard_of(node);
            let local = rt.shards[s].attach_agent_at(node, agent, start_at);
            let id = AgentId::from_u32(rt.agent_map.len() as u32);
            rt.agent_map.push((s, local));
            return id;
        }
        let id = AgentId::from_u32(self.agents.len() as u32);
        self.agents.push(AgentSlot {
            node,
            agent: Some(agent),
            timers: FnvHashMap::default(),
            timer_spill: Vec::new(),
        });
        self.events.set_now(self.clock);
        self.events
            .schedule(start_at, Event::AgentStart { agent: id });
        id
    }

    /// Attaches `agent` to `node`, starting at time zero.
    pub fn attach_agent(&mut self, node: NodeId, agent: Box<dyn Agent>) -> AgentId {
        self.attach_agent_at(node, agent, SimTime::ZERO)
    }

    /// Routes packets of `flow` arriving at `node` to `agent`.
    ///
    /// # Panics
    ///
    /// Panics if the binding is already taken or the agent is unknown.
    pub fn bind_flow(&mut self, node: NodeId, flow: FlowId, agent: AgentId) {
        if let Some(rt) = self.sharding.as_deref_mut() {
            assert!(
                agent.index() < rt.agent_map.len(),
                "cannot bind unknown {agent}"
            );
            let (s, local) = rt.agent_map[agent.index()];
            assert_eq!(
                rt.plan.shard_of(node),
                s,
                "binding ({node}, {flow}) would cross shards: the agent \
                 lives on shard {s}; attach receivers at their own node"
            );
            rt.shards[s].bind_flow(node, flow, local);
            return;
        }
        assert!(
            agent.index() < self.agents.len(),
            "cannot bind unknown {agent}"
        );
        assert!(
            self.range_lookup(node, flow).is_none(),
            "binding ({node}, {flow}) already covered by a flow-range binding"
        );
        let prev = self.bindings.insert((node, flow), agent);
        assert!(prev.is_none(), "binding ({node}, {flow}) registered twice");
    }

    /// Routes every flow in `flows` arriving at `node` to `agent` through
    /// one dense range record — the million-flow-friendly alternative to a
    /// [`bind_flow`](Simulator::bind_flow) call (and hash-table entry) per
    /// flow. Lookup scans the node's few range records before falling back
    /// to the point-binding table, so banks claiming contiguous flow-id
    /// blocks pay O(1) cache-hot work per delivery regardless of flow
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `flows` is empty, overlaps a range already registered at
    /// `node`, or the agent is unknown. Registering a range over flows
    /// that already have point bindings is not checked (the range would
    /// shadow them); keep the two namespaces disjoint.
    pub fn bind_flow_range(&mut self, node: NodeId, flows: std::ops::Range<u32>, agent: AgentId) {
        assert!(!flows.is_empty(), "empty flow range at {node}");
        if let Some(rt) = self.sharding.as_deref_mut() {
            assert!(
                agent.index() < rt.agent_map.len(),
                "cannot bind unknown {agent}"
            );
            let (s, local) = rt.agent_map[agent.index()];
            assert_eq!(
                rt.plan.shard_of(node),
                s,
                "binding ({node}, flows {}..{}) would cross shards: the agent \
                 lives on shard {s}; attach receivers at their own node",
                flows.start,
                flows.end
            );
            rt.shards[s].bind_flow_range(node, flows, local);
            return;
        }
        assert!(
            agent.index() < self.agents.len(),
            "cannot bind unknown {agent}"
        );
        let ranges = &mut self.flow_ranges[node.index()];
        assert!(
            ranges
                .iter()
                .all(|r| flows.end <= r.start || r.end <= flows.start),
            "flow range {}..{} at {node} overlaps an existing range binding",
            flows.start,
            flows.end
        );
        ranges.push(FlowRange {
            start: flows.start,
            end: flows.end,
            agent,
        });
    }

    /// The range binding covering `flow` at `node`, if any.
    #[inline]
    fn range_lookup(&self, node: NodeId, flow: FlowId) -> Option<AgentId> {
        let ranges = &self.flow_ranges[node.index()];
        if ranges.is_empty() {
            return None;
        }
        let f = flow.as_u32();
        ranges
            .iter()
            .find(|r| r.start <= f && f < r.end)
            .map(|r| r.agent)
    }

    /// Registers a rate trace on the ingress of `link`.
    pub fn trace_link_ingress(
        &mut self,
        link: LinkId,
        filter: TraceFilter,
        bin: SimDuration,
    ) -> TraceId {
        if let Some(rt) = self.sharding.as_deref_mut() {
            let owner = rt.link_owner[link.index()];
            let local = rt.shards[owner].trace_link_ingress(link, filter, bin);
            let id = TraceId::from_u32(rt.trace_map.len() as u32);
            rt.trace_map.push((owner, local));
            return id;
        }
        self.observers
            .get_or_insert_default()
            .add_trace(RateTrace::new(link, filter, bin))
    }

    /// Reads a trace back.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by this simulator.
    pub fn trace(&self, id: TraceId) -> &RateTrace {
        if let Some(rt) = self.sharding.as_deref() {
            let (s, local) = rt.trace_map[id.index()];
            return rt.shards[s].trace(local);
        }
        let observers = self.observers.as_deref();
        &observers.expect("no trace registered").traces[id.index()]
    }

    /// Downcasts an agent for post-run inspection.
    ///
    /// Returns `None` when the agent is of a different concrete type.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    pub fn agent_as<T: 'static>(&self, id: AgentId) -> Option<&T> {
        if let Some(rt) = self.sharding.as_deref() {
            let (s, local) = rt.agent_map[id.index()];
            return rt.shards[s].agent_as(local);
        }
        self.agents[id.index()]
            .agent
            .as_deref()
            .expect("agent slot temporarily empty during dispatch")
            .as_any()
            .downcast_ref::<T>()
    }

    /// Runs until the event queue is exhausted or `horizon` is reached,
    /// leaving the clock at `horizon` (or at the last event when the queue
    /// drains first — then advances to `horizon`).
    ///
    /// On a sharded run (see [`Simulator::enable_sharding`]) the shards
    /// advance in lookahead-wide rounds on worker threads; the result is
    /// bit-identical to the single-threaded engine.
    pub fn run_until(&mut self, horizon: SimTime) {
        if self.sharding.is_some() {
            self.run_until_sharded(horizon);
            return;
        }
        while let Some((at, event)) = self.events.pop_before(horizon) {
            self.process(at, event);
        }
        if self.clock < horizon {
            self.clock = horizon;
            self.events.set_now(self.clock);
        }
    }

    /// Processes exactly one event, if any is pending. Returns whether an
    /// event was processed.
    ///
    /// On a sharded run this degenerates to sequential execution: the
    /// globally earliest event is processed on its shard and any
    /// cross-shard packets it produced are forwarded immediately.
    pub fn step(&mut self) -> bool {
        if self.sharding.is_some() {
            return self.step_sharded();
        }
        let Some((at, event)) = self.events.pop() else {
            return false;
        };
        self.process(at, event);
        true
    }

    /// Dispatches one already-popped event.
    #[inline]
    fn process(&mut self, at: SimTime, event: Event) {
        // An event behind the clock is a regression the checkers record.
        let start = match self.observers.as_deref_mut() {
            Some(observers) => observers.on_pop(self.clock, at, &event),
            None => {
                debug_assert!(at >= self.clock, "event in the past: {at} < {}", self.clock);
                None
            }
        };
        // Never move the clock backwards: a corrupted event timestamp is
        // recorded above but must not propagate regressions downstream.
        self.clock = self.clock.max(at);
        // Everything scheduled while dispatching carries this instant as
        // its tie-break key (see `EventQueue::set_now`).
        self.events.set_now(self.clock);
        self.stats.events += 1;
        match event {
            Event::Deliver { node, packet } => {
                let packet = self.arena.take(packet);
                self.handle_arrival(node, packet);
            }
            Event::LinkTxDone { link } => self.handle_tx_done(link),
            Event::Timer { agent, token } => self.dispatch_timer(agent, token),
            Event::AgentStart { agent } => self.dispatch_start(agent),
        }
        if let (Some(start), Some(observers)) = (start, self.observers.as_deref_mut()) {
            observers.on_dispatched(start);
        }
    }

    /// Number of events still pending (summed across shards when sharded).
    pub fn pending_events(&self) -> usize {
        let shards: usize = self.shards().iter().map(Simulator::pending_events).sum();
        self.events.len() + shards
    }

    fn handle_arrival(&mut self, node: NodeId, packet: Packet) {
        if packet.dst == node {
            let bound = self
                .range_lookup(node, packet.flow)
                .or_else(|| self.bindings.get(&(node, packet.flow)).copied());
            match bound {
                Some(agent) => {
                    self.stats.delivered += 1;
                    self.dispatch_packet(agent, packet);
                }
                None => self.stats.unclaimed += 1,
            }
        } else {
            self.forward(node, packet);
        }
    }

    fn forward(&mut self, node: NodeId, packet: Packet) {
        let Some(link_id) = self.routing.next_link(node, packet.dst) else {
            self.stats.routeless += 1;
            return;
        };
        if let Some(observers) = self.observers.as_deref_mut() {
            observers.on_offer(link_id, self.clock, &packet);
        }
        let link = &mut self.links[link_id.index()];
        let accepted = match link.accept(packet, self.clock) {
            LinkAccept::Accepted { tx_done, marked } => {
                if let Some(done_at) = tx_done {
                    self.events
                        .schedule(done_at, Event::LinkTxDone { link: link_id });
                }
                if marked {
                    self.stats.ecn_marks += 1;
                }
                true
            }
            LinkAccept::Dropped => {
                self.stats.queue_drops += 1;
                false
            }
        };
        if let Some(observers) = self.observers.as_deref_mut() {
            observers.on_accept(&self.links[link_id.index()], accepted, self.clock);
        }
    }

    fn handle_tx_done(&mut self, link_id: LinkId) {
        let link = &mut self.links[link_id.index()];
        let delay = link.sample_delay();
        let dst = link.dst();
        let (packet, next_done) = link.tx_complete(self.clock);
        if let Some(at) = next_done {
            self.events
                .schedule(at, Event::LinkTxDone { link: link_id });
        }
        if self
            .shard_ctx
            .as_deref()
            .is_some_and(|ctx| ctx.is_remote(dst))
        {
            // The destination lives on another shard: park the packet in
            // the outbox for the coordinator's canonical-order drain
            // instead of the local arena. The sending clock rides along
            // so the destination queue orders the injection exactly where
            // the unsharded engine would have.
            let ctx = self.shard_ctx.as_deref_mut().expect("checked above");
            ctx.outbox.push(CrossPacket {
                at: self.clock + delay,
                sched: self.clock,
                node: dst,
                packet,
            });
        } else {
            let handle = self.arena.insert(packet);
            self.events.schedule(
                self.clock + delay,
                Event::Deliver {
                    node: dst,
                    packet: handle,
                },
            );
        }
        if let Some(observers) = self.observers.as_deref_mut() {
            observers.on_tx_done(&self.links[link_id.index()], self.clock);
        }
    }

    /// Splits the simulation across `shards` delay-separated shards that
    /// advance in parallel under a conservative-lookahead scheduler (see
    /// [`crate::shard`] and `docs/SHARDING.md`).
    ///
    /// Returns the effective shard count. Sharding is only engaged when a
    /// useful cut exists and the simulation is at a *splittable* instant —
    /// no packets in flight, no live timers, only `AgentStart` events
    /// pending, no recorded trace bins (i.e. before the first `run_until`,
    /// the normal call site). Otherwise the call is a safe no-op returning
    /// 1 and the legacy single-threaded engine keeps running. The split is
    /// also refused when any link queue is an un-cloneable custom
    /// discipline.
    ///
    /// Determinism contract: a sharded run is bit-identical — stats,
    /// traces, taps, violations, merged metrics counters — to the same
    /// simulation run with `shards == 1`, regardless of worker scheduling.
    pub fn enable_sharding(&mut self, shards: usize) -> usize {
        if let Some(rt) = self.sharding.as_deref() {
            return rt.shards.len();
        }
        if shards <= 1 || self.shard_ctx.is_some() {
            return 1;
        }
        let link_info: Vec<(NodeId, NodeId, SimDuration)> = self
            .links
            .iter()
            .map(|l| (l.src(), l.dst(), l.delay()))
            .collect();
        let plan = ShardPlan::build(self.nodes.len(), &link_info, shards);
        if plan.is_single() {
            return 1;
        }
        // Splittable-instant preconditions. Pending events are drained to
        // inspect them; on any failed precondition they are rescheduled in
        // order (same relative order => same behavior) and we fall back.
        let mut drained = Vec::new();
        while let Some(item) = self.events.pop() {
            drained.push(item);
        }
        let splittable = drained
            .iter()
            .all(|(_, e)| matches!(e, Event::AgentStart { .. }))
            && self.arena.live() == 0
            && self
                .agents
                .iter()
                .all(|s| s.timers.is_empty() && s.timer_spill.is_empty())
            && self
                .observers
                .as_deref()
                .is_none_or(|o| o.traces.iter().all(|t| t.n_bins() == 0))
            && self.links.iter().all(|l| l.try_clone().is_some());
        if !splittable {
            self.events.set_now(self.clock);
            for (at, e) in drained {
                self.events.schedule(at, e);
            }
            return 1;
        }
        let n = plan.n_shards();
        let node_shard = plan.node_shard().to_vec();
        let link_owner: Vec<usize> = self
            .links
            .iter()
            .map(|l| node_shard[l.src().index()])
            .collect();
        // Every shard gets a full copy of the topology so ids stay
        // globally valid; only the links it owns (those sourced inside
        // it) ever carry traffic, the rest are frozen replicas.
        let mut sub_shards: Vec<Simulator> = Vec::with_capacity(n);
        for s in 0..n {
            let links: Vec<Link> = self
                .links
                .iter()
                .map(|l| l.try_clone().expect("checked cloneable above"))
                .collect();
            let mut sub = Simulator::from_parts(self.nodes.clone(), links, self.routing.clone());
            sub.shard_ctx = Some(Box::new(ShardMembership {
                shard: s,
                node_shard: node_shard.clone(),
                outbox: Vec::new(),
            }));
            sub.clock = self.clock;
            sub.events.set_now(self.clock);
            sub.observers = self
                .observers
                .as_deref()
                .map(|o| Box::new(o.for_shard(&self.links)));
            sub_shards.push(sub);
        }
        // Migrate agents (with their pending starts), bindings and trace
        // registrations to the owning shards, keeping the outer ids the
        // callers already hold valid through the translation maps.
        let mut agent_map = Vec::with_capacity(self.agents.len());
        for slot in self.agents.drain(..) {
            let s = node_shard[slot.node.index()];
            let local = AgentId::from_u32(sub_shards[s].agents.len() as u32);
            sub_shards[s].agents.push(slot);
            agent_map.push((s, local));
        }
        for ((node, flow), agent) in std::mem::take(&mut self.bindings) {
            let (s, local) = agent_map[agent.index()];
            sub_shards[s].bindings.insert((node, flow), local);
        }
        let n_nodes = self.nodes.len();
        let flow_ranges = std::mem::replace(&mut self.flow_ranges, vec![Vec::new(); n_nodes]);
        for (node_idx, ranges) in flow_ranges.into_iter().enumerate() {
            for r in ranges {
                let (s, local) = agent_map[r.agent.index()];
                sub_shards[s].flow_ranges[node_idx].push(FlowRange { agent: local, ..r });
            }
        }
        for (at, e) in drained {
            let Event::AgentStart { agent } = e else {
                unreachable!("checked above");
            };
            let (s, local) = agent_map[agent.index()];
            sub_shards[s]
                .events
                .schedule(at, Event::AgentStart { agent: local });
        }
        // Traces (the tap's included) keep their outer ids; the owning
        // shard records them from here on.
        let traces = self
            .observers
            .as_deref_mut()
            .map(Observers::take_traces)
            .unwrap_or_default();
        let mut trace_map = Vec::with_capacity(traces.len());
        for t in &traces {
            let owner = link_owner[t.link().index()];
            let local = sub_shards[owner].trace_link_ingress(t.link(), t.filter(), t.bin_width());
            trace_map.push((owner, local));
        }
        self.events.set_now(self.clock);
        self.sharding = Some(Box::new(ShardRuntime {
            plan,
            shards: sub_shards,
            agent_map,
            trace_map,
            link_owner,
            skew_armed: false,
        }));
        n
    }

    /// Builder-style [`Simulator::enable_sharding`].
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.enable_sharding(shards);
        self
    }

    /// Number of shards the simulation runs across (1 = the legacy
    /// single-threaded engine).
    pub fn shard_count(&self) -> usize {
        self.sharding.as_deref().map_or(1, |rt| rt.shards.len())
    }

    /// The active shard plan, when sharding is engaged.
    pub fn shard_plan(&self) -> Option<&ShardPlan> {
        self.sharding.as_deref().map(|rt| &rt.plan)
    }

    /// Seeded-fault hook: corrupts the timestamp of the next cross-shard
    /// packet to zero, simulating a delivery skewed past the lookahead
    /// horizon — the clock-monotonicity checker must flag the resulting
    /// regression on the destination shard. Returns whether the fault was
    /// armed (`false` when the simulation is not sharded, where the fault
    /// has no meaning).
    #[doc(hidden)]
    pub fn arm_shard_skew_for_test(&mut self) -> bool {
        match self.sharding.as_deref_mut() {
            Some(rt) => {
                rt.skew_armed = true;
                true
            }
            None => false,
        }
    }

    /// The parallel event loop: advances every shard to `horizon` in
    /// lookahead-wide rounds on scoped worker threads.
    ///
    /// Invariant making the rounds safe: within a strict window
    /// `[start, end)` with `end <= start + lookahead`, no event can
    /// produce a cross-shard effect before `start + lookahead >= end`
    /// (link jitter is additive, so the base delay lower-bounds every
    /// flight time). Outboxes are merged in canonical `(shard id, push
    /// order)` sequence after each round, so the injection order — and
    /// with it the whole run — is independent of thread scheduling.
    fn run_until_sharded(&mut self, horizon: SimTime) {
        let mut rt = self.sharding.take().expect("sharded run without runtime");
        let lookahead = rt.plan.lookahead();
        let n = rt.shards.len();
        let plan = rt.plan.clone();
        // Cross packets awaiting injection, bucketed by destination shard.
        let mut pending: Vec<Vec<CrossPacket>> = (0..n).map(|_| Vec::new()).collect();
        let mut skew_armed = std::mem::take(&mut rt.skew_armed);
        let start_clock = self.clock;

        std::thread::scope(|scope| {
            let mut workers = Vec::with_capacity(n);
            for shard in rt.shards.iter_mut() {
                let (cmd_tx, cmd_rx) = std::sync::mpsc::channel::<RoundCmd>();
                let (rep_tx, rep_rx) = std::sync::mpsc::channel::<RoundReply>();
                scope.spawn(move || {
                    while let Ok(cmd) = cmd_rx.recv() {
                        for c in cmd.inject {
                            shard.inject_cross(c);
                        }
                        if cmd.strict {
                            shard.run_strictly_before(cmd.end);
                        } else {
                            shard.run_until(cmd.end);
                        }
                        let reply = RoundReply {
                            outbox: shard.take_outbox(),
                            next: shard.events.peek_time(),
                        };
                        if rep_tx.send(reply).is_err() {
                            break;
                        }
                    }
                });
                workers.push((cmd_tx, rep_rx));
            }

            // One synchronization round: every shard advances through the
            // window concurrently, then the outboxes are merged in
            // canonical order and routed to their destination buckets.
            let mut round = |end: SimTime,
                             strict: bool,
                             pending: &mut Vec<Vec<CrossPacket>>|
             -> Vec<Option<SimTime>> {
                for (i, (cmd_tx, _)) in workers.iter().enumerate() {
                    let inject = std::mem::take(&mut pending[i]);
                    cmd_tx
                        .send(RoundCmd {
                            end,
                            strict,
                            inject,
                        })
                        .expect("shard worker alive");
                }
                let mut nexts = Vec::with_capacity(n);
                let mut replies = Vec::with_capacity(n);
                for (i, (_, rep_rx)) in workers.iter().enumerate() {
                    let reply = rep_rx.recv().expect("shard worker alive");
                    nexts.push(reply.next);
                    replies.push((i, reply.outbox));
                }
                for mut c in merge_outboxes(replies) {
                    if skew_armed {
                        // Seeded fault: one packet lands at t=0, far
                        // behind any active destination's clock.
                        c.at = SimTime::ZERO;
                        skew_armed = false;
                    }
                    pending[plan.shard_of(c.node)].push(c);
                }
                nexts
            };

            // Probe: learn each shard's next event time without
            // advancing (nothing is pending strictly before the clock).
            let mut clock = start_clock;
            let mut nexts = round(clock, true, &mut pending);
            if let Some(lookahead) = lookahead {
                loop {
                    let next_event = nexts.iter().flatten().min().copied();
                    let next_inject = pending.iter().flatten().map(|c| c.at).min();
                    let m = match (next_event, next_inject) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (a, b) => a.or(b),
                    };
                    let Some(m) = m else { break };
                    if m >= horizon {
                        break;
                    }
                    // Idle-skip to the earliest pending work, then open a
                    // lookahead-wide strict window.
                    let start = clock.max(m);
                    let end = horizon.min(start + lookahead);
                    nexts = round(end, true, &mut pending);
                    clock = end;
                }
            }
            // Final inclusive pass: events at exactly `horizon` run and
            // every shard clock lands on `horizon`. Any cross packets it
            // produces fire at `>= horizon + lookahead`, handled below.
            let _ = round(horizon, false, &mut pending);
        });

        // Park leftover cross packets (due after the horizon) in their
        // destination queues for the next `run_until`.
        for (dest, packets) in pending.into_iter().enumerate() {
            for c in packets {
                rt.shards[dest].inject_cross(c);
            }
        }
        self.clock = self.clock.max(horizon);
        self.events.set_now(self.clock);
        self.collect_shard_violations(&mut rt);
        self.sharding = Some(rt);
    }

    /// Sequential single-event execution on a sharded run: pop the
    /// globally earliest event and forward its cross-shard packets
    /// immediately (channels never hold more than one event's output, so
    /// no ordering question arises).
    fn step_sharded(&mut self) -> bool {
        let rt = self.sharding.as_deref_mut().expect("sharded");
        let mut best: Option<(SimTime, usize)> = None;
        for (i, shard) in rt.shards.iter_mut().enumerate() {
            if let Some(t) = shard.events.peek_time() {
                if best.is_none_or(|(bt, _)| t < bt) {
                    best = Some((t, i));
                }
            }
        }
        let Some((_, i)) = best else {
            return false;
        };
        rt.shards[i].step();
        let outbox = rt.shards[i].take_outbox();
        for c in outbox {
            rt.shards[rt.plan.shard_of(c.node)].inject_cross(c);
        }
        self.clock = self.clock.max(rt.shards[i].clock);
        self.events.set_now(self.clock);
        let mut rt = self.sharding.take().expect("sharded");
        self.collect_shard_violations(&mut rt);
        self.sharding = Some(rt);
        true
    }

    /// Runs every event strictly before `end` (the half-open lookahead
    /// window of one synchronization round). Unlike [`Simulator::run_until`]
    /// the clock is left at the last processed event, not advanced to the
    /// window edge — later rounds and the final inclusive pass move it.
    pub(crate) fn run_strictly_before(&mut self, end: SimTime) {
        while let Some((at, event)) = self.events.pop_strictly_before(end) {
            self.process(at, event);
        }
    }

    /// Materializes a cross-shard packet in this shard: parks it in the
    /// local arena and injects its `Deliver` with the sending shard's
    /// clock as the tie-break key.
    pub(crate) fn inject_cross(&mut self, c: CrossPacket) {
        let handle = self.arena.insert(c.packet);
        self.events.inject(
            c.at,
            c.sched,
            Event::Deliver {
                node: c.node,
                packet: handle,
            },
        );
    }

    /// Drains this shard's outbox (empty for standalone simulators).
    pub(crate) fn take_outbox(&mut self) -> Vec<CrossPacket> {
        match self.shard_ctx.as_deref_mut() {
            Some(ctx) => std::mem::take(&mut ctx.outbox),
            None => Vec::new(),
        }
    }

    /// Moves violations recorded inside the shards up into the outer
    /// checker (see [`CheckState::absorb`]).
    fn collect_shard_violations(&mut self, rt: &mut ShardRuntime) {
        if let Some(outer) = self
            .observers
            .as_deref_mut()
            .and_then(|o| o.checks.as_mut())
        {
            outer.absorb(
                rt.shards
                    .iter_mut()
                    .filter_map(|s| s.observers.as_deref_mut()?.checks.as_mut()),
            );
        }
    }

    /// Test hook: forces the clock forward so the next pending event pops
    /// "in the past", seeding a clock-regression fault for the checkers.
    #[doc(hidden)]
    pub fn corrupt_clock_for_test(&mut self, to: SimTime) {
        self.clock = to;
        self.events.set_now(self.clock);
    }

    /// Test hook: mutable access to a link, for seeding accounting faults.
    #[doc(hidden)]
    pub fn link_mut_for_test(&mut self, id: LinkId) -> &mut Link {
        &mut self.links[id.index()]
    }

    /// Test hook: swaps an agent's state wholesale, for seeding
    /// agent-level faults — clone the concrete agent out via
    /// [`Simulator::agent_as`], corrupt it, and swap it back in.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown.
    #[doc(hidden)]
    pub fn replace_agent_for_test(&mut self, id: AgentId, agent: Box<dyn Agent>) {
        self.agents[id.index()].agent = Some(agent);
    }

    /// Test hook: schedules a `Deliver` event carrying a deliberately
    /// stale arena handle whose slot has been recycled for another packet
    /// — the ABA fault the arena's generation check must catch (by
    /// panicking on the pop) rather than silently aliasing the new
    /// occupant.
    #[doc(hidden)]
    pub fn schedule_stale_deliver_for_test(&mut self, node: NodeId, packet: Packet) {
        let stale = self.arena.insert(packet);
        let _ = self.arena.take(stale);
        let _recycled_slot_now_holds_live_packet = self.arena.insert(packet);
        self.events.schedule(
            self.clock,
            Event::Deliver {
                node,
                packet: stale,
            },
        );
    }

    fn with_agent<F>(&mut self, id: AgentId, f: F)
    where
        F: FnOnce(&mut dyn Agent, &mut AgentCtx<'_>),
    {
        let node = self.agents[id.index()].node;
        let mut agent = self.agents[id.index()]
            .agent
            .take()
            .expect("re-entrant agent dispatch");
        let mut effects = std::mem::take(&mut self.effects_scratch);
        {
            let mut ctx = AgentCtx::new(self.clock, node, &mut effects);
            f(agent.as_mut(), &mut ctx);
        }
        self.agents[id.index()].agent = Some(agent);
        for effect in effects.drain(..) {
            match effect {
                Effect::Send(mut packet) => {
                    packet.uid = self.next_uid;
                    self.next_uid += 1;
                    packet.sent_at = self.clock;
                    // Route from the agent's own node; scheduled through the
                    // queue (same instant) to keep dispatch non-reentrant.
                    let handle = self.arena.insert(packet);
                    self.events.schedule(
                        self.clock,
                        Event::Deliver {
                            node,
                            packet: handle,
                        },
                    );
                }
                Effect::TimerAt { at, token } => {
                    let handle = self.events.schedule_timer(at, id, token);
                    let slot = &mut self.agents[id.index()];
                    if let Some(old) = slot.timers.insert(token, handle) {
                        if self.events.timer_is_live(old) {
                            slot.timer_spill.push((token, old));
                        }
                    }
                }
                Effect::CancelTimer { token } => {
                    let events = &mut self.events;
                    let slot = &mut self.agents[id.index()];
                    if let Some(handle) = slot.timers.remove(&token) {
                        events.cancel_timer(handle);
                    }
                    if !slot.timer_spill.is_empty() {
                        slot.timer_spill.retain(|&(tok, handle)| {
                            if tok == token {
                                events.cancel_timer(handle);
                                false
                            } else {
                                events.timer_is_live(handle)
                            }
                        });
                    }
                }
            }
        }
        self.effects_scratch = effects;
    }

    fn dispatch_packet(&mut self, id: AgentId, packet: Packet) {
        self.with_agent(id, |agent, ctx| agent.on_packet(packet, ctx));
    }

    fn dispatch_timer(&mut self, id: AgentId, token: u64) {
        // The fired timer's handle just went dead; drop it from the table
        // (the fired handle may instead live in the spill, which is swept
        // whole — it is empty unless the agent doubled up on a token).
        let events = &self.events;
        let slot = &mut self.agents[id.index()];
        if let Some(&handle) = slot.timers.get(&token) {
            if !events.timer_is_live(handle) {
                slot.timers.remove(&token);
            }
        }
        if !slot.timer_spill.is_empty() {
            slot.timer_spill
                .retain(|&(_, handle)| events.timer_is_live(handle));
        }
        self.with_agent(id, |agent, ctx| agent.on_timer(token, ctx));
    }

    fn dispatch_start(&mut self, id: AgentId) {
        self.with_agent(id, |agent, ctx| agent.start(ctx));
    }

    /// Freezes the complete simulator state into a [`SimCheckpoint`].
    ///
    /// The checkpoint captures everything the event loop reads: the clock,
    /// both event-wheel tiers (including the shared tie-break sequence
    /// counter and the timer slab's generation state), the packet arena,
    /// every link's queue/transmitter/RNG/counter state, routing, agent
    /// state machines (via [`Agent::clone_box`]) with their live timer
    /// tables, and the observer set (traces, tap, checkers, metrics,
    /// profiler). A simulator resumed with
    /// [`Simulator::fork`] therefore processes the byte-identical event
    /// sequence a cold run would.
    ///
    /// # Errors
    ///
    /// Fails when any attached agent or queue discipline cannot be
    /// deep-copied (a custom [`Agent`] without `clone_box`, or an
    /// [`crate::queue::AnyQueue::Custom`] discipline). Callers treat that
    /// as "this simulation cannot warm-start" and fall back to cold runs.
    pub fn checkpoint(&self) -> Result<SimCheckpoint, CheckpointError> {
        let state = self.try_clone()?;
        let approx_bytes = state.approx_heap_bytes();
        Ok(SimCheckpoint {
            state,
            approx_bytes,
        })
    }

    /// Resumes a fresh, independent simulator from `checkpoint`.
    ///
    /// Forking never consumes the checkpoint: any number of variants can
    /// be forked from one warm-up, and each fork owns its state outright
    /// (no sharing, so concurrent forks cannot observe each other).
    pub fn fork(checkpoint: &SimCheckpoint) -> Simulator {
        checkpoint
            .state
            .try_clone()
            .expect("checkpointed state is always re-cloneable")
    }

    /// Fallible deep copy backing [`Simulator::checkpoint`].
    fn try_clone(&self) -> Result<Simulator, CheckpointError> {
        // Effects only live inside a single `with_agent` call; between
        // events (the only place checkpoints are taken) the scratch is
        // empty, so dropping it from the copy loses nothing.
        debug_assert!(self.effects_scratch.is_empty());
        let mut links = Vec::with_capacity(self.links.len());
        for link in &self.links {
            links.push(
                link.try_clone()
                    .ok_or(CheckpointError::UncloneableQueue(link.id()))?,
            );
        }
        let mut agents = Vec::with_capacity(self.agents.len());
        for (i, slot) in self.agents.iter().enumerate() {
            agents.push(
                slot.try_clone().ok_or_else(|| {
                    CheckpointError::UncloneableAgent(AgentId::from_u32(i as u32))
                })?,
            );
        }
        let sharding = match self.sharding.as_deref() {
            Some(rt) => Some(Box::new(rt.try_clone()?)),
            None => None,
        };
        Ok(Simulator {
            clock: self.clock,
            events: self.events.clone(),
            nodes: self.nodes.clone(),
            links,
            routing: self.routing.clone(),
            agents,
            bindings: self.bindings.clone(),
            flow_ranges: self.flow_ranges.clone(),
            arena: self.arena.clone(),
            next_uid: self.next_uid,
            stats: self.stats,
            effects_scratch: Vec::new(),
            observers: self.observers.clone(),
            shard_ctx: self.shard_ctx.clone(),
            sharding,
        })
    }

    /// Rough heap footprint of the captured state, for checkpoint-size
    /// reporting. Counts the dominant dynamic structures (event wheels,
    /// arena slots, queue backlogs, trace bins) at container granularity;
    /// agent internals are estimated per slot.
    fn approx_heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = size_of::<Simulator>();
        // Each pending event: a wheel entry (~at + seq + event) on one of
        // the two tiers.
        bytes += self.events.len() * (size_of::<Event>() + 2 * size_of::<u64>());
        bytes += self.arena.slots_allocated() * (size_of::<Packet>() + size_of::<u32>());
        for link in &self.links {
            bytes += size_of::<Link>() + link.backlog_packets() * size_of::<Packet>();
        }
        for trace in self.observers.iter().flat_map(|o| &o.traces) {
            bytes += trace.n_bins() * size_of::<u64>();
        }
        for slot in &self.agents {
            bytes += 256
                + (slot.timers.len() + slot.timer_spill.len()) * size_of::<(u64, TimerHandle)>();
        }
        bytes += self.bindings.len() * (size_of::<(NodeId, FlowId)>() + size_of::<AgentId>());
        bytes += self
            .flow_ranges
            .iter()
            .map(|v| v.len() * size_of::<FlowRange>())
            .sum::<usize>();
        bytes
            + self
                .shards()
                .iter()
                .map(Simulator::approx_heap_bytes)
                .sum::<usize>()
    }
}

/// Why [`Simulator::checkpoint`] could not capture the state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointError {
    /// An attached agent does not implement [`Agent::clone_box`].
    UncloneableAgent(AgentId),
    /// A link's queue discipline is an un-cloneable
    /// [`crate::queue::AnyQueue::Custom`].
    UncloneableQueue(LinkId),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::UncloneableAgent(id) => {
                write!(f, "{id} does not support clone_box; cannot checkpoint")
            }
            CheckpointError::UncloneableQueue(id) => {
                write!(f, "{id} has a custom queue discipline; cannot checkpoint")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A frozen deep copy of a [`Simulator`], produced by
/// [`Simulator::checkpoint`] and consumed (non-destructively) by
/// [`Simulator::fork`].
///
/// The intended use is warm-starting: run the expensive common prefix of
/// an experiment family once (e.g. TCP warm-up to steady state), take a
/// checkpoint, then fork one simulator per variant. Determinism contract:
/// `fork` + `run_until(T)` produces byte-identical traces, stats, metrics
/// and violations to running the original simulator to `T` — provided the
/// same operations (agent attachments, traces) are applied in the same
/// order after the checkpoint instant.
pub struct SimCheckpoint {
    state: Simulator,
    approx_bytes: usize,
}

impl SimCheckpoint {
    /// The simulation instant the checkpoint was taken at.
    pub fn taken_at(&self) -> SimTime {
        self.state.clock
    }

    /// Rough heap footprint of the captured state, in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// Test hook: simulates an incomplete state capture by resetting one
    /// link's counters, as if `checkpoint()` had failed to copy
    /// `Link::stats`. Forked runs then breach packet conservation on that
    /// link, which the invariant checkers must report.
    #[doc(hidden)]
    pub fn omit_link_stats_for_test(&mut self, link: LinkId) {
        self.state.links[link.index()].reset_stats_for_test();
    }
}

impl std::fmt::Debug for SimCheckpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimCheckpoint")
            .field("taken_at", &self.state.clock)
            .field("approx_bytes", &self.approx_bytes)
            .field("pending_events", &self.state.events.len())
            .finish()
    }
}

// A whole simulation must be movable onto a worker thread: the parallel
// sweep runner builds one `Simulator` per experiment point and runs each
// on its own worker. Every agent and queue discipline is `Send` by trait
// bound; this assertion catches any future non-`Send` field (`Rc`,
// `RefCell` shared across agents, raw pointers) at compile time.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Simulator>();
    // Checkpoints travel between sweep workers (inside a mutex-guarded
    // cache), so they must be `Send` too. They are deliberately not
    // required to be `Sync`: agents are `Send`-only trait objects, and
    // forking clones under the cache's lock.
    assert_send::<SimCheckpoint>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::ViolationKind;
    use crate::packet::PacketKind;
    use crate::profile::EVENT_KINDS;
    use crate::queue::QueueSpec;
    use crate::topology::TopologyBuilder;
    use crate::units::{BitsPerSec, Bytes};
    use std::any::Any;

    /// Sends `count` packets of `size` to `dst`, one every `gap`.
    struct Blaster {
        dst: NodeId,
        flow: FlowId,
        count: u64,
        gap: SimDuration,
        sent: u64,
    }

    impl Agent for Blaster {
        fn start(&mut self, ctx: &mut AgentCtx<'_>) {
            ctx.timer_after(SimDuration::ZERO, 0);
        }
        fn on_packet(&mut self, _: Packet, _: &mut AgentCtx<'_>) {}
        fn on_timer(&mut self, _: u64, ctx: &mut AgentCtx<'_>) {
            if self.sent < self.count {
                self.sent += 1;
                ctx.send(Packet::new(
                    self.flow,
                    ctx.node(),
                    self.dst,
                    Bytes::from_u64(1000),
                    PacketKind::Background,
                ));
                ctx.timer_after(self.gap, 0);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// Counts received packets.
    #[derive(Default, Clone)]
    struct Counter {
        received: u64,
        bytes: u64,
        last_at: Option<SimTime>,
    }

    impl Agent for Counter {
        fn start(&mut self, _: &mut AgentCtx<'_>) {}
        fn on_packet(&mut self, p: Packet, ctx: &mut AgentCtx<'_>) {
            self.received += 1;
            self.bytes += p.size.as_u64();
            self.last_at = Some(ctx.now());
        }
        fn on_timer(&mut self, _: u64, _: &mut AgentCtx<'_>) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    fn two_hosts() -> (Simulator, NodeId, NodeId) {
        let mut t = TopologyBuilder::new();
        let a = t.add_host("a");
        let b = t.add_host("b");
        t.add_duplex_link(
            a,
            b,
            BitsPerSec::from_mbps(8.0),
            SimDuration::from_millis(10),
            QueueSpec::DropTail { capacity: 100 },
        );
        (t.build().unwrap(), a, b)
    }

    #[test]
    fn end_to_end_delivery_with_latency() {
        let (mut sim, a, b) = two_hosts();
        let flow = FlowId::from_u32(1);
        let blaster = sim.attach_agent(
            a,
            Box::new(Blaster {
                dst: b,
                flow,
                count: 1,
                gap: SimDuration::ZERO,
                sent: 0,
            }),
        );
        let counter = sim.attach_agent(b, Box::new(Counter::default()));
        sim.bind_flow(b, flow, counter);
        sim.run_until(SimTime::from_secs(1));

        let c = sim.agent_as::<Counter>(counter).unwrap();
        assert_eq!(c.received, 1);
        assert_eq!(c.bytes, 1000);
        // 1000 B at 8 Mbps = 1 ms serialization + 10 ms propagation.
        assert_eq!(c.last_at, Some(SimTime::from_millis(11)));
        assert_eq!(sim.stats().delivered, 1);
        let _ = sim.agent_as::<Blaster>(blaster).unwrap();
    }

    #[test]
    fn unbound_flow_counts_unclaimed() {
        let (mut sim, a, b) = two_hosts();
        sim.attach_agent(
            a,
            Box::new(Blaster {
                dst: b,
                flow: FlowId::from_u32(9),
                count: 3,
                gap: SimDuration::from_millis(1),
                sent: 0,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.stats().unclaimed, 3);
        assert_eq!(sim.stats().delivered, 0);
    }

    #[test]
    fn bottleneck_serializes_back_to_back() {
        let (mut sim, a, b) = two_hosts();
        let flow = FlowId::from_u32(1);
        sim.attach_agent(
            a,
            Box::new(Blaster {
                dst: b,
                flow,
                count: 10,
                gap: SimDuration::ZERO, // all at once: 9 of them queue
                sent: 0,
            }),
        );
        let counter = sim.attach_agent(b, Box::new(Counter::default()));
        sim.bind_flow(b, flow, counter);
        sim.run_until(SimTime::from_secs(1));
        let c = sim.agent_as::<Counter>(counter).unwrap();
        assert_eq!(c.received, 10);
        // Last packet: 10 x 1 ms serialization + 10 ms propagation.
        assert_eq!(c.last_at, Some(SimTime::from_millis(20)));
    }

    #[test]
    fn queue_overflow_drops_and_attributes_flow() {
        let mut t = TopologyBuilder::new();
        let a = t.add_host("a");
        let b = t.add_host("b");
        t.add_duplex_link(
            a,
            b,
            BitsPerSec::from_mbps(8.0),
            SimDuration::from_millis(1),
            QueueSpec::DropTail { capacity: 2 },
        );
        let mut sim = t.build().unwrap();
        let flow = FlowId::from_u32(1);
        sim.attach_agent(
            a,
            Box::new(Blaster {
                dst: b,
                flow,
                count: 10,
                gap: SimDuration::ZERO,
                sent: 0,
            }),
        );
        let counter = sim.attach_agent(b, Box::new(Counter::default()));
        sim.bind_flow(b, flow, counter);
        sim.run_until(SimTime::from_secs(1));
        // 1 in flight + 2 queued survive the burst; the one flow loses 7.
        assert_eq!(sim.stats().queue_drops, 7);
        assert_eq!(sim.agent_as::<Counter>(counter).unwrap().received, 3);
    }

    #[test]
    fn trace_observes_ingress() {
        let (mut sim, a, b) = two_hosts();
        let flow = FlowId::from_u32(1);
        sim.attach_agent(
            a,
            Box::new(Blaster {
                dst: b,
                flow,
                count: 5,
                gap: SimDuration::from_millis(2),
                sent: 0,
            }),
        );
        // Find the a->b link (first one built).
        let link = sim.links()[0].id();
        let trace = sim.trace_link_ingress(link, TraceFilter::All, SimDuration::from_millis(50));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.trace(trace).total_bytes(), 5000);
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let (mut sim, _, _) = two_hosts();
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(sim.now(), SimTime::from_secs(3));
        assert!(!sim.step());
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn double_binding_panics() {
        let (mut sim, _, b) = two_hosts();
        let c1 = sim.attach_agent(b, Box::new(Counter::default()));
        let c2 = sim.attach_agent(b, Box::new(Counter::default()));
        sim.bind_flow(b, FlowId::from_u32(1), c1);
        sim.bind_flow(b, FlowId::from_u32(1), c2);
    }

    #[test]
    fn agent_as_returns_none_for_wrong_type() {
        let (mut sim, _, b) = two_hosts();
        let counter = sim.attach_agent(b, Box::new(Counter::default()));
        assert!(sim.agent_as::<Counter>(counter).is_some());
        assert!(sim.agent_as::<Blaster>(counter).is_none());
    }

    #[test]
    fn multi_hop_chain_delivers_with_summed_latency() {
        // a - r1 - r2 - b, 1 ms per hop, 8 Mbps everywhere.
        let mut t = TopologyBuilder::new();
        let a = t.add_host("a");
        let r1 = t.add_router("r1");
        let r2 = t.add_router("r2");
        let b = t.add_host("b");
        let q = std::sync::Arc::new(QueueSpec::DropTail { capacity: 50 });
        for (x, y) in [(a, r1), (r1, r2), (r2, b)] {
            t.add_duplex_link(
                x,
                y,
                BitsPerSec::from_mbps(8.0),
                SimDuration::from_millis(1),
                std::sync::Arc::clone(&q),
            );
        }
        let mut sim = t.build().unwrap();
        let flow = FlowId::from_u32(1);
        sim.attach_agent(
            a,
            Box::new(Blaster {
                dst: b,
                flow,
                count: 1,
                gap: SimDuration::ZERO,
                sent: 0,
            }),
        );
        let counter = sim.attach_agent(b, Box::new(Counter::default()));
        sim.bind_flow(b, flow, counter);
        sim.run_until(SimTime::from_secs(1));
        // 3 hops x (1 ms serialization of 1000 B at 8 Mbps + 1 ms prop).
        assert_eq!(
            sim.agent_as::<Counter>(counter).unwrap().last_at,
            Some(SimTime::from_millis(6))
        );
    }

    #[test]
    fn trace_filters_split_traffic_classes_at_engine_level() {
        let (mut sim, a, b) = two_hosts();
        let flow = FlowId::from_u32(1);
        sim.attach_agent(
            a,
            Box::new(Blaster {
                dst: b,
                flow,
                count: 4,
                gap: SimDuration::from_millis(1),
                sent: 0,
            }),
        );
        let link = sim.links()[0].id();
        let all = sim.trace_link_ingress(link, TraceFilter::All, SimDuration::from_millis(10));
        let tcp_only =
            sim.trace_link_ingress(link, TraceFilter::TcpOnly, SimDuration::from_millis(10));
        let attack_only =
            sim.trace_link_ingress(link, TraceFilter::AttackOnly, SimDuration::from_millis(10));
        sim.run_until(SimTime::from_secs(1));
        // Blaster sends Background packets: counted by All only.
        assert_eq!(sim.trace(all).total_bytes(), 4000);
        assert_eq!(sim.trace(tcp_only).total_bytes(), 0);
        assert_eq!(sim.trace(attack_only).total_bytes(), 0);
    }

    #[test]
    fn pending_events_drain_to_zero() {
        let (mut sim, a, b) = two_hosts();
        let flow = FlowId::from_u32(1);
        sim.attach_agent(
            a,
            Box::new(Blaster {
                dst: b,
                flow,
                count: 5,
                gap: SimDuration::from_millis(1),
                sent: 0,
            }),
        );
        assert!(sim.pending_events() > 0);
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.pending_events(), 0);
        assert!(sim.stats().events > 0);
    }

    #[test]
    #[should_panic(expected = "unknown")]
    fn attach_to_unknown_node_panics() {
        let (mut sim, _, _) = two_hosts();
        sim.attach_agent(NodeId::from_u32(99), Box::new(Counter::default()));
    }

    #[test]
    fn checks_stay_clean_on_a_healthy_run() {
        let (mut sim, a, b) = two_hosts();
        sim.enable_checks();
        sim.attach_agent(
            a,
            Box::new(Blaster {
                dst: b,
                flow: FlowId::from_u32(1),
                count: 50,
                gap: SimDuration::from_micros(100),
                sent: 0,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert!(
            sim.violations().is_empty(),
            "healthy run flagged: {:?}",
            sim.violations()
        );
        assert_eq!(sim.violations_truncated(), 0);
    }

    #[test]
    fn violations_empty_when_checks_disabled() {
        let (mut sim, a, b) = two_hosts();
        sim.attach_agent(
            a,
            Box::new(Blaster {
                dst: b,
                flow: FlowId::from_u32(1),
                count: 3,
                gap: SimDuration::ZERO,
                sent: 0,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert!(sim.violations().is_empty());
    }

    #[test]
    fn corrupted_clock_is_flagged_as_regression() {
        let (mut sim, a, b) = two_hosts();
        sim.enable_checks();
        sim.attach_agent(
            a,
            Box::new(Blaster {
                dst: b,
                flow: FlowId::from_u32(1),
                count: 5,
                gap: SimDuration::from_millis(1),
                sent: 0,
            }),
        );
        // Jump the clock far past every pending event: the next pop is
        // "in the past" and must be flagged, not panic.
        sim.corrupt_clock_for_test(SimTime::from_secs(10));
        sim.run_until(SimTime::from_secs(20));
        let v = sim
            .violations()
            .iter()
            .find(|v| v.kind == crate::check::ViolationKind::ClockRegression)
            .expect("clock regression must be flagged");
        assert_eq!(v.entity, "engine");
        assert_eq!(v.at, SimTime::from_secs(10));
    }

    #[test]
    fn corrupted_link_accounting_is_flagged_as_conservation_breach() {
        let (mut sim, a, b) = two_hosts();
        sim.enable_checks();
        sim.attach_agent(
            a,
            Box::new(Blaster {
                dst: b,
                flow: FlowId::from_u32(1),
                count: 10,
                gap: SimDuration::from_millis(1),
                sent: 0,
            }),
        );
        let link_id = {
            let link = sim.link_mut_for_test(LinkId::from_u32(0));
            link.corrupt_accounting_for_test();
            link.id()
        };
        sim.run_until(SimTime::from_secs(1));
        let v = sim
            .violations()
            .iter()
            .find(|v| v.kind == crate::check::ViolationKind::PacketConservation)
            .expect("conservation breach must be flagged");
        assert_eq!(v.entity, link_id.to_string());
        assert!(v.detail.contains("offered"), "{}", v.detail);
    }

    #[test]
    #[should_panic(expected = "stale PacketRef")]
    fn stale_packet_handle_panics_under_checks() {
        // ABA regression: a Deliver event holding a handle to a recycled
        // arena slot must die loudly when popped, never deliver the slot's
        // new occupant.
        let (mut sim, a, b) = two_hosts();
        sim.enable_checks();
        let pkt = Packet::new(
            FlowId::from_u32(1),
            a,
            b,
            Bytes::from_u64(1000),
            PacketKind::Background,
        );
        sim.schedule_stale_deliver_for_test(b, pkt);
        sim.step();
    }

    #[test]
    fn metrics_count_link_traffic_and_event_tiers() {
        let (mut sim, a, b) = two_hosts();
        sim.enable_metrics();
        let flow = FlowId::from_u32(1);
        sim.attach_agent(
            a,
            Box::new(Blaster {
                dst: b,
                flow,
                count: 10,
                gap: SimDuration::from_millis(1),
                sent: 0,
            }),
        );
        let counter = sim.attach_agent(b, Box::new(Counter::default()));
        sim.bind_flow(b, flow, counter);
        sim.run_until(SimTime::from_secs(1));
        let snap = sim.metrics_snapshot().expect("metrics are on");
        assert_eq!(snap.counter("link/0", "enqueued"), Some(10));
        assert_eq!(snap.counter("link/0", "dequeued"), Some(10));
        assert_eq!(snap.counter("link/0", "dropped"), Some(0));
        // The links are DropTail, so the overflow counter exists (and
        // stayed at zero) and the RED histogram does not.
        assert_eq!(snap.counter("link/0", "droptail_overflow"), Some(0));
        assert!(snap.get("link/0", "red_drop_prob").is_none());
        // 10 sends + 10 LinkTxDone + 10 deliveries + 1 start on the
        // packet tier; the Blaster's 11 timer fires on the timer tier.
        assert_eq!(snap.counter("engine", "pops_timer_tier"), Some(11));
        let packet_pops = snap.counter("engine", "pops_packet_tier").unwrap();
        assert_eq!(packet_pops + 11, sim.stats().events);
    }

    #[test]
    fn metrics_attribute_droptail_overflow() {
        let mut t = TopologyBuilder::new();
        let a = t.add_host("a");
        let b = t.add_host("b");
        t.add_duplex_link(
            a,
            b,
            BitsPerSec::from_mbps(8.0),
            SimDuration::from_millis(1),
            QueueSpec::DropTail { capacity: 2 },
        );
        let mut sim = t.build().unwrap();
        sim.enable_metrics();
        let flow = FlowId::from_u32(1);
        sim.attach_agent(
            a,
            Box::new(Blaster {
                dst: b,
                flow,
                count: 10,
                gap: SimDuration::ZERO,
                sent: 0,
            }),
        );
        let counter = sim.attach_agent(b, Box::new(Counter::default()));
        sim.bind_flow(b, flow, counter);
        sim.run_until(SimTime::from_secs(1));
        let snap = sim.metrics_snapshot().unwrap();
        // Same split as `queue_overflow_drops_and_attributes_flow`.
        assert_eq!(snap.counter("link/0", "dropped"), Some(7));
        assert_eq!(snap.counter("link/0", "droptail_overflow"), Some(7));
        assert_eq!(snap.counter("link/0", "enqueued"), Some(3));
        assert_eq!(snap.counter("link/0", "dequeued"), Some(3));
    }

    #[test]
    fn tap_bins_match_an_all_filter_trace() {
        let (mut sim, a, b) = two_hosts();
        let bin = SimDuration::from_millis(10);
        sim.enable_tap(bin);
        let flow = FlowId::from_u32(1);
        let trace = sim.trace_link_ingress(LinkId::from_u32(0), TraceFilter::All, bin);
        sim.attach_agent(
            a,
            Box::new(Blaster {
                dst: b,
                flow,
                count: 25,
                gap: SimDuration::from_micros(700),
                sent: 0,
            }),
        );
        let counter = sim.attach_agent(b, Box::new(Counter::default()));
        sim.bind_flow(b, flow, counter);
        sim.run_until(SimTime::from_secs(1));
        // The tap records at the same hook site with the same binning, so
        // its series is identical to a user-registered All trace.
        let tap_bins = sim.tap_bins(LinkId::from_u32(0)).expect("tap is on");
        assert_eq!(tap_bins, sim.trace(trace).bytes_per_bin());
        assert!(tap_bins.iter().sum::<u64>() > 0);
        // The reverse (ACK-less) direction exists but saw no traffic.
        assert_eq!(
            sim.tap_bins(LinkId::from_u32(1)).unwrap().len(),
            0,
            "untouched link has no materialized bins"
        );
    }

    #[test]
    fn delayed_agent_start() {
        let (mut sim, a, b) = two_hosts();
        let flow = FlowId::from_u32(1);
        sim.attach_agent_at(
            a,
            Box::new(Blaster {
                dst: b,
                flow,
                count: 1,
                gap: SimDuration::ZERO,
                sent: 0,
            }),
            SimTime::from_secs(2),
        );
        let counter = sim.attach_agent(b, Box::new(Counter::default()));
        sim.bind_flow(b, flow, counter);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.agent_as::<Counter>(counter).unwrap().received, 0);
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(sim.agent_as::<Counter>(counter).unwrap().received, 1);
    }

    /// A [`Blaster`] that supports checkpointing.
    #[derive(Clone)]
    struct CloneBlaster(Blaster);

    impl Clone for Blaster {
        fn clone(&self) -> Self {
            Blaster {
                dst: self.dst,
                flow: self.flow,
                count: self.count,
                gap: self.gap,
                sent: self.sent,
            }
        }
    }

    impl Agent for CloneBlaster {
        fn start(&mut self, ctx: &mut AgentCtx<'_>) {
            self.0.start(ctx);
        }
        fn on_packet(&mut self, p: Packet, ctx: &mut AgentCtx<'_>) {
            self.0.on_packet(p, ctx);
        }
        fn on_timer(&mut self, t: u64, ctx: &mut AgentCtx<'_>) {
            self.0.on_timer(t, ctx);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn clone_box(&self) -> Option<Box<dyn Agent>> {
            Some(Box::new(self.clone()))
        }
    }

    /// Builds a two-host sim with a cloneable blaster + counter, runs it
    /// to `pause`, and returns it with the counter's id.
    fn checkpointable_sim(pause: SimTime) -> (Simulator, AgentId) {
        let (mut sim, a, b) = two_hosts();
        sim.enable_checks();
        let flow = FlowId::from_u32(1);
        sim.attach_agent(
            a,
            Box::new(CloneBlaster(Blaster {
                dst: b,
                flow,
                count: 200,
                gap: SimDuration::from_micros(700),
                sent: 0,
            })),
        );
        let counter = sim.attach_agent(b, Box::new(CloneCounter(Counter::default())));
        sim.bind_flow(b, flow, counter);
        sim.run_until(pause);
        (sim, counter)
    }

    /// A cloneable [`Counter`].
    #[derive(Default, Clone)]
    struct CloneCounter(Counter);

    impl Agent for CloneCounter {
        fn start(&mut self, ctx: &mut AgentCtx<'_>) {
            self.0.start(ctx);
        }
        fn on_packet(&mut self, p: Packet, ctx: &mut AgentCtx<'_>) {
            self.0.on_packet(p, ctx);
        }
        fn on_timer(&mut self, t: u64, ctx: &mut AgentCtx<'_>) {
            self.0.on_timer(t, ctx);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn clone_box(&self) -> Option<Box<dyn Agent>> {
            Some(Box::new(self.clone()))
        }
    }

    #[test]
    fn fork_resumes_identically_to_cold_run() {
        let pause = SimTime::from_millis(40);
        let horizon = SimTime::from_millis(300);
        let (mut cold, cold_counter) = checkpointable_sim(pause);
        let (paused, _) = checkpointable_sim(pause);
        let checkpoint = paused.checkpoint().expect("all agents cloneable");
        assert_eq!(checkpoint.taken_at(), pause);
        assert!(checkpoint.approx_bytes() > 0);

        let mut forked = Simulator::fork(&checkpoint);
        cold.run_until(horizon);
        forked.run_until(horizon);
        assert_eq!(cold.stats(), forked.stats());
        assert_eq!(cold.violations(), forked.violations());
        let cold_seen = cold
            .agent_as::<CloneCounter>(cold_counter)
            .map(|c| (c.0.received, c.0.bytes, c.0.last_at))
            .unwrap();
        let fork_seen = forked
            .agent_as::<CloneCounter>(cold_counter)
            .map(|c| (c.0.received, c.0.bytes, c.0.last_at))
            .unwrap();
        assert_eq!(cold_seen, fork_seen);
    }

    #[test]
    fn forking_twice_yields_independent_identical_runs() {
        let (paused, counter) = checkpointable_sim(SimTime::from_millis(40));
        let checkpoint = paused.checkpoint().unwrap();
        let horizon = SimTime::from_millis(300);
        let mut f1 = Simulator::fork(&checkpoint);
        let mut f2 = Simulator::fork(&checkpoint);
        f1.run_until(horizon);
        // f1 finishing must not disturb f2 (no shared mutable state).
        f2.run_until(horizon);
        assert_eq!(f1.stats(), f2.stats());
        assert_eq!(
            f1.agent_as::<CloneCounter>(counter).unwrap().0.received,
            f2.agent_as::<CloneCounter>(counter).unwrap().0.received,
        );
    }

    #[test]
    fn uncloneable_agent_fails_checkpoint() {
        let (mut sim, a, b) = two_hosts();
        let flow = FlowId::from_u32(1);
        // Plain `Blaster` keeps the default `clone_box` (None).
        let id = sim.attach_agent(
            a,
            Box::new(Blaster {
                dst: b,
                flow,
                count: 1,
                gap: SimDuration::ZERO,
                sent: 0,
            }),
        );
        assert_eq!(
            sim.checkpoint().err(),
            Some(CheckpointError::UncloneableAgent(id))
        );
        assert!(sim
            .checkpoint()
            .unwrap_err()
            .to_string()
            .contains("clone_box"));
    }

    /// Two delay-separated clusters — `a - r1 =20ms= r2 - b` — that a
    /// two-shard plan cuts at the long link.
    fn two_clusters() -> (Simulator, NodeId, NodeId) {
        let mut t = TopologyBuilder::new();
        let a = t.add_host("a");
        let r1 = t.add_router("r1");
        let r2 = t.add_router("r2");
        let b = t.add_host("b");
        for (x, y, ms) in [(a, r1, 1), (r1, r2, 20), (r2, b, 1)] {
            t.add_duplex_link(
                x,
                y,
                BitsPerSec::from_mbps(8.0),
                SimDuration::from_millis(ms),
                QueueSpec::DropTail { capacity: 100 },
            );
        }
        (t.build().unwrap(), a, b)
    }

    /// Observer-subset bits for [`cross_traffic_observables`].
    const CHECKS: u8 = 1;
    const METRICS: u8 = 2;
    const TAP: u8 = 4;
    const PROFILER: u8 = 8;

    /// Everything [`cross_traffic_observables`] surfaces: the physics
    /// (stats, each counter's `(seen, last_at)`, the bottleneck trace's
    /// bins), the effective shard count, and each observer's reading.
    struct CrossTraffic {
        stats: SimStats,
        seen: [(u64, Option<SimTime>); 2],
        trace: Vec<u64>,
        shards: usize,
        tap: Option<Vec<u64>>,
        violations: Vec<Violation>,
        metrics: Option<pdos_metrics::MetricsSnapshot>,
        profile: Option<ProfileSnapshot>,
    }

    /// Bidirectional cross-cluster traffic with a trace on the
    /// bottleneck, observed by the `observe` subset of {checks, metrics,
    /// tap, profiler} — armed before the shard split, or after it when
    /// `late` — on `shards` requested shards.
    fn cross_traffic_observables(shards: usize, observe: u8, late: bool) -> CrossTraffic {
        let arm = |sim: &mut Simulator| {
            if observe & CHECKS != 0 {
                sim.enable_checks();
            }
            if observe & METRICS != 0 {
                sim.enable_metrics();
            }
            if observe & TAP != 0 {
                sim.enable_tap(SimDuration::from_millis(25));
            }
            if observe & PROFILER != 0 {
                sim.enable_profiler();
            }
        };
        let (mut sim, a, b) = two_clusters();
        if !late {
            arm(&mut sim);
        }
        let (f1, f2) = (FlowId::from_u32(1), FlowId::from_u32(2));
        sim.attach_agent(
            a,
            Box::new(Blaster {
                dst: b,
                flow: f1,
                count: 30,
                gap: SimDuration::from_micros(900),
                sent: 0,
            }),
        );
        sim.attach_agent(
            b,
            Box::new(Blaster {
                dst: a,
                flow: f2,
                count: 20,
                gap: SimDuration::from_micros(1300),
                sent: 0,
            }),
        );
        let ca = sim.attach_agent(a, Box::new(Counter::default()));
        let cb = sim.attach_agent(b, Box::new(Counter::default()));
        sim.bind_flow(a, f2, ca);
        sim.bind_flow(b, f1, cb);
        let bottleneck = LinkId::from_u32(2); // r1 -> r2
        let tr = sim.trace_link_ingress(bottleneck, TraceFilter::All, SimDuration::from_millis(25));
        let effective = sim.enable_sharding(shards);
        if late {
            arm(&mut sim);
        }
        // Two run_until calls so cross-shard packets straddling the first
        // horizon must survive between runs.
        sim.run_until(SimTime::from_millis(300));
        sim.run_until(SimTime::from_millis(600));
        let seen = |id| {
            let c = sim.agent_as::<Counter>(id).unwrap();
            (c.received, c.last_at)
        };
        CrossTraffic {
            stats: sim.stats(),
            seen: [seen(ca), seen(cb)],
            trace: sim.trace(tr).bytes_per_bin().to_vec(),
            shards: effective,
            tap: sim.tap_bins(bottleneck).map(<[u64]>::to_vec),
            violations: sim.violations().to_vec(),
            metrics: sim.metrics_snapshot(),
            profile: sim.profile_snapshot(),
        }
    }

    /// Runs one leg of the neutrality matrix — the `observe` subset armed
    /// before the split, or after it when `late`, on `shards` requested
    /// shards — and asserts it reproduces `base`, the unobserved
    /// single-shard run, and that each armed observer really observed it.
    fn assert_leg_reproduces(base: &CrossTraffic, shards: usize, observe: u8, late: bool) {
        let leg = cross_traffic_observables(shards, observe, late);
        let at = format!("observers {observe:04b} (late: {late}) at {shards} shards");
        assert_eq!(
            leg.shards, shards,
            "4-node topology supports up to 4 shards"
        );
        assert_eq!(leg.stats, base.stats, "stats diverge: {at}");
        assert_eq!(leg.seen, base.seen, "counters diverge: {at}");
        assert_eq!(leg.trace, base.trace, "trace bins diverge: {at}");
        // The tap's bottleneck trace is an All trace at the caller's bin
        // width: equal to it at every shard count.
        let tap = (observe & TAP != 0).then(|| base.trace.clone());
        assert_eq!(leg.tap, tap, "tap bins diverge: {at}");
        assert!(leg.violations.is_empty(), "{at}: {:?}", leg.violations);
        assert_eq!(leg.metrics.is_some(), observe & METRICS != 0, "{at}");
        if let Some(m) = &leg.metrics {
            let pops = m.counter("engine", "pops_packet_tier").unwrap()
                + m.counter("engine", "pops_timer_tier").unwrap();
            assert_eq!(pops, leg.stats.events, "every pop counted once: {at}");
        }
        // A disabled profiler reports nothing; an armed one accounts for
        // exactly the events the engine processed.
        assert_eq!(leg.profile.is_some(), observe & PROFILER != 0, "{at}");
        if let Some(p) = &leg.profile {
            assert_eq!(p.total_events(), leg.stats.events, "{at}");
            let deliver = EVENT_KINDS.iter().position(|&k| k == "deliver").unwrap();
            assert!(p.kinds[deliver].count > 0, "no deliveries profiled: {at}");
        }
    }

    /// The unobserved single-shard run every matrix leg must reproduce.
    fn unobserved_base() -> CrossTraffic {
        let base = cross_traffic_observables(1, 0, false);
        assert!(base.trace.iter().sum::<u64>() > 0);
        base
    }

    /// The engine-level neutrality matrix: every subset of the observer
    /// set, armed before or after the split, at 1, 2 and 4 shards.
    #[test]
    fn every_observer_subset_reproduces_the_unobserved_run_at_every_shard_count() {
        let base = unobserved_base();
        for shards in [1, 2, 4] {
            for observe in 0..16 {
                for late in [false, true] {
                    assert_leg_reproduces(&base, shards, observe, late);
                }
            }
        }
    }

    #[test]
    fn metrics_do_not_perturb_the_run() {
        assert_leg_reproduces(&unobserved_base(), 1, METRICS, false);
    }

    #[test]
    fn tap_does_not_perturb_the_run() {
        assert_leg_reproduces(&unobserved_base(), 1, TAP, false);
    }

    #[test]
    fn sharded_run_is_bit_identical_to_unsharded() {
        let base = unobserved_base();
        for shards in [2, 4] {
            assert_leg_reproduces(&base, shards, CHECKS | TAP, false);
        }
    }

    #[test]
    fn sharding_refuses_a_mid_flight_split_and_falls_back() {
        let (mut sim, a, b) = two_clusters();
        let flow = FlowId::from_u32(1);
        sim.attach_agent(
            a,
            Box::new(Blaster {
                dst: b,
                flow,
                count: 10,
                gap: SimDuration::from_millis(1),
                sent: 0,
            }),
        );
        let counter = sim.attach_agent(b, Box::new(Counter::default()));
        sim.bind_flow(b, flow, counter);
        sim.run_until(SimTime::from_millis(5));
        // Packets are in flight: the split must refuse and the run must
        // continue unharmed on the legacy engine.
        assert_eq!(sim.enable_sharding(2), 1);
        assert_eq!(sim.shard_count(), 1);
        assert!(sim.shard_plan().is_none());
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.agent_as::<Counter>(counter).unwrap().received, 10);
    }

    #[test]
    fn single_shard_request_keeps_the_legacy_engine() {
        let (sim, _, _) = two_clusters();
        let sim = sim.with_shards(1);
        assert_eq!(sim.shard_count(), 1);
    }

    #[test]
    fn agents_attach_and_bind_after_sharding() {
        let (mut sim, a, b) = two_clusters();
        assert_eq!(sim.enable_sharding(2), 2);
        assert!(sim.shard_plan().unwrap().lookahead() == Some(SimDuration::from_millis(20)));
        let flow = FlowId::from_u32(7);
        sim.attach_agent_at(
            a,
            Box::new(Blaster {
                dst: b,
                flow,
                count: 5,
                gap: SimDuration::from_millis(2),
                sent: 0,
            }),
            SimTime::from_millis(50),
        );
        let counter = sim.attach_agent(b, Box::new(Counter::default()));
        sim.bind_flow(b, flow, counter);
        sim.run_until(SimTime::from_millis(500));
        assert_eq!(sim.agent_as::<Counter>(counter).unwrap().received, 5);
        assert_eq!(sim.stats().delivered, 5);
        assert_eq!(sim.now(), SimTime::from_millis(500));
        assert_eq!(sim.pending_events(), 0);
        assert_eq!(sim.stats().queue_drops, 0);
    }

    #[test]
    fn sharded_step_drains_the_whole_simulation() {
        let (mut sim, a, b) = two_clusters();
        let flow = FlowId::from_u32(1);
        sim.attach_agent(
            a,
            Box::new(Blaster {
                dst: b,
                flow,
                count: 8,
                gap: SimDuration::from_millis(1),
                sent: 0,
            }),
        );
        let counter = sim.attach_agent(b, Box::new(Counter::default()));
        sim.bind_flow(b, flow, counter);
        assert_eq!(sim.enable_sharding(2), 2);
        while sim.step() {}
        assert_eq!(sim.agent_as::<Counter>(counter).unwrap().received, 8);
    }

    #[test]
    fn shard_skew_fault_triggers_clock_regression() {
        let (mut sim, a, b) = two_clusters();
        sim.enable_checks();
        let (f1, f2) = (FlowId::from_u32(1), FlowId::from_u32(2));
        // Continuous traffic both ways keeps every shard's clock moving,
        // so the skewed (t=0) injection is unambiguously in the past.
        for (src, dst, flow) in [(a, b, f1), (b, a, f2)] {
            sim.attach_agent(
                src,
                Box::new(Blaster {
                    dst,
                    flow,
                    count: 100,
                    gap: SimDuration::from_millis(1),
                    sent: 0,
                }),
            );
        }
        assert_eq!(sim.enable_sharding(2), 2);
        assert!(sim.arm_shard_skew_for_test());
        sim.run_until(SimTime::from_millis(300));
        assert!(
            sim.violations()
                .iter()
                .any(|v| v.kind == ViolationKind::ClockRegression),
            "skewed cross-shard delivery must be flagged: {:?}",
            sim.violations()
        );
    }

    #[test]
    fn arming_skew_on_an_unsharded_sim_is_refused() {
        let (mut sim, _, _) = two_clusters();
        assert!(!sim.arm_shard_skew_for_test());
    }

    /// Cloneable bidirectional cross-cluster setup for checkpoint tests.
    fn cloneable_sharded_sim(pause: SimTime) -> (Simulator, AgentId, AgentId) {
        let (mut sim, a, b) = two_clusters();
        sim.enable_checks();
        let (f1, f2) = (FlowId::from_u32(1), FlowId::from_u32(2));
        sim.attach_agent(
            a,
            Box::new(CloneBlaster(Blaster {
                dst: b,
                flow: f1,
                count: 120,
                gap: SimDuration::from_micros(900),
                sent: 0,
            })),
        );
        sim.attach_agent(
            b,
            Box::new(CloneBlaster(Blaster {
                dst: a,
                flow: f2,
                count: 80,
                gap: SimDuration::from_micros(1300),
                sent: 0,
            })),
        );
        let ca = sim.attach_agent(a, Box::new(CloneCounter(Counter::default())));
        let cb = sim.attach_agent(b, Box::new(CloneCounter(Counter::default())));
        sim.bind_flow(a, f2, ca);
        sim.bind_flow(b, f1, cb);
        assert_eq!(sim.enable_sharding(2), 2);
        sim.run_until(pause);
        (sim, ca, cb)
    }

    #[test]
    fn sharded_fork_resumes_identically_to_sharded_cold_run() {
        let pause = SimTime::from_millis(100);
        let horizon = SimTime::from_millis(500);
        let (mut cold, ca, cb) = cloneable_sharded_sim(pause);
        let (paused, _, _) = cloneable_sharded_sim(pause);
        let checkpoint = paused.checkpoint().expect("sharded state is cloneable");
        assert_eq!(checkpoint.taken_at(), pause);
        let mut forked = Simulator::fork(&checkpoint);
        assert_eq!(forked.shard_count(), 2);
        cold.run_until(horizon);
        forked.run_until(horizon);
        assert_eq!(cold.stats(), forked.stats());
        assert_eq!(cold.violations(), forked.violations());
        for id in [ca, cb] {
            let seen = |s: &Simulator| {
                let c = s.agent_as::<CloneCounter>(id).unwrap();
                (c.0.received, c.0.bytes, c.0.last_at)
            };
            assert_eq!(seen(&cold), seen(&forked));
        }
    }

    #[test]
    fn omitted_state_field_is_caught_by_invariant_checkers() {
        let (paused, _) = checkpointable_sim(SimTime::from_millis(40));
        let mut checkpoint = paused.checkpoint().unwrap();
        checkpoint.omit_link_stats_for_test(LinkId::from_u32(0));
        let mut forked = Simulator::fork(&checkpoint);
        forked.run_until(SimTime::from_millis(300));
        assert!(
            forked
                .violations()
                .iter()
                .any(|v| v.kind == ViolationKind::PacketConservation),
            "conservation checker must flag the incompletely captured link"
        );
    }
}
