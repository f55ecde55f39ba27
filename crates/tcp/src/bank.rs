//! Memory-flat TCP flow banks: struct-of-arrays storage for 10⁵–10⁶
//! concurrent flows behind the ordinary [`Agent`] interface.
//!
//! [`sender::TcpSender`](crate::sender::TcpSender) is the right tool for
//! the paper's dozens-of-victims scenarios: one boxed state machine per
//! flow, full NewReno recovery, pluggable congestion control, per-flow
//! RTT estimation. At dataset scale (the million-flow aggregates of the
//! sharded engine's `million-flow-smoke` macro) that layout drowns in
//! pointer-chasing: every flow is its own heap allocation, its own
//! vtable, its own cold cache line.
//!
//! A [`SenderBank`] instead serves a dense *range* of flows from one
//! agent: all per-flow state lives in parallel `Vec`s (struct-of-arrays),
//! ~26 bytes per sender-side flow, scanned and indexed without
//! indirection. The engine sees a single agent per host; the many flows
//! are multiplexed through the ordinary `(node, flow)` bindings, and all
//! of their retransmission deadlines fold into one bank-level
//! [`RtoWheel`] behind one engine timer per *deadline instant* (not per
//! flow) — per-ACK timer cost is O(1) and a synchronized timeout storm
//! of a million flows is a single engine timer event, no matter how many
//! flows the bank serves. Everything stays
//! deterministic and cloneable, so banks work under checkpoint/fork and
//! the sharded engine's bit-identity contract.
//!
//! The congestion response is deliberately compact — integer AIMD with
//! slow start, go-back-N recovery keyed on the third duplicate ACK, and
//! a fixed retransmission timeout — not the full [`crate::sender`]
//! machinery (the sink keeps no out-of-order buffer, so go-back-N is
//! the honest recovery model at one `u32` of receiver state per flow).
//! Banks exist to load the *engine* (wheels, arena, shards) with
//! realistic closed-loop traffic at scale, not to reproduce Fig. 6.

use crate::rto_wheel::RtoWheel;
use pdos_sim::agent::{Agent, AgentCtx, AgentId};
use pdos_sim::engine::Simulator;
use pdos_sim::node::NodeId;
use pdos_sim::packet::{FlowId, Packet, PacketKind};
use pdos_sim::time::{SimDuration, SimTime};
use pdos_sim::units::Bytes;
use std::any::Any;

// A SenderBank's engine timers carry the deadline's nanosecond as the
// token. Deadlines are strictly monotone and armed once each, so every
// live timer has a distinct token — which keeps the engine's per-agent
// timer table duplicate-free (no spill, O(1) per arm and per fire).

/// A bank of greedy AIMD senders for the dense flow range
/// `[first, first + n)`, all sending from one host toward `dst`.
#[derive(Debug, Clone)]
pub struct SenderBank {
    dst: NodeId,
    segment: Bytes,
    cwnd_cap: u32,
    first: u32,
    // Struct-of-arrays per-flow state, indexed by slot = flow - first.
    cwnd: Vec<u32>,
    frac: Vec<u32>,
    ssthresh: Vec<u32>,
    next_seq: Vec<u32>,
    high: Vec<u32>,
    acked: Vec<u32>,
    dup: Vec<u8>,
    // Bank-wide counters.
    segments_sent: u64,
    retransmissions: u64,
    timeouts: u64,
    // All per-flow retransmission deadlines, behind one engine timer
    // per distinct deadline instant.
    wheel: RtoWheel,
    /// Highest deadline an engine timer has been armed for. Deadlines
    /// are monotone, so a rearm needs a new engine timer iff its
    /// deadline differs from this.
    armed_through: Option<SimTime>,
    /// Reused buffer for the slots expired by one timer fire.
    due_scratch: Vec<usize>,
}

impl SenderBank {
    /// A bank of `n` flows `[first, first + n)` sending `segment`-sized
    /// data toward `dst`, with a fixed retransmission timeout `rto` and
    /// a congestion-window cap of `cwnd_cap` segments.
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero or `cwnd_cap` < 2.
    pub fn new(first: FlowId, n: usize, dst: NodeId, segment: Bytes, rto: SimDuration) -> Self {
        Self::with_cwnd_cap(first, n, dst, segment, rto, 8)
    }

    /// Like [`SenderBank::new`] with an explicit congestion-window cap.
    pub fn with_cwnd_cap(
        first: FlowId,
        n: usize,
        dst: NodeId,
        segment: Bytes,
        rto: SimDuration,
        cwnd_cap: u32,
    ) -> Self {
        assert!(n > 0, "a bank needs at least one flow");
        assert!(cwnd_cap >= 2, "cwnd cap below 2 cannot fast-retransmit");
        SenderBank {
            dst,
            segment,
            cwnd_cap,
            first: first.as_u32(),
            cwnd: vec![1; n],
            frac: vec![0; n],
            ssthresh: vec![cwnd_cap; n],
            next_seq: vec![0; n],
            high: vec![0; n],
            acked: vec![0; n],
            dup: vec![0; n],
            segments_sent: 0,
            retransmissions: 0,
            timeouts: 0,
            wheel: RtoWheel::new(rto, n),
            armed_through: None,
            due_scratch: Vec::new(),
        }
    }

    /// Number of flows in the bank.
    pub fn n_flows(&self) -> usize {
        self.cwnd.len()
    }

    /// The dense flow range `[first, first + n)` this bank serves.
    pub fn flow_range(&self) -> std::ops::Range<u32> {
        self.first..self.first + self.cwnd.len() as u32
    }

    /// Total data segments put on the wire (including retransmissions).
    pub fn segments_sent(&self) -> u64 {
        self.segments_sent
    }

    /// Total retransmitted segments (fast retransmit + timeout).
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Total retransmission-timeout firings.
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// Total segments cumulatively acknowledged across all flows.
    pub fn total_acked(&self) -> u64 {
        self.acked.iter().map(|&a| u64::from(a)).sum()
    }

    /// Approximate heap footprint of the per-flow arrays, bytes.
    pub fn approx_bytes(&self) -> usize {
        self.n_flows() * (6 * std::mem::size_of::<u32>() + 1)
    }

    /// One slot's full congestion state
    /// `(cwnd, frac, ssthresh, next_seq, high, acked, dup)` — for the
    /// layout-equivalence tests, which assert the bank byte-matches a
    /// boxed per-flow reference.
    #[doc(hidden)]
    pub fn slot_state(&self, slot: usize) -> (u32, u32, u32, u32, u32, u32, u8) {
        (
            self.cwnd[slot],
            self.frac[slot],
            self.ssthresh[slot],
            self.next_seq[slot],
            self.high[slot],
            self.acked[slot],
            self.dup[slot],
        )
    }

    fn slot_of(&self, flow: FlowId) -> Option<usize> {
        let slot = flow.as_u32().checked_sub(self.first)? as usize;
        (slot < self.cwnd.len()).then_some(slot)
    }

    fn send_segment(&mut self, slot: usize, seq: u32, ctx: &mut AgentCtx<'_>) {
        let retx = seq < self.high[slot];
        if retx {
            self.retransmissions += 1;
        } else {
            self.high[slot] = seq + 1;
        }
        let flow = FlowId::from_u32(self.first + slot as u32);
        ctx.send(Packet::new(
            flow,
            ctx.node(),
            self.dst,
            self.segment,
            PacketKind::Data {
                seq: u64::from(seq),
                retx,
            },
        ));
        self.segments_sent += 1;
    }

    /// Fills the window: sends while fewer than `cwnd` segments are
    /// outstanding. Greedy — there is always more data.
    fn fill_window(&mut self, slot: usize, ctx: &mut AgentCtx<'_>) {
        while self.next_seq[slot] - self.acked[slot] < self.cwnd[slot] {
            let seq = self.next_seq[slot];
            self.next_seq[slot] += 1;
            self.send_segment(slot, seq, ctx);
        }
    }

    /// Go-back-N recovery: the sink keeps no out-of-order buffer, so a
    /// loss invalidates everything in flight behind it. Rewind the send
    /// pointer to the cumulative ACK and let `fill_window` resend.
    fn go_back_n(&mut self, slot: usize, ctx: &mut AgentCtx<'_>) {
        self.next_seq[slot] = self.acked[slot];
        self.dup[slot] = 0;
        self.fill_window(slot, ctx);
        self.rearm_rto(slot, ctx);
    }

    /// (Re-)arms `slot`'s retransmission deadline in the bank wheel.
    ///
    /// No engine timer is cancelled, and none is created per flow: the
    /// wheel's lazy invalidation absorbs the churn, and one engine timer
    /// is armed per *distinct deadline instant* — at the moment that
    /// deadline first appears, so its event key `(deadline, now, seq)`
    /// is byte-identical to the per-flow timer a boxed agent would have
    /// armed right here. That keeps same-instant event ordering — and
    /// therefore the whole packet trace — exactly equal to the retired
    /// per-flow-timer layout (see `tests/bank_equivalence.rs`), while
    /// every flow that re-arms at the same instant shares the one timer.
    /// A timer whose whole bucket is re-armed away fires as a no-op.
    fn rearm_rto(&mut self, slot: usize, ctx: &mut AgentCtx<'_>) {
        let now = ctx.now();
        self.wheel.rearm(slot, now);
        let deadline = now + self.wheel.rto();
        if self.armed_through != Some(deadline) {
            ctx.timer_at(deadline, deadline.as_nanos());
            self.armed_through = Some(deadline);
        }
    }

    /// Integer AIMD growth: double per RTT in slow start (+1 per ACK),
    /// +1 segment per window's worth of ACKs afterwards.
    fn grow(&mut self, slot: usize) {
        if self.cwnd[slot] >= self.cwnd_cap {
            return;
        }
        if self.cwnd[slot] < self.ssthresh[slot] {
            self.cwnd[slot] += 1;
        } else {
            self.frac[slot] += 1;
            if self.frac[slot] >= self.cwnd[slot] {
                self.frac[slot] = 0;
                self.cwnd[slot] += 1;
            }
        }
    }

    fn halve(&mut self, slot: usize) {
        self.ssthresh[slot] = (self.cwnd[slot] / 2).max(2);
        self.frac[slot] = 0;
    }
}

impl Agent for SenderBank {
    fn start(&mut self, ctx: &mut AgentCtx<'_>) {
        for slot in 0..self.n_flows() {
            self.fill_window(slot, ctx);
            self.rearm_rto(slot, ctx);
        }
    }

    fn on_packet(&mut self, packet: Packet, ctx: &mut AgentCtx<'_>) {
        let PacketKind::Ack { cum_seq } = packet.kind else {
            return;
        };
        let Some(slot) = self.slot_of(packet.flow) else {
            return;
        };
        let cum = cum_seq.min(u64::from(u32::MAX)) as u32;
        if cum > self.acked[slot] {
            self.acked[slot] = cum.min(self.next_seq[slot]);
            self.dup[slot] = 0;
            self.grow(slot);
            self.fill_window(slot, ctx);
            self.rearm_rto(slot, ctx);
        } else if self.next_seq[slot] > self.acked[slot] {
            // Duplicate ACK with data outstanding: on the classic third
            // duplicate, halve the window and go-back-N from the hole.
            self.dup[slot] = self.dup[slot].saturating_add(1);
            if self.dup[slot] == 3 {
                self.halve(slot);
                self.cwnd[slot] = self.ssthresh[slot];
                self.go_back_n(slot, ctx);
            }
        }
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut AgentCtx<'_>) {
        // Every timer the bank arms is a wheel deadline (the token is
        // the deadline itself), so any fire means: expire what is due.
        // Expire the whole due bucket, then handle each slot in fire
        // order — identical order and times to the retired per-flow
        // engine timers (see the rto_wheel proptest battery). The fire
        // may be spurious (every due entry re-armed since): the handler
        // loop is empty then and the event is a no-op — future deadlines
        // already armed their own timers when they were created.
        let mut due = std::mem::take(&mut self.due_scratch);
        due.clear();
        self.wheel.expire(ctx.now(), |slot| due.push(slot));
        for &slot in &due {
            if self.next_seq[slot] > self.acked[slot] {
                // Outstanding data lost: collapse to one segment and
                // resend from the first unacknowledged one.
                self.timeouts += 1;
                self.halve(slot);
                self.cwnd[slot] = 1;
                self.go_back_n(slot, ctx);
            } else {
                self.rearm_rto(slot, ctx);
            }
        }
        self.due_scratch = due;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn clone_box(&self) -> Option<Box<dyn Agent>> {
        Some(Box::new(self.clone()))
    }
}

/// The receiving half of a [`SenderBank`]: cumulative ACKs for a dense
/// flow range, one `u32` of state per flow.
#[derive(Debug, Clone)]
pub struct SinkBank {
    segment: Bytes,
    first: u32,
    /// Next in-order segment expected, per slot.
    next_expected: Vec<u32>,
    acks_sent: u64,
}

impl SinkBank {
    /// A sink bank for the `n` flows `[first, first + n)` whose data
    /// segments are `segment` bytes on the wire.
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero.
    pub fn new(first: FlowId, n: usize, segment: Bytes) -> Self {
        assert!(n > 0, "a bank needs at least one flow");
        SinkBank {
            segment,
            first: first.as_u32(),
            next_expected: vec![0; n],
            acks_sent: 0,
        }
    }

    /// Number of flows in the bank.
    pub fn n_flows(&self) -> usize {
        self.next_expected.len()
    }

    /// Total in-order segments delivered across all flows.
    pub fn delivered_segments(&self) -> u64 {
        self.next_expected.iter().map(|&s| u64::from(s)).sum()
    }

    /// Total in-order payload bytes delivered across all flows.
    pub fn goodput_bytes(&self) -> u64 {
        self.delivered_segments() * self.segment.as_u64()
    }

    /// Total acknowledgments sent.
    pub fn acks_sent(&self) -> u64 {
        self.acks_sent
    }

    /// In-order segments delivered by one flow of the bank, or `None`
    /// when the flow is outside the bank's range.
    pub fn delivered_for(&self, flow: FlowId) -> Option<u64> {
        let slot = flow.as_u32().checked_sub(self.first)? as usize;
        self.next_expected.get(slot).map(|&s| u64::from(s))
    }
}

impl Agent for SinkBank {
    fn start(&mut self, _ctx: &mut AgentCtx<'_>) {}

    fn on_packet(&mut self, packet: Packet, ctx: &mut AgentCtx<'_>) {
        let PacketKind::Data { seq, .. } = packet.kind else {
            return;
        };
        let Some(slot) = packet
            .flow
            .as_u32()
            .checked_sub(self.first)
            .map(|s| s as usize)
            .filter(|&s| s < self.next_expected.len())
        else {
            return;
        };
        if seq == u64::from(self.next_expected[slot]) {
            self.next_expected[slot] += 1;
        }
        // Every arrival is acknowledged (no delayed ACK at bank scale):
        // out-of-order data produces the duplicate ACKs fast retransmit
        // keys on.
        ctx.send(Packet::new(
            packet.flow,
            ctx.node(),
            packet.src,
            Bytes::from_u64(40),
            PacketKind::Ack {
                cum_seq: u64::from(self.next_expected[slot]),
            },
        ));
        self.acks_sent += 1;
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut AgentCtx<'_>) {}

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn clone_box(&self) -> Option<Box<dyn Agent>> {
        Some(Box::new(self.clone()))
    }
}

/// Wires a bank pair for the dense flow range `flows`: a [`SenderBank`]
/// on `src` sending toward `dst`, a [`SinkBank`] on `dst`, and the range
/// bindings that carry data to the sinks and ACKs back. Segments are
/// 1000 bytes and the retransmission timeout is 500 ms. Returns
/// `(sender bank, sink bank)`.
///
/// # Panics
///
/// Panics when `flows` is empty or overlaps a range already bound on
/// `src` or `dst`.
pub fn attach_pair(
    sim: &mut Simulator,
    src: NodeId,
    dst: NodeId,
    flows: std::ops::Range<u32>,
) -> (AgentId, AgentId) {
    let (segment, rto) = (Bytes::from_u64(1000), SimDuration::from_millis(500));
    let (first, n) = (FlowId::from_u32(flows.start), flows.len());
    let tx = sim.attach_agent(src, Box::new(SenderBank::new(first, n, dst, segment, rto)));
    let rx = sim.attach_agent(dst, Box::new(SinkBank::new(first, n, segment)));
    sim.bind_flow_range(src, flows.clone(), tx);
    sim.bind_flow_range(dst, flows, rx);
    (tx, rx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdos_sim::prelude::*;
    use pdos_sim::time::SimTime;

    /// Two hosts, one duplex bottleneck, a bank of flows each way.
    fn bank_pair(n: usize, seed: u64) -> (Simulator, AgentId, AgentId) {
        let mut t = TopologyBuilder::with_seed(seed);
        let a = t.add_host("senders");
        let b = t.add_host("sinks");
        t.add_duplex_link(
            a,
            b,
            BitsPerSec::from_mbps(10.0),
            SimDuration::from_millis(10),
            QueueSpec::DropTail { capacity: 50 },
        );
        let mut sim = t.build().unwrap();
        let first = FlowId::from_u32(0);
        let tx = sim.attach_agent(
            a,
            Box::new(SenderBank::new(
                first,
                n,
                b,
                Bytes::from_u64(1000),
                SimDuration::from_millis(500),
            )),
        );
        let rx = sim.attach_agent(b, Box::new(SinkBank::new(first, n, Bytes::from_u64(1000))));
        for i in 0..n {
            let flow = FlowId::from_u32(i as u32);
            sim.bind_flow(a, flow, tx);
            sim.bind_flow(b, flow, rx);
        }
        (sim, tx, rx)
    }

    #[test]
    fn bank_delivers_on_every_flow() {
        let (mut sim, tx, rx) = bank_pair(50, 3);
        sim.run_until(SimTime::from_secs(10));
        let sink = sim.agent_as::<SinkBank>(rx).unwrap();
        assert_eq!(sink.n_flows(), 50);
        for i in 0..50 {
            let d = sink.delivered_for(FlowId::from_u32(i)).unwrap();
            assert!(d > 0, "flow {i} delivered nothing");
        }
        let sender = sim.agent_as::<SenderBank>(tx).unwrap();
        assert!(sender.segments_sent() >= sink.delivered_segments());
        assert_eq!(sink.delivered_for(FlowId::from_u32(50)), None);
    }

    #[test]
    fn bank_respects_the_bottleneck_and_recovers_from_loss() {
        // 50 greedy flows into a 10 Mbps pipe: drops are guaranteed, so
        // the bank must exercise fast retransmit / RTO and still keep
        // aggregate goodput near capacity without overshooting it.
        let (mut sim, tx, rx) = bank_pair(50, 5);
        sim.enable_checks();
        sim.run_until(SimTime::from_secs(10));
        assert!(sim.violations().is_empty(), "{:?}", sim.violations());
        let sender = sim.agent_as::<SenderBank>(tx).unwrap();
        assert!(
            sender.retransmissions() > 0,
            "an oversubscribed bottleneck must force recovery: {sender:?}"
        );
        let sink = sim.agent_as::<SinkBank>(rx).unwrap();
        let util = sink.goodput_bytes() as f64 * 8.0 / 10.0 / 10e6;
        assert!(util > 0.5, "goodput collapsed: {util}");
        assert!(util < 1.02, "goodput exceeds capacity: {util}");
    }

    #[test]
    fn bank_memory_is_flat() {
        let bank = SenderBank::new(
            FlowId::from_u32(0),
            100_000,
            NodeId::from_u32(1),
            Bytes::from_u64(1000),
            SimDuration::from_secs(1),
        );
        // ~25 bytes of array state per flow, not a boxed agent each.
        assert_eq!(bank.approx_bytes(), 100_000 * 25);
        assert_eq!(bank.flow_range(), 0..100_000);
    }

    #[test]
    fn banks_are_deterministic_and_cloneable() {
        let run = |seed| {
            let (mut sim, _, rx) = bank_pair(20, seed);
            sim.run_until(SimTime::from_secs(5));
            let sink = sim.agent_as::<SinkBank>(rx).unwrap();
            (sink.delivered_segments(), sink.acks_sent())
        };
        assert_eq!(run(7), run(7), "same seed, same physics");

        // clone_box powers checkpoint/fork: a forked run must continue
        // identically to the original.
        let (mut sim, _, rx) = bank_pair(20, 7);
        sim.run_until(SimTime::from_secs(2));
        let checkpoint = sim.checkpoint().expect("banks are cloneable");
        let mut fork = Simulator::fork(&checkpoint);
        sim.run_until(SimTime::from_secs(5));
        fork.run_until(SimTime::from_secs(5));
        let a = sim.agent_as::<SinkBank>(rx).unwrap().delivered_segments();
        let b = fork.agent_as::<SinkBank>(rx).unwrap().delivered_segments();
        assert_eq!(a, b, "fork must resume bit-identically");
    }
}
