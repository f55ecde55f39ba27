//! The TCP sender: a greedy (FTP-like) source driving a pluggable
//! congestion-control state machine (the paper's general `AIMD(a, b)`
//! by default; see [`crate::cc`] for the registry).
//!
//! The sender works at segment granularity like the ns-2 TCP agents the
//! paper simulates: sequence numbers count segments, the congestion window
//! is a (fractional) segment count, and ACKs carry the receiver's
//! next-expected segment number.

use crate::cc::{AckSample, CcState, CongestionControl};
use crate::config::{CcVariant, TcpConfig};
use crate::rto::RttEstimator;
use crate::stats::{CwndSample, SenderStats};
use pdos_sim::agent::{Agent, AgentCtx};
use pdos_sim::check::{Violation, ViolationKind};
use pdos_sim::node::NodeId;
use pdos_sim::packet::Ecn;
use pdos_sim::packet::{FlowId, Packet, PacketKind};
use pdos_sim::time::SimTime;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::any::Any;
use std::collections::BTreeSet;

/// A greedy TCP sender agent.
///
/// [`crate::connect`] attaches one to a host node, pairs it with a
/// [`crate::sink::TcpSink`] and binds the reverse flow so ACKs reach it:
///
/// ```no_run
/// use pdos_sim::prelude::*;
/// use pdos_tcp::config::TcpConfig;
///
/// # fn demo(sim: &mut Simulator, src: NodeId, dst: NodeId) {
/// let flow = FlowId::from_u32(1);
/// let cfg = TcpConfig::ns2_newreno();
/// let (tx, rx) = pdos_tcp::connect(sim, src, dst, flow, cfg, SimTime::ZERO);
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TcpSender {
    cfg: TcpConfig,
    flow: FlowId,
    dst: NodeId,

    // Window state (in segments), folded through the pluggable
    // congestion-control algorithm below.
    st: CcState,
    cc: Box<dyn CongestionControl>,
    /// Next never-before-sent segment.
    next_new: u64,
    /// All segments below this are cumulatively acknowledged.
    high_ack: u64,
    dup_acks: u32,
    in_fast_recovery: bool,
    /// Highest segment outstanding when fast recovery began; a cumulative
    /// ACK beyond it ends recovery (RFC 3782).
    recover: u64,
    /// When `Some(s)`, segments `[s, next_new)` are being re-sent after a
    /// timeout (go-back-N over the retransmission buffer).
    resend_from: Option<u64>,

    // Timing.
    est: RttEstimator,
    /// One segment currently being timed for an RTT sample: `(seq,
    /// sent_at)`. Karn's rule: never from a retransmission.
    timed: Option<(u64, SimTime)>,
    /// Timer generation for lazy cancellation.
    rto_gen: u64,

    /// New data sent at the moment of the last ECN reaction; a fresh echo
    /// only acts once the window has moved past it (once per RTT).
    ecn_recover: u64,
    /// Mice mode: sequence boundary of the current burst.
    burst_end: u64,
    /// Mice mode: idling between bursts.
    thinking: bool,
    /// Mice mode: resume-timer generation (lazy cancellation).
    resume_gen: u64,
    /// SACK scoreboard: segments above `high_ack` the receiver reported.
    sacked: BTreeSet<u64>,
    /// Holes already retransmitted during the current fast recovery.
    sack_retx_sent: BTreeSet<u64>,
    /// Deterministic stream for the randomized-RTO defense.
    rto_rng: SmallRng,

    stats: SenderStats,
    cwnd_trace: Vec<CwndSample>,
    done: bool,
}

impl TcpSender {
    /// Creates a sender for `flow`, sending to the host `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`TcpConfig::validate`].
    pub fn new(cfg: TcpConfig, flow: FlowId, dst: NodeId) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid TCP configuration: {e}");
        }
        let est = RttEstimator::new(cfg.min_rto, cfg.max_rto);
        let rto_rng = SmallRng::seed_from_u64(
            cfg.rto_rand_seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(u64::from(flow.as_u32())),
        );
        TcpSender {
            st: CcState {
                cwnd: cfg.initial_cwnd,
                ssthresh: cfg.initial_ssthresh,
            },
            cc: cfg.cc.build(),
            next_new: 0,
            high_ack: 0,
            dup_acks: 0,
            in_fast_recovery: false,
            recover: 0,
            resend_from: None,
            est,
            timed: None,
            rto_gen: 0,
            ecn_recover: 0,
            burst_end: cfg.burst_segments.unwrap_or(u64::MAX),
            thinking: false,
            resume_gen: 0,
            sacked: BTreeSet::new(),
            sack_retx_sent: BTreeSet::new(),
            rto_rng,
            stats: SenderStats::default(),
            cwnd_trace: Vec::new(),
            done: false,
            cfg,
            flow,
            dst,
        }
    }

    /// The flow this sender drives.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Current congestion window, in segments.
    pub fn cwnd(&self) -> f64 {
        self.st.cwnd
    }

    /// Current slow-start threshold, in segments.
    pub fn ssthresh(&self) -> f64 {
        self.st.ssthresh
    }

    /// Which congestion-control algorithm this sender runs.
    pub fn cc_kind(&self) -> crate::cc::CcSpec {
        self.cc.kind()
    }

    /// Whether the sender is inside fast recovery.
    pub fn in_fast_recovery(&self) -> bool {
        self.in_fast_recovery
    }

    /// Sender-side counters.
    pub fn stats(&self) -> &SenderStats {
        &self.stats
    }

    /// The recorded `(time, cwnd)` trajectory (empty unless
    /// [`TcpConfig::record_cwnd`] was set).
    pub fn cwnd_trace(&self) -> &[CwndSample] {
        &self.cwnd_trace
    }

    /// Whether a segment-limited transfer has completed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Audits the sender's congestion-control invariants at `now`,
    /// returning any breaches (empty on a healthy sender).
    ///
    /// Checked: `cwnd` finite and within `[1, max_cwnd]` segments (the
    /// one-segment floor outside timeout), `ssthresh` finite and at or
    /// above the floor the active congestion-control algorithm contracts
    /// via [`CongestionControl::ssthresh_floor`] (two segments for the
    /// RFC 5681 family — not hard-coded AIMD halving, so CUBIC/BBR/DCTCP
    /// reductions don't trip false positives), the RFC 6298 RTO inside
    /// `[min_rto, max_rto]`, and no sequence regression
    /// (`next_new >= high_ack`).
    pub fn check_invariants(&self, now: SimTime) -> Vec<Violation> {
        let mut out = Vec::new();
        let entity = format!("tcp-sender/{}", self.flow);
        if !self.st.cwnd.is_finite() || !(1.0..=self.cfg.max_cwnd).contains(&self.st.cwnd) {
            out.push(Violation {
                at: now,
                entity: entity.clone(),
                kind: ViolationKind::TcpWindow,
                detail: format!(
                    "cwnd {} outside [1, {}] segments",
                    self.st.cwnd, self.cfg.max_cwnd
                ),
            });
        }
        let ssthresh_floor = self.cc.ssthresh_floor(&self.cfg);
        if !self.st.ssthresh.is_finite() || self.st.ssthresh < ssthresh_floor {
            out.push(Violation {
                at: now,
                entity: entity.clone(),
                kind: ViolationKind::TcpWindow,
                detail: format!(
                    "ssthresh {} below {} floor {ssthresh_floor}",
                    self.st.ssthresh,
                    self.cc.kind()
                ),
            });
        }
        if self.next_new < self.high_ack {
            out.push(Violation {
                at: now,
                entity: entity.clone(),
                kind: ViolationKind::TcpWindow,
                detail: format!(
                    "sequence regression: next_new {} < high_ack {}",
                    self.next_new, self.high_ack
                ),
            });
        }
        let rto = self.est.rto();
        if rto < self.cfg.min_rto || rto > self.cfg.max_rto {
            out.push(Violation {
                at: now,
                entity,
                kind: ViolationKind::TcpRto,
                detail: format!(
                    "rto {rto} outside [{}, {}]",
                    self.cfg.min_rto, self.cfg.max_rto
                ),
            });
        }
        out
    }

    /// Test hook: sets `cwnd` directly, bypassing the clamp in
    /// [`TcpSender::set_cwnd`], seeding a window fault for the checkers.
    #[doc(hidden)]
    pub fn corrupt_cwnd_for_test(&mut self, value: f64) {
        self.st.cwnd = value;
    }

    fn outstanding(&self) -> bool {
        self.next_new > self.high_ack
    }

    fn record_cwnd(&mut self, now: SimTime) {
        if self.cfg.record_cwnd {
            self.cwnd_trace.push(CwndSample {
                at: now,
                cwnd: self.st.cwnd,
            });
        }
    }

    fn set_cwnd(&mut self, value: f64, now: SimTime) {
        self.st.cwnd = value.clamp(1.0, self.cfg.max_cwnd);
        self.record_cwnd(now);
    }

    fn arm_rto(&mut self, ctx: &mut AgentCtx<'_>) {
        // Retire the previous RTO in the engine's timer wheel; the
        // generation bump below keeps stale fires harmless regardless.
        ctx.cancel_timer(self.rto_gen);
        self.rto_gen += 1;
        let mut rto = self.est.rto();
        if self.cfg.rto_rand_spread > 0.0 {
            // Yang et al.'s defense: stretch the timer by a uniform factor
            // so a shrew attacker cannot phase-lock onto retransmissions.
            let factor = 1.0 + self.cfg.rto_rand_spread * self.rto_rng.random::<f64>();
            rto = rto.mul_f64(factor);
        }
        ctx.timer_after(rto, self.rto_gen);
    }

    fn cancel_rto(&mut self, ctx: &mut AgentCtx<'_>) {
        ctx.cancel_timer(self.rto_gen);
        self.rto_gen += 1;
    }

    /// Resume-timer tokens live above this bit so they never collide with
    /// RTO generations.
    const RESUME_TOKEN_BASE: u64 = 1 << 60;

    fn send_segment(&mut self, seq: u64, retx: bool, ctx: &mut AgentCtx<'_>) {
        self.stats.segments_sent += 1;
        if retx {
            self.stats.retransmissions += 1;
            if let Some((timed_seq, _)) = self.timed {
                if timed_seq == seq {
                    // Karn: a retransmitted segment cannot be timed.
                    self.timed = None;
                }
            }
        } else if self.timed.is_none() && !self.in_fast_recovery && self.resend_from.is_none() {
            self.timed = Some((seq, ctx.now()));
        }
        let mut pkt = Packet::new(
            self.flow,
            ctx.node(),
            self.dst,
            self.cfg.segment_wire_size(),
            PacketKind::Data { seq, retx },
        );
        if self.cfg.ecn {
            pkt = pkt.with_ecn(Ecn::Capable);
        }
        ctx.send(pkt);
    }

    /// Sends as much as the window allows: pending timeout re-sends first,
    /// then new data.
    fn send_window(&mut self, ctx: &mut AgentCtx<'_>) {
        let usable_end = self.high_ack + self.st.cwnd.floor() as u64;
        loop {
            if let Some(s) = self.resend_from {
                if s < self.next_new && s < usable_end {
                    self.send_segment(s, true, ctx);
                    let next = s + 1;
                    self.resend_from = if next < self.next_new {
                        Some(next)
                    } else {
                        None
                    };
                    continue;
                }
                if s >= self.next_new {
                    self.resend_from = None;
                    continue;
                }
                break; // window exhausted while re-sending
            }
            if self.next_new >= usable_end {
                break;
            }
            if let Some(limit) = self.cfg.limit_segments {
                if self.next_new >= limit {
                    break;
                }
            }
            if self.thinking || self.next_new >= self.burst_end {
                break; // mice mode: current burst fully issued
            }
            let seq = self.next_new;
            self.next_new += 1;
            self.send_segment(seq, false, ctx);
        }
    }

    fn on_new_ack(&mut self, cum_seq: u64, ecn_echo: bool, ctx: &mut AgentCtx<'_>) {
        let newly = cum_seq - self.high_ack;
        // RTT sample (Karn-safe: `timed` is cleared on any retransmission
        // of the timed segment).
        let mut rtt_sample = None;
        if let Some((seq, sent_at)) = self.timed {
            if cum_seq > seq {
                let sample = ctx.now().saturating_since(sent_at);
                self.est.on_sample(sample);
                self.stats.rtt_samples += 1;
                self.timed = None;
                rtt_sample = Some(sample);
            }
        }
        self.high_ack = cum_seq;
        self.stats.segments_acked = cum_seq;
        if self.cfg.sack {
            self.sacked = self.sacked.split_off(&cum_seq);
            self.sack_retx_sent = self.sack_retx_sent.split_off(&cum_seq);
        }
        // Skip acked segments in a pending timeout re-send run.
        if let Some(s) = self.resend_from {
            if self.high_ack > s {
                self.resend_from = if self.high_ack < self.next_new {
                    Some(self.high_ack)
                } else {
                    None
                };
            }
        }

        if self.in_fast_recovery {
            if cum_seq > self.recover || self.cfg.variant == CcVariant::Reno {
                // Full ACK (or Reno, which exits on any new ACK): deflate.
                self.in_fast_recovery = false;
                self.dup_acks = 0;
                self.sack_retx_sent.clear();
                self.cc.on_recovery_exit(&mut self.st, &self.cfg, ctx.now());
                self.set_cwnd(self.st.ssthresh, ctx.now());
            } else {
                // NewReno partial ACK: retransmit the next hole, deflate by
                // the amount acked, add back one segment, restart the timer.
                self.send_segment(self.high_ack, true, ctx);
                self.set_cwnd((self.st.cwnd - newly as f64 + 1.0).max(1.0), ctx.now());
                self.send_window(ctx);
                self.arm_rto(ctx);
                return;
            }
        } else {
            self.dup_acks = 0;
            let ack = AckSample {
                newly,
                now: ctx.now(),
                rtt: rtt_sample,
                ecn_echo,
            };
            let grown = self.cc.on_ack(&self.st, &self.cfg, &ack);
            self.set_cwnd(grown, ctx.now());
        }

        if let Some(limit) = self.cfg.limit_segments {
            if self.high_ack >= limit {
                self.done = true;
                self.cancel_rto(ctx);
                return;
            }
        }

        // Mice mode: a fully acknowledged burst starts the think timer.
        if self.cfg.burst_segments.is_some() && !self.thinking && self.high_ack >= self.burst_end {
            self.thinking = true;
            self.stats.bursts_completed += 1;
            self.cancel_rto(ctx);
            self.resume_gen += 1;
            ctx.timer_after(
                self.cfg.think_time,
                Self::RESUME_TOKEN_BASE + self.resume_gen,
            );
            return;
        }

        self.send_window(ctx);
        if self.outstanding() {
            self.arm_rto(ctx);
        } else {
            self.cancel_rto(ctx);
        }
    }

    fn on_dup_ack(&mut self, ctx: &mut AgentCtx<'_>) {
        self.dup_acks += 1;
        if self.in_fast_recovery {
            // Window inflation: each further dup-ACK signals one segment
            // has left the network.
            self.set_cwnd(self.st.cwnd + 1.0, ctx.now());
            if self.cfg.sack {
                // RFC 6675-lite: spend the freed slot on the next hole the
                // scoreboard exposes, rather than on new data.
                if let Some(hole) = self.next_sack_hole() {
                    self.sack_retx_sent.insert(hole);
                    self.send_segment(hole, true, ctx);
                    return;
                }
            }
            self.send_window(ctx);
            return;
        }
        if self.cfg.limited_transmit
            && self.dup_acks < self.cfg.dupack_threshold
            && self.resend_from.is_none()
        {
            // RFC 3042: each of the first two dup-ACKs releases one new
            // segment beyond the window, keeping the ACK clock alive so a
            // small-window flow can still reach the FR threshold.
            let can_send = self
                .cfg
                .limit_segments
                .is_none_or(|limit| self.next_new < limit)
                && (self.cfg.burst_segments.is_none()
                    || (!self.thinking && self.next_new < self.burst_end));
            if can_send {
                let seq = self.next_new;
                self.next_new += 1;
                self.send_segment(seq, false, ctx);
            }
        }
        if self.dup_acks == self.cfg.dupack_threshold {
            self.stats.fast_recoveries += 1;
            self.cc.on_loss(&mut self.st, &self.cfg, ctx.now());
            self.timed = None; // the timed segment is likely the lost one
            match self.cfg.variant {
                CcVariant::Tahoe => {
                    // No fast recovery: collapse and slow-start.
                    self.set_cwnd(1.0, ctx.now());
                    self.send_segment(self.high_ack, true, ctx);
                    self.arm_rto(ctx);
                }
                CcVariant::Reno | CcVariant::NewReno => {
                    self.in_fast_recovery = true;
                    self.recover = self.next_new.saturating_sub(1);
                    self.send_segment(self.high_ack, true, ctx);
                    self.set_cwnd(
                        self.st.ssthresh + f64::from(self.cfg.dupack_threshold),
                        ctx.now(),
                    );
                    self.send_window(ctx);
                    self.arm_rto(ctx);
                }
            }
        }
    }

    /// RFC 3168 sender reaction: on a congestion echo, decrease the window
    /// multiplicatively — at most once per window of data, and not while
    /// loss recovery is already deflating it.
    fn on_ecn_echo(&mut self, ctx: &mut AgentCtx<'_>) {
        if self.in_fast_recovery || self.high_ack < self.ecn_recover {
            return;
        }
        self.stats.ecn_reactions += 1;
        let reduced = self.cc.on_ecn(&mut self.st, &self.cfg, ctx.now());
        self.set_cwnd(reduced, ctx.now());
        self.ecn_recover = self.next_new;
    }

    /// The lowest unacknowledged, un-SACKed, not-yet-retransmitted hole
    /// strictly above the cumulative point (which fast retransmit already
    /// resent), up to `recover`. A hole only qualifies when the receiver
    /// reported data *above* it — data with nothing SACKed beyond is just
    /// unreported in-flight traffic, and resending it would be spurious.
    fn next_sack_hole(&self) -> Option<u64> {
        let highest_sacked = *self.sacked.iter().next_back()?;
        (self.high_ack + 1..=self.recover.min(self.next_new.saturating_sub(1)))
            .take_while(|&seq| seq < highest_sacked)
            .find(|seq| !self.sacked.contains(seq) && !self.sack_retx_sent.contains(seq))
    }

    fn on_rto(&mut self, ctx: &mut AgentCtx<'_>) {
        if !self.outstanding() || self.done {
            return;
        }
        self.stats.timeouts += 1;
        self.est.on_timeout();
        self.cc.on_rto(&mut self.st, &self.cfg, ctx.now());
        self.in_fast_recovery = false;
        self.dup_acks = 0;
        self.timed = None;
        self.set_cwnd(1.0, ctx.now());
        self.sacked.clear(); // conservative: RFC 2018 reneging rule
        self.sack_retx_sent.clear();
        // Go-back-N: everything outstanding is queued for re-send.
        self.resend_from = Some(self.high_ack);
        self.send_window(ctx);
        self.arm_rto(ctx);
    }
}

impl Agent for TcpSender {
    fn start(&mut self, ctx: &mut AgentCtx<'_>) {
        self.record_cwnd(ctx.now());
        self.send_window(ctx);
        if self.outstanding() {
            self.arm_rto(ctx);
        }
    }

    fn on_packet(&mut self, packet: Packet, ctx: &mut AgentCtx<'_>) {
        if self.done {
            return;
        }
        let PacketKind::Ack { cum_seq } = packet.kind else {
            return; // not for us (a stray data/attack packet)
        };
        if self.cfg.ecn && packet.ecn_echo {
            self.on_ecn_echo(ctx);
        }
        if self.cfg.sack {
            for &(start, end) in packet.sack.ranges() {
                for seq in start..end.min(self.next_new) {
                    if seq >= self.high_ack {
                        self.sacked.insert(seq);
                    }
                }
            }
        }
        if cum_seq > self.high_ack {
            self.on_new_ack(cum_seq, self.cfg.ecn && packet.ecn_echo, ctx);
        } else if cum_seq == self.high_ack && self.outstanding() {
            self.on_dup_ack(ctx);
        }
        // cum_seq < high_ack: stale ACK, ignored.
    }

    fn on_timer(&mut self, token: u64, ctx: &mut AgentCtx<'_>) {
        if token >= Self::RESUME_TOKEN_BASE {
            if token == Self::RESUME_TOKEN_BASE + self.resume_gen && self.thinking {
                // Next request over the persistent connection: slow-start
                // restart after the idle period (RFC 2861).
                self.thinking = false;
                self.burst_end = self
                    .burst_end
                    .saturating_add(self.cfg.burst_segments.unwrap_or(u64::MAX));
                self.set_cwnd(self.cfg.initial_cwnd, ctx.now());
                self.send_window(ctx);
                if self.outstanding() {
                    self.arm_rto(ctx);
                }
            }
            return;
        }
        if token == self.rto_gen {
            self.on_rto(ctx);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn clone_box(&self) -> Option<Box<dyn Agent>> {
        Some(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdos_sim::agent::Effect;
    use pdos_sim::time::SimDuration;
    use pdos_sim::units::Bytes;

    fn cfg() -> TcpConfig {
        TcpConfig {
            record_cwnd: true,
            ..TcpConfig::ns2_newreno()
        }
    }

    fn sender() -> TcpSender {
        TcpSender::new(cfg(), FlowId::from_u32(1), NodeId::from_u32(9))
    }

    fn ack(cum: u64) -> Packet {
        Packet::new(
            FlowId::from_u32(1),
            NodeId::from_u32(9),
            NodeId::from_u32(0),
            Bytes::from_u64(40),
            PacketKind::Ack { cum_seq: cum },
        )
    }

    /// Drives one callback and returns the produced effects.
    fn drive<F: FnOnce(&mut TcpSender, &mut AgentCtx<'_>)>(
        s: &mut TcpSender,
        now: SimTime,
        f: F,
    ) -> Vec<Effect> {
        let mut fx = Vec::new();
        let mut ctx = AgentCtx::new(now, NodeId::from_u32(0), &mut fx);
        f(s, &mut ctx);
        fx
    }

    fn data_seqs(fx: &[Effect]) -> Vec<(u64, bool)> {
        fx.iter()
            .filter_map(|e| match e {
                Effect::Send(p) => match p.kind {
                    PacketKind::Data { seq, retx } => Some((seq, retx)),
                    _ => None,
                },
                _ => None,
            })
            .collect()
    }

    #[test]
    fn invariants_hold_on_a_driven_sender_and_flag_corruption() {
        let mut s = sender();
        drive(&mut s, SimTime::ZERO, |s, ctx| s.start(ctx));
        drive(&mut s, SimTime::from_millis(100), |s, ctx| {
            s.on_packet(ack(2), ctx)
        });
        assert!(
            s.check_invariants(SimTime::from_millis(100)).is_empty(),
            "healthy sender flagged: {:?}",
            s.check_invariants(SimTime::from_millis(100))
        );
        // Seed a fault past the clamp: cwnd below the one-segment floor.
        s.corrupt_cwnd_for_test(0.25);
        let violations = s.check_invariants(SimTime::from_millis(200));
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(
            violations[0].kind,
            pdos_sim::check::ViolationKind::TcpWindow
        );
        assert!(
            violations[0].entity.contains("tcp-sender"),
            "{violations:?}"
        );
        assert_eq!(violations[0].at, SimTime::from_millis(200));
        // Non-finite state is also caught.
        s.corrupt_cwnd_for_test(f64::NAN);
        assert_eq!(s.check_invariants(SimTime::ZERO).len(), 1);
    }

    #[test]
    fn start_sends_initial_window_and_arms_rto() {
        let mut s = sender();
        let fx = drive(&mut s, SimTime::ZERO, |s, ctx| s.start(ctx));
        assert_eq!(data_seqs(&fx), vec![(0, false), (1, false)]);
        assert!(fx
            .iter()
            .any(|e| matches!(e, Effect::TimerAt { token: 1, .. })));
    }

    #[test]
    fn slow_start_doubles_per_ack_round() {
        let mut s = sender();
        drive(&mut s, SimTime::ZERO, |s, ctx| s.start(ctx));
        // ACK both initial segments with one cumulative ACK: cwnd 2 -> 3.
        let fx = drive(&mut s, SimTime::from_millis(100), |s, ctx| {
            s.on_packet(ack(2), ctx)
        });
        assert_eq!(s.cwnd(), 3.0);
        // Window slides: usable = 2 + 3 = 5, already sent 2 -> 3 new.
        assert_eq!(data_seqs(&fx), vec![(2, false), (3, false), (4, false)]);
    }

    #[test]
    fn congestion_avoidance_grows_sublinearly() {
        let mut s = sender();
        drive(&mut s, SimTime::ZERO, |s, ctx| s.start(ctx));
        // Force CA by lowering ssthresh below cwnd.
        s.st.ssthresh = 1.0;
        drive(&mut s, SimTime::from_millis(100), |s, ctx| {
            s.on_packet(ack(2), ctx)
        });
        assert!(
            (s.cwnd() - 2.5).abs() < 1e-9,
            "2 + 1/2 = 2.5, got {}",
            s.cwnd()
        );
    }

    #[test]
    fn three_dup_acks_trigger_fast_retransmit() {
        let mut s = sender();
        drive(&mut s, SimTime::ZERO, |s, ctx| s.start(ctx));
        // Grow a bit: ack 2 segments.
        drive(&mut s, SimTime::from_millis(100), |s, ctx| {
            s.on_packet(ack(2), ctx)
        });
        let cwnd_before = s.cwnd(); // 3.0
                                    // Three duplicate ACKs at cum=2.
        for _ in 0..2 {
            let fx = drive(&mut s, SimTime::from_millis(110), |s, ctx| {
                s.on_packet(ack(2), ctx)
            });
            assert!(data_seqs(&fx).is_empty());
            assert!(!s.in_fast_recovery());
        }
        let fx = drive(&mut s, SimTime::from_millis(120), |s, ctx| {
            s.on_packet(ack(2), ctx)
        });
        assert!(s.in_fast_recovery());
        assert_eq!(s.stats().fast_recoveries, 1);
        // Lost segment (seq 2) retransmitted.
        assert!(data_seqs(&fx).contains(&(2, true)));
        assert_eq!(s.ssthresh(), (cwnd_before * 0.5).max(2.0));
        assert_eq!(s.cwnd(), s.ssthresh() + 3.0);
    }

    #[test]
    fn full_ack_exits_fast_recovery_with_deflated_window() {
        let mut s = sender();
        drive(&mut s, SimTime::ZERO, |s, ctx| s.start(ctx));
        drive(&mut s, SimTime::from_millis(100), |s, ctx| {
            s.on_packet(ack(2), ctx)
        }); // cwnd 3, sent up to seq 4
        for _ in 0..3 {
            drive(&mut s, SimTime::from_millis(110), |s, ctx| {
                s.on_packet(ack(2), ctx)
            });
        }
        assert!(s.in_fast_recovery());
        let ssthresh = s.ssthresh();
        // Cumulative ACK covering everything sent (recover = 4).
        drive(&mut s, SimTime::from_millis(200), |s, ctx| {
            s.on_packet(ack(5), ctx)
        });
        assert!(!s.in_fast_recovery());
        assert_eq!(s.cwnd(), ssthresh.max(1.0));
    }

    #[test]
    fn newreno_partial_ack_retransmits_next_hole() {
        let mut s = sender();
        drive(&mut s, SimTime::ZERO, |s, ctx| s.start(ctx));
        // Build a bigger window: ack up to 2 then 4.
        drive(&mut s, SimTime::from_millis(50), |s, ctx| {
            s.on_packet(ack(2), ctx)
        });
        drive(&mut s, SimTime::from_millis(100), |s, ctx| {
            s.on_packet(ack(4), ctx)
        }); // cwnd 4, sent up to seq 7
        for _ in 0..3 {
            drive(&mut s, SimTime::from_millis(110), |s, ctx| {
                s.on_packet(ack(4), ctx)
            });
        }
        assert!(s.in_fast_recovery());
        assert_eq!(s.recover, 7);
        // Partial ACK to 6 (recover is 7): stays in FR, retransmits seq 6.
        let fx = drive(&mut s, SimTime::from_millis(200), |s, ctx| {
            s.on_packet(ack(6), ctx)
        });
        assert!(s.in_fast_recovery());
        assert!(data_seqs(&fx).contains(&(6, true)));
        // Full ACK past recover ends it.
        drive(&mut s, SimTime::from_millis(300), |s, ctx| {
            s.on_packet(ack(8), ctx)
        });
        assert!(!s.in_fast_recovery());
    }

    #[test]
    fn reno_exits_recovery_on_any_new_ack() {
        let mut c = cfg();
        c.variant = CcVariant::Reno;
        let mut s = TcpSender::new(c, FlowId::from_u32(1), NodeId::from_u32(9));
        drive(&mut s, SimTime::ZERO, |s, ctx| s.start(ctx));
        drive(&mut s, SimTime::from_millis(50), |s, ctx| {
            s.on_packet(ack(2), ctx)
        });
        drive(&mut s, SimTime::from_millis(100), |s, ctx| {
            s.on_packet(ack(4), ctx)
        });
        for _ in 0..3 {
            drive(&mut s, SimTime::from_millis(110), |s, ctx| {
                s.on_packet(ack(4), ctx)
            });
        }
        assert!(s.in_fast_recovery());
        drive(&mut s, SimTime::from_millis(200), |s, ctx| {
            s.on_packet(ack(6), ctx)
        }); // partial, but Reno exits
        assert!(!s.in_fast_recovery());
    }

    #[test]
    fn tahoe_collapses_to_one_segment() {
        let mut c = cfg();
        c.variant = CcVariant::Tahoe;
        let mut s = TcpSender::new(c, FlowId::from_u32(1), NodeId::from_u32(9));
        drive(&mut s, SimTime::ZERO, |s, ctx| s.start(ctx));
        drive(&mut s, SimTime::from_millis(50), |s, ctx| {
            s.on_packet(ack(2), ctx)
        });
        for _ in 0..3 {
            drive(&mut s, SimTime::from_millis(60), |s, ctx| {
                s.on_packet(ack(2), ctx)
            });
        }
        assert!(!s.in_fast_recovery());
        assert_eq!(s.cwnd(), 1.0);
    }

    #[test]
    fn rto_collapses_window_and_resends_outstanding() {
        let mut s = sender();
        drive(&mut s, SimTime::ZERO, |s, ctx| s.start(ctx));
        drive(&mut s, SimTime::from_millis(50), |s, ctx| {
            s.on_packet(ack(2), ctx)
        }); // outstanding: seqs 2,3,4
        let gen = s.rto_gen;
        let fx = drive(&mut s, SimTime::from_secs(2), |s, ctx| s.on_timer(gen, ctx));
        assert_eq!(s.stats().timeouts, 1);
        assert_eq!(s.cwnd(), 1.0);
        // cwnd 1 allows exactly one re-send: the first unacked (seq 2).
        assert_eq!(data_seqs(&fx), vec![(2, true)]);
        // The rest follows as ACKs return.
        let fx = drive(&mut s, SimTime::from_secs(3), |s, ctx| {
            s.on_packet(ack(3), ctx)
        });
        let seqs = data_seqs(&fx);
        assert!(seqs.contains(&(3, true)), "go-back-N continues: {seqs:?}");
    }

    #[test]
    fn stale_timer_token_ignored() {
        let mut s = sender();
        drive(&mut s, SimTime::ZERO, |s, ctx| s.start(ctx));
        let stale = s.rto_gen - 1;
        drive(&mut s, SimTime::from_secs(2), |s, ctx| {
            s.on_timer(stale, ctx)
        });
        assert_eq!(s.stats().timeouts, 0);
    }

    #[test]
    fn limited_transfer_completes() {
        let mut c = cfg();
        c.limit_segments = Some(3);
        let mut s = TcpSender::new(c, FlowId::from_u32(1), NodeId::from_u32(9));
        let fx = drive(&mut s, SimTime::ZERO, |s, ctx| s.start(ctx));
        assert_eq!(data_seqs(&fx).len(), 2);
        drive(&mut s, SimTime::from_millis(50), |s, ctx| {
            s.on_packet(ack(2), ctx)
        });
        assert!(!s.is_done());
        drive(&mut s, SimTime::from_millis(100), |s, ctx| {
            s.on_packet(ack(3), ctx)
        });
        assert!(s.is_done());
        assert_eq!(s.stats().segments_acked, 3);
    }

    #[test]
    fn rtt_sample_taken_once_per_window() {
        let mut s = sender();
        drive(&mut s, SimTime::ZERO, |s, ctx| s.start(ctx));
        drive(&mut s, SimTime::from_millis(80), |s, ctx| {
            s.on_packet(ack(2), ctx)
        });
        assert_eq!(s.stats().rtt_samples, 1);
        assert_eq!(
            s.est.srtt(),
            Some(SimDuration::from_millis(80)),
            "sample equals send->ack delay"
        );
    }

    #[test]
    fn cwnd_trace_records_changes() {
        let mut s = sender();
        drive(&mut s, SimTime::ZERO, |s, ctx| s.start(ctx));
        drive(&mut s, SimTime::from_millis(50), |s, ctx| {
            s.on_packet(ack(2), ctx)
        });
        assert!(s.cwnd_trace().len() >= 2);
        assert_eq!(s.cwnd_trace()[0].cwnd, 2.0);
    }

    #[test]
    fn dup_acks_inflate_window_during_recovery() {
        let mut s = sender();
        drive(&mut s, SimTime::ZERO, |s, ctx| s.start(ctx));
        drive(&mut s, SimTime::from_millis(50), |s, ctx| {
            s.on_packet(ack(2), ctx)
        });
        for _ in 0..3 {
            drive(&mut s, SimTime::from_millis(60), |s, ctx| {
                s.on_packet(ack(2), ctx)
            });
        }
        let inflated = s.cwnd();
        drive(&mut s, SimTime::from_millis(70), |s, ctx| {
            s.on_packet(ack(2), ctx)
        });
        assert_eq!(s.cwnd(), inflated + 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid TCP configuration")]
    fn invalid_config_rejected() {
        let mut c = cfg();
        c.delayed_ack = 0;
        TcpSender::new(c, FlowId::from_u32(0), NodeId::from_u32(0));
    }

    #[test]
    fn ecn_echo_halves_window_once_per_round() {
        let mut c = cfg();
        c.ecn = true;
        let mut s = TcpSender::new(c, FlowId::from_u32(1), NodeId::from_u32(9));
        drive(&mut s, SimTime::ZERO, |s, ctx| s.start(ctx));
        drive(&mut s, SimTime::from_millis(50), |s, ctx| {
            s.on_packet(ack(2), ctx)
        }); // cwnd 3
        let before = s.cwnd();
        let echo_ack = ack(3).with_ecn_echo(true);
        drive(&mut s, SimTime::from_millis(60), |s, ctx| {
            s.on_packet(echo_ack, ctx)
        });
        assert_eq!(s.stats().ecn_reactions, 1);
        assert!(s.cwnd() <= before, "echo must not grow the window");
        assert!(
            (s.ssthresh() - (before * 0.5).max(2.0)).abs() < 1.01,
            "ssthresh near b*cwnd: {}",
            s.ssthresh()
        );
        // A second echo within the same window of data is ignored.
        let echo_again = ack(4).with_ecn_echo(true);
        drive(&mut s, SimTime::from_millis(70), |s, ctx| {
            s.on_packet(echo_again, ctx)
        });
        assert_eq!(s.stats().ecn_reactions, 1);
    }

    #[test]
    fn ecn_disabled_ignores_echo() {
        let mut s = sender();
        drive(&mut s, SimTime::ZERO, |s, ctx| s.start(ctx));
        let echo_ack = ack(2).with_ecn_echo(true);
        drive(&mut s, SimTime::from_millis(50), |s, ctx| {
            s.on_packet(echo_ack, ctx)
        });
        assert_eq!(s.stats().ecn_reactions, 0);
        assert_eq!(s.cwnd(), 3.0, "normal growth, no reaction");
    }

    #[test]
    fn ecn_capable_segments_marked_capable() {
        let mut c = cfg();
        c.ecn = true;
        let mut s = TcpSender::new(c, FlowId::from_u32(1), NodeId::from_u32(9));
        let fx = drive(&mut s, SimTime::ZERO, |s, ctx| s.start(ctx));
        for e in &fx {
            if let Effect::Send(p) = e {
                assert!(p.ecn.is_markable());
            }
        }
    }

    #[test]
    fn rto_randomization_stretches_the_timer_deterministically() {
        let timer_delay = |spread: f64, seed: u64| -> SimDuration {
            let mut c = cfg();
            c.rto_rand_spread = spread;
            c.rto_rand_seed = seed;
            let mut s = TcpSender::new(c, FlowId::from_u32(1), NodeId::from_u32(9));
            let fx = drive(&mut s, SimTime::ZERO, |s, ctx| s.start(ctx));
            fx.iter()
                .find_map(|e| match e {
                    Effect::TimerAt { at, .. } => Some(*at - SimTime::ZERO),
                    _ => None,
                })
                .expect("RTO armed at start")
        };
        let plain = timer_delay(0.0, 1);
        let stretched = timer_delay(1.0, 1);
        assert!(stretched >= plain, "{stretched} >= {plain}");
        assert!(
            stretched <= plain.mul_f64(2.0),
            "stretch bounded by 1 + spread"
        );
        // Deterministic per seed.
        assert_eq!(timer_delay(1.0, 7), timer_delay(1.0, 7));
    }

    #[test]
    fn limited_transmit_releases_segments_on_early_dupacks() {
        let mut c = cfg();
        c.limited_transmit = true;
        let mut s = TcpSender::new(c, FlowId::from_u32(1), NodeId::from_u32(9));
        drive(&mut s, SimTime::ZERO, |s, ctx| s.start(ctx)); // seqs 0,1 out
                                                             // First two dup-ACKs each release one new segment.
        let fx = drive(&mut s, SimTime::from_millis(50), |s, ctx| {
            s.on_packet(ack(0), ctx)
        });
        assert_eq!(data_seqs(&fx), vec![(2, false)]);
        let fx = drive(&mut s, SimTime::from_millis(60), |s, ctx| {
            s.on_packet(ack(0), ctx)
        });
        assert_eq!(data_seqs(&fx), vec![(3, false)]);
        // Third dup-ACK: fast retransmit of the hole, no extra new data
        // beyond the recovery machinery.
        let fx = drive(&mut s, SimTime::from_millis(70), |s, ctx| {
            s.on_packet(ack(0), ctx)
        });
        assert!(data_seqs(&fx).contains(&(0, true)));
        assert!(s.in_fast_recovery());
    }

    #[test]
    fn limited_transmit_off_by_default() {
        let mut s = sender();
        drive(&mut s, SimTime::ZERO, |s, ctx| s.start(ctx));
        let fx = drive(&mut s, SimTime::from_millis(50), |s, ctx| {
            s.on_packet(ack(0), ctx)
        });
        assert!(data_seqs(&fx).is_empty(), "no RFC 3042 without the flag");
    }

    #[test]
    fn mice_mode_bursts_and_thinks() {
        let mut c = cfg();
        c.burst_segments = Some(2);
        c.think_time = SimDuration::from_millis(300);
        let mut s = TcpSender::new(c, FlowId::from_u32(1), NodeId::from_u32(9));
        let fx = drive(&mut s, SimTime::ZERO, |s, ctx| s.start(ctx));
        // Initial window is 2 but the burst also caps at 2 segments.
        assert_eq!(data_seqs(&fx), vec![(0, false), (1, false)]);

        // Acking the burst starts the think timer, no new data.
        let fx = drive(&mut s, SimTime::from_millis(50), |s, ctx| {
            s.on_packet(ack(2), ctx)
        });
        assert!(data_seqs(&fx).is_empty(), "thinking: {fx:?}");
        assert_eq!(s.stats().bursts_completed, 1);
        let resume = fx
            .iter()
            .find_map(|e| match e {
                Effect::TimerAt { at, token } if *token >= TcpSender::RESUME_TOKEN_BASE => {
                    Some((*at, *token))
                }
                _ => None,
            })
            .expect("resume timer armed");
        assert_eq!(resume.0, SimTime::from_millis(350));

        // Resume: next burst of 2 begins, slow-start restarted.
        let fx = drive(&mut s, resume.0, |s, ctx| s.on_timer(resume.1, ctx));
        assert_eq!(data_seqs(&fx), vec![(2, false), (3, false)]);
        assert_eq!(s.cwnd(), 2.0, "cwnd restarts at initial after idle");
    }

    #[test]
    fn stale_resume_timer_ignored() {
        let mut c = cfg();
        c.burst_segments = Some(2);
        let mut s = TcpSender::new(c, FlowId::from_u32(1), NodeId::from_u32(9));
        drive(&mut s, SimTime::ZERO, |s, ctx| s.start(ctx));
        let fx = drive(&mut s, SimTime::from_millis(700), |s, ctx| {
            s.on_timer(TcpSender::RESUME_TOKEN_BASE + 99, ctx)
        });
        assert!(fx.is_empty());
    }

    #[test]
    fn sack_retransmits_exactly_the_holes() {
        let mut c = cfg();
        c.sack = true;
        c.initial_cwnd = 8.0;
        let mut s = TcpSender::new(c, FlowId::from_u32(1), NodeId::from_u32(9));
        drive(&mut s, SimTime::ZERO, |s, ctx| s.start(ctx)); // seqs 0..8 out
                                                             // Losses at 2 and 5; receiver has 0,1,3,4,6,7 and dup-acks cum=2
                                                             // with SACK blocks for [3,5) and [6,8).
        let sack = pdos_sim::packet::SackBlocks::from_ranges(&[(3, 5), (6, 8)]);
        for i in 0..5u64 {
            let p = ack(2).with_sack(sack);
            let fx = drive(&mut s, SimTime::from_millis(50 + i), |s, ctx| {
                s.on_packet(p, ctx)
            });
            let seqs = data_seqs(&fx);
            match i {
                // The first cum=2 is a *new* ACK: the window slides and
                // new data goes out.
                0 => assert!(seqs.iter().all(|&(_, retx)| !retx), "{seqs:?}"),
                // Two duplicates accumulate silently...
                1 | 2 => assert!(seqs.is_empty(), "{seqs:?}"),
                // ...the third triggers fast retransmit of the first hole,
                3 => assert!(
                    seqs.contains(&(2, true)),
                    "fast retransmit of first hole: {seqs:?}"
                ),
                // and the next dup-ACK's inflation slot goes to the second
                // hole the scoreboard exposes — not to new data.
                _ => assert_eq!(seqs, vec![(5, true)], "SACK targets the second hole"),
            }
        }
        // Both pre-loss holes (2 and 5) are now covered; 8..11 were sent
        // after the loss and have nothing SACKed above them, so they are
        // not (yet) holes — no spurious retransmissions.
        assert!(s.in_fast_recovery());
        assert!(s.next_sack_hole().is_none());
    }

    #[test]
    fn timeout_resend_still_covers_everything_after_reneging_guard() {
        let mut c = cfg();
        c.sack = true;
        let mut s = TcpSender::new(c, FlowId::from_u32(1), NodeId::from_u32(9));
        drive(&mut s, SimTime::ZERO, |s, ctx| s.start(ctx));
        // SACK info arrives, then an RTO fires: the scoreboard is cleared
        // (anti-reneging) and go-back-N covers every outstanding segment.
        let sack = pdos_sim::packet::SackBlocks::from_ranges(&[(1, 2)]);
        drive(&mut s, SimTime::from_millis(10), |s, ctx| {
            s.on_packet(ack(0).with_sack(sack), ctx)
        });
        assert!(!s.sacked.is_empty());
        let gen = s.rto_gen;
        let fx = drive(&mut s, SimTime::from_secs(2), |s, ctx| s.on_timer(gen, ctx));
        assert!(s.sacked.is_empty());
        assert!(data_seqs(&fx).contains(&(0, true)));
    }

    proptest::proptest! {
        /// State-machine fuzz: arbitrary interleavings of ACKs (any
        /// cumulative value), timer fires (any token) and time never panic
        /// and never violate the core invariants: cwnd in [1, max], the
        /// cumulative ACK point never regresses, and sequence numbers
        /// never go backwards.
        #[test]
        fn prop_sender_invariants_under_fuzz(
            ops in proptest::collection::vec((0u8..3, 0u64..64), 1..200)
        ) {
            let mut s = sender();
            let mut fx = Vec::new();
            {
                let mut ctx = AgentCtx::new(SimTime::ZERO, NodeId::from_u32(0), &mut fx);
                s.start(&mut ctx);
            }
            let mut now_ms = 0u64;
            let mut last_high_ack = 0u64;
            for (kind, arg) in ops {
                now_ms += 1 + arg % 40;
                let now = SimTime::from_millis(now_ms);
                let mut fx = Vec::new();
                let mut ctx = AgentCtx::new(now, NodeId::from_u32(0), &mut fx);
                match kind {
                    0 => s.on_packet(ack(arg), &mut ctx),
                    1 => s.on_timer(arg, &mut ctx),
                    _ => {
                        // An ACK with the ECN echo bit, valid or stale.
                        let p = ack(arg).with_ecn_echo(true);
                        s.on_packet(p, &mut ctx);
                    }
                }
                proptest::prop_assert!(s.cwnd() >= 1.0);
                proptest::prop_assert!(s.cwnd() <= s.cfg.max_cwnd);
                proptest::prop_assert!(s.high_ack >= last_high_ack);
                proptest::prop_assert!(s.next_new >= s.high_ack);
                last_high_ack = s.high_ack;
            }
        }
    }

    #[test]
    fn aimd_b_controls_decrease() {
        let mut c = cfg();
        c.aimd = crate::config::AimdParams::new(1.0, 0.875).unwrap();
        let mut s = TcpSender::new(c, FlowId::from_u32(1), NodeId::from_u32(9));
        drive(&mut s, SimTime::ZERO, |s, ctx| s.start(ctx));
        // Grow to cwnd 8.
        let mut cum = 0;
        for _ in 0..6 {
            cum += 1;
            drive(&mut s, SimTime::from_millis(50), |s, ctx| {
                s.on_packet(ack(cum), ctx)
            });
        }
        let w = s.cwnd();
        for _ in 0..3 {
            drive(&mut s, SimTime::from_millis(60), |s, ctx| {
                s.on_packet(ack(cum), ctx)
            });
        }
        assert!((s.ssthresh() - (w * 0.875).max(2.0)).abs() < 1e-9);
    }
}
