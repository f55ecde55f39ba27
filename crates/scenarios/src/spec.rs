//! Declarative experiment scenarios: the ns-2 dumbbell of Fig. 5 and the
//! Dummynet test-bed of Fig. 11, as data.

use crate::bench::{FlowHandle, Testbench};
use crate::shape::{ample, attack_hosts};
use pdos_analysis::params::{spread_rtts, VictimSet};
use pdos_sim::packet::FlowId;
use pdos_sim::queue::{AccConfig, QueueSpec, RedConfig};
use pdos_sim::time::{SimDuration, SimTime};
use pdos_sim::topology::{BuildError, TopologyBuilder, MAX_NODES};
use pdos_sim::units::{BitsPerSec, Bytes};
use pdos_tcp::config::TcpConfig;

/// Which discipline guards the bottleneck.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BottleneckQueue {
    /// RED with the paper's threshold placement (20% / 80% of the buffer,
    /// `w_q = 0.002`, `max_p = 0.1`, gentle).
    Red,
    /// Plain tail-drop (the §5 ablation).
    DropTail,
    /// RED wrapped with aggregate-based congestion control (Mahajan et
    /// al., the paper's [19]) — the defense ablation.
    AccRed,
}

/// A dumbbell experiment description.
///
/// Both of the paper's topologies are dumbbells; they differ only in
/// constants, so one spec type covers both (see
/// [`ScenarioSpec::ns2_dumbbell`] and [`ScenarioSpec::testbed`]).
#[derive(Clone)]
pub struct ScenarioSpec {
    /// Number of victim TCP flows.
    pub n_flows: usize,
    /// Bottleneck capacity (the paper's `R_bottle`).
    pub bottleneck: BitsPerSec,
    /// One-way propagation delay of the bottleneck link.
    pub bottleneck_delay: SimDuration,
    /// Access-link capacity for senders and receivers.
    pub access: BitsPerSec,
    /// Access-link capacity for the attacker (fast, so pulses keep their
    /// shape; see DESIGN.md deviations).
    pub attacker_access: BitsPerSec,
    /// Smallest victim RTT (two-way propagation), seconds.
    pub rtt_lo: f64,
    /// Largest victim RTT, seconds.
    pub rtt_hi: f64,
    /// Bottleneck buffer size in packets.
    pub buffer_packets: usize,
    /// Bottleneck queue discipline.
    pub queue: BottleneckQueue,
    /// TCP endpoint configuration.
    pub tcp: TcpConfig,
    /// Attack packet wire size.
    pub attack_packet: Bytes,
    /// RNG seed for queue disciplines.
    pub seed: u64,
    /// Stagger between consecutive flow start times.
    pub start_stagger: SimDuration,
    /// Ambient random loss probability on the forward bottleneck
    /// (Dummynet's `plr`): models a lossy path under the attack.
    pub bottleneck_loss: f64,
    /// Number of victim flows (odd indices first) converted into "mice":
    /// persistent connections sending [`ScenarioSpec::mice_burst`]-segment
    /// requests with think times, instead of greedy "elephants".
    pub mice_flows: usize,
    /// Segments per mouse request burst.
    pub mice_burst: u64,
    /// Mouse think time between bursts.
    pub mice_think: SimDuration,
    /// Flash-crowd flows: request/response mice (30-segment bursts,
    /// 400 ms think time — the shapes of `tests/flash_crowd.rs`) that
    /// all arrive within a 29 ms stagger of [`ScenarioSpec::crowd_at`],
    /// each on its own access pair behind the bottleneck. Benign
    /// traffic whose onset looks as sharp as an attack; `0` (the
    /// default) wires no crowd.
    pub crowd_flows: usize,
    /// When the flash crowd arrives (ignored while
    /// [`ScenarioSpec::crowd_flows`] is zero).
    pub crowd_at: SimDuration,
}

/// Hand-rolled so hashes stay stable: `{:?}` of the scenario feeds both
/// the runner's `stable_hash` (derived physics seeds) and the
/// warm-start prefix hash, so the pre-flash-crowd fields print exactly
/// as the old `derive(Debug)` did, and the crowd fields enter the
/// output only when a crowd is actually configured. A crowd-free spec
/// therefore keeps its legacy hashes, seeds and golden digests.
impl std::fmt::Debug for ScenarioSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("ScenarioSpec");
        d.field("n_flows", &self.n_flows)
            .field("bottleneck", &self.bottleneck)
            .field("bottleneck_delay", &self.bottleneck_delay)
            .field("access", &self.access)
            .field("attacker_access", &self.attacker_access)
            .field("rtt_lo", &self.rtt_lo)
            .field("rtt_hi", &self.rtt_hi)
            .field("buffer_packets", &self.buffer_packets)
            .field("queue", &self.queue)
            .field("tcp", &self.tcp)
            .field("attack_packet", &self.attack_packet)
            .field("seed", &self.seed)
            .field("start_stagger", &self.start_stagger)
            .field("bottleneck_loss", &self.bottleneck_loss)
            .field("mice_flows", &self.mice_flows)
            .field("mice_burst", &self.mice_burst)
            .field("mice_think", &self.mice_think);
        if self.crowd_flows > 0 {
            d.field("crowd_flows", &self.crowd_flows)
                .field("crowd_at", &self.crowd_at);
        }
        d.finish()
    }
}

impl ScenarioSpec {
    /// The ns-2 simulation setting of §4.1 (Fig. 5): `n` NewReno flows,
    /// 15 Mbps RED bottleneck, 50 Mbps access links, RTTs 20–460 ms,
    /// ns-2's 1 s minimum RTO.
    pub fn ns2_dumbbell(n_flows: usize) -> Self {
        ScenarioSpec {
            n_flows,
            bottleneck: BitsPerSec::from_mbps(15.0),
            bottleneck_delay: SimDuration::from_millis(5),
            access: BitsPerSec::from_mbps(50.0),
            attacker_access: BitsPerSec::from_mbps(1000.0),
            rtt_lo: 0.020,
            rtt_hi: 0.460,
            buffer_packets: 60,
            queue: BottleneckQueue::Red,
            tcp: TcpConfig::ns2_newreno(),
            attack_packet: Bytes::from_u64(1000),
            seed: 1,
            start_stagger: SimDuration::from_millis(97),
            bottleneck_loss: 0.0,
            mice_flows: 0,
            mice_burst: 20,
            mice_think: SimDuration::from_millis(500),
            crowd_flows: 0,
            crowd_at: SimDuration::from_secs(12),
        }
    }

    /// The test-bed setting of §4.2 (Fig. 11): 10 flows through a 10 Mbps
    /// Dummynet bottleneck with 150 ms one-way delay, buffer sized by the
    /// rule of thumb `B = RTT × R_bottle`, RED (20%/80% thresholds,
    /// gentle), Linux's 200 ms minimum RTO.
    pub fn testbed() -> Self {
        // B = 0.3 s x 10 Mbps = 375 kB = 375 1000-byte packets.
        ScenarioSpec {
            n_flows: 10,
            bottleneck: BitsPerSec::from_mbps(10.0),
            bottleneck_delay: SimDuration::from_millis(150),
            access: BitsPerSec::from_mbps(100.0),
            attacker_access: BitsPerSec::from_mbps(1000.0),
            rtt_lo: 0.302,
            rtt_hi: 0.310,
            buffer_packets: 375,
            queue: BottleneckQueue::Red,
            tcp: TcpConfig::linux_testbed(),
            attack_packet: Bytes::from_u64(1000),
            seed: 2,
            start_stagger: SimDuration::from_millis(113),
            bottleneck_loss: 0.0,
            mice_flows: 0,
            mice_burst: 20,
            mice_think: SimDuration::from_millis(500),
            crowd_flows: 0,
            crowd_at: SimDuration::from_secs(12),
        }
    }

    /// Returns this scenario with the victims running the given
    /// congestion-control algorithm (see `pdos_tcp::cc`). The default,
    /// `aimd`, is hash-neutral: a spec that never calls this keeps its
    /// legacy stable hash and derived seeds.
    pub fn with_cc(mut self, cc: pdos_tcp::cc::CcSpec) -> Self {
        self.tcp.cc = cc;
        self
    }

    /// The victim RTT list this spec produces.
    pub fn rtts(&self) -> Vec<f64> {
        spread_rtts(self.n_flows, self.rtt_lo, self.rtt_hi)
    }

    /// The analytical victim population corresponding to this scenario.
    ///
    /// The paper's model (Eq. 5, Prop. 3/4) is parameterized by
    /// `AIMD(a, b)` only, so this always reads [`TcpConfig::aimd`] —
    /// for non-AIMD [`TcpConfig::cc`] choices the analytic curve is a
    /// *reference*, not a prediction, and the oracle reports rather than
    /// enforces its bands.
    pub fn victims(&self) -> VictimSet {
        VictimSet::new(
            self.tcp.aimd.a,
            self.tcp.aimd.b,
            f64::from(self.tcp.delayed_ack),
            self.tcp.mss.as_u64() as f64,
            self.bottleneck.as_bps(),
            self.rtts(),
        )
        .expect("scenario constants are valid model parameters")
    }

    fn bottleneck_queue_spec(&self) -> QueueSpec {
        let mut red = RedConfig::paper_testbed(self.buffer_packets);
        red.mean_packet_size = self.tcp.segment_wire_size();
        // When the endpoints negotiate ECN, the bottleneck marks.
        red.ecn = self.tcp.ecn;
        match self.queue {
            BottleneckQueue::Red => QueueSpec::Red(red),
            BottleneckQueue::DropTail => QueueSpec::DropTail {
                capacity: self.buffer_packets,
            },
            BottleneckQueue::AccRed => QueueSpec::Acc(AccConfig::default_for(red)),
        }
    }

    /// Builds the wired test bench: topology, victim flows, attacker and
    /// attack-sink hosts.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if the topology is inconsistent (cannot
    /// happen for the presets; possible with hand-rolled specs) or has
    /// more than [`MAX_NODES`] nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n_flows` is zero or the RTT range is too small to leave
    /// positive access delays.
    pub fn build(&self) -> Result<Testbench, BuildError> {
        assert!(self.n_flows > 0, "need at least one victim flow");
        // Two routers and a host pair per victim, crowd flow and attack.
        let pairs = self.n_flows.saturating_add(self.crowd_flows);
        let nodes = pairs.saturating_mul(2).saturating_add(4);
        if nodes > MAX_NODES {
            return Err(BuildError::TooManyNodes { nodes });
        }
        let mut topo = TopologyBuilder::with_seed(self.seed);

        let router_s = topo.add_router("S");
        let router_r = topo.add_router("R");

        // Bottleneck: the discipline under test forward, ample reverse
        // (the attack and the data both flow forward; only ACKs return).
        let (rate, delay) = (self.bottleneck, self.bottleneck_delay);
        let queue = self.bottleneck_queue_spec();
        let bottleneck = topo.add_link(router_s, router_r, rate, delay, queue);
        if self.bottleneck_loss > 0.0 {
            topo.set_impairments(
                bottleneck,
                pdos_sim::link::Impairments {
                    loss_prob: self.bottleneck_loss,
                    jitter: SimDuration::ZERO,
                },
            );
        }
        topo.add_link(router_r, router_s, rate, delay, ample());

        // Victim endpoints. RTT_i = 2·(d_src_i + d_bottle + d_dst).
        let d_dst = SimDuration::from_millis(1);
        let rtts = self.rtts();
        let mut endpoints = Vec::with_capacity(self.n_flows);
        for (i, &rtt) in rtts.iter().enumerate() {
            let d_src_s = rtt / 2.0 - self.bottleneck_delay.as_secs_f64() - d_dst.as_secs_f64();
            assert!(
                d_src_s > 0.0,
                "RTT {rtt}s too small for bottleneck delay {}",
                self.bottleneck_delay
            );
            let src = topo.add_host(format!("sender{i}"));
            let dst = topo.add_host(format!("receiver{i}"));
            topo.add_duplex_link(
                src,
                router_s,
                self.access,
                SimDuration::from_secs_f64(d_src_s),
                ample(),
            );
            topo.add_duplex_link(dst, router_r, self.access, d_dst, ample());
            endpoints.push((src, dst, rtt));
        }

        // Flash-crowd endpoints: each mouse gets its own access pair
        // (the `tests/flash_crowd.rs` shape), so the crowd's arrival —
        // not queueing on a shared access link — is what perturbs the
        // bottleneck.
        let mut crowd_endpoints = Vec::with_capacity(self.crowd_flows);
        for j in 0..self.crowd_flows {
            let src = topo.add_host(format!("crowd-src{j}"));
            let dst = topo.add_host(format!("crowd-dst{j}"));
            let d_src = SimDuration::from_millis(4 + (j as u64 % 7) * 3);
            topo.add_duplex_link(src, router_s, self.access, d_src, ample());
            topo.add_duplex_link(dst, router_r, self.access, d_dst, ample());
            crowd_endpoints.push((src, dst, d_src));
        }

        // Attacker on the sender side, attack sink behind the bottleneck.
        let (attacker, victim) = attack_hosts(&mut topo, router_s, router_r, self.attacker_access);

        let mut sim = topo.build()?;

        let mut flows = Vec::with_capacity(self.n_flows);
        let mut mice_left = self.mice_flows.min(self.n_flows);
        for (i, &(src, dst, rtt)) in endpoints.iter().enumerate() {
            let flow = FlowId::from_u32(i as u32);
            let start = SimTime::ZERO + self.start_stagger.saturating_mul(i as u64);
            // Odd-indexed flows become mice first (spreading them across
            // the RTT range), then remaining even indices if needed.
            let mut cfg = self.tcp.clone();
            let make_mouse = mice_left > 0 && (i % 2 == 1 || self.n_flows - i <= mice_left);
            if make_mouse {
                cfg.burst_segments = Some(self.mice_burst);
                cfg.think_time = self.mice_think;
                mice_left -= 1;
            }
            let (sender, sink) = pdos_tcp::connect(&mut sim, src, dst, flow, cfg, start);
            flows.push(FlowHandle {
                flow,
                sender,
                sink,
                base_rtt: rtt,
            });
        }

        // The flash crowd: persistent request/response mice (30-segment
        // bursts, 400 ms think time) all arriving within a 29 ms stagger
        // of `crowd_at`. They stay out of `flows`, so the gain protocol
        // keeps measuring the victims only; `Testbench::crowd` carries
        // their handles for detector studies.
        let mut crowd = Vec::with_capacity(crowd_endpoints.len());
        for (j, &(src, dst, d_src)) in crowd_endpoints.iter().enumerate() {
            let flow = FlowId::from_u32((self.n_flows + j) as u32);
            let mut cfg = self.tcp.clone();
            cfg.burst_segments = Some(30);
            cfg.think_time = SimDuration::from_millis(400);
            let start = SimTime::ZERO
                + self.crowd_at
                + SimDuration::from_millis(29).saturating_mul(j as u64);
            let (tx, rx) = pdos_tcp::connect(&mut sim, src, dst, flow, cfg, start);
            crowd.push(FlowHandle {
                flow,
                sender: tx,
                sink: rx,
                base_rtt: 2.0
                    * (d_src.as_secs_f64()
                        + self.bottleneck_delay.as_secs_f64()
                        + d_dst.as_secs_f64()),
            });
        }

        Ok(Testbench {
            sim,
            flows,
            crowd,
            attacker_node: attacker,
            attack_target: victim,
            bottleneck,
            r_bottle: self.bottleneck,
            victims: self.victims(),
            tcp: self.tcp.clone(),
            attack_packet: self.attack_packet,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdos_sim::time::SimTime;
    use pdos_tcp::sender::TcpSender;
    use pdos_tcp::sink::TcpSink;

    #[test]
    fn ns2_spec_matches_paper_constants() {
        let spec = ScenarioSpec::ns2_dumbbell(15);
        assert_eq!(spec.bottleneck.as_mbps(), 15.0);
        assert_eq!(spec.rtts().len(), 15);
        assert!((spec.rtts()[0] - 0.020).abs() < 1e-12);
        assert!((spec.rtts()[14] - 0.460).abs() < 1e-12);
        assert_eq!(spec.tcp.min_rto, SimDuration::from_secs(1));
    }

    #[test]
    fn testbed_spec_matches_paper_constants() {
        let spec = ScenarioSpec::testbed();
        assert_eq!(spec.n_flows, 10);
        assert_eq!(spec.bottleneck.as_mbps(), 10.0);
        assert_eq!(spec.bottleneck_delay, SimDuration::from_millis(150));
        assert_eq!(spec.buffer_packets, 375);
        assert_eq!(spec.tcp.min_rto, SimDuration::from_millis(200));
    }

    #[test]
    fn build_produces_expected_shape() {
        let bench = ScenarioSpec::ns2_dumbbell(5).build().unwrap();
        // 2 routers + 5 senders + 5 receivers + attacker + attack sink.
        assert_eq!(bench.sim.nodes().len(), 14);
        assert_eq!(bench.flows.len(), 5);
        assert_eq!(bench.victims.n_flows(), 5);
        // Bottleneck is the first link built and runs RED.
        assert_eq!(bench.sim.link(bench.bottleneck).queue().name(), "red");
    }

    #[test]
    fn droptail_variant_builds() {
        let mut spec = ScenarioSpec::ns2_dumbbell(3);
        spec.queue = BottleneckQueue::DropTail;
        let bench = spec.build().unwrap();
        assert_eq!(bench.sim.link(bench.bottleneck).queue().name(), "droptail");
    }

    #[test]
    fn baseline_tcp_fills_the_bottleneck() {
        // A short run with no attack: aggregate goodput should approach
        // the bottleneck capacity (Lemma 1's premise).
        let mut bench = ScenarioSpec::ns2_dumbbell(8).build().unwrap();
        bench.run_until(SimTime::from_secs(20));
        let bytes = bench.goodput_bytes();
        let achieved_bps = bytes as f64 * 8.0 / 20.0;
        let util = achieved_bps / bench.r_bottle.as_bps();
        assert!(
            util > 0.75,
            "aggregate TCP should fill most of the bottleneck, got {:.0}% ({} bytes)",
            util * 100.0,
            bytes
        );
        assert!(util < 1.02, "goodput can't exceed capacity, got {util}");
    }

    #[test]
    fn mice_population_builds_and_produces_bursty_flows() {
        let mut spec = ScenarioSpec::ns2_dumbbell(6);
        spec.mice_flows = 3;
        let mut bench = spec.build().unwrap();
        bench.run_until(SimTime::from_secs(20));
        // Mice complete bursts; elephants never do.
        let bursts: Vec<u64> = bench
            .flows
            .iter()
            .map(|h| {
                bench
                    .sim
                    .agent_as::<TcpSender>(h.sender)
                    .unwrap()
                    .stats()
                    .bursts_completed
            })
            .collect();
        let mice = bursts.iter().filter(|&&b| b > 0).count();
        assert_eq!(mice, 3, "exactly three mice expected: {bursts:?}");
        // Mice deliver less than the greedy flows.
        let goodputs = bench.goodput_per_flow();
        let mouse_mean: f64 = bursts
            .iter()
            .zip(&goodputs)
            .filter(|(&b, _)| b > 0)
            .map(|(_, &g)| g as f64)
            .sum::<f64>()
            / 3.0;
        let elephant_mean: f64 = bursts
            .iter()
            .zip(&goodputs)
            .filter(|(&b, _)| b == 0)
            .map(|(_, &g)| g as f64)
            .sum::<f64>()
            / 3.0;
        assert!(mouse_mean < elephant_mean);
    }

    #[test]
    fn crowd_free_specs_keep_their_legacy_debug_output() {
        // `{:?}` feeds the runner's stable hash and the warm-start
        // prefix hash, so a spec with no crowd must print exactly as it
        // did before the flash-crowd fields existed.
        let spec = ScenarioSpec::ns2_dumbbell(3);
        let dbg = format!("{spec:?}");
        assert!(!dbg.contains("crowd"), "crowd stays implicit: {dbg}");
        assert!(dbg.starts_with("ScenarioSpec { n_flows: 3, "));
        assert!(
            dbg.ends_with("mice_think: SimDuration(500000000) }"),
            "{dbg}"
        );
        let mut crowded = spec.clone();
        crowded.crowd_flows = 4;
        let dbg = format!("{crowded:?}");
        assert!(dbg.contains("crowd_flows: 4"), "{dbg}");
        assert!(
            dbg.ends_with("crowd_at: SimDuration(12000000000) }"),
            "{dbg}"
        );
    }

    #[test]
    fn flash_crowd_arrives_at_crowd_at() {
        let mut spec = ScenarioSpec::ns2_dumbbell(2);
        spec.crowd_flows = 3;
        spec.crowd_at = SimDuration::from_secs(1);
        let mut bench = spec.build().unwrap();
        assert_eq!(bench.crowd.len(), 3);
        // 2 routers + 2·2 victim hosts + 2·3 crowd hosts + 2 attack hosts.
        assert_eq!(bench.sim.nodes().len(), 14);
        // Nothing from the crowd before its arrival...
        bench.run_until(SimTime::from_secs(1));
        for h in &bench.crowd {
            let sink = bench.sim.agent_as::<TcpSink>(h.sink).unwrap();
            assert_eq!(sink.goodput_bytes(), 0, "crowd flow started early");
        }
        // ... and every crowd mouse completes request bursts after it.
        bench.run_until(SimTime::from_secs(8));
        for h in &bench.crowd {
            let bursts = bench
                .sim
                .agent_as::<TcpSender>(h.sender)
                .unwrap()
                .stats()
                .bursts_completed;
            assert!(bursts > 0, "crowd mouse finished no burst");
        }
        // The crowd stays out of the victim goodput accounting.
        assert_eq!(bench.goodput_per_flow().len(), 2);
    }

    #[test]
    fn acc_variant_builds_and_runs() {
        let mut spec = ScenarioSpec::ns2_dumbbell(3);
        spec.queue = BottleneckQueue::AccRed;
        let mut bench = spec.build().unwrap();
        assert_eq!(bench.sim.link(bench.bottleneck).queue().name(), "acc-red");
        bench.run_until(SimTime::from_secs(5));
        assert!(bench.goodput_bytes() > 0);
    }

    #[test]
    fn ecn_endpoints_get_a_marking_bottleneck() {
        let mut spec = ScenarioSpec::ns2_dumbbell(3);
        spec.tcp.ecn = true;
        let bench = spec.build().unwrap();
        // Run briefly: TCP fills the bottleneck, RED marks instead of
        // early-dropping, so the engine observes ECN marks.
        let mut bench = bench;
        bench.run_until(SimTime::from_secs(15));
        assert!(
            bench.sim.stats().ecn_marks > 0,
            "expected ECN marks under congestion: {:?}",
            bench.sim.stats()
        );
    }

    #[test]
    fn oversized_dumbbells_are_refused_before_they_are_described() {
        for (flows, crowd, nodes) in [(5_791, 0, 11_586), (10, 100_000, 200_024)] {
            let mut spec = ScenarioSpec::ns2_dumbbell(flows);
            spec.crowd_flows = crowd;
            let Err(err) = spec.build() else {
                panic!("{nodes} nodes built");
            };
            assert_eq!(err, BuildError::TooManyNodes { nodes });
        }
        let mut spec = ScenarioSpec::ns2_dumbbell(usize::MAX);
        spec.crowd_flows = usize::MAX;
        assert!(spec.build().is_err(), "saturates instead of overflowing");
    }

    #[test]
    fn victims_model_matches_spec() {
        let spec = ScenarioSpec::ns2_dumbbell(25);
        let v = spec.victims();
        assert_eq!(v.n_flows(), 25);
        assert_eq!(v.r_bottle(), 15e6);
        assert_eq!(v.a(), 1.0);
        assert_eq!(v.b(), 0.5);
        assert_eq!(v.d(), 2.0);
    }
}
