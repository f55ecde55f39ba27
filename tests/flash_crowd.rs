//! False-positive analysis: a benign flash crowd (many request/response
//! flows arriving at once) changes the traffic as dramatically as an
//! attack — but without the attack's periodicity. The spectral detector
//! must separate the two where mean/change detectors cannot.

use pdos::prelude::*;
use pdos::scenarios::shape::{ample, attack_hosts};

/// A dumbbell with 4 long-lived flows; at `t = 12 s`, 16 mice flows
/// arrive within half a second (the flash crowd), or a pulsing attack
/// starts instead.
fn bottleneck_trace(flash_crowd: bool, attack: bool) -> Vec<u64> {
    let mut t = TopologyBuilder::with_seed(9);
    let s = t.add_router("S");
    let r = t.add_router("R");
    let bottleneck = BitsPerSec::from_mbps(15.0);
    let access = BitsPerSec::from_mbps(50.0);
    let red = QueueSpec::Red({
        let mut cfg = RedConfig::paper_testbed(60);
        cfg.mean_packet_size = Bytes::from_u64(1040);
        cfg
    });
    let fwd = t.add_link(s, r, bottleneck, SimDuration::from_millis(5), red);
    t.add_link(r, s, bottleneck, SimDuration::from_millis(5), ample());

    let mut endpoints = Vec::new();
    for i in 0..20 {
        let src = t.add_host(format!("src{i}"));
        let dst = t.add_host(format!("dst{i}"));
        let delay = SimDuration::from_millis(4 + (i as u64 % 7) * 3);
        t.add_duplex_link(src, s, access, delay, ample());
        t.add_duplex_link(dst, r, access, SimDuration::from_millis(1), ample());
        endpoints.push((src, dst));
    }
    let (attacker, sinkhost) = attack_hosts(&mut t, s, r, BitsPerSec::from_mbps(1000.0));

    let mut sim = t.build().expect("builds");
    let bin = SimDuration::from_millis(100);
    let trace = sim.trace_link_ingress(fwd, TraceFilter::All, bin);

    for (i, &(src, dst)) in endpoints.iter().enumerate() {
        let flow = FlowId::from_u32(i as u32);
        let mut cfg = TcpConfig::ns2_newreno();
        let start = if i < 4 {
            SimTime::from_millis(211 * i as u64) // the standing elephants
        } else {
            if !flash_crowd {
                continue; // crowd flows absent in the attack run
            }
            cfg.burst_segments = Some(30);
            cfg.think_time = SimDuration::from_millis(400);
            SimTime::from_secs(12) + SimDuration::from_millis(29 * i as u64) // the crowd
        };
        pdos::tcp::connect(&mut sim, src, dst, flow, cfg, start);
    }
    if attack {
        let train = PulseTrain::new(
            SimDuration::from_millis(75),
            BitsPerSec::from_mbps(30.0),
            SimDuration::from_millis(425),
        )
        .expect("valid train");
        let src = Box::new(pdos::attack::source::PulseSource::new(
            train,
            FlowId::from_u32(999),
            sinkhost,
            Bytes::from_u64(1000),
            None,
        ));
        sim.attach_agent_at(attacker, src, SimTime::from_secs(12));
    }
    sim.run_until(SimTime::from_secs(42));
    sim.trace(trace).bytes_per_bin().to_vec()
}

#[test]
fn spectral_detector_separates_crowd_from_attack() {
    let crowd = bottleneck_trace(true, false);
    let attacked = bottleneck_trace(false, true);
    let sweep = |bytes: &[u64]| {
        // Look only at the post-event window (after bin 120).
        let series: Vec<f64> = bytes[120..].iter().map(|&b| b as f64).collect();
        SpectralDetector::new(3, 60, 15.0).sweep(&series)
    };
    let on_crowd = sweep(&crowd);
    let on_attack = sweep(&attacked);
    assert!(
        !on_crowd.detected,
        "a benign flash crowd must not read as periodic: {on_crowd:?}"
    );
    assert!(
        on_attack.detected,
        "the pulsing attack must read as periodic: {on_attack:?}"
    );
}

#[test]
fn change_detectors_flag_both_events() {
    // Both events are real traffic changes — CUSUM on dispersion is
    // *supposed* to fire for both; telling them apart is the spectral
    // detector's job (previous test).
    for (label, bytes) in [
        ("flash crowd", bottleneck_trace(true, false)),
        ("attack", bottleneck_trace(false, true)),
    ] {
        let rep = CusumDetector::new(100, 0.5, 8.0)
            .scan(&dispersion(&bytes))
            .into_report()
            .expect("calibrated");
        assert!(rep.detected, "{label}: dispersion change expected: {rep:?}");
        let onset = rep.onset_bin.expect("onset");
        assert!(
            (110..=160).contains(&onset),
            "{label}: onset bin {onset} should be near the event at bin 120"
        );
    }
}
