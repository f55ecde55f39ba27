//! Substrate generality: the parking-lot shape (three routers in a
//! chain, two bottleneck hops; `pdos_scenarios::shape::parking_lot`). The
//! attack targets the middle hop; flows crossing it suffer, flows that
//! avoid it do not — locality the dumbbell cannot express.

use pdos::attack::source::PulseSource;
use pdos::prelude::*;
use pdos::scenarios::shape::{self, Wired};

/// Goodput of one flow group: `0` long (r1→r3), `1` right (r2→r3),
/// `2` left (r1→r2). The shape interleaves the groups, so sink `i`
/// belongs to group `i % 3`.
fn group_goodput(lot: &Wired, group: usize) -> u64 {
    (group..lot.sinks.len())
        .step_by(3)
        .map(|i| lot.goodput_bytes(i))
        .sum()
}

fn run(attacked: bool) -> (f64, f64, f64) {
    let mut lot = shape::parking_lot(3, 5);
    if attacked {
        // Pulses at the middle hop r2->r3 (the attack sink sits behind r3).
        let train = PulseTrain::new(
            SimDuration::from_millis(75),
            BitsPerSec::from_mbps(30.0),
            SimDuration::from_millis(425),
        )
        .expect("valid train");
        let src = Box::new(PulseSource::new(
            train,
            FlowId::from_u32(9999),
            lot.attack_sink,
            Bytes::from_u64(1000),
            None,
        ));
        lot.sim
            .attach_agent_at(lot.attacker, src, SimTime::from_secs(6));
    }
    lot.sim.run_until(SimTime::from_secs(6));
    let before = (
        group_goodput(&lot, 0),
        group_goodput(&lot, 1),
        group_goodput(&lot, 2),
    );
    lot.sim.run_until(SimTime::from_secs(30));
    let after = (
        group_goodput(&lot, 0),
        group_goodput(&lot, 1),
        group_goodput(&lot, 2),
    );
    (
        (after.0 - before.0) as f64,
        (after.1 - before.1) as f64,
        (after.2 - before.2) as f64,
    )
}

#[test]
fn attack_on_middle_hop_spares_the_left_segment() {
    let (long_b, right_b, left_b) = run(false);
    let (long_a, right_a, left_a) = run(true);
    let deg = |b: f64, a: f64| 1.0 - a / b.max(1.0);

    // Flows crossing the attacked hop collapse...
    assert!(
        deg(long_b, long_a) > 0.5,
        "long flows must suffer: {:.2}",
        deg(long_b, long_a)
    );
    assert!(
        deg(right_b, right_a) > 0.5,
        "right-segment flows must suffer: {:.2}",
        deg(right_b, right_a)
    );
    // ...while flows on the untouched left hop keep (or grow) their
    // goodput: the long flows' retreat frees capacity on r1->r2.
    assert!(
        deg(left_b, left_a) < 0.25,
        "left-segment flows must be (mostly) spared: {:.2}",
        deg(left_b, left_a)
    );
}

#[test]
fn multihop_flows_share_both_bottlenecks_fairly_at_baseline() {
    let (long_b, right_b, left_b) = run(false);
    // All three groups get real throughput through the chain.
    for (tag, g) in [("long", long_b), ("right", right_b), ("left", left_b)] {
        assert!(
            g > 2_000_000.0,
            "{tag} group should move megabytes in 24 s, got {g}"
        );
    }
    // Long flows traverse both bottlenecks and compete with both local
    // groups, so they get the smallest share.
    assert!(long_b < right_b && long_b < left_b);
}
