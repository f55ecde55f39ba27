//! Runtime invariant checkers for the conformance harness.
//!
//! The simulator can audit itself while it runs: event-time monotonicity
//! in the engine, per-link packet conservation (offered = transmitted +
//! dropped + resident), queue occupancy against capacity, and the
//! monotonicity of RED's drop probability in its average queue. TCP
//! sender invariants reuse the same [`Violation`] vocabulary (see
//! `pdos-tcp`).
//!
//! Checks are compiled in unconditionally and ride the engine's one
//! observer path ([`crate::observe`]), costing a single branch per hook
//! site until [`crate::engine::Simulator::enable_checks`] turns them on —
//! the "cheap flag" contract: production sweeps run with checks enabled at
//! negligible cost, and a violation is recorded (with sim-time and entity
//! id) instead of aborting the run, so harnesses can collect and report
//! every breach.

use crate::link::Link;
use crate::queue::RedQueue;
use crate::time::SimTime;
use std::fmt;

/// The invariant class a [`Violation`] breached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// An event was popped with a timestamp behind the engine clock.
    ClockRegression,
    /// A link's counters stopped satisfying
    /// `offered = transmitted + queue drops + impairment drops + resident`.
    PacketConservation,
    /// A queue's backlog exceeded its configured packet capacity.
    QueueOccupancy,
    /// RED's drop probability moved opposite to its average queue, or left
    /// `[0, 1]`.
    RedDropProbability,
    /// A TCP sender's window state left its legal range (cwnd below one
    /// segment or above the cap, ssthresh below two segments, sequence
    /// regression).
    TcpWindow,
    /// A TCP sender's retransmission timeout left `[min_rto, max_rto]`
    /// (RFC 6298 clamping).
    TcpRto,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ViolationKind::ClockRegression => "clock-regression",
            ViolationKind::PacketConservation => "packet-conservation",
            ViolationKind::QueueOccupancy => "queue-occupancy",
            ViolationKind::RedDropProbability => "red-drop-probability",
            ViolationKind::TcpWindow => "tcp-window",
            ViolationKind::TcpRto => "tcp-rto",
        };
        f.write_str(name)
    }
}

/// One recorded invariant breach: what failed, where, and when.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Simulation time at which the breach was observed.
    pub at: SimTime,
    /// The entity that breached (e.g. `engine`, `link0`, `tcp-sender/flow3`).
    pub entity: String,
    /// The invariant class.
    pub kind: ViolationKind,
    /// Human-readable specifics (observed vs expected values).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}: {}: {}",
            self.at, self.entity, self.kind, self.detail
        )
    }
}

/// Cap on stored violations: a corrupted run can breach on every event,
/// and the report only needs the first few plus a count.
pub(crate) const MAX_RECORDED: usize = 64;

/// Mutable checker state owned by the engine while checks are enabled.
#[derive(Debug, Clone, Default)]
pub(crate) struct CheckState {
    pub(crate) violations: Vec<Violation>,
    /// Breaches beyond [`MAX_RECORDED`] are only counted.
    pub(crate) truncated: u64,
    /// Last `(avg_queue, drop_probability)` sample per link, for the RED
    /// monotonicity check.
    pub(crate) red_last: Vec<Option<(f64, f64)>>,
}

impl CheckState {
    pub(crate) fn new(n_links: usize) -> Self {
        CheckState {
            violations: Vec::new(),
            truncated: 0,
            red_last: vec![None; n_links],
        }
    }

    pub(crate) fn record(&mut self, v: Violation) {
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(v);
        } else {
            self.truncated += 1;
        }
    }

    /// Audits one link's invariants after it processed a packet: packet
    /// conservation, queue occupancy, and (for RED queues) the
    /// monotonicity of the drop probability in the average queue.
    pub(crate) fn audit_link(&mut self, link: &Link, now: SimTime) {
        for v in link.audit(now) {
            self.record(v);
        }
        let Some(red) = link.queue().as_any().downcast_ref::<RedQueue>() else {
            return;
        };
        let i = link.id().index();
        let avg = red.avg_queue();
        let pb = red.drop_probability();
        if !pb.is_finite() || !(0.0..=1.0).contains(&pb) {
            self.record(Violation {
                at: now,
                entity: link.id().to_string(),
                kind: ViolationKind::RedDropProbability,
                detail: format!("drop probability {pb} outside [0, 1] at avg {avg}"),
            });
        }
        if let Some((prev_avg, prev_pb)) = self.red_last[i] {
            const EPS: f64 = 1e-12;
            let opposed = (avg > prev_avg + EPS && pb < prev_pb - EPS)
                || (avg < prev_avg - EPS && pb > prev_pb + EPS);
            if opposed {
                self.record(Violation {
                    at: now,
                    entity: link.id().to_string(),
                    kind: ViolationKind::RedDropProbability,
                    detail: format!(
                        "drop probability moved {prev_pb} -> {pb} while avg moved \
                         {prev_avg} -> {avg}"
                    ),
                });
            }
        }
        self.red_last[i] = Some((avg, pb));
    }

    /// Moves the violations recorded by each shard's checker (in shard
    /// order) into this one, globally ordered by (time, shard id) so the
    /// merged list is deterministic.
    pub(crate) fn absorb<'a>(&mut self, shards: impl Iterator<Item = &'a mut CheckState>) {
        let mut batch: Vec<(usize, Violation)> = Vec::new();
        for (i, checks) in shards.enumerate() {
            self.truncated += std::mem::take(&mut checks.truncated);
            batch.extend(checks.violations.drain(..).map(|v| (i, v)));
        }
        batch.sort_by(|a, b| a.1.at.cmp(&b.1.at).then(a.0.cmp(&b.0)));
        for (_, v) in batch {
            self.record(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_time_entity_and_kind() {
        let v = Violation {
            at: SimTime::from_millis(1500),
            entity: "link3".into(),
            kind: ViolationKind::PacketConservation,
            detail: "offered 10 != accounted 9".into(),
        };
        let s = v.to_string();
        assert!(s.contains("link3"), "{s}");
        assert!(s.contains("packet-conservation"), "{s}");
        assert!(s.contains("offered 10"), "{s}");
    }

    #[test]
    fn state_caps_recorded_violations() {
        let mut st = CheckState::new(1);
        for i in 0..(MAX_RECORDED + 10) {
            st.record(Violation {
                at: SimTime::ZERO,
                entity: "engine".into(),
                kind: ViolationKind::ClockRegression,
                detail: format!("breach {i}"),
            });
        }
        assert_eq!(st.violations.len(), MAX_RECORDED);
        assert_eq!(st.truncated, 10);
    }
}
