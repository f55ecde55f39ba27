//! The engine's one observation path: every read-only instrument behind a
//! single opt-in set.
//!
//! The paper's evidence is the bottleneck's binned ingress traffic and the
//! victims' goodput, so nothing that watches a run may touch its physics.
//! The simulator keeps every instrument — the binned rate traces (the
//! caller's and the detector tap's), the invariant checkers
//! ([`crate::check`]), the metrics ([`crate::metrics`]) and the
//! self-profiler ([`crate::profile`]) — in one `Option<Box<Observers>>`,
//! and calls it once at each of its hook sites:
//!
//! | hook | fires | feeds |
//! |------|-------|-------|
//! | pop | an event leaves the queue | clock-regression check, wheel-tier counters, profiler clocks |
//! | end of dispatch | the event's handler returned | profiler |
//! | offer | a packet reaches a link, before the queue decides | the link's traces |
//! | accept | the queue accepted or dropped it | link metrics, link audit |
//! | tx-done | a serialization completed | link metrics, link audit |
//!
//! A run nobody observes (`None`, the default) pays one branch per hook
//! site. An observed run is event-for-event identical to an unobserved
//! one: observers read the engine's state and clock, never its RNGs or
//! queues, so golden digests hold with any subset armed.
//!
//! The detector tap (`Simulator::enable_tap`) is not an instrument of its
//! own: it registers one [`TraceFilter::All`](crate::trace::TraceFilter)
//! trace per link through the same path as
//! `Simulator::trace_link_ingress`, so sharding migrates it, checkpoints
//! copy it and `Simulator::trace`/`Simulator::tap_bins` read it like any
//! other trace. Streaming detectors in `pdos-detect` consume the bins
//! downstream; the simulator stays detector-free.

use crate::check::{CheckState, Violation, ViolationKind};
use crate::event::Event;
use crate::link::{Link, LinkId};
use crate::metrics::EngineMetrics;
use crate::packet::Packet;
use crate::profile::{EventStart, ProfileSnapshot};
use crate::time::SimTime;
use crate::trace::{RateTrace, TraceId};

/// Every read-only instrument of one simulator (or of one shard).
#[derive(Debug, Clone, Default)]
pub(crate) struct Observers {
    /// Registered traces by [`TraceId`] index: the caller's and the tap's.
    pub(crate) traces: Vec<RateTrace>,
    /// Trace ids per link, indexed by `LinkId::index()` (only up to the
    /// highest traced link).
    link_traces: Vec<Vec<TraceId>>,
    /// The detector tap's trace per link, by link index; empty until the
    /// tap is enabled. On a sharded run these are the coordinator's ids.
    pub(crate) tap: Vec<TraceId>,
    pub(crate) checks: Option<CheckState>,
    pub(crate) metrics: Option<EngineMetrics>,
    /// The armed profiler: a breakdown under accumulation.
    pub(crate) profiler: Option<ProfileSnapshot>,
}

impl Observers {
    /// A fresh set arming the same checkers, metrics and profiler, for one
    /// shard of a split run. Traces migrate separately, to the shard that
    /// owns their link.
    pub(crate) fn for_shard(&self, links: &[Link]) -> Observers {
        Observers {
            checks: self.checks.as_ref().map(|_| CheckState::new(links.len())),
            metrics: self.metrics.as_ref().map(|_| EngineMetrics::new(links)),
            profiler: self.profiler.as_ref().map(|_| ProfileSnapshot::default()),
            ..Observers::default()
        }
    }

    /// Registers `trace` on its link's offer hook and returns its id.
    pub(crate) fn add_trace(&mut self, trace: RateTrace) -> TraceId {
        let id = TraceId::from_u32(self.traces.len() as u32);
        let link = trace.link().index();
        if self.link_traces.len() <= link {
            self.link_traces.resize(link + 1, Vec::new());
        }
        self.link_traces[link].push(id);
        self.traces.push(trace);
        id
    }

    /// Hands every registered trace over (for migration to the shards),
    /// leaving the offer hook with nothing to feed.
    pub(crate) fn take_traces(&mut self) -> Vec<RateTrace> {
        self.link_traces.clear();
        std::mem::take(&mut self.traces)
    }

    /// Pop hook: `event`, scheduled at `at`, leaves the queue while the
    /// engine clock reads `clock`. Returns the profiler's start readings
    /// when the profiler is armed.
    #[inline]
    pub(crate) fn on_pop(
        &mut self,
        clock: SimTime,
        at: SimTime,
        event: &Event,
    ) -> Option<EventStart> {
        if at < clock {
            match self.checks.as_mut() {
                Some(checks) => checks.record(Violation {
                    at: clock,
                    entity: "engine".into(),
                    kind: ViolationKind::ClockRegression,
                    detail: format!("popped event scheduled at {at} behind clock {clock}"),
                }),
                None => debug_assert!(false, "event in the past: {at} < {clock}"),
            }
        }
        if let Some(m) = self.metrics.as_mut() {
            m.on_pop(event);
        }
        self.profiler.is_some().then(|| EventStart::begin(event))
    }

    /// End-of-dispatch hook: the handler of the event [`Observers::on_pop`]
    /// timed has returned.
    #[inline]
    pub(crate) fn on_dispatched(&mut self, start: EventStart) {
        if let Some(p) = self.profiler.as_mut() {
            p.record(start);
        }
    }

    /// Offer hook: `packet` reaches `link` at `now`, before the queue
    /// decides accept or drop.
    #[inline]
    pub(crate) fn on_offer(&mut self, link: LinkId, now: SimTime, packet: &Packet) {
        if let Some(ids) = self.link_traces.get(link.index()) {
            for &id in ids {
                self.traces[id.index()].record(now, packet);
            }
        }
    }

    /// Accept hook: `link` accepted (or dropped) the offered packet.
    #[inline]
    pub(crate) fn on_accept(&mut self, link: &Link, accepted: bool, now: SimTime) {
        if let Some(m) = self.metrics.as_mut() {
            m.on_accept(link, accepted, now);
        }
        if let Some(checks) = self.checks.as_mut() {
            checks.audit_link(link, now);
        }
    }

    /// Tx-done hook: `link` finished serializing a packet.
    #[inline]
    pub(crate) fn on_tx_done(&mut self, link: &Link, now: SimTime) {
        if let Some(m) = self.metrics.as_mut() {
            m.on_tx_done(link, now);
        }
        if let Some(checks) = self.checks.as_mut() {
            checks.audit_link(link, now);
        }
    }
}
