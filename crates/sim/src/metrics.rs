//! Engine-side metrics: dense per-link instrumentation over
//! [`pdos_metrics::MetricsRegistry`].
//!
//! One instrument of the engine's observer set ([`crate::observe`]), so
//! a run without metrics pays nothing beyond the set's one branch per
//! hook site.
//! All `(scope, name)` interning happens once at enable time; hot-path
//! updates are indexed writes through pre-resolved [`MetricId`]s.
//!
//! Determinism: every timestamp fed to a gauge is the simulator's own
//! virtual clock, and nothing here feeds back into the simulation —
//! enabling metrics cannot change packet timing, seeds, drops or traces.

use pdos_metrics::{MetricId, MetricsRegistry, MetricsSnapshot};

use crate::event::Event;
use crate::link::Link;
use crate::queue::{DropTailQueue, RedQueue};
use crate::time::SimTime;

/// Upper bucket edges for the RED drop-probability histogram: fine at the
/// low probabilities where RED usually operates, coarse near 1.
const RED_DROP_PROB_BOUNDS: [f64; 8] = [0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0];

/// Per-link and engine-level metrics, updated from the event loop.
#[derive(Clone)]
pub struct EngineMetrics {
    registry: MetricsRegistry,
    /// Events popped from the packet wheel tier (`Deliver`, `LinkTxDone`,
    /// `AgentStart`).
    pops_packet: MetricId,
    /// Events popped from the timer wheel tier (`Timer`).
    pops_timer: MetricId,
    // Per-link ids, indexed by `LinkId::index()`.
    enqueued: Vec<MetricId>,
    dequeued: Vec<MetricId>,
    dropped: Vec<MetricId>,
    occupancy: Vec<MetricId>,
    busy: Vec<MetricId>,
    red_drop_prob: Vec<Option<MetricId>>,
    droptail_overflow: Vec<Option<MetricId>>,
}

impl EngineMetrics {
    /// Interns every per-link metric for the given topology.
    pub(crate) fn new(links: &[Link]) -> EngineMetrics {
        let mut registry = MetricsRegistry::new();
        let pops_packet = registry.counter("engine", "pops_packet_tier");
        let pops_timer = registry.counter("engine", "pops_timer_tier");
        let mut enqueued = Vec::with_capacity(links.len());
        let mut dequeued = Vec::with_capacity(links.len());
        let mut dropped = Vec::with_capacity(links.len());
        let mut occupancy = Vec::with_capacity(links.len());
        let mut busy = Vec::with_capacity(links.len());
        let mut red_drop_prob = Vec::with_capacity(links.len());
        let mut droptail_overflow = Vec::with_capacity(links.len());
        for link in links {
            let scope = format!("link/{}", link.id().index());
            enqueued.push(registry.counter(&scope, "enqueued"));
            dequeued.push(registry.counter(&scope, "dequeued"));
            dropped.push(registry.counter(&scope, "dropped"));
            occupancy.push(registry.gauge(&scope, "occupancy_pkts"));
            busy.push(registry.gauge(&scope, "tx_busy"));
            red_drop_prob.push(
                link.queue()
                    .as_any()
                    .downcast_ref::<RedQueue>()
                    .map(|_| registry.histogram(&scope, "red_drop_prob", &RED_DROP_PROB_BOUNDS)),
            );
            droptail_overflow.push(
                link.queue()
                    .as_any()
                    .downcast_ref::<DropTailQueue>()
                    .map(|_| registry.counter(&scope, "droptail_overflow")),
            );
        }
        EngineMetrics {
            registry,
            pops_packet,
            pops_timer,
            enqueued,
            dequeued,
            dropped,
            occupancy,
            busy,
            red_drop_prob,
            droptail_overflow,
        }
    }

    /// Counts one event pop on its wheel tier.
    #[inline]
    pub(crate) fn on_pop(&mut self, event: &Event) {
        let id = match event {
            Event::Timer { .. } => self.pops_timer,
            _ => self.pops_packet,
        };
        self.registry.inc(id, 1);
    }

    /// Updates a link's gauges to its current state at `now`.
    #[inline]
    fn touch_link(&mut self, link: &Link, now: SimTime) {
        let i = link.id().index();
        let held = link.backlog_packets() + link.in_flight_packets();
        self.registry
            .gauge_set(self.occupancy[i], held as f64, now.as_nanos());
        let busy = if link.in_flight_packets() > 0 {
            1.0
        } else {
            0.0
        };
        self.registry.gauge_set(self.busy[i], busy, now.as_nanos());
    }

    /// Accounts one packet offered to `link` (`accepted` per the link's
    /// verdict). An accepted packet counts as an enqueue even on the
    /// idle-DropTail fast path, which bypasses the buffer: "enqueued"
    /// means "entered the link", matching `dequeued` = "left the
    /// transmitter".
    pub(crate) fn on_accept(&mut self, link: &Link, accepted: bool, now: SimTime) {
        let i = link.id().index();
        if accepted {
            self.registry.inc(self.enqueued[i], 1);
        } else {
            self.registry.inc(self.dropped[i], 1);
            if let Some(id) = self.droptail_overflow[i] {
                self.registry.inc(id, 1);
            }
        }
        if let Some(id) = self.red_drop_prob[i] {
            if let Some(red) = link.queue().as_any().downcast_ref::<RedQueue>() {
                self.registry.observe(id, red.drop_probability());
            }
        }
        self.touch_link(link, now);
    }

    /// Accounts one serialization completion on `link`.
    pub(crate) fn on_tx_done(&mut self, link: &Link, now: SimTime) {
        self.registry.inc(self.dequeued[link.id().index()], 1);
        self.touch_link(link, now);
    }

    /// Finalizes gauges at `now` and snapshots every metric.
    pub(crate) fn snapshot(&mut self, now: SimTime) -> MetricsSnapshot {
        self.registry.finalize_gauges(now.as_nanos());
        self.registry.snapshot()
    }
}

impl std::fmt::Debug for EngineMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineMetrics")
            .field("links", &self.enqueued.len())
            .finish()
    }
}
