//! Deterministic self-profiling: per-event-type cost counters for the
//! engine's hot loop.
//!
//! [`crate::engine::Simulator::enable_profiler`] arms a per-event-type
//! breakdown — how many events of each kind the loop dispatched, the
//! cumulative wall-clock spent inside their handlers, and (when an
//! allocation probe is registered, see [`set_alloc_probe`]) how many
//! heap allocations and bytes those handlers requested. The breakdown is
//! what `pdos bench --profile` reports, and what pinned the million-flow
//! hot-path offenders this subsystem was built to kill.
//!
//! Two invariants, both tested:
//!
//! * **Hash-neutral**: profiling only *reads* the run. Enabling it must
//!   not change a single event, packet, or digest — the contract every
//!   instrument of the observer set ([`crate::observe`]) honours.
//! * **Zero-overhead when disabled**: the profiler rides the observer
//!   set, which costs one branch per hook site when nothing is armed.
//!   Wall-clock reads (`Instant::now`) happen only while a profiler is
//!   armed.
//!
//! The wall and allocation readings are *measurements* of the host, not
//! of the simulation: they vary run to run and never feed back into the
//! event loop (the simulation stays deterministic; the profile is a
//! report about it).

use crate::event::Event;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Event kinds the profiler breaks costs down by, in display order.
pub const EVENT_KINDS: [&str; 4] = ["deliver", "link-tx-done", "timer", "agent-start"];

/// Index into [`EVENT_KINDS`] for an event.
pub(crate) fn kind_index(event: &Event) -> usize {
    match event {
        Event::Deliver { .. } => 0,
        Event::LinkTxDone { .. } => 1,
        Event::Timer { .. } => 2,
        Event::AgentStart { .. } => 3,
    }
}

/// Allocation counters `(allocations, bytes)` as sampled by the probe.
type AllocProbe = fn() -> (u64, u64);

/// The registered probe, stored as a `usize` so the static needs no
/// locking (0 = none; fn pointers are never null).
static ALLOC_PROBE: AtomicUsize = AtomicUsize::new(0);

/// Registers the process-wide allocation probe the profiler samples
/// around each event handler — a cheap `fn` returning cumulative
/// `(allocations, bytes)` for the whole process, typically backed by a
/// counting `#[global_allocator]` (the `pdos` binary registers one).
/// Without a probe the profiler reports zero allocations.
///
/// Later registrations replace earlier ones.
pub fn set_alloc_probe(probe: fn() -> (u64, u64)) {
    ALLOC_PROBE.store(probe as usize, Ordering::Release);
}

fn sample_allocs() -> Option<(u64, u64)> {
    let raw = ALLOC_PROBE.load(Ordering::Acquire);
    if raw == 0 {
        return None;
    }
    // SAFETY: the only writer is `set_alloc_probe`, which stores a valid
    // `AllocProbe` fn pointer; fn pointers are plain addresses.
    let probe: AllocProbe = unsafe { std::mem::transmute::<usize, AllocProbe>(raw) };
    Some(probe())
}

/// Cost counters for one event kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindProfile {
    /// Events of this kind dispatched.
    pub count: u64,
    /// Cumulative wall-clock inside their handlers, nanoseconds.
    pub wall_nanos: u64,
    /// Heap allocations requested by their handlers (0 without a probe).
    pub allocations: u64,
    /// Heap bytes requested by their handlers (0 without a probe).
    pub alloc_bytes: u64,
}

/// A finished per-event-type breakdown, ordered as [`EVENT_KINDS`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// One row per event kind.
    pub kinds: [KindProfile; 4],
}

impl ProfileSnapshot {
    /// Total events across all kinds.
    pub fn total_events(&self) -> u64 {
        self.kinds.iter().map(|k| k.count).sum()
    }

    /// Total handler wall-clock, nanoseconds.
    pub fn total_wall_nanos(&self) -> u64 {
        self.kinds.iter().map(|k| k.wall_nanos).sum()
    }

    /// Element-wise accumulation (used to merge per-shard profiles).
    pub fn merge(&mut self, other: &ProfileSnapshot) {
        for (into, from) in self.kinds.iter_mut().zip(other.kinds.iter()) {
            into.count += from.count;
            into.wall_nanos += from.wall_nanos;
            into.allocations += from.allocations;
            into.alloc_bytes += from.alloc_bytes;
        }
    }

    /// A human-readable table, one row per event kind.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  {:<16} {:>12} {:>12} {:>10} {:>14} {:>14}",
            "event kind", "count", "wall ms", "ns/event", "allocations", "alloc MiB"
        );
        for (name, k) in EVENT_KINDS.iter().zip(self.kinds.iter()) {
            let per = if k.count > 0 {
                k.wall_nanos as f64 / k.count as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {:<16} {:>12} {:>12.3} {:>10.0} {:>14} {:>14.1}",
                name,
                k.count,
                k.wall_nanos as f64 / 1e6,
                per,
                k.allocations,
                k.alloc_bytes as f64 / (1024.0 * 1024.0),
            );
        }
        out
    }
}

/// Readings taken just before an event handler runs, consumed by
/// [`ProfileSnapshot::record`] right after it returns.
pub(crate) struct EventStart {
    kind: usize,
    t0: Instant,
    allocs0: Option<(u64, u64)>,
}

impl EventStart {
    /// Samples the clocks for one event about to be dispatched.
    pub(crate) fn begin(event: &Event) -> EventStart {
        EventStart {
            kind: kind_index(event),
            t0: Instant::now(),
            allocs0: sample_allocs(),
        }
    }
}

impl ProfileSnapshot {
    /// Folds one dispatched event into the breakdown (the armed profiler
    /// is a snapshot under accumulation).
    pub(crate) fn record(&mut self, start: EventStart) {
        let k = &mut self.kinds[start.kind];
        k.count += 1;
        k.wall_nanos += start.t0.elapsed().as_nanos() as u64;
        if let (Some((a0, b0)), Some((a1, b1))) = (start.allocs0, sample_allocs()) {
            k.allocations += a1.saturating_sub(a0);
            k.alloc_bytes += b1.saturating_sub(b0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_elementwise() {
        let mut a = ProfileSnapshot::default();
        a.kinds[0].count = 3;
        a.kinds[0].wall_nanos = 30;
        let mut b = ProfileSnapshot::default();
        b.kinds[0].count = 4;
        b.kinds[0].wall_nanos = 10;
        b.kinds[2].allocations = 7;
        a.merge(&b);
        assert_eq!(a.kinds[0].count, 7);
        assert_eq!(a.kinds[0].wall_nanos, 40);
        assert_eq!(a.kinds[2].allocations, 7);
        assert_eq!(a.total_events(), 7);
    }

    #[test]
    fn summary_lists_every_kind() {
        let snap = ProfileSnapshot::default();
        let text = snap.summary();
        for kind in EVENT_KINDS {
            assert!(text.contains(kind), "{text}");
        }
    }
}
