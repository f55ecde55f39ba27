//! The engine performance harness behind `pdos bench`.
//!
//! Unlike the figure benches in `benches/` (which reproduce the paper's
//! plots), this module measures the *simulator itself*: how many events
//! and packets per second the hot path sustains on canonical macro
//! workloads, plus targeted microbenches of the event queue and the
//! queue disciplines. Every run is deterministic; only the wall-clock
//! measurements vary between hosts.
//!
//! The harness writes `BENCH_<date>.json` reports (see `docs/PERF.md`)
//! that seed the perf trajectory of the repository: CI runs the smoke
//! variant and fails on a >20% events/sec regression against the
//! committed baseline.

use crate::alloc::{self, AllocSnapshot};
use pdos_attack::pulse::PulseTrain;
use pdos_scenarios::experiment::warm_start;
use pdos_scenarios::runner::{AttackPoint, ExperimentSpec, SeedPolicy, SweepRunner};
use pdos_scenarios::spec::ScenarioSpec;
use pdos_sim::event::{Event, EventQueue};
use pdos_sim::node::NodeId;
use pdos_sim::packet::{FlowId, Packet, PacketKind};
use pdos_sim::profile::{ProfileSnapshot, EVENT_KINDS};
use pdos_sim::queue::{QueueDiscipline, QueueSpec, RedConfig};
use pdos_sim::time::{SimDuration, SimTime};
use pdos_sim::units::{BitsPerSec, Bytes};
use std::fmt::Write as _;
use std::time::Instant;

// The scale macros' topology, under the names `perfbench` imports.
pub use pdos_scenarios::shape::{
    bank_ring as build_million_flow_sim, RING_CLUSTERS as MILLION_FLOW_CLUSTERS,
};

/// One macro workload measurement: a full simulated scenario timed
/// end-to-end.
#[derive(Debug, Clone, PartialEq)]
pub struct MacroResult {
    /// Workload name (`fig06-smoke`, ...).
    pub name: String,
    /// Simulated horizon, seconds.
    pub sim_secs: f64,
    /// Events the engine processed.
    pub events: u64,
    /// Packets that reached an endpoint (delivered + unclaimed).
    pub packets: u64,
    /// Wall-clock time, seconds.
    pub wall_secs: f64,
}

impl MacroResult {
    /// Events processed per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_secs.max(1e-9)
    }

    /// Endpoint packets per wall-clock second.
    pub fn packets_per_sec(&self) -> f64 {
        self.packets as f64 / self.wall_secs.max(1e-9)
    }
}

/// One microbench measurement: a tight loop over a single subsystem.
#[derive(Debug, Clone, PartialEq)]
pub struct MicroResult {
    /// Microbench name (`event-queue`, ...).
    pub name: String,
    /// Operations performed.
    pub ops: u64,
    /// Wall-clock time, seconds.
    pub wall_secs: f64,
}

impl MicroResult {
    /// Operations per wall-clock second.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.wall_secs.max(1e-9)
    }
}

/// The warm-start macro: the same sweep grid measured cold (every run
/// simulates its own warm-up) and warm-started (one warm-up is simulated,
/// checkpointed, and forked per run), with the results asserted identical.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmStartResult {
    /// Workload name (`fig06-grid-warmstart`).
    pub name: String,
    /// Sweep points in the grid (excluding the shared baseline).
    pub points: u64,
    /// Wall-clock seconds for the cold sweep.
    pub cold_wall_secs: f64,
    /// Wall-clock seconds for the warm-started sweep.
    pub warm_wall_secs: f64,
    /// Approximate heap footprint of the shared checkpoint, bytes.
    pub checkpoint_bytes: u64,
}

impl WarmStartResult {
    /// Cold wall time over warm wall time (> 1 means forking wins).
    pub fn speedup(&self) -> f64 {
        self.cold_wall_secs / self.warm_wall_secs.max(1e-9)
    }
}

/// A full harness run: macro workloads, microbenches, and process-level
/// resource readings.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// UTC date of the run, `YYYY-MM-DD`.
    pub date: String,
    /// Whether the smoke (CI-sized) variant ran.
    pub smoke: bool,
    /// Worker shards requested for the sharded macro leg (1 = the run
    /// measured only the sequential engine). Reports from schemas
    /// `pdos-bench/1` and `/2` predate sharding and imply 1.
    pub shards: usize,
    /// Macro workload measurements.
    pub macros: Vec<MacroResult>,
    /// Microbench measurements.
    pub micros: Vec<MicroResult>,
    /// The cold-vs-forked warm-start comparison (`None` in reports from
    /// schema `pdos-bench/1`, which predates checkpointing).
    pub warm_start: Option<WarmStartResult>,
    /// Peak resident set size, bytes (Linux `VmHWM`; `None` elsewhere).
    pub peak_rss_bytes: Option<u64>,
    /// Allocation counters over the macro workloads (`None` unless the
    /// counting allocator is registered, as it is in the `pdos` binary).
    pub alloc: Option<AllocSnapshot>,
    /// Logical cores the host exposes (reports from schemas `/1`–`/3`
    /// predate the field and read back as `None`). The sharded-speedup
    /// gate keys on this: a 1-core host has no parallelism to measure,
    /// so the gate records itself as skipped instead of silently passing.
    pub host_cores: usize,
    /// Per-event-type cost breakdown of the scale macros, recorded only
    /// when the harness runs with profiling on (`pdos bench --profile`).
    pub profile: Option<ProfileSnapshot>,
}

impl PerfReport {
    /// The named macro result, if present.
    pub fn macro_result(&self, name: &str) -> Option<&MacroResult> {
        self.macros.iter().find(|m| m.name == name)
    }

    /// Serializes the report as JSON (schema `pdos-bench/4`; readers also
    /// accept `/3`, which lacks the `host_cores` and `profile` fields,
    /// `/2`, which also lacks `shards`, and `/1`, which also lacks the
    /// `warm_start` section).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        let _ = write!(
            s,
            "{{\"schema\":\"pdos-bench/4\",\"date\":\"{}\",\"smoke\":{},\"shards\":{},\
             \"host_cores\":{},\"macros\":[",
            self.date, self.smoke, self.shards, self.host_cores
        );
        for (i, m) in self.macros.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"sim_secs\":{},\"events\":{},\"packets\":{},\
                 \"wall_secs\":{:.6},\"events_per_sec\":{:.1},\"packets_per_sec\":{:.1}}}",
                m.name,
                m.sim_secs,
                m.events,
                m.packets,
                m.wall_secs,
                m.events_per_sec(),
                m.packets_per_sec(),
            );
        }
        s.push_str("],\"micros\":[");
        for (i, m) in self.micros.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"ops\":{},\"wall_secs\":{:.6},\"ops_per_sec\":{:.1}}}",
                m.name,
                m.ops,
                m.wall_secs,
                m.ops_per_sec(),
            );
        }
        s.push_str("],");
        match &self.warm_start {
            Some(w) => {
                let _ = write!(
                    s,
                    "\"warm_start\":{{\"name\":\"{}\",\"points\":{},\
                     \"cold_wall_secs\":{:.6},\"warm_wall_secs\":{:.6},\
                     \"speedup\":{:.3},\"checkpoint_bytes\":{}}},",
                    w.name,
                    w.points,
                    w.cold_wall_secs,
                    w.warm_wall_secs,
                    w.speedup(),
                    w.checkpoint_bytes,
                );
            }
            None => s.push_str("\"warm_start\":null,"),
        }
        match self.peak_rss_bytes {
            Some(b) => {
                let _ = write!(s, "\"peak_rss_bytes\":{b},");
            }
            None => s.push_str("\"peak_rss_bytes\":null,"),
        }
        match self.alloc {
            Some(a) => {
                let _ = write!(
                    s,
                    "\"alloc\":{{\"allocations\":{},\"bytes\":{}}},",
                    a.allocations, a.bytes
                );
            }
            None => s.push_str("\"alloc\":null,"),
        }
        match &self.profile {
            Some(p) => {
                s.push_str("\"profile\":{\"kinds\":[");
                for (i, (name, k)) in EVENT_KINDS.iter().zip(p.kinds.iter()).enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    let _ = write!(
                        s,
                        "{{\"name\":\"{}\",\"count\":{},\"wall_nanos\":{},\
                         \"allocations\":{},\"alloc_bytes\":{}}}",
                        name, k.count, k.wall_nanos, k.allocations, k.alloc_bytes
                    );
                }
                s.push_str("]}}");
            }
            None => s.push_str("\"profile\":null}"),
        }
        s
    }

    /// A human-readable summary table.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "pdos bench ({}{}) — {}",
            if self.smoke { "smoke" } else { "full" },
            if self.shards > 1 {
                format!(", {} shards", self.shards)
            } else {
                String::new()
            },
            self.date
        );
        let _ = writeln!(
            out,
            "  {:<24} {:>12} {:>12} {:>9} {:>14} {:>14}",
            "macro workload", "events", "packets", "wall s", "events/s", "packets/s"
        );
        for m in &self.macros {
            let _ = writeln!(
                out,
                "  {:<24} {:>12} {:>12} {:>9.3} {:>14.0} {:>14.0}",
                m.name,
                m.events,
                m.packets,
                m.wall_secs,
                m.events_per_sec(),
                m.packets_per_sec()
            );
        }
        let _ = writeln!(
            out,
            "  {:<24} {:>12} {:>9} {:>14}",
            "microbench", "ops", "wall s", "ops/s"
        );
        for m in &self.micros {
            let _ = writeln!(
                out,
                "  {:<24} {:>12} {:>9.3} {:>14.0}",
                m.name,
                m.ops,
                m.wall_secs,
                m.ops_per_sec()
            );
        }
        if let Some(w) = &self.warm_start {
            let _ = writeln!(
                out,
                "  {:<24} {:>4} points, cold {:.3} s vs forked {:.3} s \
                 ({:.2}x), checkpoint {:.1} MiB",
                w.name,
                w.points,
                w.cold_wall_secs,
                w.warm_wall_secs,
                w.speedup(),
                w.checkpoint_bytes as f64 / (1024.0 * 1024.0)
            );
        }
        if let Some(rss) = self.peak_rss_bytes {
            let _ = writeln!(out, "  peak RSS: {:.1} MiB", rss as f64 / (1024.0 * 1024.0));
        }
        if let Some(a) = self.alloc {
            let _ = writeln!(
                out,
                "  allocations (macro phase): {} ({:.1} MiB)",
                a.allocations,
                a.bytes as f64 / (1024.0 * 1024.0)
            );
        }
        let _ = writeln!(out, "  host cores: {}", self.host_cores);
        if let Some(p) = &self.profile {
            let _ = writeln!(out, "  profile (scale macros):");
            out.push_str(&p.summary());
        }
        out
    }
}

/// Runs the harness: the CI-sized smoke variant (`smoke = true`: the
/// fig06 smoke macro plus shortened microbenches) or the full set of
/// macro workloads. `shards > 1` adds a second leg of the million-flow
/// macro on the sharded engine (same workload, `shards` workers) so the
/// report carries a sequential-vs-sharded comparison. With `profile` the
/// scale macros run under the engine's self-profiler (hash-neutral; see
/// [`pdos_sim::profile`]) and the report carries the per-event-type
/// breakdown.
pub fn run(smoke: bool, shards: usize, profile: bool) -> PerfReport {
    if profile && alloc::is_counting() {
        pdos_sim::profile::set_alloc_probe(profile_alloc_probe);
    }
    let alloc_before = alloc::is_counting().then(alloc::snapshot);
    let mut profile_acc: Option<ProfileSnapshot> = None;
    let mut fold_profile = |snap: Option<ProfileSnapshot>| {
        if let Some(snap) = snap {
            profile_acc
                .get_or_insert_with(ProfileSnapshot::default)
                .merge(&snap);
        }
    };
    let mut macros = vec![fig06_smoke(), fig06_smoke_metered()];
    if !smoke {
        macros.push(single_bottleneck_60s());
        macros.push(rtt_heterogeneous_50());
    }
    // The mid-size scale tier: cheap enough to gate every PR while the
    // full million-flow tier stays a nightly/full-run concern.
    let (bank, snap) = ring_run("flow-bank-smoke", FLOW_BANK_FLOWS, 1, profile);
    fold_profile(snap);
    macros.push(bank);
    // The scale macro: >= 1e5 struct-of-arrays flows (1e6 in the full
    // variant). Debug builds shrink it to a smoke-sized token — their
    // perf numbers are meaningless and the full flow count takes minutes
    // unoptimized — so honest scale readings come from release runs only.
    let flows = if cfg!(debug_assertions) {
        5_000
    } else if smoke {
        100_000
    } else {
        1_000_000
    };
    let (seq, snap) = ring_run("million-flow-smoke", flows, 1, profile);
    fold_profile(snap);
    macros.push(seq);
    if shards > 1 {
        let (sharded, snap) = ring_run("million-flow-smoke", flows, shards, profile);
        fold_profile(snap);
        // The sharded engine's contract is bit-identity, so the sharded
        // leg must process exactly the event sequence the sequential leg
        // did — only the wall clock may differ.
        let sequential = macros.last().expect("sequential leg just pushed");
        assert_eq!(
            (sequential.events, sequential.packets),
            (sharded.events, sharded.packets),
            "sharded macro leg diverged from the sequential engine"
        );
        macros.push(sharded);
    }
    let alloc = alloc_before.map(|before| alloc::snapshot().since(before));
    let warm_start = Some(fig06_grid_warmstart());
    let scale = if smoke { 1 } else { 4 };
    let micros = vec![
        micro_event_queue(200_000 * scale),
        micro_timer_churn(100_000 * scale),
        micro_queue_discipline(200_000 * scale),
    ];
    PerfReport {
        date: today_utc(),
        smoke,
        shards: shards.max(1),
        macros,
        micros,
        warm_start,
        peak_rss_bytes: peak_rss_bytes(),
        alloc,
        host_cores: host_cores(),
        profile: profile_acc,
    }
}

/// The profiler's allocation probe, backed by this crate's counting
/// allocator (zeros unless a binary registered it; see [`crate::alloc`]).
fn profile_alloc_probe() -> (u64, u64) {
    let s = alloc::snapshot();
    (s.allocations, s.bytes)
}

/// Logical cores the host exposes (1 when the reading is unavailable).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The scale macro: `flows` concurrent greedy AIMD flows (struct-of-
/// arrays banks) over the clustered ring topology, simulated for one
/// second. With `shards > 1` the run goes through the sharded engine —
/// which, by the determinism contract, processes the exact same event
/// sequence, so the two legs differ only in wall clock.
pub fn million_flow_smoke(flows: usize, shards: usize) -> MacroResult {
    ring_run("million-flow-smoke", flows, shards, false).0
}

/// Flows in the mid-size `flow-bank-smoke` tier: small enough to gate
/// every PR in CI, big enough that an O(flows) regression in the bank
/// hot path moves the needle far past the gate's noise budget.
pub const FLOW_BANK_FLOWS: usize = 10_000;

/// Runs `flows` bank flows on the ring for one simulated second on
/// `shards` workers; the macro is `name`, suffixed `-x<N>` when `N > 1`
/// shards engaged.
fn ring_run(
    name: &str,
    flows: usize,
    shards: usize,
    profile: bool,
) -> (MacroResult, Option<ProfileSnapshot>) {
    let horizon = SimDuration::from_secs(1);
    let mut sim = build_million_flow_sim(flows);
    let engaged = sim.enable_sharding(shards);
    if profile {
        sim.enable_profiler();
    }
    let t0 = Instant::now();
    sim.run_until(SimTime::ZERO + horizon);
    let wall = t0.elapsed().as_secs_f64();
    let stats = sim.stats();
    let name = if engaged > 1 {
        format!("{name}-x{engaged}")
    } else {
        name.to_string()
    };
    let result = MacroResult {
        name,
        sim_secs: horizon.as_secs_f64(),
        events: stats.events,
        packets: stats.delivered + stats.unclaimed,
        wall_secs: wall,
    };
    (result, sim.profile_snapshot())
}

/// The warm-start macro: a six-point fig06-style γ grid over one shared
/// scenario, swept cold (`warm_start(false)`: each of the seven runs —
/// baseline plus six points — simulates the 4 s warm-up itself) and then
/// warm-started (one warm-up, checkpointed, seven forks). Both sweeps run
/// on one worker so the wall-clock ratio isolates the checkpointing win,
/// and the reports are asserted bitwise-identical — the macro doubles as
/// an end-to-end equivalence check on every bench run.
pub fn fig06_grid_warmstart() -> WarmStartResult {
    let gammas = [0.20, 0.30, 0.40, 0.50, 0.60, 0.70];
    let scenario = ScenarioSpec::ns2_dumbbell(8);
    let warmup = SimDuration::from_secs(4);
    let window = SimDuration::from_secs(2);
    let specs: Vec<ExperimentSpec> = gammas
        .iter()
        .map(|&gamma| {
            ExperimentSpec::attacked(
                format!("bench/warmstart/g{gamma:.2}"),
                scenario.clone(),
                AttackPoint {
                    t_extent: 0.075,
                    r_attack: 25e6,
                    gamma,
                },
            )
            .warmup(warmup)
            .window(window)
        })
        .collect();
    let runner = SweepRunner::new(0)
        .seed_policy(SeedPolicy::FromScenario)
        .jobs(1);

    let t0 = Instant::now();
    let cold = runner.clone().warm_start(false).run(&specs);
    let cold_wall_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let warm = runner.warm_start(true).run(&specs);
    let warm_wall_secs = t1.elapsed().as_secs_f64();
    assert_eq!(
        cold.results_json(),
        warm.results_json(),
        "warm-start must be bitwise result-neutral"
    );

    let checkpoint_bytes = warm_start(&specs[0])
        .map(|w| w.approx_bytes() as u64)
        .unwrap_or(0);
    WarmStartResult {
        name: "fig06-grid-warmstart".to_string(),
        points: gammas.len() as u64,
        cold_wall_secs,
        warm_wall_secs,
        checkpoint_bytes,
    }
}

/// The canonical regression-gate workload: the fig06 smoke scenario
/// (8 flows, 75 ms pulses at 25 Mbps, γ = 0.4, 4 s warm-up + 8 s
/// window) — the same scenario family as the golden conformance traces.
pub fn fig06_smoke() -> MacroResult {
    run_attacked(
        "fig06-smoke",
        ScenarioSpec::ns2_dumbbell(8),
        0.075,
        25e6,
        0.40,
        SimDuration::from_secs(4),
        SimDuration::from_secs(8),
        false,
    )
}

/// The regression-gate workload with the metrics registry enabled —
/// reported alongside [`fig06_smoke`] so the observability layer's
/// runtime overhead stays visible in every bench report. The CI gate
/// itself keys on the unmetered `fig06-smoke` only.
pub fn fig06_smoke_metered() -> MacroResult {
    run_attacked(
        "fig06-smoke-metrics",
        ScenarioSpec::ns2_dumbbell(8),
        0.075,
        25e6,
        0.40,
        SimDuration::from_secs(4),
        SimDuration::from_secs(8),
        true,
    )
}

/// A long benign run: 15 flows sharing the ns-2 bottleneck for 60 s of
/// simulated time with no attack — pure TCP/queue dynamics.
pub fn single_bottleneck_60s() -> MacroResult {
    run_benign(
        "single-bottleneck-60s",
        ScenarioSpec::ns2_dumbbell(15),
        SimDuration::from_secs(60),
    )
}

/// A wide, RTT-heterogeneous attacked run: 50 flows with RTTs spread
/// 20–460 ms under 75 ms pulses at 30 Mbps, γ = 0.4.
pub fn rtt_heterogeneous_50() -> MacroResult {
    run_attacked(
        "rtt-heterogeneous-50",
        ScenarioSpec::ns2_dumbbell(50),
        0.075,
        30e6,
        0.40,
        SimDuration::from_secs(5),
        SimDuration::from_secs(15),
        false,
    )
}

#[allow(clippy::too_many_arguments)]
fn run_attacked(
    name: &str,
    spec: ScenarioSpec,
    t_extent: f64,
    r_attack: f64,
    gamma: f64,
    warmup: SimDuration,
    window: SimDuration,
    metered: bool,
) -> MacroResult {
    let train = PulseTrain::from_gamma(
        SimDuration::from_secs_f64(t_extent),
        BitsPerSec::from_bps(r_attack),
        spec.bottleneck,
        gamma,
    )
    .expect("canonical bench attack parameters are feasible");
    let mut bench = spec.build().expect("canonical bench scenario builds");
    if metered {
        bench.sim.enable_metrics();
    }
    // Warm up first, attach at the boundary: the same event order the
    // experiment layer uses for both its cold and forked runs.
    let t0 = Instant::now();
    bench.run_until(SimTime::ZERO + warmup);
    bench.attach_pulse_attack(train, SimTime::ZERO + warmup, None);
    bench.run_until(SimTime::ZERO + warmup + window);
    let wall = t0.elapsed().as_secs_f64();
    let stats = bench.sim.stats();
    MacroResult {
        name: name.to_string(),
        sim_secs: (warmup + window).as_secs_f64(),
        events: stats.events,
        packets: stats.delivered + stats.unclaimed,
        wall_secs: wall,
    }
}

fn run_benign(name: &str, spec: ScenarioSpec, horizon: SimDuration) -> MacroResult {
    let mut bench = spec.build().expect("canonical bench scenario builds");
    let t0 = Instant::now();
    bench.run_until(SimTime::ZERO + horizon);
    let wall = t0.elapsed().as_secs_f64();
    let stats = bench.sim.stats();
    MacroResult {
        name: name.to_string(),
        sim_secs: horizon.as_secs_f64(),
        events: stats.events,
        packets: stats.delivered + stats.unclaimed,
        wall_secs: wall,
    }
}

/// A tiny deterministic generator for bench schedules (SplitMix64).
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Event-queue microbench: interleaved schedule/pop of packet-tier
/// events with pseudorandom timestamps (the engine's arrival pattern).
pub fn micro_event_queue(n: u64) -> MicroResult {
    let mut q = EventQueue::new();
    let mut rng = Mix(7);
    let t0 = Instant::now();
    let mut ops = 0u64;
    for i in 0..n {
        let at = SimTime::from_nanos(rng.next() % 1_000_000_000);
        q.schedule(
            at,
            Event::LinkTxDone {
                link: pdos_sim::link::LinkId::from_u32((i % 64) as u32),
            },
        );
        ops += 1;
        if i % 2 == 1 {
            let _ = std::hint::black_box(q.pop());
            ops += 1;
        }
    }
    while q.pop().is_some() {
        ops += 1;
    }
    MicroResult {
        name: "event-queue".to_string(),
        ops,
        wall_secs: t0.elapsed().as_secs_f64(),
    }
}

/// Timer-churn microbench: the RTO pattern — every armed timer is
/// superseded before it fires (schedule, then cancel or supersede),
/// which is exactly the load lazy cancellation turns into heap bloat.
pub fn micro_timer_churn(n: u64) -> MicroResult {
    let mut q = EventQueue::new();
    let mut rng = Mix(11);
    let agent = pdos_sim::agent::AgentId::from_u32(0);
    let t0 = Instant::now();
    let mut ops = 0u64;
    let mut pending = Vec::new();
    for i in 0..n {
        let at = SimTime::from_nanos(1_000_000 + rng.next() % 4_000_000_000);
        pending.push(q.schedule_timer(at, agent, i));
        ops += 1;
        // Cancel the previously armed timer (RTO re-arm churn).
        if pending.len() >= 2 {
            let stale = pending.remove(0);
            q.cancel_timer(stale);
            ops += 1;
        }
        if i % 8 == 7 {
            let _ = std::hint::black_box(q.pop());
            ops += 1;
        }
    }
    while q.pop().is_some() {
        ops += 1;
    }
    MicroResult {
        name: "timer-churn".to_string(),
        ops,
        wall_secs: t0.elapsed().as_secs_f64(),
    }
}

/// Queue-discipline microbench: RED enqueue/dequeue under a bursty
/// arrival pattern (the bottleneck's inner loop).
pub fn micro_queue_discipline(n: u64) -> MicroResult {
    let mut red = QueueSpec::Red(RedConfig::ns2_default(60)).build(BitsPerSec::from_mbps(15.0), 3);
    let mut rng = Mix(13);
    let pkt = Packet::new(
        FlowId::from_u32(1),
        NodeId::from_u32(0),
        NodeId::from_u32(1),
        Bytes::from_u64(1000),
        PacketKind::Background,
    );
    let t0 = Instant::now();
    let mut ops = 0u64;
    let mut now = SimTime::ZERO;
    for i in 0..n {
        now += SimDuration::from_nanos(200_000 + rng.next() % 600_000);
        let _ = std::hint::black_box(red.enqueue(pkt, now));
        ops += 1;
        // Bursts: drain every second slot so the queue oscillates.
        if i % 2 == 0 {
            let _ = std::hint::black_box(red.dequeue(now));
            ops += 1;
        }
    }
    MicroResult {
        name: "red-queue".to_string(),
        ops,
        wall_secs: t0.elapsed().as_secs_f64(),
    }
}

/// The current UTC date as `YYYY-MM-DD`, computed from the system clock
/// (civil-from-days; no external date dependency).
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    // Howard Hinnant's civil_from_days algorithm.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// Peak resident set size of this process in bytes, read from
/// `/proc/self/status` (`VmHWM`). `None` on non-Linux hosts.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Extracts `events_per_sec` for the named macro workload from a
/// report previously serialized with [`PerfReport::to_json`]. This is a
/// purpose-built extractor for the harness's own output format, not a
/// general JSON parser.
/// Whether `json` is a bench report this harness can read: schema
/// `pdos-bench/4` (current), `pdos-bench/3` (lacks the `host_cores` and
/// `profile` fields, so [`extract_host_cores`] returns `None`),
/// `pdos-bench/2` (also lacks `shards`, so [`extract_shards`] defaults
/// to 1) or `pdos-bench/1` (also lacks the `warm_start` section, so its
/// extractors return `None` gracefully).
pub fn schema_supported(json: &str) -> bool {
    [
        "pdos-bench/1",
        "pdos-bench/2",
        "pdos-bench/3",
        "pdos-bench/4",
    ]
    .iter()
    .any(|v| json.contains(&format!("\"schema\":\"{v}\"")))
}

/// The logical core count the report was produced on. Reports from
/// schemas `/1`–`/3` predate the field and read as `None`.
pub fn extract_host_cores(json: &str) -> Option<usize> {
    extract_number_after(json, "\"host_cores\":").map(|v| (v as usize).max(1))
}

/// The named kind's event count from the report's `profile` section, if
/// the report was produced with `--profile`.
pub fn extract_profile_kind_count(json: &str, kind: &str) -> Option<u64> {
    let obj = &json[json.find("\"profile\":{")?..];
    let needle = format!("\"name\":\"{kind}\"");
    let rest = &obj[obj.find(&needle)?..];
    extract_number_after(rest, "\"count\":").map(|v| v as u64)
}

/// The worker shards the report's macros were run with. Reports from
/// schemas `/1` and `/2` predate sharding and read as 1.
pub fn extract_shards(json: &str) -> usize {
    extract_number_after(json, "\"shards\":")
        .map(|v| (v as usize).max(1))
        .unwrap_or(1)
}

/// Extracts a top-level numeric field (`null` and absence both yield
/// `None`). Purpose-built for the harness's own output format.
fn extract_number_after(json: &str, key: &str) -> Option<f64> {
    let v = &json[json.find(key)? + key.len()..];
    let end = v
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(v.len());
    v[..end].parse().ok()
}

/// The report's peak RSS in bytes, if recorded.
pub fn extract_peak_rss_bytes(json: &str) -> Option<u64> {
    extract_number_after(json, "\"peak_rss_bytes\":").map(|v| v as u64)
}

/// The report's macro-phase allocation count, if recorded.
pub fn extract_alloc_allocations(json: &str) -> Option<u64> {
    let obj = &json[json.find("\"alloc\":")?..];
    extract_number_after(obj, "\"allocations\":").map(|v| v as u64)
}

/// The warm-start macro's cold/forked speedup, if recorded (`None` for
/// schema `pdos-bench/1` reports).
pub fn extract_warm_start_speedup(json: &str) -> Option<f64> {
    let obj = &json[json.find("\"warm_start\":{")?..];
    extract_number_after(obj, "\"speedup\":")
}

/// The warm-start macro's checkpoint footprint in bytes, if recorded.
pub fn extract_warm_start_checkpoint_bytes(json: &str) -> Option<u64> {
    let obj = &json[json.find("\"warm_start\":{")?..];
    extract_number_after(obj, "\"checkpoint_bytes\":").map(|v| v as u64)
}

pub fn extract_macro_events_per_sec(json: &str, name: &str) -> Option<f64> {
    let needle = format!("\"name\":\"{name}\"");
    let obj_start = json.find(&needle)?;
    let rest = &json[obj_start..];
    let obj_end = rest.find('}').unwrap_or(rest.len());
    let obj = &rest[..obj_end];
    let key = "\"events_per_sec\":";
    let v = &obj[obj.find(key)? + key.len()..];
    let end = v
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(v.len());
    v[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrips_the_gate_metric() {
        let report = PerfReport {
            date: "2026-08-06".into(),
            smoke: true,
            shards: 4,
            macros: vec![MacroResult {
                name: "fig06-smoke".into(),
                sim_secs: 12.0,
                events: 1_000_000,
                packets: 300_000,
                wall_secs: 0.5,
            }],
            micros: vec![MicroResult {
                name: "event-queue".into(),
                ops: 100,
                wall_secs: 0.001,
            }],
            warm_start: Some(WarmStartResult {
                name: "fig06-grid-warmstart".into(),
                points: 6,
                cold_wall_secs: 0.9,
                warm_wall_secs: 0.3,
                checkpoint_bytes: 2_000_000,
            }),
            peak_rss_bytes: Some(12 * 1024 * 1024),
            alloc: Some(AllocSnapshot {
                allocations: 42,
                bytes: 1024,
            }),
            host_cores: 8,
            profile: Some({
                let mut p = ProfileSnapshot::default();
                p.kinds[0].count = 1_000;
                p.kinds[0].wall_nanos = 5_000;
                p
            }),
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\":\"pdos-bench/4\""), "{json}");
        assert!(schema_supported(&json), "{json}");
        assert!(json.contains("\"shards\":4"), "{json}");
        assert_eq!(extract_shards(&json), 4);
        assert_eq!(extract_host_cores(&json), Some(8));
        assert_eq!(extract_profile_kind_count(&json, "deliver"), Some(1_000));
        assert_eq!(extract_profile_kind_count(&json, "timer"), Some(0));
        assert_eq!(extract_profile_kind_count(&json, "nonexistent"), None);
        assert!(json.contains("\"peak_rss_bytes\":12582912"), "{json}");
        assert!(json.contains("\"allocations\":42"), "{json}");
        assert!(json.contains("\"checkpoint_bytes\":2000000"), "{json}");
        let eps = extract_macro_events_per_sec(&json, "fig06-smoke").expect("metric extracted");
        assert!((eps - 2_000_000.0).abs() < 1.0, "{eps}");
        assert_eq!(extract_macro_events_per_sec(&json, "nonexistent"), None);
        assert_eq!(extract_peak_rss_bytes(&json), Some(12 * 1024 * 1024));
        assert_eq!(extract_alloc_allocations(&json), Some(42));
        let speedup = extract_warm_start_speedup(&json).expect("speedup extracted");
        assert!((speedup - 3.0).abs() < 1e-9, "{speedup}");
        assert_eq!(extract_warm_start_checkpoint_bytes(&json), Some(2_000_000));
        assert!(report.summary().contains("fig06-smoke"));
        assert!(report.summary().contains("fig06-grid-warmstart"));
    }

    #[test]
    fn null_fields_serialize() {
        let report = PerfReport {
            date: "2026-08-06".into(),
            smoke: false,
            shards: 1,
            macros: vec![],
            micros: vec![],
            warm_start: None,
            peak_rss_bytes: None,
            alloc: None,
            host_cores: 1,
            profile: None,
        };
        let json = report.to_json();
        assert!(json.contains("\"warm_start\":null"), "{json}");
        assert!(json.contains("\"peak_rss_bytes\":null"), "{json}");
        assert!(json.contains("\"alloc\":null"), "{json}");
        assert!(json.contains("\"profile\":null"), "{json}");
        assert_eq!(extract_warm_start_speedup(&json), None);
        assert_eq!(extract_peak_rss_bytes(&json), None);
        assert_eq!(extract_profile_kind_count(&json, "deliver"), None);
    }

    #[test]
    fn schema_1_reports_still_read() {
        // A pre-warm-start report (the `/1` schema): the gate metric and
        // resource readings extract; the warm-start extractors return None.
        let v1 = "{\"schema\":\"pdos-bench/1\",\"date\":\"2026-08-07\",\"smoke\":true,\
                  \"macros\":[{\"name\":\"fig06-smoke\",\"events_per_sec\":5416242.3}],\
                  \"micros\":[],\"peak_rss_bytes\":7032832,\
                  \"alloc\":{\"allocations\":101752,\"bytes\":30148821}}";
        assert!(schema_supported(v1));
        assert!(!schema_supported("{\"schema\":\"pdos-bench/99\"}"));
        let eps = extract_macro_events_per_sec(v1, "fig06-smoke").unwrap();
        assert!((eps - 5_416_242.3).abs() < 0.5, "{eps}");
        assert_eq!(extract_peak_rss_bytes(v1), Some(7_032_832));
        assert_eq!(extract_alloc_allocations(v1), Some(101_752));
        assert_eq!(extract_warm_start_speedup(v1), None);
        assert_eq!(extract_warm_start_checkpoint_bytes(v1), None);
        assert_eq!(extract_shards(v1), 1, "pre-sharding schema implies 1");
        assert_eq!(extract_host_cores(v1), None, "pre-/4 schema has no cores");
    }

    #[test]
    fn schema_2_reports_still_read() {
        // A pre-sharding report (the `/2` schema): everything extracts;
        // the shards field defaults to 1.
        let v2 = "{\"schema\":\"pdos-bench/2\",\"date\":\"2026-08-07\",\"smoke\":true,\
                  \"macros\":[{\"name\":\"fig06-smoke\",\"events_per_sec\":5416242.3}],\
                  \"micros\":[],\"warm_start\":{\"name\":\"fig06-grid-warmstart\",\
                  \"points\":6,\"cold_wall_secs\":0.9,\"warm_wall_secs\":0.3,\
                  \"speedup\":3.000,\"checkpoint_bytes\":2000000},\
                  \"peak_rss_bytes\":7032832,\"alloc\":null}";
        assert!(schema_supported(v2));
        let eps = extract_macro_events_per_sec(v2, "fig06-smoke").unwrap();
        assert!((eps - 5_416_242.3).abs() < 0.5, "{eps}");
        assert_eq!(extract_shards(v2), 1);
        let speedup = extract_warm_start_speedup(v2).unwrap();
        assert!((speedup - 3.0).abs() < 1e-9, "{speedup}");
        assert_eq!(extract_host_cores(v2), None);
    }

    #[test]
    fn schema_3_reports_still_read() {
        // A pre-host-cores/profile report (the `/3` schema, the last one
        // before this harness profiled itself): everything extracts; the
        // new fields read back as absent.
        let v3 = "{\"schema\":\"pdos-bench/3\",\"date\":\"2026-08-07\",\"smoke\":true,\
                  \"shards\":2,\
                  \"macros\":[{\"name\":\"million-flow-smoke\",\"events_per_sec\":191621.4}],\
                  \"micros\":[],\"warm_start\":{\"name\":\"fig06-grid-warmstart\",\
                  \"points\":6,\"cold_wall_secs\":0.9,\"warm_wall_secs\":0.3,\
                  \"speedup\":3.000,\"checkpoint_bytes\":2000000},\
                  \"peak_rss_bytes\":7032832,\"alloc\":{\"allocations\":297545,\
                  \"bytes\":291000000}}";
        assert!(schema_supported(v3));
        let eps = extract_macro_events_per_sec(v3, "million-flow-smoke").unwrap();
        assert!((eps - 191_621.4).abs() < 0.5, "{eps}");
        assert_eq!(extract_shards(v3), 2);
        assert_eq!(extract_alloc_allocations(v3), Some(297_545));
        assert_eq!(extract_host_cores(v3), None);
        assert_eq!(extract_profile_kind_count(v3, "deliver"), None);
    }

    #[test]
    fn million_flow_macro_is_shard_invariant() {
        // A miniature of the scale macro (the real flow counts only run
        // under `pdos bench` in release builds): the sharded engine must
        // process the byte-identical event sequence, so events and
        // packets agree exactly between one and many workers.
        let sequential = million_flow_smoke(2_000, 1);
        let sharded = million_flow_smoke(2_000, 4);
        assert_eq!(sequential.name, "million-flow-smoke");
        assert_eq!(sharded.name, "million-flow-smoke-x4");
        assert!(sequential.events > 0, "{sequential:?}");
        assert!(sequential.packets > 0, "{sequential:?}");
        assert_eq!(sequential.events, sharded.events);
        assert_eq!(sequential.packets, sharded.packets);
        // Pinned: a change to the ring's wiring moves these.
        assert_eq!((sequential.events, sequential.packets), (542_832, 99_088));
    }

    #[test]
    fn warmstart_macro_speeds_up_and_records_checkpoint_size() {
        let w = fig06_grid_warmstart();
        assert_eq!(w.points, 6);
        assert!(w.checkpoint_bytes > 0, "{w:?}");
        // The macro asserts result-equality internally; the perf bar
        // itself (>= 1.3x) is enforced by the CLI gate against the
        // committed report, not here, to keep the test robust on loaded
        // machines — but forking should never be slower than cold.
        assert!(w.speedup() > 1.0, "warm-start slower than cold: {:?}", w);
    }

    #[test]
    fn date_is_civil_and_plausible() {
        let d = today_utc();
        assert_eq!(d.len(), 10, "{d}");
        assert_eq!(&d[4..5], "-");
        let year: i32 = d[..4].parse().unwrap();
        assert!(year >= 2024, "{d}");
    }

    #[test]
    fn microbenches_run_quickly_and_count_ops() {
        let eq = micro_event_queue(2_000);
        assert!(eq.ops >= 2_000);
        assert!(eq.ops_per_sec() > 0.0);
        let tc = micro_timer_churn(2_000);
        assert!(tc.ops >= 2_000);
        let rq = micro_queue_discipline(2_000);
        assert!(rq.ops >= 2_000);
    }

    #[test]
    fn rss_reads_on_linux() {
        if cfg!(target_os = "linux") {
            let rss = peak_rss_bytes().expect("VmHWM available on Linux");
            assert!(rss > 0);
        }
    }
}
