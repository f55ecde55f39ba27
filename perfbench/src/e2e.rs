//! The untraced jobs: each workload through the library calls its `pdos`
//! command makes (`pdos sweep --fig fig06 --jobs 1`, `pdos fuzz --jobs 1`;
//! million-flow has no command and uses `pdos_bench::perf`'s builder),
//! minus the console summary, with one timestamp taken at the first call
//! into the simulation (`setup_s`, measured from the start of `main`).
//!
//! A job takes two options: `--seed N` (the two sweeps) and `--out PATH`
//! (where the report goes). Everything else about a workload is a
//! constant of this module, and every job prints those constants in its
//! `params` object, which the harness copies into the run record.

use crate::json::Obj;
use pdos_bench::perf::{build_million_flow_sim, MILLION_FLOW_CLUSTERS};
use pdos_cli::args::Args;
use pdos_fuzz::{run_campaign, shrink_report, CampaignConfig, CampaignReport};
use pdos_scenarios::figures::{gain_figure_specs, FigureGrid, GainFigure};
use pdos_scenarios::runner::{
    fnv1a64, ExperimentSpec, RunOutcome, SeedPolicy, SweepReport, SweepRunner,
};
use pdos_sim::agent::AgentId;
use pdos_sim::engine::Simulator;
use pdos_sim::time::{SimDuration, SimTime};
use pdos_tcp::bank::SenderBank;
use std::time::Instant;

/// The gain figure fig06-sweep regenerates, at full resolution.
pub const FIGURE: GainFigure = GainFigure::Fig06;

/// Sweep workers of both sweeps: one, so the second vCPU of a 2-vCPU
/// host stays with the OS and the harness.
pub const SWEEP_JOBS: usize = 1;

/// Flows of the million-flow run.
pub const MILLION_FLOWS: usize = 1_000_000;

/// Shards of the million-flow run.
pub const MILLION_SHARDS: usize = 2;

/// Simulated seconds of the million-flow run.
pub const MILLION_WINDOW_S: u64 = 2;

/// Seeds that later claims are re-checked on, besides the default.
pub const FIG06_ALTERNATE_SEED: u64 = 2;
pub const FUZZ_ALTERNATE_SEED: u64 = 11;

/// Record indices of the fig06 grid whose results the `verify` mode
/// recomputes cold: the first, a middle and the last point.
pub const FIG06_SAMPLES: [usize; 3] = [0, 47, 95];

/// The `--seed` option, if given.
pub fn seed(args: &Args) -> Result<Option<u64>, String> {
    args.get("seed")
        .map(|_| args.require_num("seed").map_err(|e| e.0))
        .transpose()
}

/// The fig06 grid at full resolution. Without a seed the figure keeps
/// its pinned scenario seed (1); a seed re-pins every point's scenario
/// seed. Points of one panel keep sharing a scenario, so the warm-start
/// prefixes stay shared whatever the seed.
pub fn fig06_specs(seed: Option<u64>) -> Vec<ExperimentSpec> {
    let mut specs = gain_figure_specs(FIGURE, &FigureGrid::full());
    if let Some(seed) = seed {
        for spec in &mut specs {
            spec.scenario.seed = seed;
        }
    }
    specs
}

/// The runner `pdos sweep --fig` builds when no `--master-seed` is given
/// (warm start on).
pub fn fig06_runner() -> SweepRunner {
    SweepRunner::new(0)
        .seed_policy(SeedPolicy::FromScenario)
        .jobs(SWEEP_JOBS)
}

/// `pdos fuzz`'s defaults (200 requested cases, master seed 7) with one
/// worker.
pub fn fuzz_config(seed: Option<u64>) -> CampaignConfig {
    let defaults = CampaignConfig::default();
    CampaignConfig {
        master_seed: seed.unwrap_or(defaults.master_seed),
        jobs: SWEEP_JOBS,
        ..defaults
    }
}

/// The fig06 constants and seed, for the run record.
pub fn fig06_params(specs: &[ExperimentSpec]) -> Obj {
    let mut o = Obj::default();
    o.str("figure", FIGURE.name())
        .int("points", specs.len() as u64)
        .int("workers", SWEEP_JOBS as u64)
        .int("shards", 1)
        .str("seed_policy", "from-scenario")
        .int("seed", specs.first().map_or(0, |s| s.scenario.seed))
        .int("alternate_seed", FIG06_ALTERNATE_SEED);
    o
}

/// The fuzz constants and seed, for the run record.
pub fn fuzz_params(cfg: &CampaignConfig) -> Obj {
    let mut o = Obj::default();
    o.int("scenarios", cfg.scenarios as u64)
        .int("workers", cfg.jobs as u64)
        .str("shards", "1 or 2, drawn per case")
        .int("seed", cfg.master_seed)
        .int("alternate_seed", FUZZ_ALTERNATE_SEED);
    o
}

/// The million-flow constants, for the run record.
pub fn million_params() -> Obj {
    let mut o = Obj::default();
    o.int("flows", MILLION_FLOWS as u64)
        .int("workers", 1)
        .int("shards", MILLION_SHARDS as u64)
        .int("window_s", MILLION_WINDOW_S)
        .str("seed", "none: the workload has no random input");
    o
}

/// Writes the report where `--out` points (skipped without `--out`).
/// Returns the bytes written.
pub fn write_report(args: &Args, json: &str) -> Result<u64, String> {
    if let Some(path) = args.get("out") {
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(json.len() as u64)
}

/// The fig06 outputs the harness checks: operations (records), `ok`
/// records, the digest of `results_json()`, the sampled records' digests
/// and the runner's warm-start counts, which `results_json()` leaves out.
pub fn fig06_outputs(report: &SweepReport, out: &mut Obj) {
    let ok = report
        .records
        .iter()
        .filter(|r| matches!(r.outcome, RunOutcome::Point { .. }))
        .count();
    let mut samples = Obj::default();
    for i in FIG06_SAMPLES {
        if let Some(r) = report.records.get(i) {
            samples.digest(&i.to_string(), fnv1a64(r.result_json().as_bytes()));
        }
    }
    out.int("ops", report.records.len() as u64)
        .int("ops_ok", ok as u64)
        .digest("digest", fnv1a64(report.results_json().as_bytes()))
        .raw("samples", samples.render())
        .int("warmups", report.warmups as u64)
        .int("forked_runs", report.forked_runs as u64);
}

/// The fuzz outputs the harness checks: operations (cases), passing
/// cases, the digest of the `pdos-fuzz/1` report, its verdict and the
/// warm-start counts (which the report, and so its digest, also covers).
pub fn fuzz_outputs(report: &CampaignReport, json: &str, out: &mut Obj) {
    let ok = report
        .results
        .iter()
        .filter(|r| r.violation.is_none())
        .count();
    out.int("ops", report.cases_run as u64)
        .int("ops_ok", ok as u64)
        .digest("digest", fnv1a64(json.as_bytes()))
        .str("pass", if report.pass() { "yes" } else { "no" })
        .int("warmups", report.warmups as u64)
        .int("forked_runs", report.forked_runs as u64);
}

/// Sums over the million-flow run's sender banks.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BankTotals {
    pub flows: u64,
    pub segments_sent: u64,
    pub retransmissions: u64,
    pub timeouts: u64,
    pub acked: u64,
    pub state_bytes: u64,
}

/// Reads every sender bank of [`build_million_flow_sim`]'s topology,
/// which attaches one sender bank and one sink bank per cluster.
pub fn bank_totals(sim: &Simulator) -> BankTotals {
    let mut t = BankTotals::default();
    for i in 0..2 * MILLION_FLOW_CLUSTERS {
        let id = AgentId::from_u32(i as u32);
        if let Some(b) = sim.agent_as::<SenderBank>(id) {
            t.flows += b.n_flows() as u64;
            t.segments_sent += b.segments_sent();
            t.retransmissions += b.retransmissions();
            t.timeouts += b.timeouts();
            t.acked += b.total_acked();
            t.state_bytes += b.approx_bytes() as u64;
        }
    }
    t
}

/// The million-flow outputs the harness compares with its pins.
pub fn million_outputs(sim: &Simulator, banks: &BankTotals) -> Obj {
    let stats = sim.stats();
    let mut o = Obj::default();
    o.int("flows", banks.flows)
        .int("delivered", stats.delivered)
        .int("queue_drops", stats.queue_drops)
        .int("acked", banks.acked)
        .int("segments_sent", banks.segments_sent);
    o
}

/// The million-flow run's end instant.
pub fn million_horizon() -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(MILLION_WINDOW_S)
}

/// Runs one untraced job. Returns the result line.
pub fn run(workload: &str, args: &Args, start: &Instant) -> Result<Obj, String> {
    let seed = seed(args)?;
    let mut out = Obj::default();
    match workload {
        "fig06-sweep" => {
            let specs = fig06_specs(seed);
            let runner = fig06_runner();
            out.num("setup_s", start.elapsed().as_secs_f64())
                .raw("params", fig06_params(&specs).render());
            let report = runner.run(&specs);
            write_report(args, &report.to_json())?;
            fig06_outputs(&report, &mut out);
        }
        "fuzz-campaign" => {
            let cfg = fuzz_config(seed);
            out.num("setup_s", start.elapsed().as_secs_f64())
                .raw("params", fuzz_params(&cfg).render());
            let mut report = run_campaign(&cfg);
            if !report.pass() {
                shrink_report(&mut report, &cfg);
            }
            let json = report.to_json();
            write_report(args, &json)?;
            fuzz_outputs(&report, &json, &mut out);
        }
        "million-flow" => {
            if seed.is_some() {
                return Err("million-flow has no random input; it takes no --seed".into());
            }
            let mut sim = build_million_flow_sim(MILLION_FLOWS);
            sim.enable_sharding(MILLION_SHARDS);
            out.num("setup_s", start.elapsed().as_secs_f64())
                .raw("params", million_params().render());
            sim.run_until(million_horizon());
            let outputs = million_outputs(&sim, &bank_totals(&sim)).render();
            write_report(args, &outputs)?;
            out.int("ops", 1).int("ops_ok", 1).raw("outputs", outputs);
        }
        other => return Err(format!("unknown workload '{other}'")),
    }
    Ok(out)
}

/// Recomputes the [`FIG06_SAMPLES`] points cold (no warm start, no
/// shared baseline): the forked==cold check for seeds without a pinned
/// digest.
pub fn verify(args: &Args) -> Result<Obj, String> {
    let specs = fig06_specs(seed(args)?);
    let runner = fig06_runner().warm_start(false);
    let mut samples = Obj::default();
    for i in FIG06_SAMPLES {
        let spec = specs.get(i).ok_or("fig06 grid is smaller than expected")?;
        let record = runner.execute_one(spec);
        samples.digest(&i.to_string(), fnv1a64(record.result_json().as_bytes()));
    }
    let mut out = Obj::default();
    out.raw("samples", samples.render());
    Ok(out)
}
