//! Shared helpers for the figure-regeneration benchmarks.
//!
//! Each bench target in `benches/` regenerates one figure of Luo & Chang
//! (DSN 2005): it prints the analytical curve and the simulated points in
//! aligned rows, the way the paper plots lines and symbols. Absolute
//! numbers differ from the paper's testbeds; the *shape* (who wins, where
//! the maxima sit, where shrew spikes appear) is the reproduction target.
//!
//! Set `PDOS_BENCH_FAST=1` to shrink measurement windows for smoke runs.

pub mod alloc;
pub mod perf;

use pdos_analysis::model::c_psi;
use pdos_scenarios::prelude::*;
use pdos_sim::time::SimDuration;

/// The pulse widths the figure panels sweep (§4.1): 50, 75, 100 ms.
pub const TEXTENTS: [f64; 3] = [0.050, 0.075, 0.100];

/// The flow counts of the four panels of each of Figs. 6–9.
pub const PANEL_FLOWS: [usize; 4] = [15, 25, 35, 45];

/// Standard γ sampling for the gain figures.
pub fn standard_gammas() -> Vec<f64> {
    gamma_grid(0.08, 0.92, 8)
}

/// Measurement window, honoring `PDOS_BENCH_FAST`.
pub fn window() -> SimDuration {
    if fast_mode() {
        SimDuration::from_secs(12)
    } else {
        SimDuration::from_secs(40)
    }
}

/// Warm-up length, honoring `PDOS_BENCH_FAST`.
pub fn warmup() -> SimDuration {
    if fast_mode() {
        SimDuration::from_secs(4)
    } else {
        SimDuration::from_secs(10)
    }
}

/// Whether the fast (smoke-test) mode is requested.
pub fn fast_mode() -> bool {
    std::env::var_os("PDOS_BENCH_FAST").is_some()
}

/// Builds the standard experiment driver for a flow count.
pub fn experiment(n_flows: usize) -> GainExperiment {
    GainExperiment::new(ScenarioSpec::ns2_dumbbell(n_flows))
        .warmup(warmup())
        .window(window())
}

/// The figure grid at bench resolution, honoring `PDOS_BENCH_FAST`: the
/// full panel/width/γ enumeration with bench windows.
pub fn figure_grid() -> FigureGrid {
    FigureGrid {
        flows: PANEL_FLOWS.to_vec(),
        textents: TEXTENTS.to_vec(),
        gammas: standard_gammas(),
        warmup: warmup(),
        window: window(),
    }
}

/// Runs figure specs through the parallel deterministic runner.
/// `FromScenario` pins the figures' scenario seeds, so the parallel sweep
/// reproduces the serial tables exactly. `PDOS_BENCH_JOBS` overrides the
/// worker count (default: one per CPU).
pub fn run_figure_specs(specs: &[ExperimentSpec]) -> SweepReport {
    let jobs = std::env::var("PDOS_BENCH_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    SweepRunner::new(0)
        .seed_policy(SeedPolicy::FromScenario)
        .jobs(jobs)
        .run(specs)
}

/// One figure curve as runner specs: `template` (a benign spec carrying
/// the scenario and windows) attacked at each γ, with ids under the
/// template's id.
pub fn curve_specs(
    template: &ExperimentSpec,
    t_extent: f64,
    r_attack: f64,
    gammas: &[f64],
) -> Vec<ExperimentSpec> {
    gammas
        .iter()
        .map(|&gamma| ExperimentSpec {
            id: format!("{}/g{gamma:.3}", template.id),
            attack: Some(AttackPoint {
                t_extent,
                r_attack,
                gamma,
            }),
            ..template.clone()
        })
        .collect()
}

/// The measured points of `records`, skipping infeasible γ values the way
/// the serial sweeps did; any other failure aborts the bench.
pub fn curve_points(records: &[RunRecord]) -> Vec<GainPoint> {
    records
        .iter()
        .filter_map(|r| match &r.outcome {
            RunOutcome::Point { point, .. } => Some(*point),
            RunOutcome::Infeasible { .. } => None,
            other => panic!("{} failed: {other:?}", r.id),
        })
        .collect()
}

/// Regenerates one gain figure (Figs. 6–9) through the parallel
/// deterministic runner and prints the same panel tables the serial
/// loops used to, plus a throughput line.
pub fn run_gain_figure(fig: GainFigure) {
    let grid = figure_grid();
    let report = run_figure_specs(&gain_figure_specs(fig, &grid));
    print_gain_report(fig, &grid, &report);
}

fn print_gain_report(fig: GainFigure, grid: &FigureGrid, report: &SweepReport) {
    let r_attack_mbps = fig.r_attack_mbps();
    let per_panel = grid.textents.len() * grid.gammas.len();
    for (panel, &n_flows) in grid.flows.iter().enumerate() {
        let records = &report.records[panel * per_panel..(panel + 1) * per_panel];
        let baseline = records
            .iter()
            .map(|r| r.baseline_bytes)
            .find(|&b| b > 0)
            .unwrap_or(0);
        println!(
            "\n--- {n_flows} TCP flows, R_attack = {r_attack_mbps} Mbps (baseline {:.2} Mbps) ---",
            baseline as f64 * 8.0 / grid.window.as_secs_f64() / 1e6
        );
        println!(
            "{:>9} {:>6} | {:>8} {:>8} {:>8} | {:>6} {:>6}",
            "T_extent", "gamma", "T_AIMD", "G_curve", "G_sim", "shrew", "class"
        );
        for (width, &t_extent) in grid.textents.iter().enumerate() {
            let n = grid.gammas.len();
            let curve = &records[width * n..(width + 1) * n];
            let mut pairs = Vec::with_capacity(n);
            for r in curve {
                match &r.outcome {
                    RunOutcome::Point { point: p, .. } => {
                        println!(
                            "{:>7}ms {:>6.2} | {:>7.2}s {:>8.3} {:>8.3} | {:>6} {:>6}",
                            (t_extent * 1000.0) as u64,
                            p.gamma,
                            p.t_aimd,
                            p.g_analytic,
                            p.g_sim,
                            p.shrew.map(|n| n.to_string()).unwrap_or_else(|| "-".into()),
                            p.class,
                        );
                        pairs.push((p.g_analytic, p.g_sim));
                    }
                    RunOutcome::Infeasible { reason } => {
                        println!("  (skipped {}: {reason})", r.id);
                    }
                    other => panic!("{} failed: {other:?}", r.id),
                }
            }
            let c = c_psi(
                &ScenarioSpec::ns2_dumbbell(n_flows).victims(),
                t_extent,
                r_attack_mbps * 1e6,
            )
            .expect("figure parameters are valid");
            println!(
                "  -> sweep class ({}ms, C_psi={:.3}): {}",
                (t_extent * 1000.0) as u64,
                c,
                GainClass::classify_sweep(&pairs, CLASS_MARGIN)
            );
        }
    }
    println!(
        "\n[runner] {} runs on {} workers: wall {:.1}s, cpu {:.1}s, speedup {:.2}x, {:.2} runs/s",
        report.records.len(),
        report.jobs,
        report.wall.as_secs_f64(),
        report.cpu_time().as_secs_f64(),
        report.cpu_time().as_secs_f64() / report.wall.as_secs_f64().max(1e-9),
        report.runs_per_sec()
    );
}

/// Renders a normalized series as an ASCII strip (for the Fig. 3 benches).
pub fn render_strip(series: &[f64]) {
    const GLYPHS: &[u8] = b" .:-=+*#%@";
    let (lo, hi) = series
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    let span = (hi - lo).max(1e-9);
    let line: String = series
        .iter()
        .map(|&x| {
            let idx = (((x - lo) / span) * (GLYPHS.len() - 1) as f64).round() as usize;
            GLYPHS[idx.min(GLYPHS.len() - 1)] as char
        })
        .collect();
    for chunk in line.as_bytes().chunks(100) {
        println!("  {}", std::str::from_utf8(chunk).expect("ascii"));
    }
}
