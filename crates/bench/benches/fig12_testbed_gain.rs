//! Figure 12: the test-bed experiment. 10 victim flows through a 10 Mbps
//! Dummynet-style bottleneck (150 ms delay, RED per Sec. 4.2, Linux
//! 200 ms min RTO), T_extent = 150 ms, R_attack in {15, 20, 30} Mbps.

use pdos_analysis::model::c_psi;
use pdos_bench::{curve_points, curve_specs, fast_mode, run_figure_specs, standard_gammas};
use pdos_scenarios::prelude::*;
use pdos_sim::time::SimDuration;

fn main() {
    println!("=== Fig. 12: test-bed gain vs gamma (10 flows, 10 Mbps bottleneck) ===");
    let (warm, win) = if fast_mode() { (4, 15) } else { (10, 60) };
    let scenario = ScenarioSpec::testbed();
    let t_extent = 0.150;
    let rates = [15.0, 20.0, 30.0];
    let curves: Vec<Vec<ExperimentSpec>> = rates
        .iter()
        .map(|&r_mbps| {
            let template = ExperimentSpec::benign(format!("fig12/r{r_mbps}"), scenario.clone())
                .warmup(SimDuration::from_secs(warm))
                .window(SimDuration::from_secs(win));
            curve_specs(&template, t_extent, r_mbps * 1e6, &standard_gammas())
        })
        .collect();
    let report = run_figure_specs(&curves.concat());
    let baseline = report
        .records
        .iter()
        .map(|r| r.baseline_bytes)
        .find(|&b| b > 0)
        .expect("baseline runs");
    println!(
        "baseline goodput: {:.2} Mbps of 10 Mbps\n",
        baseline as f64 * 8.0 / win as f64 / 1e6
    );

    let mut records = report.records.as_slice();
    for (&r_mbps, curve) in rates.iter().zip(&curves) {
        let (measured, rest) = records.split_at(curve.len());
        records = rest;
        let points = curve_points(measured);
        let c = c_psi(&scenario.victims(), t_extent, r_mbps * 1e6).expect("valid");
        let pairs: Vec<(f64, f64)> = points.iter().map(|p| (p.g_analytic, p.g_sim)).collect();
        println!(
            "--- R_attack = {r_mbps} Mbps (C_psi = {c:.3}, class {}) ---",
            GainClass::classify_sweep(&pairs, CLASS_MARGIN)
        );
        println!(
            "{:>6} {:>8} {:>8} {:>8} {:>6}",
            "gamma", "T_AIMD", "G_curve", "G_sim", "class"
        );
        for p in &points {
            println!(
                "{:>6.2} {:>7.2}s {:>8.3} {:>8.3} {:>6}",
                p.gamma, p.t_aimd, p.g_analytic, p.g_sim, p.class
            );
        }
        println!();
    }
    println!("Paper: normal-gain at 20 Mbps, over-gain tendency at 30 Mbps,");
    println!("under-gain tendency at 15 Mbps.");
}
