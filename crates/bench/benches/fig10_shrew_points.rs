//! Figure 10: the PDoS / shrew-attack interaction. Three parameter cases;
//! γ values whose implied period lands on min_rto/n (n = 1, 2, 3) show
//! simulated gains far above the FR-only analytical curve.

use pdos_analysis::model::c_psi;
use pdos_bench::{curve_points, curve_specs, fast_mode, run_figure_specs, warmup, window};
use pdos_scenarios::prelude::*;

fn main() {
    println!("=== Fig. 10: PDoS vs shrew points (ns-2 min RTO = 1 s) ===");
    let flows = if fast_mode() { 8 } else { 15 };
    let scenario = ScenarioSpec::ns2_dumbbell(flows);

    // The paper's three cases: (R_attack Mbps, T_extent ms).
    let cases = [(30.0, 100.0), (40.0, 75.0), (50.0, 50.0)];
    let curves: Vec<Vec<ExperimentSpec>> = cases
        .iter()
        .map(|&(r_mbps, t_ms)| {
            let r_attack = r_mbps * 1e6;
            let t_extent = t_ms / 1000.0;
            // γ grid: regular samples plus the exact shrew harmonics
            // T_AIMD = 1, 1/2, 1/3 s  =>  γ = R·T_extent / (15e6 · T_AIMD).
            let mut gammas: Vec<f64> = (1..=9).map(|i| i as f64 / 10.0).collect();
            for n in 1..=3u32 {
                let g = r_attack * t_extent / (15e6 / f64::from(n));
                if g < 1.0 {
                    gammas.push(g);
                }
            }
            gammas.sort_by(|a, b| a.partial_cmp(b).unwrap());
            gammas.dedup_by(|a, b| (*a - *b).abs() < 1e-6);
            let template =
                ExperimentSpec::benign(format!("fig10/r{r_mbps}/te{t_ms}"), scenario.clone())
                    .warmup(warmup())
                    .window(window());
            curve_specs(&template, t_extent, r_attack, &gammas)
        })
        .collect();
    let report = run_figure_specs(&curves.concat());

    let mut records = report.records.as_slice();
    for (&(r_mbps, t_ms), curve) in cases.iter().zip(&curves) {
        let (measured, rest) = records.split_at(curve.len());
        records = rest;
        let c = c_psi(&scenario.victims(), t_ms / 1000.0, r_mbps * 1e6).expect("valid");
        println!("\n--- R_attack = {r_mbps} Mbps, T_extent = {t_ms} ms (C_psi = {c:.3}) ---");
        println!(
            "{:>6} {:>8} {:>8} {:>8} {:>7} {:>6}",
            "gamma", "T_AIMD", "G_curve", "G_sim", "shrew", "TOs"
        );
        for p in curve_points(measured) {
            println!(
                "{:>6.3} {:>7.2}s {:>8.3} {:>8.3} {:>7} {:>6}",
                p.gamma,
                p.t_aimd,
                p.g_analytic,
                p.g_sim,
                p.shrew
                    .map(|n| format!("O(n={n})"))
                    .unwrap_or_else(|| "-".into()),
                p.timeouts,
            );
        }
    }
    println!("\n'O' rows mark shrew points: expect G_sim >> G_curve there (Sec. 4.1.3).");
}
