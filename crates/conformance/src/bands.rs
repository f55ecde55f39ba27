//! The documented tolerance bands the differential oracle enforces.
//!
//! The numbers come from EXPERIMENTS.md, which records how closely the
//! simulator tracks the analytical gain model (Eq. 5 with Eq. 10) at the
//! published resolution (40 s measurement windows, the Fig. 6–9 panels):
//!
//! * right of the gain maximum (γ ≥ 0.56) analytic and simulated values
//!   differ by **< 0.04 on most panels**;
//! * the left side is systematically worse (36–57% relative error), which
//!   is the paper's own §4.1.2 observation — so the oracle only *bands*
//!   the right side and merely requires finiteness on the left;
//! * sweeps are classified with a **0.12** normal/under/over margin
//!   ([`pdos_scenarios::classify::CLASS_MARGIN`]).
//!
//! CI runs the oracle on short windows (seconds, not the published 40 s)
//! over randomized small scenarios, where goodput quantization widens the
//! spread; [`ToleranceBands::short_window_factor`] scales the published
//! band accordingly. The factor was tuned once against the deterministic
//! oracle sweep — the runs are seeded, so the margin is not a flake
//! allowance but a documented loosening for small samples.

/// Tolerance bands for comparing simulated against analytic gain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ToleranceBands {
    /// γ at and beyond which the paper reports close agreement (the
    /// "right side of the maximum", §4.1.2).
    pub gamma_right: f64,
    /// Published absolute |G_sim − G_analytic| band on the right side at
    /// the full 40 s windows.
    pub right_abs_err: f64,
    /// Multiplier applied to [`ToleranceBands::right_abs_err`] for the
    /// CI-sized short-window oracle runs.
    pub short_window_factor: f64,
    /// Fraction of right-side points that must fall inside the band
    /// (EXPERIMENTS.md says "most panels", not "all").
    pub within_frac: f64,
    /// Absolute ceiling no right-side point may exceed, however unlucky
    /// the random scenario draw.
    pub hard_abs_err: f64,
    /// The sweep classification margin of §4.1.1.
    pub class_margin: f64,
    /// Smallest right-side sample on which the `within_frac` requirement
    /// is statistically meaningful; below it only the hard ceiling
    /// applies (a 3-point sample forces 80% up to "all 3").
    pub min_right_sample: usize,
}

impl ToleranceBands {
    /// The EXPERIMENTS.md bands, pre-scaled for CI's short windows.
    pub fn ci_default() -> ToleranceBands {
        ToleranceBands {
            gamma_right: 0.56,
            right_abs_err: 0.04,
            short_window_factor: 3.0,
            within_frac: 0.8,
            hard_abs_err: 0.30,
            class_margin: pdos_scenarios::classify::CLASS_MARGIN,
            min_right_sample: 8,
        }
    }

    /// The effective right-side band for one oracle run.
    pub fn effective_right_band(&self) -> f64 {
        self.right_abs_err * self.short_window_factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_bands_quote_experiments_md() {
        let b = ToleranceBands::ci_default();
        assert_eq!(b.gamma_right, 0.56);
        assert_eq!(b.right_abs_err, 0.04);
        assert_eq!(b.class_margin, 0.12);
        assert!(b.effective_right_band() < b.hard_abs_err);
        assert!(b.within_frac > 0.5 && b.within_frac <= 1.0);
    }
}
