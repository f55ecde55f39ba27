//! The normal-/under-/over-gain taxonomy of §4.1.1.

use std::fmt;

/// The gain discrepancy `|g_sim − g_analytic|` up to which a point or a
/// sweep counts as normal-gain, for every classification the crate and
/// the `pdos` CLI report.
pub const CLASS_MARGIN: f64 = 0.12;

/// How a simulated gain relates to the analytical prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GainClass {
    /// Simulation and analysis agree within the margin.
    Normal,
    /// The analysis **over-estimates** the measured gain (pulses too weak
    /// to hurt every flow — the paper's `T_extent = 50 ms` cases).
    Under,
    /// The analysis **under-estimates** the measured gain (pulses push
    /// flows into timeout instead of fast recovery — high `R_attack`).
    Over,
}

impl GainClass {
    /// Classifies one point by the absolute gain discrepancy
    /// `g_sim − g_analytic` against `margin`.
    pub fn classify(g_analytic: f64, g_sim: f64, margin: f64) -> GainClass {
        let diff = g_sim - g_analytic;
        if diff > margin {
            GainClass::Over
        } else if diff < -margin {
            GainClass::Under
        } else {
            GainClass::Normal
        }
    }

    /// Classifies a whole sweep by the *mean* signed discrepancy, the way
    /// the paper labels entire parameter settings (e.g. "the cases when
    /// `T_extent = 50 ms`" are under-gain).
    pub fn classify_sweep(points: &[(f64, f64)], margin: f64) -> GainClass {
        if points.is_empty() {
            return GainClass::Normal;
        }
        let mean_diff: f64 = points
            .iter()
            .map(|(analytic, sim)| sim - analytic)
            .sum::<f64>()
            / points.len() as f64;
        if mean_diff > margin {
            GainClass::Over
        } else if mean_diff < -margin {
            GainClass::Under
        } else {
            GainClass::Normal
        }
    }
}

impl fmt::Display for GainClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GainClass::Normal => "normal-gain",
            GainClass::Under => "under-gain",
            GainClass::Over => "over-gain",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_point_classification() {
        assert_eq!(GainClass::classify(0.5, 0.52, 0.1), GainClass::Normal);
        assert_eq!(GainClass::classify(0.5, 0.75, 0.1), GainClass::Over);
        assert_eq!(GainClass::classify(0.5, 0.2, 0.1), GainClass::Under);
        // Boundary is inclusive-normal.
        assert_eq!(GainClass::classify(0.5, 0.6, 0.1), GainClass::Normal);
    }

    #[test]
    fn sweep_classification_uses_mean() {
        let balanced = vec![(0.5, 0.6), (0.5, 0.4), (0.5, 0.5)];
        assert_eq!(
            GainClass::classify_sweep(&balanced, 0.05),
            GainClass::Normal
        );
        let under = vec![(0.5, 0.3), (0.6, 0.35), (0.4, 0.3)];
        assert_eq!(GainClass::classify_sweep(&under, 0.05), GainClass::Under);
        let over = vec![(0.3, 0.55), (0.4, 0.6)];
        assert_eq!(GainClass::classify_sweep(&over, 0.05), GainClass::Over);
        assert_eq!(GainClass::classify_sweep(&[], 0.05), GainClass::Normal);
    }

    #[test]
    fn display_labels() {
        assert_eq!(GainClass::Normal.to_string(), "normal-gain");
        assert_eq!(GainClass::Under.to_string(), "under-gain");
        assert_eq!(GainClass::Over.to_string(), "over-gain");
    }
}
