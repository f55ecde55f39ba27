//! # pdos-scenarios — the DSN 2005 evaluation, reproducible
//!
//! Prebuilt experiment scenarios matching the paper's two environments —
//! the ns-2 dumbbell of Fig. 5 (§4.1) and the Dummynet test-bed of Fig. 11
//! (§4.2) — plus the measurement protocols behind every results figure:
//!
//! * [`spec::ScenarioSpec`] — topology/parameter presets as plain data;
//! * [`bench::Testbench`] — a wired simulator with victim flows, attacker
//!   host and goodput/loss instrumentation;
//! * [`experiment`] — the Γ and gain measurement protocol driving
//!   Figs. 6–10 and 12, as functions of one [`runner::ExperimentSpec`],
//!   with [`experiment::GainExperiment`] as its serial convenience;
//! * [`classify::GainClass`] — the normal/under/over-gain taxonomy of
//!   §4.1.1;
//! * [`sync::SyncExperiment`] — the quasi-global synchronization
//!   measurement of Fig. 3;
//! * [`runner::SweepRunner`] — the parallel, deterministic experiment
//!   runner (per-run seeds derived from a master seed + spec hash);
//! * [`figures::gain_figure_specs`] — Figs. 6–9 and the ROC ablation as
//!   flat spec enumerations the runner fans out;
//! * [`shape`] — every topology beyond the dumbbell (parking lot, fat
//!   tree, flow-bank dumbbell, the million-flow bank ring), wired from
//!   the same primitives as [`spec::ScenarioSpec::build`].
//!
//! ## Example: measure one attacked point
//!
//! ```no_run
//! use pdos_scenarios::prelude::*;
//!
//! let exp = GainExperiment::new(ScenarioSpec::ns2_dumbbell(15));
//! let baseline = exp.baseline_bytes()?;
//! let point = exp.run_point(0.075, 30e6, 0.3, baseline)?;
//! println!("Γ = {:.2}, gain = {:.2} ({})",
//!          point.degradation_sim, point.g_sim, point.class);
//! # Ok::<(), pdos_scenarios::experiment::ExperimentError>(())
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bench;
pub mod classify;
pub mod experiment;
pub mod figures;
pub mod runner;
pub mod shape;
pub mod spec;
pub mod sync;

/// Convenient re-exports.
pub mod prelude {
    pub use crate::bench::{AttackPhasing, FlowHandle, Testbench, ATTACK_FLOW};
    pub use crate::classify::{GainClass, CLASS_MARGIN};
    pub use crate::experiment::{
        gamma_grid, optimal_pulse_train, ExperimentError, GainExperiment, GainPoint, GainSweep,
        SeededFault,
    };
    pub use crate::figures::{
        gain_figure_specs, gain_figure_specs_cc, roc_specs, FigureGrid, GainFigure,
    };
    pub use crate::runner::{
        derive_seed, AttackPoint, ExperimentSpec, RunOutcome, RunRecord, SeedPolicy, SweepReport,
        SweepRunner,
    };
    pub use crate::spec::{BottleneckQueue, ScenarioSpec};
    pub use crate::sync::{SyncExperiment, SyncResult};
}
