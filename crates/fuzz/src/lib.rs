//! Scenario fuzzing for the pulsing-DoS testbench: a deterministic
//! campaign runner with shrink-on-violation.
//!
//! The crate draws random-but-seeded scenario *families* — dumbbell
//! sweeps on the paper's ns-2 and testbed presets with varied traffic
//! mixes, queue disciplines and attack schedules, plus the parking-lot,
//! fat-tree and flow-bank shapes of `pdos_scenarios::shape` — and pushes
//! every case through the same oracle, invariant-checker and golden
//! digest machinery the conformance suite uses. Violations are
//! minimized by a deterministic shrinker and emitted as self-contained
//! repro files that replay to the same failure.
//!
//! The pipeline, one module each:
//!
//! * [`case`] — the case parameter space and its stable text form.
//! * [`gen`] — seeded family generation and the sim-seconds budget.
//! * [`topo`] — the attack, run and audit of the topology shapes.
//! * [`campaign`] — the runner, audit, and `pdos-fuzz/1` report.
//! * [`shrink`] — shrink-on-violation and `pdos-fuzz-repro/1` files.
//!
//! ## Determinism
//!
//! The report is a pure function of `(scenarios, master_seed,
//! budget_sim_secs, fault, bands)`. Worker count and wall-clock never
//! enter the output — CI runs the same campaign under `--jobs 1` and
//! `--jobs 2` and compares the report files byte for byte.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod campaign;
pub mod case;
pub mod gen;
pub mod shrink;
pub mod topo;

pub use campaign::{
    fault_from_str, fault_to_str, run_campaign, CampaignConfig, CampaignReport, CampaignViolation,
    CaseResult, ShrunkRepro, ViolationClass,
};
pub use case::{format_case, parse_case, CaseParams, DumbbellCase, FuzzCase, TopologyCase};
pub use shrink::{
    format_repro, parse_repro, replay_repro, shrink, shrink_report, ReproFile,
    MAX_SHRINKS_PER_REPORT,
};
