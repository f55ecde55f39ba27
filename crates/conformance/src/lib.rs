//! # pdos-conformance — does the laboratory still tell the truth?
//!
//! Three independent mechanisms guard the reproduction against silent
//! regressions (see `docs/TESTING.md` for the full story):
//!
//! 1. **Runtime invariants** — the simulator's event engine, links,
//!    queues and TCP senders carry always-compiled, runtime-enabled
//!    checkers ([`pdos_sim::check`]); every conformance run executes with
//!    them on, so a conservation or clock bug fails the run rather than
//!    skewing a figure.
//! 2. **Golden traces** ([`golden`]) — hashed per-bin traffic digests of
//!    canonical scenarios, pinned under `tests/golden/` and re-blessable
//!    via `pdos check --bless`.
//! 3. **Differential oracle** ([`oracle`]) — randomized scenarios pushed
//!    through both the analytic gain model and the simulator, enforcing
//!    the tolerance bands documented in EXPERIMENTS.md ([`bands`]).
//! 4. **Detector equivalence** ([`equivalence`]) — canonical and
//!    randomized traces pushed bin by bin through the streaming
//!    detectors, whose alarms must agree bit for bit with the
//!    whole-series verdict (the batch scorers are folds of the same
//!    state machines).
//! 5. **Shard equivalence** ([`sharding`]) — randomized topologies run
//!    unsharded, sharded cold and sharded warm-started, requiring
//!    digest-identical traces (see `docs/SHARDING.md`).

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bands;
pub mod equivalence;
pub mod golden;
pub mod oracle;
pub mod sharding;

pub use bands::ToleranceBands;
pub use equivalence::{
    check_cusum_equivalence, check_rate_equivalence, equivalence_specs, run_equivalence,
    EquivalenceConfig, EquivalenceOutcome,
};
pub use golden::{
    canonical_specs, cc_differential_specs, compute_cc_digests, compute_cc_digests_with,
    compute_digests, compute_digests_sharded, compute_spec_digests, digest_bins, TraceDigest,
    GOLDEN_FILE,
};
pub use oracle::{check_point, run_oracle, OracleConfig, OracleOutcome, PointVerdict};
pub use sharding::{
    run_shard_battery, shard_battery_specs, ShardBatteryConfig, ShardBatteryOutcome,
};
