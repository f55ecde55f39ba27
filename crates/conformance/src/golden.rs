//! Golden-trace regression: compact hashed digests of canonical runs.
//!
//! Each canonical scenario runs with the bottleneck's ingress traffic
//! recorded in 100 ms bins over the measurement window; the digest pins
//! `fnv1a64` over the little-endian bin bytes plus the bin count and byte
//! total. A digest is a complete fingerprint of the run's traffic
//! dynamics at bin resolution — any change to packet timing, queueing,
//! loss, TCP behaviour or seeding shows up as a digest mismatch, while
//! the stored file stays a few lines of text under version control
//! (`tests/golden/trace_digests.txt`).
//!
//! Regenerate after an *intentional* behaviour change with the CLI:
//! `pdos check --bless` (or set `PDOS_BLESS=1` for the test suite).

use pdos_scenarios::runner::{
    fnv1a64, AttackPoint, ExperimentSpec, RunOutcome, SeedPolicy, SweepRunner,
};
use pdos_scenarios::spec::{BottleneckQueue, ScenarioSpec};
use pdos_sim::time::SimDuration;
use std::fmt::Write as _;

/// File name of the stored digests, under the repository's golden dir.
pub const GOLDEN_FILE: &str = "trace_digests.txt";

/// One canonical run's trace fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDigest {
    /// The spec id (`golden/...`).
    pub name: String,
    /// Bins recorded over the measurement window.
    pub n_bins: usize,
    /// Total bytes across the bins.
    pub total_bytes: u64,
    /// `fnv1a64` over the little-endian `u64` bin values.
    pub digest: u64,
}

/// The canonical scenario set: both paper topologies, both bottleneck
/// disciplines, benign and attacked. Seeds are pinned by the scenarios
/// themselves ([`SeedPolicy::FromScenario`] in [`compute_digests`]).
pub fn canonical_specs() -> Vec<ExperimentSpec> {
    let warmup = SimDuration::from_secs(4);
    let window = SimDuration::from_secs(8);
    let bin = SimDuration::from_millis(100);
    let attack = AttackPoint {
        t_extent: 0.075,
        r_attack: 30e6,
        gamma: 0.40,
    };
    let mut droptail = ScenarioSpec::ns2_dumbbell(3);
    droptail.queue = BottleneckQueue::DropTail;
    vec![
        ExperimentSpec::benign("golden/ns2-benign", ScenarioSpec::ns2_dumbbell(3)),
        ExperimentSpec::attacked(
            "golden/ns2-red-attacked",
            ScenarioSpec::ns2_dumbbell(3),
            attack,
        ),
        ExperimentSpec::attacked("golden/ns2-droptail-attacked", droptail, attack),
        ExperimentSpec::attacked("golden/testbed-attacked", ScenarioSpec::testbed(), attack),
    ]
    .into_iter()
    .map(|s| s.warmup(warmup).window(window).traced(bin).checked())
    .collect()
}

/// The differential congestion-control battery: the fig06 canonical
/// attack point (25 Mbps pulses, `T_extent = 75 ms`, `γ = 0.40`) on the
/// ns-2 dumbbell, once per registered algorithm — the *same* scenario
/// each time, with ECN negotiated so the RED bottleneck marks as well as
/// drops (DCTCP is an ECN algorithm per RFC 8257, and the mark response
/// is exactly where the four reduction laws differ). Ids are
/// `golden/cc-<key>`; each algorithm pins its own digest so a behaviour
/// change in any one state machine — or an accidental coupling between
/// them — shows up as drift.
pub fn cc_differential_specs() -> Vec<ExperimentSpec> {
    let warmup = SimDuration::from_secs(4);
    let window = SimDuration::from_secs(8);
    let bin = SimDuration::from_millis(100);
    let attack = AttackPoint {
        t_extent: 0.075,
        r_attack: 25e6,
        gamma: 0.40,
    };
    pdos_tcp::cc::CcSpec::ALL
        .into_iter()
        .map(|cc| {
            let mut scenario = ScenarioSpec::ns2_dumbbell(3).with_cc(cc);
            scenario.tcp.ecn = true;
            ExperimentSpec::attacked(format!("golden/cc-{}", cc.key()), scenario, attack)
                .warmup(warmup)
                .window(window)
                .traced(bin)
                .checked()
        })
        .collect()
}

/// Runs the [`cc_differential_specs`] battery (invariant checkers on)
/// and fingerprints each algorithm's trace.
///
/// # Errors
///
/// Returns the failing run's id and reason if any run fails — including
/// invariant violations, which is the point: every algorithm must hold
/// the engine's conservation and TCP window audits.
pub fn compute_cc_digests(jobs: usize) -> Result<Vec<TraceDigest>, String> {
    compute_cc_digests_with(jobs, true)
}

/// Like [`compute_cc_digests`], but with warm-start checkpointing forced
/// on or off. Checkpoint forking is contractually byte-identical to cold
/// simulation for *every* congestion control, not just the AIMD seed —
/// the CC fork-equivalence matrix in the conformance suite pins both
/// paths equal per algorithm.
///
/// # Errors
///
/// Returns the failing run's id and reason if any run fails.
pub fn compute_cc_digests_with(jobs: usize, warm_start: bool) -> Result<Vec<TraceDigest>, String> {
    compute_spec_digests(&cc_differential_specs(), jobs, warm_start).map(|(digests, _)| digests)
}

/// Fingerprints a binned trace: `fnv1a64` over the little-endian `u64`
/// bin values — the digest scheme every golden entry pins. Public so
/// other harnesses (the fuzz campaign's per-case digests) fingerprint
/// traces identically to the golden file.
pub fn digest_bins(bins: &[u64]) -> u64 {
    let mut bytes = Vec::with_capacity(bins.len() * 8);
    for b in bins {
        bytes.extend_from_slice(&b.to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// Runs the canonical scenarios (invariant checkers on) and fingerprints
/// their traces.
///
/// # Errors
///
/// Returns the failing run's id and reason if any canonical run fails —
/// including invariant violations.
pub fn compute_digests(jobs: usize) -> Result<Vec<TraceDigest>, String> {
    compute_spec_digests(&canonical_specs(), jobs, true).map(|(digests, _)| digests)
}

/// Like [`compute_digests`], but runs every canonical scenario on a
/// sharded engine with `shards` requested shards. Sharding is
/// contractually bit-identical to sequential execution — the
/// conservative-lookahead rounds reproduce the exact global event order —
/// so the digests this returns must equal the plain [`compute_digests`]
/// output and the stored golden file.
///
/// # Errors
///
/// Returns the failing run's id and reason if any canonical run fails.
pub fn compute_digests_sharded(jobs: usize, shards: usize) -> Result<Vec<TraceDigest>, String> {
    let specs: Vec<_> = canonical_specs()
        .into_iter()
        .map(|s| s.sharded(shards))
        .collect();
    compute_spec_digests(&specs, jobs, true).map(|(digests, _)| digests)
}

/// Runs `specs` through the sweep runner — warm-started from forked
/// checkpoints or cold, per `warm_start` — and fingerprints each run's
/// trace, in spec order, alongside the runs' merged metrics (`None`
/// unless a spec is metered). Every golden leg goes through here: callers
/// build the spec list (metered, tapped, sharded, per-CC) and the
/// digests of a hash-neutral variant must equal the plain ones.
///
/// # Errors
///
/// Returns the failing run's id and reason if any run fails — including
/// invariant violations.
pub fn compute_spec_digests(
    specs: &[ExperimentSpec],
    jobs: usize,
    warm_start: bool,
) -> Result<(Vec<TraceDigest>, Option<pdos_metrics::MetricsSnapshot>), String> {
    let report = SweepRunner::new(0)
        .seed_policy(SeedPolicy::FromScenario)
        .jobs(jobs)
        .warm_start(warm_start)
        .run(specs);
    let digests = report
        .records
        .iter()
        .map(|r| {
            let trace = match &r.outcome {
                RunOutcome::Point { trace, .. } | RunOutcome::Benign { trace, .. } => trace,
                RunOutcome::Infeasible { reason } | RunOutcome::Failed { reason } => {
                    return Err(format!("{}: {reason}", r.id));
                }
            };
            Ok(TraceDigest {
                name: r.id.clone(),
                n_bins: trace.len(),
                total_bytes: trace.iter().sum(),
                digest: digest_bins(trace),
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((digests, report.merged_metrics()))
}

/// Serializes digests to the stored text format (one line per run).
pub fn format_digests(digests: &[TraceDigest]) -> String {
    let mut s = String::from(
        "# Golden trace digests - regenerate with `pdos check --bless`\n\
         # after an intentional simulator behaviour change.\n",
    );
    for d in digests {
        let _ = writeln!(
            s,
            "{} bins={} total={} digest={:016x}",
            d.name, d.n_bins, d.total_bytes, d.digest
        );
    }
    s
}

/// Parses the stored text format.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn parse_digests(text: &str) -> Result<Vec<TraceDigest>, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|line| {
            let mut parts = line.split_whitespace();
            let name = parts.next().ok_or_else(|| format!("bad line: {line}"))?;
            let mut field = |prefix: &str| -> Result<&str, String> {
                parts
                    .next()
                    .and_then(|p| p.strip_prefix(prefix))
                    .ok_or_else(|| format!("bad line (expected {prefix}...): {line}"))
            };
            let n_bins = field("bins=")?
                .parse()
                .map_err(|_| format!("bad bins in: {line}"))?;
            let total_bytes = field("total=")?
                .parse()
                .map_err(|_| format!("bad total in: {line}"))?;
            let digest = u64::from_str_radix(field("digest=")?, 16)
                .map_err(|_| format!("bad digest in: {line}"))?;
            Ok(TraceDigest {
                name: name.to_string(),
                n_bins,
                total_bytes,
                digest,
            })
        })
        .collect()
}

/// Compares freshly computed digests against the stored golden set.
/// Returns one message per mismatch (empty = conforming).
pub fn compare(current: &[TraceDigest], golden: &[TraceDigest]) -> Vec<String> {
    let mut problems = Vec::new();
    for cur in current {
        match golden.iter().find(|g| g.name == cur.name) {
            None => problems.push(format!("{}: missing from the golden file", cur.name)),
            Some(g) if g != cur => problems.push(format!(
                "{}: digest drift: golden bins={} total={} digest={:016x}, \
                 current bins={} total={} digest={:016x}",
                cur.name,
                g.n_bins,
                g.total_bytes,
                g.digest,
                cur.n_bins,
                cur.total_bytes,
                cur.digest
            )),
            Some(_) => {}
        }
    }
    for g in golden {
        if !current.iter().any(|c| c.name == g.name) {
            problems.push(format!(
                "{}: in the golden file but no longer computed",
                g.name
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceDigest> {
        vec![
            TraceDigest {
                name: "golden/a".into(),
                n_bins: 80,
                total_bytes: 123_456,
                digest: 0xdead_beef_0123_4567,
            },
            TraceDigest {
                name: "golden/b".into(),
                n_bins: 80,
                total_bytes: 654_321,
                digest: 0x0123_4567_89ab_cdef,
            },
        ]
    }

    #[test]
    fn format_parse_roundtrip() {
        let d = sample();
        assert_eq!(parse_digests(&format_digests(&d)).unwrap(), d);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_digests("golden/a bins=80").is_err());
        assert!(parse_digests("golden/a bins=x total=1 digest=ff").is_err());
        assert!(parse_digests("golden/a bins=1 total=1 digest=zz").is_err());
        assert_eq!(parse_digests("# only comments\n\n").unwrap(), vec![]);
    }

    #[test]
    fn compare_reports_drift_and_membership() {
        let golden = sample();
        let mut current = sample();
        assert!(compare(&current, &golden).is_empty());
        current[0].digest ^= 1;
        let problems = compare(&current, &golden);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("digest drift"));
        current.remove(1);
        let problems = compare(&current, &golden);
        assert!(problems.iter().any(|p| p.contains("no longer computed")));
        current.push(TraceDigest {
            name: "golden/new".into(),
            n_bins: 1,
            total_bytes: 1,
            digest: 1,
        });
        let problems = compare(&current, &golden);
        assert!(problems
            .iter()
            .any(|p| p.contains("missing from the golden file")));
    }

    #[test]
    fn canonical_specs_cover_the_matrix() {
        let specs = canonical_specs();
        assert_eq!(specs.len(), 4);
        assert!(specs.iter().all(|s| s.trace_bin.is_some() && s.checks));
        assert_eq!(specs.iter().filter(|s| s.attack.is_none()).count(), 1);
        // Distinct ids -> distinct golden lines.
        let mut ids: Vec<&str> = specs.iter().map(|s| s.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn digest_is_order_sensitive() {
        assert_ne!(digest_bins(&[1, 2, 3]), digest_bins(&[3, 2, 1]));
        assert_ne!(digest_bins(&[]), digest_bins(&[0]));
    }
}
