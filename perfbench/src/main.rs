//! `pdos-perfbench`: one process of the benchmark — one job of one
//! workload. The harness (`perfbench/run.py`) spawns it, times it from
//! outside and reads the one JSON line it prints.
//!
//! ```text
//! pdos-perfbench job    <workload> [--seed N] [--out PATH]  untraced end-to-end job
//! pdos-perfbench trace  <workload> [--seed N] [--out PATH]  traced replica with per-layer metrics
//! pdos-perfbench verify fig06-sweep [--seed N]              recompute sampled points cold
//! ```
//!
//! Workloads: `fig06-sweep`, `fuzz-campaign` and `million-flow` (which
//! takes no `--seed`); their fixed inputs are the constants of `e2e`.

mod e2e;
mod host;
mod json;
mod traced;

use pdos_cli::args::Args;
use std::time::Instant;

/// The same counting allocator the `pdos` binary installs, so the jobs
/// pay exactly what a user's run pays for allocation accounting.
#[global_allocator]
static ALLOCATOR: pdos_bench::alloc::CountingAllocator = pdos_bench::alloc::CountingAllocator;

fn dispatch(start: &Instant, argv: Vec<String>) -> Result<json::Obj, String> {
    let mut it = argv.into_iter();
    let mode = it.next().ok_or("missing mode (job, trace or verify)")?;
    let workload = it.next().ok_or("missing workload")?;
    // `Args::parse` takes the subcommand first; the workload plays it.
    let rest: Vec<String> = std::iter::once(workload.clone()).chain(it).collect();
    match mode.as_str() {
        "job" => e2e::run(&workload, &Args::parse(rest).map_err(|e| e.0)?, start),
        "trace" => traced::run(&workload, rest, start),
        "verify" if workload == "fig06-sweep" => e2e::verify(&Args::parse(rest).map_err(|e| e.0)?),
        _ => Err(format!("unknown mode '{mode}' for workload '{workload}'")),
    }
}

fn main() {
    // Set-up and traced wall times run from here: spawn, exec and loader
    // time is the harness's and the host's, and is only in `wall_s`.
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&start, argv) {
        Ok(mut obj) => {
            // Read inside the process: a parent's `wait4` reports the
            // larger of this peak and the forked parent's resident set.
            obj.num("peak_rss_mib", host::peak_rss_mib());
            println!("{}", obj.render());
        }
        Err(e) => {
            eprintln!("pdos-perfbench: {e}");
            std::process::exit(2);
        }
    }
}
