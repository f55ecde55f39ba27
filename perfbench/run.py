#!/usr/bin/env python3
"""End-to-end benchmark of the pdos workloads.

    python3 perfbench/run.py --workload fig06-sweep --seed 1 --seconds 30 --trace 0

Run from the repository root. The script builds the `pdos-perfbench`
package (release profile, into $CARGO_TARGET_DIR or `.bench_build`), then
runs a closed loop of one job: it starts a job process, waits for it to
exit, checks its outputs and starts the next, until `--seconds` have
passed. Each job is timed from outside (wall and CPU from `wait4`) and
reports its own set-up time and peak resident set. The last line of
stdout is one JSON object: `correct`, `attempted`, `failed` and
`metrics` — the end-to-end metrics with `--trace 0`, the per-layer
metrics of one extra traced job with `--trace 1`. See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY_NAME = "pdos-perfbench"

# The workloads, and whether `--seed` feeds each. A workload's fixed
# inputs are constants of the binary (perfbench/src/e2e.rs); each job
# prints them, with the seed it used, in its `params` object.
WORKLOADS = {"fig06-sweep": True, "fuzz-campaign": True, "million-flow": False}

# Outputs every job of a run must agree on, the traced job included: the
# traced job re-drives a copy of the runner, so equal warm-up and fork
# counts show that the copy kept the runner's warm-start policy.
AGREE = ("digest", "samples", "warmups", "forked_runs", "outputs")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds the benchmark binary; returns its path or None."""
    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isfile(os.path.join(ROOT, "crates", "cli", "Cargo.toml")):
        log("perfbench: the pdos sources (crates/) are not next to perfbench/")
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    binary = os.path.join(target, "release", BINARY_NAME)
    if res.returncode != 0 or not os.path.isfile(binary):
        log("perfbench: build failed")
        return None
    return binary


def spawn(binary, mode, workload, argv, out_dir):
    """Runs one process to completion. Returns its timing and result."""
    err_path = os.path.join(out_dir, f"{workload}.{mode}.stderr")
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [binary, mode, workload] + argv, cwd=ROOT,
            stdout=subprocess.PIPE, stderr=err)
        stdout = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = None
    if proc.returncode == 0:
        try:
            result = json.loads(stdout.decode().strip().splitlines()[-1])
        except (ValueError, IndexError):
            result = None
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "status": proc.returncode,
        "result": result,
    }


class Checker:
    """Checks job outputs against the pinned expectations and against the
    run's first job; counts operations attempted and failed instead of
    aborting."""

    def __init__(self, workload, expected):
        spec = expected.get(workload, {})
        self.expected_ops = spec.get("ops", 1)
        self.pinned_digests = spec.get("digests", {})
        self.pinned_outputs = spec.get("outputs")
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def fail(self, ops, why):
        self.failed += ops
        self.notes.append(why)

    def problem(self, res):
        """What is wrong with one job's result, or None."""
        ops, ok = res.get("ops", 0), res.get("ops_ok", 0)
        if ops < self.expected_ops or ok != ops:
            return f"{ops - ok} of {ops} operations failed (expected {self.expected_ops})"
        pinned = self.pinned_digests.get(str(res.get("params", {}).get("seed")))
        if pinned is not None and res.get("digest") != pinned:
            return f"digest {res.get('digest')} != pinned {pinned}"
        if self.pinned_outputs is not None:
            got = res.get("outputs", {})
            diff = [f"{k} {got.get(k)} != pinned {v}" for k, v in self.pinned_outputs.items()
                    if got.get(k) != v]
            if diff:
                return "outputs differ: " + ", ".join(diff)
        for key in AGREE:
            if res.get(key) != self.first.get(key):
                return f"{key} {res.get(key)} != first job's {self.first.get(key)}"
        if res.get("pass", "yes") != "yes":
            return "campaign reported violations"
        if res.get("observe_mismatches", 0):
            return "observers changed the physics of a sampled case"
        return None

    def job(self, run):
        """Checks one job's result; returns whether it was correct."""
        res = run["result"]
        if res is None:
            self.attempted += self.expected_ops
            self.fail(self.expected_ops, f"process exited with {run['status']} and no result")
            return False
        if self.first is None:
            self.first = res
        self.attempted += res.get("ops", 0)
        why = self.problem(res)
        if why is not None:
            self.fail(res.get("ops", 0), why)
        return why is None


def median(xs):
    return statistics.median(xs) if xs else 0.0


def source_digest():
    """SHA-256 over the measured sources: identifies the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "crates"), HERE]
    files = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for base in roots:
        for dirpath, dirnames, names in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files += [os.path.join(dirpath, n) for n in sorted(names)]
    for path in files:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return res.stdout.strip() if res.returncode == 0 else "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="seed of fig06-sweep and fuzz-campaign (default: the workload's own); "
                         "million-flow has no random input and ignores it")
    ap.add_argument("--seconds", type=float, default=None,
                    help="how long the closed loop runs (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--expected", default=os.path.join(HERE, "expected.json"),
                    help="pinned outputs (the self-tests point this at a corrupted copy)")
    opts = ap.parse_args()

    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    with open(bench_json) as f:
        bench = json.load(f)
    with open(opts.expected) as f:
        expected = json.load(f)
    if opts.seconds is None:
        opts.seconds = bench["run_seconds"]
    binary = build()
    if binary is None:
        return 1

    argv = []
    if WORKLOADS[opts.workload] and opts.seed is not None:
        argv += ["--seed", str(opts.seed)]
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    argv += ["--out", os.path.join(out_dir, f"{opts.workload}.report.json")]

    check = Checker(opts.workload, expected)
    jobs = []
    start = time.perf_counter()
    while True:
        run = spawn(binary, "job", opts.workload, argv, out_dir)
        check.job(run)
        jobs.append(run)
        if time.perf_counter() - start >= opts.seconds:
            break
    if opts.workload == "fig06-sweep":
        # Cold re-runs of sampled points: the forked==cold contract,
        # which also covers seeds without a pinned digest.
        run = spawn(binary, "verify", opts.workload, argv, out_dir)
        cold = (run["result"] or {}).get("samples")
        if check.first is None or cold != check.first.get("samples"):
            ops = sum(j["result"].get("ops", 0) for j in jobs if j["result"])
            check.fail(ops, "cold re-run differs from the sweep")

    # The run record: the host and build, plus the workload's constants
    # and seed as the jobs printed them.
    first = check.first or {}
    record = {
        "workload": opts.workload,
        "host_cores": os.cpu_count(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "build_profile": "release (lto=fat, codegen-units=1, panic=abort)",
        **first.get("params", {}),
        "run_seconds": opts.seconds,
        "trace": opts.trace,
    }
    print("run " + json.dumps(record), flush=True)

    walls = [j["wall_s"] for j in jobs]
    e2e = {
        "setup_s": median([j["result"]["setup_s"] for j in jobs if j["result"]]),
        "wall_s": median(walls),
        "cpu_s": median([j["cpu_s"] for j in jobs]),
    }
    # The jobs' peak resident set is reported, not gated: on fuzz-campaign
    # it swings by a third between identical runs (see README.md).
    peak_rss = median([j["result"]["peak_rss_mib"] for j in jobs if j["result"]])
    log(f"perfbench: {len(jobs)} job(s), walls {[round(w, 3) for w in walls]}, "
        f"mem.job_peak_rss_mib {peak_rss:.3f} MiB, seed {record.get('seed')}, "
        f"digest {first.get('digest')}")

    if opts.trace == 0:
        specs = bench["end_to_end"]
        values = e2e
    else:
        specs = bench["per_layer"]
        run = spawn(binary, "trace", opts.workload, argv, out_dir)
        check.job(run)
        values = dict((run["result"] or {}).get("metrics", {}))
        if values:
            values["trace.overhead_s"] = values["trace.wall_s"] - e2e["wall_s"]
            values["mem.job_peak_rss_mib"] = peak_rss
        log("perfbench: traced layers " + json.dumps(values, sort_keys=True))

    metrics = {}
    for spec in specs:
        name = spec["name"]
        if name not in values:
            check.attempted += 1
            check.fail(1, f"metric {name} was not measured")
            continue
        metrics[name] = {"value": values[name], "unit": spec["unit"]}
    for note in check.notes:
        log(f"perfbench: FAILED: {note}")
    attempted = max(check.attempted, 1)
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": attempted,
        "failed": min(check.failed, attempted),
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
