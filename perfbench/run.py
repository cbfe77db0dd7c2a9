"""End-to-end and per-layer benchmark of the `paygsim` command line.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from `src/`.
Every sample is a fresh interpreter (`sample.py`), so set-up time and peak
memory belong to the sample, never to this process. A run

  1. starts SETUP_PROBES processes that only set the program up;
  2. starts sample processes one after another until --seconds have passed;
     with --trace 1 it alternates untraced and traced samples;
  3. starts one check process for the workload's seed-independent invariants.

Every sample's output files are hashed. At the default seed they must match
`golden.json`; at any seed the files no seed changes must match it, and all
samples and the check must agree with the first sample. A nonzero exit, a
digest mismatch or a broken invariant counts as a failure.

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed`, and the end-to-end metrics (--trace 0) or per-layer metrics
(--trace 1). A fuller record goes to `.perfbench/results/` in the checkout,
and the spans of a traced run to `.perfbench/spans/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_PROBES = 4
RUN_LIMIT_S = 170.0  # every child is killed so that a run ends within 180 s

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "reps_per_s": "1/s", "peak_rss_mb": "MB"}

# per-layer metric -> span name whose self time it reports
SELF_TIMES = {
    "montecarlo.draw_shock_blocks_s": "montecarlo.draw_shock_blocks",
    "engine.simulate_flows_s": "engine.simulate_flows",
    "engine.build_system_s": "engine.build_system",
    "config.load_config_s": "config.load_config",
    "engine.entrants_matrix_s": "engine.entrants_matrix",
    "engine.return_rates_s": "engine.return_rates",
    "cashflows.ledger_columns_s": "cashflows.ledger_columns",
    "montecarlo.run_simulation_s": "montecarlo.run_simulation",
    "montecarlo.percentile_bands_s": "montecarlo.percentile_bands",
    "montecarlo.distribution_moments_s": "montecarlo.distribution_moments",
    "outputs.emit_s": "outputs.emit",
    "entrants.simulate_entrants_path_s": "entrants.simulate_entrants_path",
    "entrants.expected_entrants_path_s": "entrants.expected_entrants_path",
}
COUNTS = ("montecarlo.normals_drawn", "engine.cohort_updates", "engine.cohorts",
          "montecarlo.chunks", "montecarlo.pool_payload_bytes",
          "outputs.bytes_written", "stochastic.standard_normal_calls")
LAYER_UNITS = {
    **{name: "s" for name in SELF_TIMES},
    "montecarlo.normals_drawn": "count", "engine.cohort_updates": "count",
    "engine.cohorts": "count", "montecarlo.chunks": "count",
    "montecarlo.pool_payload_bytes": "bytes", "outputs.bytes_written": "bytes",
    "stochastic.standard_normal_calls": "count",
    "montecarlo.ns_per_normal": "ns", "montecarlo.parallel_speedup": "x",
    "projection.run_deterministic_projection_s": "s",
    "projection.stepwise_projection_s": "s",
    "montecarlo.worker_peak_rss_mb": "MB",
    "bench.tracing_overhead_s": "s",
}


def digest_dir(path: str) -> dict[str, str]:
    """sha256 of every file in a directory, by file name."""
    digests = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


class Run:
    """One benchmark run: its child processes, digests and failures."""

    def __init__(self, workload, seed: int, trace: bool):
        self.wl = workload
        self.seed = seed
        self.trace = trace
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.work = os.path.join(ROOT, ".perfbench", "work",
                                 f"{workload.name}-{seed}-{os.getpid()}")
        with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
            golden = json.load(fh)
        self.golden = golden["digests"][workload.name]
        self.pinned = (self.golden if seed == golden["seed"]
                       else {f: self.golden[f] for f in workload.seed_free_files})
        self.reference: dict | None = None
        self.attempted = 0
        self.failures: list[str] = []  # what went wrong, for the report
        self.failed = 0                 # children that failed

    def spawn(self, role: str, trace: bool = False) -> tuple[dict | None, str]:
        """Run one child to completion; returns its result (None on failure)
        and its output directory."""
        self.attempted += 1
        out = os.path.join(self.work, f"{role}{self.attempted:03d}")
        result_file = out + ".json"
        cmd = [sys.executable, os.path.join(HERE, "sample.py"), role,
               "--workload", self.wl.name, "--seed", str(self.seed), "--out", out,
               "--result", result_file, "--trace", str(int(trace))]
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            err = b"timed out"
        finally:
            # the child runs in a process group of its own, with any pool workers
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if proc.returncode != 0:
            tail = err.decode(errors="replace").strip().splitlines()[-1:] or [""]
            self.failures.append(f"{role} exited {proc.returncode}: {tail[0]}")
            self.failed += 1
            return None, out
        with open(result_file, encoding="utf-8") as fh:
            result = json.load(fh)
        result["setup_s"] = result["ready"] - start
        return result, out

    def judge_bundle(self, out: str, what: str, complete: bool = True) -> bool:
        """Compare an output directory's digests with the golden and reference ones."""
        digests = digest_dir(out)
        problems = []
        if complete and set(digests) != set(self.golden):
            problems.append(f"files {sorted(digests)}, expected {sorted(self.golden)}")
        problems += [f"{f} differs from golden.json" for f, h in self.pinned.items()
                     if f in digests and digests[f] != h]
        if self.reference is None and complete:
            self.reference = digests
        elif self.reference is not None:
            problems += [f"{f} differs from the first sample's" for f, h in digests.items()
                         if self.reference.get(f) != h]
        for p in problems:
            self.failures.append(f"{what}: {p}")
        return not problems

    def sample(self, trace: bool) -> dict | None:
        result, out = self.spawn("sample", trace)
        if result is not None and not self.judge_bundle(out, "traced sample" if trace else "sample"):
            self.failed += 1
            result = None
        shutil.rmtree(out, ignore_errors=True)
        return result

    def check(self) -> dict | None:
        result, out = self.spawn("check")
        if result is None:
            return None
        self.failures += [f"check: {e}" for e in result["errors"]]
        # the check's bundle may hold fewer files (entrants_mc.csv alone)
        if result["errors"] or not self.judge_bundle(os.path.join(out, "bundle"), "check",
                                                     complete=False):
            self.failed += 1
            return None
        return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end(wl, probes, samples) -> dict:
    # run_s is the mean, not the median, of the run's calls: a shared host
    # switches between a quiet and a contended speed for tens of seconds at
    # a time, and a run's median jumps to whichever held most of its calls,
    # while the mean moves only with the share of each.
    run_s = [t for s in samples for t in s["run_s"]]
    return {
        "setup_s": statistics.median([p["setup_s"] for p in probes + samples]),
        "run_s": statistics.fmean(run_s),
        "reps_per_s": wl.reps * len(run_s) / sum(run_s),
        "peak_rss_mb": statistics.median([s["rss_mb"] for s in samples]),
    }


def per_layer(wl, untraced, traced, check) -> dict:
    calls = [c for s in traced for c in s["calls"]]

    def med(values):
        return statistics.median(values) if values else 0.0

    out = {name: med([c["self"].get(span, 0.0) for c in calls])
           for name, span in SELF_TIMES.items()}
    out.update({name: med([c["counts"].get(name, 0) for c in calls]) for name in COUNTS})
    out["montecarlo.ns_per_normal"] = med([
        1e9 * c["self"]["montecarlo.draw_shock_blocks"] / c["counts"]["montecarlo.normals_drawn"]
        for c in calls if "montecarlo.draw_shock_blocks" in c["self"]])
    out["projection.run_deterministic_projection_s"] = med(
        [c["total"].get("projection.run_deterministic_projection", 0.0) for c in calls])
    out["projection.stepwise_projection_s"] = med(
        [s["oracle_s"] for s in traced if s["oracle_s"] is not None])
    out["montecarlo.parallel_speedup"] = 0.0
    if wl.parallel and check is not None:
        out["montecarlo.parallel_speedup"] = check["serial_run_simulation_s"] / med(
            [c["total"]["montecarlo.run_simulation"] for c in calls])
    out["montecarlo.worker_peak_rss_mb"] = med([s["worker_rss_mb"] for s in traced])
    out["bench.tracing_overhead_s"] = (
        statistics.fmean([t for s in traced for t in s["run_s"]])
        - statistics.fmean([t for s in untraced for t in s["run_s"]]))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "paygsim", "__init__.py")):
        print(f"error: no paygsim sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    run = Run(wl, args.seed, bool(args.trace))
    os.makedirs(run.work, exist_ok=True)
    try:
        probes = [r for r in (run.spawn("setup")[0] for _ in range(SETUP_PROBES)) if r]
        untraced, traced = [], []
        began = time.monotonic()
        while True:
            tracing = run.trace and len(traced) < len(untraced)
            started = time.monotonic()
            result = run.sample(tracing)
            if result is not None:
                (traced if tracing else untraced).append(result)
            now = time.monotonic()
            enough = bool(untraced) and (bool(traced) or not run.trace)
            # stop when another sample would end nearer past --seconds than
            # stopping now falls short of it
            if now + (now - started) / 2 - began >= args.seconds and (enough or result is None):
                break
        check = run.check()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    if not untraced or (run.trace and not traced):
        for f in run.failures:
            print(f"error: {f}", file=sys.stderr)
        print("error: no sample succeeded", file=sys.stderr)
        return 1

    if run.trace:
        metrics = per_layer(wl, untraced, traced, check)
        units = LAYER_UNITS
    else:
        metrics = end_to_end(wl, probes, untraced)
        units = END_TO_END_UNITS
    failed = run.failed
    correct = failed == 0 and not run.failures

    run_s = [t for s in untraced for t in s["run_s"]]
    q1, q2, q3 = quartiles(run_s)
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"command: paygsim {' '.join(wl.argv(args.seed, 'DIR'))}")
    print(f"  untraced run_s: mean {statistics.fmean(run_s):.4f} s, median {q2:.4f} s, "
          f"quartiles {q1:.4f}-{q3:.4f} s, {len(run_s)} calls in {len(untraced)} "
          "sample processes")
    for name, value in metrics.items():
        print(f"  {name:44s} {value:16.6f} {units[name]}")
    print(f"  error_rate {failed}/{run.attempted} = {failed / run.attempted:.4f}")
    for f in run.failures:
        print(f"  FAILED {f}")

    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": run.attempted,
        "failed": failed, "failures": run.failures, "metrics": metrics,
        "samples": {"setup_s": [p["setup_s"] for p in probes + untraced + traced],
                    "run_s": run_s,
                    "traced_run_s": [t for s in traced for t in s["run_s"]],
                    "peak_rss_mb": [s["rss_mb"] for s in untraced]},
        "environment": {"nproc": os.cpu_count(), "machine": platform.machine(),
                        "python": platform.python_version(),
                        "numpy": _numpy_version()},
    }
    results = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(results, exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(results, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if run.trace:
        spans = os.path.join(ROOT, ".perfbench", "spans")
        os.makedirs(spans, exist_ok=True)
        with open(os.path.join(spans, stem + ".json"), "w", encoding="utf-8") as fh:
            json.dump([{"sample": i, "spans": s["spans"]} for i, s in enumerate(traced)], fh)

    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _numpy_version() -> str:
    from importlib.metadata import version
    return version("numpy")


if __name__ == "__main__":
    sys.exit(main())
