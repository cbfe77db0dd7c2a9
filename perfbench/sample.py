"""One sample of a workload, run in a fresh interpreter by `run.py`.

    python3 perfbench/sample.py {setup|sample|check} --workload NAME --seed N
        --out DIR --result FILE [--trace 0|1]

Every role first sets the program up (import paygsim, load_config,
build_system) and records the monotonic time at which that finished; the
parent subtracts the time it started the process. Then

  setup   stops;
  sample  runs the workload's `paygsim.cli.main(argv)` `loops` times, timing
          each call, optionally with every layer wrapped by the tracer;
  check   checks the seed-independent invariants of the workload, outside
          any timed region.

The result goes to --result as JSON; the command's stdout is not used.
"""

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

# Set-up runs at module level, before the benchmark's own imports, so that
# READY marks the end of exactly import paygsim, load_config and build_system.
# This file is only ever run as a script.
import paygsim  # noqa: E402
import paygsim.cli  # noqa: E402
from paygsim import config, engine, montecarlo, outputs  # noqa: E402

_cfg = config.load_config(config.default_config_path())
engine.build_system(_cfg)
READY = time.monotonic()

import csv  # noqa: E402
import pickle  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from decimal import Decimal  # noqa: E402

import numpy as np  # noqa: E402
from paygsim.entrants import DRAWS_PER_CELL  # noqa: E402
from paygsim.montecarlo import DEFAULT_CHUNK  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NONE_REPS = 200  # replications of the all-shocks-off run compared with `project`


def _calls(tracer: Tracer, calls) -> list[dict]:
    out = []
    for call in calls:
        own, total = tracer.layer_times(call)
        out.append({"self": own, "total": total,
                    "counts": dict(tracer.counts.get(call, {}))})
    return out


def _parallel_counts(tracer: Tracer) -> dict:
    """Counts of the work done inside the pool's workers, computed from the
    parent's arguments, since the workers' own spans never reach the parent."""
    (cfg,), _, _ = tracer.kept["simulation"]
    system = tracer.kept["system"]
    n = cfg.run.n_reps
    per_rep = (len(cfg.years) * len(cfg.sexes)
               * (DRAWS_PER_CELL + cfg.mortality.max_age - cfg.mortality.min_age + 1)
               + len(cfg.years))
    spans = [(lo, min(lo + DEFAULT_CHUNK, n)) for lo in range(0, n, DEFAULT_CHUNK)]
    return {
        "montecarlo.normals_drawn": n * per_rep,
        "montecarlo.chunks": len(spans),
        "engine.cohort_updates": n * system.n_cohorts * system.n_years,
        # draw_shock_blocks draws three blocks per replication
        "stochastic.standard_normal_calls": 3 * n,
        "montecarlo.pool_payload_bytes": sum(
            len(pickle.dumps((cfg, system, lo, hi))) for lo, hi in spans),
    }


def run_sample(wl, args) -> dict:
    argv = wl.argv(args.seed, args.out)
    tracer = Tracer()
    run_s = []
    with tracer.installed() if args.trace else nullcontext():
        for call in range(wl.loops):
            tracer.call = call
            t0 = time.perf_counter()
            code = paygsim.cli.main(argv)
            run_s.append(time.perf_counter() - t0)
            if code != 0:
                raise SystemExit(code)
        oracle_s = None
        if args.trace and wl.name == "project":
            # the stepwise grid oracle, which the cohort engine's projection
            # is meant to beat; timed on its own, outside run_s
            tracer.call = "oracle"
            paygsim.projection.stepwise_projection(_cfg)
            oracle_s = tracer.layer_times("oracle")[1]["projection.stepwise_projection"]
    out = {"run_s": run_s,
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "worker_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
                             if wl.parallel else 0.0)}
    if args.trace:
        out["calls"] = _calls(tracer, range(wl.loops))
        if wl.parallel:
            for c in out["calls"]:
                c["counts"].update(_parallel_counts(tracer))
        out["oracle_s"] = oracle_s
        out["spans"] = tracer.spans
    return out


# ---------------------------------------------------------------------------
# invariants


def _ledger_identities(ledger: dict) -> list[str]:
    """E = B + C - D, H = E + F - G, I = A + H, to the cent, on every row."""
    rules = (("pension_balance", ("contrib_subjective", "contrib_integrative"),
              ("disbursements",)),
             ("total_balance", ("pension_balance", "investment_income"), ("admin_costs",)),
             ("value_end", ("value_start", "total_balance"), ()))
    errors = []
    for lhs, plus, minus in rules:
        rhs = sum(ledger[k] for k in plus) - sum((ledger[k] for k in minus), 0)
        bad = np.asarray(ledger[lhs] != rhs)
        if bad.any():
            rows = int(bad.any(axis=-1).sum()) if bad.ndim > 1 else 1
            errors.append(f"{lhs} identity broken on {rows} replication(s)")
    return errors


def _cents(text: str) -> int:
    return int((Decimal(text) * 100).to_integral_value())


def _read_csv(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_project(wl, args) -> list[str]:
    """Ledger identities of the projection, and every fund_value band of a
    run with all shocks off equal to the projection's closing value."""
    bundle = os.path.join(args.out, "bundle")
    code = paygsim.cli.main(wl.argv(args.seed, bundle))
    if code != 0:
        return [f"project exited {code}"]
    rows = _read_csv(os.path.join(bundle, "ledger_raw.csv"))
    letters = {k.split("_", 1)[1]: k for k in rows[0] if k != "year"}
    ledger = {name: np.array([_cents(r[key]) for r in rows], dtype=object)
              for name, key in letters.items()}
    errors = _ledger_identities(ledger)
    closing = {int(r["year"]): _cents(r[letters["value_end"]]) for r in rows}

    none_dir = os.path.join(args.out, "none")
    code = paygsim.cli.main(["simulate", "--stochastic", "none", "--reps", str(NONE_REPS),
                             "--seed", str(args.seed), "--out", none_dir])
    if code != 0:
        return errors + [f"simulate --stochastic none exited {code}"]
    bands = [r for r in _read_csv(os.path.join(none_dir, "fanchart.csv"))
             if r["series"] == "fund_value"]
    off = [r for r in bands if _cents(r["value"]) != closing[int(r["year"])]]
    if not bands or off:
        errors.append(f"{len(off)} of {len(bands)} fund_value bands differ from "
                      "the projection's closing value with all shocks off")
    return errors


def check_simulation(wl, args, tracer: Tracer) -> list[str]:
    """Ledger identities on every replication of a serial run of the same
    replications; its bundle is compared with the samples' by the parent."""
    argv = wl.argv(args.seed, os.path.join(args.out, "bundle"), wl.serial_command())
    tracer.call = "check"
    code = paygsim.cli.main(argv)
    if code != 0:
        return [f"serial {' '.join(argv)} exited {code}"]
    result = tracer.kept["simulation"][2]
    return _ledger_identities(result.ledger)


def check_entrants(wl, args) -> list[str]:
    """Recompute entrants_mc.csv through draw_shock_blocks and
    entrants_matrix; the parent compares its bytes with the samples'."""
    cfg = _cfg.with_run(seed=args.seed, n_reps=wl.reps)
    ne = np.concatenate([
        engine.entrants_matrix(cfg, montecarlo.draw_shock_blocks(
            cfg, range(lo, min(lo + DEFAULT_CHUNK, wl.reps))).entrants)
        for lo in range(0, wl.reps, DEFAULT_CHUNK)])
    paths = {s: np.ascontiguousarray(ne[:, :, si]) for si, s in enumerate(cfg.sexes)}
    bundle = os.path.join(args.out, "bundle")
    os.makedirs(bundle, exist_ok=True)
    outputs.write_entrants_mc_csv(
        os.path.join(bundle, "entrants_mc.csv"), cfg.years,
        {s: p.mean(axis=0) for s, p in paths.items()},
        {s: p.std(axis=0, ddof=1) for s, p in paths.items()})
    return []


def run_check(wl, args) -> dict:
    tracer = Tracer()
    with tracer.installed():
        if wl.name == "project":
            errors = check_project(wl, args)
        elif wl.name == "entrants_mc":
            errors = check_entrants(wl, args)
        else:
            errors = check_simulation(wl, args, tracer)
    serial_s = None
    if wl.parallel and not errors:
        serial_s = tracer.layer_times("check")[1]["montecarlo.run_simulation"]
    return {"errors": errors, "serial_run_simulation_s": serial_s}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=("setup", "sample", "check"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]
    out = {"ready": READY}
    if args.role == "sample":
        out.update(run_sample(wl, args))
    elif args.role == "check":
        out.update(run_check(wl, args))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
