"""Command-line entry point.

Subcommands:
  validate   parse and cross-check a scenario file, print its digest
  project    deterministic projection, writes the yearly statement
  simulate   Monte Carlo run, writes fan-chart and moments files
  entrants   arrival model alone: expected path, optionally sampled

Exit codes: 0 success, 2 invalid configuration or arguments, 3 runtime
failure. All data files go to --out (created if missing).
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import outputs
from ._version import __version__
from .config import (SHOCK_FAMILIES, ScenarioConfig, StochasticFlags,
                     default_config_path, load_config)
from .engine import entrant_moment_tables, entrant_product
from .errors import ConfigError, PaygsimError
from .montecarlo import entrant_paths, run_simulation
from .projection import run_deterministic_projection


@functools.cache  # built once: a process may call main many times
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paygsim",
        description="Stochastic projection of a pay-as-you-go pension fund.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_out=True):
        p.add_argument("--config", metavar="FILE", default=None,
                       help="scenario file (default: bundled scenario)")
        if with_out:
            p.add_argument("--out", metavar="DIR", default="out",
                           help="output directory (default: %(default)s)")

    p = sub.add_parser("validate", help="check a scenario file")
    add_common(p, with_out=False)

    p = sub.add_parser("project", help="deterministic projection")
    add_common(p)

    p = sub.add_parser("simulate", help="Monte Carlo simulation")
    add_common(p)
    p.add_argument("--seed", type=int, default=None, help="override run.seed")
    p.add_argument("--reps", type=int, default=None, help="override run.n_reps")
    p.add_argument("--stochastic", metavar="LIST", default=None,
                   help=f"comma list from {','.join(SHOCK_FAMILIES)}; 'none' switches all off")
    p.add_argument("--percentiles", metavar="LIST", default=None,
                   help="comma list of increasing percentile probes in (0, 100)")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: serial)")

    p = sub.add_parser("entrants", help="arrival model on its own")
    add_common(p)
    p.add_argument("--seed", type=int, default=None, help="override run.seed")
    p.add_argument("--reps", type=int, default=0,
                   help="sampled paths for the spread file; 0 writes the expected path only")
    return parser


def _parse_stochastic(text: str) -> StochasticFlags:
    names = [n.strip() for n in text.split(",") if n.strip()]
    if names == ["none"]:
        return StochasticFlags.none()
    if not names:
        raise ConfigError(["--stochastic: empty list (use 'none' to switch everything off)"])
    try:
        return StochasticFlags.only(*names)
    except ConfigError as exc:
        raise ConfigError([f"--stochastic: {m}" for m in exc.messages]) from exc


def _parse_probes(text: str) -> tuple[float, ...]:
    """The probes as floats; `RunSettings` checks their values."""
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError as exc:
        raise ConfigError([f"--percentiles: {exc}"]) from exc


def _load(args) -> tuple[str, ScenarioConfig]:
    path = args.config if args.config is not None else default_config_path()
    return path, load_config(path)


def _cmd_validate(args) -> list[str]:
    path, cfg = _load(args)
    print(f"ok: {path}")
    print(f"  years {cfg.first_year}-{cfg.last_year}, sexes {', '.join(cfg.sexes)}, "
          f"ages {cfg.min_age}-{cfg.max_age}")
    print(f"  sha256 {cfg.source_digest}")
    return []


def _cmd_project(args) -> list[str]:
    _, cfg = _load(args)
    return outputs.emit_projection_outputs(args.out, cfg, run_deterministic_projection(cfg))


def _cmd_simulate(args) -> list[str]:
    _, cfg = _load(args)
    override = {}
    if args.seed is not None:
        override["seed"] = args.seed
    if args.reps is not None:
        override["n_reps"] = args.reps
    if args.stochastic is not None:
        override["flags"] = _parse_stochastic(args.stochastic)
    if args.percentiles is not None:
        override["probes"] = _parse_probes(args.percentiles)
    if override:
        cfg = cfg.with_run(**override)
    result = run_simulation(cfg, workers=args.workers)
    if result.n_reps < 2:
        print("note: one replication, skipping moments.csv")
    return outputs.emit_simulation_outputs(args.out, cfg, result)


def _cmd_entrants(args) -> list[str]:
    _, cfg = _load(args)
    if args.seed is not None:
        cfg = cfg.with_run(seed=args.seed)
    if args.reps < 0:
        raise ConfigError(["--reps: must be >= 0"])
    moments = entrant_moment_tables(cfg)  # built once, for both paths
    ne = entrant_product(*moments, 0.0)  # the expected path
    expected = {s: ne[:, si] for si, s in enumerate(cfg.sexes)}
    sampled = None
    if args.reps > 0:
        cfg = cfg.with_run(n_reps=args.reps)
        paths = entrant_paths(cfg, moments)
        mean = {s: paths[s].mean(axis=0) for s in cfg.sexes}
        std = {s: paths[s].std(axis=0, ddof=1) if args.reps > 1
               else np.zeros(len(cfg.years)) for s in cfg.sexes}
        sampled = (mean, std)
    return outputs.emit_entrants_outputs(args.out, cfg, expected, sampled)


_COMMANDS = {
    "validate": _cmd_validate,
    "project": _cmd_project,
    "simulate": _cmd_simulate,
    "entrants": _cmd_entrants,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for path in _COMMANDS[args.command](args):
            print(f"wrote {path}")
    except ConfigError as exc:
        for message in exc.messages:
            print(f"error: {message}", file=sys.stderr)
        return 2
    except (PaygsimError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
