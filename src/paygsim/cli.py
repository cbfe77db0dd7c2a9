"""Command-line entry point.

Subcommands:
  validate   parse and cross-check a scenario file, run its zero-shock
             projection, print its digest
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
from .errors import ConfigError, PaygsimError, StateError
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


def _parse_stochastic(text: str) -> dict[str, bool]:
    """The families as run.stochastic's YAML value: those named on, the rest off."""
    names = [n.strip() for n in text.split(",") if n.strip()]
    if not names:
        raise ConfigError(["--stochastic: empty list (use 'none' to switch everything off)"])
    try:
        return vars(StochasticFlags.only(*([] if names == ["none"] else names)))
    except ConfigError as exc:
        raise ConfigError([f"--stochastic: {m}" for m in exc.messages]) from exc


def _parse_probes(text: str) -> list[float]:
    """The probes as floats; the scenario's run section checks their values."""
    try:
        return [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise ConfigError([f"--percentiles: {exc}"]) from exc


def _load(args, **run) -> tuple[str, ScenarioConfig]:
    """The scenario --config names, resolved once, each YAML value of `run`
    that is not None standing for the run section's field of its name."""
    path = args.config if args.config is not None else default_config_path()
    return path, load_config(path, {f"run.{k}": v for k, v in run.items() if v is not None})


def _money_path_error(message: str) -> str:
    """A zero-shock projection's StateError as a validation line under the
    field it comes from. An amount outgrows int64 cents through a rate
    compounded over the horizon, which no per-field bound can prevent:
    investment income through the expected return, every other amount
    through prices. Administration costs name their growth rate already."""
    if message.startswith("economics."):
        return message
    field = "expected_return" if message.startswith("investment income") else "inflation"
    return f"economics.{field}: {message}"


def _expected_projection(cfg: ScenarioConfig):
    """The zero-shock projection, which `validate` and `project` refuse alike:
    a StateError is a ConfigError under the field it comes from."""
    try:
        return run_deterministic_projection(cfg)
    except StateError as exc:
        raise ConfigError([_money_path_error(str(exc))]) from None


def _cmd_validate(args) -> list[str]:
    path, cfg = _load(args)
    _expected_projection(cfg)
    print(f"ok: {path}")
    print(f"  years {cfg.first_year}-{cfg.last_year}, sexes {', '.join(cfg.sexes)}, "
          f"ages {cfg.min_age}-{cfg.max_age}")
    print(f"  sha256 {cfg.source_digest}")
    return []


def _cmd_project(args) -> list[str]:
    _, cfg = _load(args)
    return outputs.emit_projection_outputs(args.out, cfg, _expected_projection(cfg))


def _cmd_simulate(args) -> list[str]:
    _, cfg = _load(
        args, seed=args.seed, n_reps=args.reps,
        stochastic=None if args.stochastic is None else _parse_stochastic(args.stochastic),
        percentile_probes=None if args.percentiles is None else _parse_probes(args.percentiles))
    result = run_simulation(cfg, workers=args.workers)
    if result.n_reps < 2:
        print("note: one replication, skipping moments.csv")
    return outputs.emit_simulation_outputs(args.out, cfg, result)


def _cmd_entrants(args) -> list[str]:
    if args.reps < 0:
        raise ConfigError(["--reps: must be >= 0"])
    # with no replications drawn, the manifest keeps the scenario's count
    _, cfg = _load(args, seed=args.seed, n_reps=args.reps or None)
    moments = entrant_moment_tables(cfg)  # built once, for both paths
    ne = entrant_product(*moments, 0.0)  # the expected path
    expected = {s: ne[:, si] for si, s in enumerate(cfg.sexes)}
    sampled = None
    if args.reps > 0:
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
    except MemoryError as exc:  # a run whose arrays do not fit
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
