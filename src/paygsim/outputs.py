"""Writers for the run output files and the per-command bundles.

Every file is comma-separated UTF-8 with a header row and '.' as decimal
mark. Money columns come from the integer-cent ledger: the display ledger
rounds to thousands of euros (halves away from zero), the raw companion
keeps exact cents as fixed-point euro strings. Free-floating values are
written with repr so a re-parse returns the identical double. Nothing here
reads the clock or the environment, so equal runs produce byte-identical
files.
"""

from __future__ import annotations

import json
import os

import numpy as np

from ._version import __version__
from .cashflows import LEDGER_COLUMNS, LEDGER_LETTERS, cents_to_thousands, identities_hold
from .config import ScenarioConfig

LEDGER_HEADER = ("year",) + tuple(
    f"{letter}_{name}" for letter, name in LEDGER_LETTERS.items())

MOMENT_STATS = ("mean", "std", "skewness", "excess_kurtosis")


def _num(x) -> str:
    return repr(float(x))


def _eur(cents) -> str:
    """Exact fixed-point euros from integer cents."""
    c = int(cents)
    sign = "-" if c < 0 else ""
    return f"{sign}{abs(c) // 100}.{abs(c) % 100:02d}"


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# yearly statement

def _write_ledger(path, years, columns, cell) -> None:
    """One row per year: the year, then `cell` of each column's amount."""
    lines = [",".join(LEDGER_HEADER)]
    for t, year in enumerate(years):
        lines.append(",".join([str(int(year))] + [cell(c[t]) for c in columns]))
    _write_lines(path, lines)


def write_ledger_csv(path, years, ledger) -> None:
    """Statement in thousands of euros, each column rounded independently."""
    _write_ledger(path, years, [cents_to_thousands(ledger[c]) for c in LEDGER_COLUMNS], str)


def write_ledger_raw_csv(path, years, ledger) -> None:
    """Statement at full precision, euros with exact cents."""
    _write_ledger(path, years, [ledger[c] for c in LEDGER_COLUMNS], _eur)


# ---------------------------------------------------------------------------
# distribution files

def write_fan_chart_csv(path, result, probes) -> None:
    """Long format, one row per (series, year, probe)."""
    lines = ["series,year,probe,value"]
    for name in result.series_names:
        fan = result.fan_chart(name, probes)
        values = fan["values"]
        for t, year in enumerate(fan["years"]):
            for pi, probe in enumerate(fan["probes"]):
                lines.append(f"{name},{int(year)},{_num(probe)},{_num(values[pi, t])}")
    _write_lines(path, lines)


def write_moments_csv(path, result, years) -> None:
    """Long format, one row per (series, reporting year, statistic)."""
    lines = ["series,year,statistic,value"]
    for name in result.series_names:
        mom = result.moments(name, years)
        for t, year in enumerate(mom["years"]):
            for stat in MOMENT_STATS:
                lines.append(f"{name},{int(year)},{stat},{_num(mom[stat][t])}")
    _write_lines(path, lines)


# ---------------------------------------------------------------------------
# arrivals

def write_entrants_csv(path, years, by_sex: dict) -> None:
    """Expected arrivals per year, one column per sex, unrounded."""
    sexes = list(by_sex)
    lines = [",".join(["year"] + sexes)]
    for t, year in enumerate(years):
        lines.append(",".join([str(int(year))] + [_num(by_sex[s][t]) for s in sexes]))
    _write_lines(path, lines)


def write_entrants_mc_csv(path, years, mean_by_sex: dict, std_by_sex: dict) -> None:
    """Replication mean and spread of sampled arrivals, long format."""
    lines = ["year,sex,mean,std"]
    for t, year in enumerate(years):
        for s in mean_by_sex:
            lines.append(f"{int(year)},{s},{_num(mean_by_sex[s][t])},{_num(std_by_sex[s][t])}")
    _write_lines(path, lines)


# ---------------------------------------------------------------------------
# JSON documents

def write_json(path, payload: dict) -> None:
    _write_lines(path, [json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False)])


def run_manifest(cfg: ScenarioConfig, mode: str) -> dict:
    """Record of what ran: replaying the same scenario file with these
    settings reproduces every output byte for byte."""
    run = cfg.run
    return {
        "schema": "paygsim.manifest/1",
        "version": __version__,
        "mode": mode,
        "config_sha256": cfg.source_digest,
        "seed": run.seed,
        "n_reps": run.n_reps,
        "stochastic": list(run.flags.names()),
        "percentile_probes": [float(p) for p in run.probes],
        "moments_years": [int(y) for y in run.moments_years],
        "horizon": {"first_year": cfg.first_year, "last_year": cfg.last_year},
    }


def projection_summary(cfg: ScenarioConfig, result) -> dict:
    ledger = result.ledger
    negative = [int(y) for y, v in zip(result.years, ledger["pension_balance"]) if v < 0]
    return {
        "schema": "paygsim.summary/1",
        "mode": "project",
        "horizon": {"first_year": cfg.first_year, "last_year": cfg.last_year},
        "identities_hold": identities_hold(ledger),
        "fund_value_end_eur": float(ledger["value_end"][-1]) / 100.0,
        "pension_balance_first_negative_year": negative[0] if negative else None,
        "entrants_final_year": {s: float(result.entrants[s][-1]) for s in cfg.sexes},
    }


def simulation_summary(cfg: ScenarioConfig, result) -> dict:
    final = {}
    for name in result.series_names:
        x = result.columns(name, -1)
        final[name] = {
            "mean": float(x.mean()),
            "std": float(x.std(ddof=1)) if result.n_reps > 1 else None,
            "min": float(x.min()),
            "max": float(x.max()),
        }
    # the fund value is value_end / 100.0, whose sign is that of the cents
    fund_cents = result.ledger["value_end"]
    return {
        "schema": "paygsim.summary/1",
        "mode": "simulate",
        "horizon": {"first_year": cfg.first_year, "last_year": cfg.last_year},
        "seed": result.seed,
        "n_reps": result.n_reps,
        "stochastic": list(result.flags.names()),
        "final_year": int(result.years[-1]),
        "final_year_series": final,
        "prob_fund_value_nonnegative": float(np.mean(fund_cents.min(axis=1) >= 0)),
    }


# ---------------------------------------------------------------------------
# per-command bundles

def _write_bundle(outdir, cfg: ScenarioConfig, mode: str, files) -> list[str]:
    """Create `outdir` and call each (name, write) pair's `write(path)` with
    the file's path there, in order, then write the run's manifest.json;
    return the paths written."""
    os.makedirs(outdir, exist_ok=True)
    files = [*files, ("manifest.json", lambda path: write_json(path, run_manifest(cfg, mode)))]
    written = []
    for name, write in files:
        written.append(os.path.join(outdir, name))
        write(written[-1])
    return written


def emit_projection_outputs(outdir, cfg: ScenarioConfig, result) -> list[str]:
    """ledger.csv, ledger_raw.csv, entrants.csv, summary.json, manifest.json."""
    return _write_bundle(outdir, cfg, "project", [
        ("ledger.csv", lambda path: write_ledger_csv(path, result.years, result.ledger)),
        ("ledger_raw.csv", lambda path: write_ledger_raw_csv(path, result.years,
                                                             result.ledger)),
        ("entrants.csv", lambda path: write_entrants_csv(path, result.years, result.entrants)),
        ("summary.json", lambda path: write_json(path, projection_summary(cfg, result))),
    ])


def emit_simulation_outputs(outdir, cfg: ScenarioConfig, result) -> list[str]:
    """fanchart.csv, moments.csv, summary.json, manifest.json.

    Moments need at least two replications; with one the file is skipped.
    """
    moments = [("moments.csv", lambda path: write_moments_csv(
        path, result, cfg.run.moments_years))] if result.n_reps >= 2 else []
    return _write_bundle(outdir, cfg, "simulate", [
        ("fanchart.csv", lambda path: write_fan_chart_csv(path, result, cfg.run.probes)),
        *moments,
        ("summary.json", lambda path: write_json(path, simulation_summary(cfg, result))),
    ])


def emit_entrants_outputs(outdir, cfg: ScenarioConfig, expected: dict,
                          sampled: tuple | None = None) -> list[str]:
    """entrants.csv, optional entrants_mc.csv, manifest.json."""
    mc = [] if sampled is None else [("entrants_mc.csv", lambda path: write_entrants_mc_csv(
        path, cfg.years, *sampled))]
    return _write_bundle(outdir, cfg, "entrants", [
        ("entrants.csv", lambda path: write_entrants_csv(path, cfg.years, expected)),
        *mc,
    ])
