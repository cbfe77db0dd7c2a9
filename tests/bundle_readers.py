"""Readers that re-parse the files of an output bundle, for the tests.

The package only writes these files; each reader here returns the numbers
its writer in `paygsim.outputs` put in, exactly.
"""

import csv

import numpy as np

from paygsim.cashflows import LEDGER_LETTERS
from paygsim.outputs import LEDGER_HEADER


def _records(path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def parse_eur(text: str) -> int:
    """Integer cents from a fixed-point euro string."""
    sign = -1 if text.startswith("-") else 1
    whole, _, frac = text.lstrip("+-").partition(".")
    return sign * (int(whole) * 100 + int((frac + "00")[:2]))


def read_ledger_csv(path) -> list[dict[str, int]]:
    """Rows of the display ledger as {header: int} dicts."""
    return [{k: int(v) for k, v in rec.items()} for rec in _records(path)]


def read_ledger_raw_csv(path):
    """(years, ledger) from a raw ledger file, the ledger cent-exact."""
    recs = _records(path)
    if not recs:
        raise ValueError(f"{path}: no data rows")
    missing = [c for c in LEDGER_HEADER if c not in recs[0]]
    if missing:
        raise ValueError(f"{path}: missing columns {missing}")
    years = [int(r["year"]) for r in recs]
    if years != list(range(years[0], years[0] + len(years))):
        raise ValueError(f"{path}: years are not consecutive")
    return years, {name: np.array([parse_eur(r[f"{letter}_{name}"]) for r in recs],
                                  dtype=np.int64)
                   for letter, name in LEDGER_LETTERS.items()}


def read_long_csv(path, key=str) -> dict:
    """{series: {year: {key(cell): value}}} from a `series,year,<key>,value`
    file: fanchart.csv (key=float for the probes) or moments.csv."""
    out: dict = {}
    for r in _records(path):
        series, year, cell, value = r.values()
        out.setdefault(series, {}).setdefault(int(year), {})[key(cell)] = float(value)
    return out


def read_entrants_csv(path):
    """(years, {sex: array}) from an arrivals file."""
    recs = _records(path)
    sexes = list(recs[0])[1:]
    return [int(r["year"]) for r in recs], {
        s: np.array([float(r[s]) for r in recs]) for s in sexes}


def read_entrants_mc_csv(path) -> dict:
    """{sex: {year: (mean, std)}}."""
    out: dict = {}
    for r in _records(path):
        out.setdefault(r["sex"], {})[int(r["year"])] = (float(r["mean"]), float(r["std"]))
    return out
