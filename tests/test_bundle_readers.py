"""The test-side readers refuse a raw ledger they cannot read exactly."""

import re

import numpy as np
import pytest

from paygsim.cashflows import ledger_columns
from paygsim.outputs import LEDGER_HEADER, write_ledger_raw_csv

from bundle_readers import parse_eur, read_ledger_raw_csv

YEARS = list(range(2006, 2012))


@pytest.fixture()
def raw_path(tmp_path):
    rng = np.random.default_rng(8)
    n = len(YEARS)
    path = tmp_path / "raw.csv"
    write_ledger_raw_csv(path, YEARS, ledger_columns(
        200_000_000, rng.uniform(0, 3e5, n), rng.uniform(0, 2e5, n),
        rng.uniform(0, 4e5, n), rng.uniform(0, 5e4, n), rng.normal(0.03, 0.04, n)))
    return path


def test_parse_tolerates_bare_integers():
    assert parse_eur("12") == 1200
    assert parse_eur("-3") == -300


def test_raw_reader_rejects_gaps(raw_path):
    lines = raw_path.read_text().splitlines()
    raw_path.write_text("\n".join(lines[:2] + lines[3:]) + "\n")
    with pytest.raises(ValueError, match="consecutive"):
        read_ledger_raw_csv(raw_path)


def test_raw_reader_rejects_empty(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text(",".join(LEDGER_HEADER) + "\n")
    with pytest.raises(ValueError, match="no data"):
        read_ledger_raw_csv(path)


def test_raw_reader_names_a_missing_column(raw_path):
    rows = [line.split(",") for line in raw_path.read_text().splitlines()]
    cut = rows[0].index("C_contrib_integrative")
    raw_path.write_text("".join(",".join(r[:cut] + r[cut + 1:]) + "\n" for r in rows))
    with pytest.raises(ValueError, match=re.escape(
            f"{raw_path}: missing columns ['C_contrib_integrative']")):
        read_ledger_raw_csv(raw_path)
