import copy
import re
import os

import numpy as np
import pytest
import yaml

from paygsim import default_config_path, load_config
from paygsim.cohorts import STATUS_NAMES


@pytest.fixture(scope="session")
def cfg():
    """The bundled default scenario, loaded once."""
    return load_config(default_config_path())


# A small but complete scenario used where the bundled one is too big:
# 11 years, ages 30-50, a handful of census cells, everyone can retire at 41.
BASE_SCENARIO = {
    "horizon": {"first_year": 2006, "last_year": 2016},
    "run": {
        "seed": 11,
        "n_reps": 8,
        "stochastic": {"entrants": True, "mortality": True, "returns": True},
    },
    "population": {
        "sexes": ["male", "female"],
        "min_age": 30,
        "max_age": 50,
        "max_seniority": 15,
        "entry_age": 30,
        "census_csv": "census.csv",
    },
    "entrants": {
        "study_years": 5,
        "training_years": 4,
        "population_csv": "population.csv",
        "factors": {
            s: {
                "enrolment": {"mean": 0.1, "sigma": 0.02},
                "graduation": {"mean": 0.5, "sigma": 0.02},
                "admission": {"mean": 0.2, "sigma": 0.02},
                "membership": {"mean": 0.5, "sigma": 0.02},
            }
            for s in ("male", "female")
        },
    },
    "mortality": {"base_year": 2006, "table_csv": "mortality.csv"},
    "retirement": {
        "benefit_types": ["old_age"],
        "thresholds": {"old_age": {"min_age": 40, "min_seniority": 5}},
    },
    "contributions": {
        "exemption_years": 1,
        "subjective": {"rate": 0.10, "profile_csv": "income.csv"},
        "integrative": {"rate": 0.02, "profile_csv": "turnover.csv"},
    },
    "benefits": {
        "accrual_rate": 0.03,
        "backfill_notional": True,
        "pre_existing_profile_csv": "pensions.csv",
        "types": {"old_age": {"kind": "notional_account", "conversion_csv": "conversion.csv"}},
    },
    "economics": {
        "initial_assets": 1_000_000,
        "admin_base": 10_000,
        "admin_growth": 0.0,
        "admin_base_year": 2006,
        "profile_base_year": 2005,
        "inflation": 0.02,
        "expected_return": 0.03,
        "return_deviations": {"phi": -0.5, "sigma": 0.02, "x0": 0.0},
    },
}

BASE_CSVS = {
    "census.csv": ["sex,age,seniority,status,count"]
    + [f"{s},30,0,active,40" for s in ("male", "female")]
    + [f"{s},35,5,active,30" for s in ("male", "female")]
    + [f"{s},38,8,active,20" for s in ("male", "female")]
    + [f"{s},42,10,retired,10" for s in ("male", "female")],
    "population.csv": ["year,sex,expected,sigma"]
    + [f"{y},{s},1000,100" for y in range(1995, 2017) for s in ("male", "female")],
    "mortality.csv": ["sex,age,q0,drift,sigma"]
    + [f"{s},{a},0.01,0.0,0.005" for s in ("male", "female") for a in range(30, 51)],
    "income.csv": ["sex,age,amount"]
    + [f"{s},{a},50000" for s in ("male", "female") for a in range(30, 51)],
    "turnover.csv": ["sex,age,amount"]
    + [f"{s},{a},80000" for s in ("male", "female") for a in range(30, 51)],
    "pensions.csv": ["sex,age,amount"]
    + [f"{s},{a},20000" for s in ("male", "female") for a in range(41, 51)],
    "conversion.csv": ["sex,age,coefficient"]
    + [f"{s},{a},0.06" for s in ("male", "female") for a in range(35, 51)],
}


def census_counts(records, sexes=("male", "female"), min_age=20, max_age=80,
                  max_seniority=40) -> np.ndarray:
    """(status, sex, age, seniority) counts from (sex, age, seniority, status,
    count) records, as a census table's rows add up."""
    counts = np.zeros((len(STATUS_NAMES), len(sexes), max_age - min_age + 1, max_seniority + 1))
    for sex, age, seniority, status, count in records:
        counts[STATUS_NAMES.index(status), sexes.index(sex), age - min_age, seniority] += count
    return counts


def deep_merge(base: dict, tweaks: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in tweaks.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def write_scenario(dirpath, tweaks: dict | None = None, csv_overrides: dict | None = None) -> str:
    """Write the small scenario into dirpath, return the YAML path."""
    raw = deep_merge(BASE_SCENARIO, tweaks or {})
    csvs = dict(BASE_CSVS, **(csv_overrides or {}))
    for name, lines in csvs.items():
        with open(os.path.join(dirpath, name), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    path = os.path.join(dirpath, "scenario.yaml")
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(raw, fh, sort_keys=False)
    return path


@pytest.fixture()
def small_scenario(tmp_path):
    """Path of a freshly written small scenario."""
    return write_scenario(str(tmp_path))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    results: dict[int, tuple[bool, str]] = {}
    for reports in terminalreporter.stats.values():
        for rep in reports:
            m = re.search(r"test_acceptance\.py::test_criterion_(\d+)_([a-z0-9_]+)",
                          str(getattr(rep, "nodeid", "")))
            if not m:
                continue
            num, slug = int(m.group(1)), m.group(2)
            ok = results.get(num, (True, slug))[0]
            if getattr(rep, "failed", False) or getattr(rep, "skipped", False):
                ok = False
            results[num] = (ok, slug)
    if not results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(results):
        ok, slug = results[num]
        terminalreporter.write_line(
            f"criterion {num} ({slug.replace('_', ' ')}): {'PASS' if ok else 'FAIL'}")
