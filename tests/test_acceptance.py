"""Release acceptance gates, one numbered test per criterion.

The conftest terminal-summary hook prints one PASS/FAIL line per criterion
at the end of the run. Money checks are anchored to published rows of the
reference fund's yearly statement (thousands of euros); distribution checks
are anchored to frozen brute-force oracles regenerated by
scripts/compute_oracles.py.
"""

import os
import time

import numpy as np
import pytest

from paygsim import (load_config, montecarlo, run_deterministic_projection,
                     run_simulation)
from paygsim.cashflows import (LEDGER_LETTERS, cents_to_thousands, ledger_columns,
                               to_cents)
from paygsim.cohorts import (CohortGrid, MortalityModel, RetirementRule, age_one_year,
                             death_probability_grid, expected_mortality_grid, retire)
from paygsim.config import StochasticFlags
from paygsim.engine import admin_path, entrants_matrix
from paygsim.entrants import DRAWS_PER_CELL, variance_new_entrants
from paygsim.outputs import emit_simulation_outputs
from paygsim.schedules import Schedule
from paygsim.stochastic import Ar1Params, ar1_path, open_streams

# Published yearly statement rows (thousands of euros). A is the opening
# fund value, B/C the two contribution streams, D pension disbursement,
# E the pension balance, F investment income, G administration costs,
# H the total balance, I the closing fund value.
ROW_2006 = {"A": 2_067_794, "B": 235_721, "C": 155_133, "D": 126_378,
            "E": 264_476, "F": 70_305, "G": 28_448, "H": 306_333,
            "I": 2_374_127}
ADMIN_PUBLISHED = {2006: 28_448, 2007: 29_870, 2008: 31_364,
                   2009: 32_932, 2010: 34_578}
RETURN_INVERSION_ROWS = [(2006, 2_067_794, 70_305),
                         (2007, 2_374_127, 80_720),
                         (2015, 5_791_061, 196_896)]

ARRIVAL_2020 = {"male": 595, "female": 516}

# Brute-force arrival oracles for 2020, frozen from a 10^7-draw run of
# scripts/compute_oracles.py (numpy default_rng(424242), independent of the
# package's own streams). "truncated" floors each factor draw at zero the
# way the sampler does; "unfloored" leaves the draws untouched and is the
# reference for the closed-form variance, which ignores truncation.
ORACLE_TRUNCATED_VAR = {"male": 120968.45283478925, "female": 92491.02269325976}
ORACLE_UNFLOORED_VAR = {"male": 121711.04393185642, "female": 93055.44181038123}


@pytest.fixture(scope="module")
def sensitivity(cfg):
    """Four 10,000-replication runs of the bundled scenario and their cost."""
    t0 = time.perf_counter()
    runs = {
        "all": run_simulation(cfg.with_run(n_reps=10_000)),
        "mortality": run_simulation(cfg.with_run(
            n_reps=10_000, flags=StochasticFlags.only("mortality"))),
        "returns": run_simulation(cfg.with_run(
            n_reps=10_000, flags=StochasticFlags.only("returns"))),
        "entrants": run_simulation(cfg.with_run(
            n_reps=10_000, flags=StochasticFlags.only("entrants"))),
    }
    return runs, time.perf_counter() - t0


def test_criterion_1_yearly_statement_identities(cfg):
    t0 = time.perf_counter()
    led = ledger_columns(int(to_cents(ROW_2006["A"] * 1000.0)),
                         subj_eur=[ROW_2006["B"] * 1000.0],
                         integ_eur=[ROW_2006["C"] * 1000.0],
                         disb_eur=[ROW_2006["D"] * 1000.0],
                         admin_eur=[ROW_2006["G"] * 1000.0],
                         rates=[0.034])
    got = {letter: int(cents_to_thousands(led[name][0]))
           for letter, name in LEDGER_LETTERS.items()}
    for letter in ("E", "F", "H", "I"):
        assert abs(got[letter] - ROW_2006[letter]) <= 1, (letter, got[letter])
    admin = admin_path(cfg)
    for year, published in ADMIN_PUBLISHED.items():
        computed = int(cents_to_thousands(to_cents(admin[year - cfg.first_year])))
        assert abs(computed - published) <= 1, (year, computed)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_return_rate_inversion(cfg):
    for year, value_start, investment in RETURN_INVERSION_ROWS:
        implied = round(value_start * 0.034)
        assert abs(implied - investment) <= 1, (year, implied, investment)
    # the derived flat 3.4% is frozen into the bundled scenario
    for year in cfg.years:
        assert cfg.economics.expected_return.value(year) == 0.034


def _arrival_draws(cfg, n_reps, year, batch=10_000):
    """Per-replication arrivals at one year, drawn with production streams.

    Each replication stream emits its arrival block first, so drawing only
    that block reproduces the full simulation's arrival draws bit for bit
    without holding every replication's mortality block in memory.
    """
    n_years, n_sex = len(cfg.years), len(cfg.sexes)
    t = year - cfg.first_year
    out = np.empty((n_reps, n_sex))
    eps = np.empty((min(batch, n_reps), n_years, n_sex, DRAWS_PER_CELL))
    for lo in range(0, n_reps, batch):
        hi = min(lo + batch, n_reps)
        for row, gen in zip(eps, open_streams(cfg.run.seed, range(lo, hi))):
            gen.standard_normal(out=row)
        out[lo:hi] = entrants_matrix(cfg, eps[:hi - lo])[:, t, :]
    return out


def test_criterion_3_expected_arrivals(cfg):
    t0 = time.perf_counter()
    n_years, n_sex = len(cfg.years), len(cfg.sexes)
    expected = entrants_matrix(cfg, np.zeros((1, n_years, n_sex, DRAWS_PER_CELL)))[0]
    t2020 = 2020 - cfg.first_year
    for si, sex in enumerate(cfg.sexes):
        assert abs(expected[t2020, si] - ARRIVAL_2020[sex]) <= 1.0, sex

    draws = _arrival_draws(cfg, 10_000, 2020)
    for si, sex in enumerate(cfg.sexes):
        mean = draws[:, si].mean()
        se = draws[:, si].std(ddof=1) / np.sqrt(len(draws))
        assert abs(mean - ARRIVAL_2020[sex]) <= 3.0 * se, (sex, mean, se)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_4_arrival_variance_oracles(cfg):
    draws = _arrival_draws(cfg, 100_000, 2020)
    for si, sex in enumerate(cfg.sexes):
        mc_var = draws[:, si].var(ddof=1)
        oracle = ORACLE_TRUNCATED_VAR[sex]
        assert abs(mc_var - oracle) / oracle <= 0.05, (sex, mc_var, oracle)

        closed = variance_new_entrants(cfg.entrants_params, cfg.population,
                                       sex, 2020)
        reference = ORACLE_UNFLOORED_VAR[sex]
        assert abs(closed - reference) / reference <= 0.01, (sex, closed)


def test_criterion_5_return_process_properties():
    t0 = time.perf_counter()
    params = Ar1Params(phi=-0.612, sigma=0.03667)
    eps = next(open_streams(1, [0])).standard_normal(1_000_000)
    path = ar1_path(params, eps)
    std = path.std()
    assert abs(std - 0.046366) / 0.046366 <= 0.05, std
    lag1 = np.corrcoef(path[:-1], path[1:])[0, 1]
    assert abs(lag1 - (-0.612)) <= 0.01, lag1
    assert time.perf_counter() - t0 < 5.0


def test_criterion_6_mortality_sampler_properties():
    # sampled probabilities never leave [0, 1], however extreme the shock:
    # one age per (base rate, dispersion) pair, every age shocked alike
    pairs = [(p, sigma) for p in (0.0, 0.004, 0.01, 0.5, 0.9, 1.0)
             for sigma in (0.0, 0.001, 0.05, 0.3)]
    q0, sigma = (np.array([list(col)]) for col in zip(*pairs))
    mm = MortalityModel(base_year=2006, sexes=("x",), min_age=20, max_age=20 + len(pairs) - 1,
                        q0=q0, drift=np.zeros_like(q0), sigma=sigma)
    for eps in (-1e9, -3.0, -1.0, 0.0, 1.0, 3.0, 1e9):
        q = death_probability_grid(mm, 2006, np.full(q0.shape, eps))
        assert np.all((0.0 <= q) & (q <= 1.0)), (eps, q)

    # hand value: q0=0.01 drifting at 1% for three years
    mm = MortalityModel(base_year=2000, sexes=("male",), min_age=40, max_age=40,
                        q0=np.array([[0.01]]), drift=np.array([[0.01]]),
                        sigma=np.array([[0.0]]))
    assert expected_mortality_grid(mm, 2003)[0, 0] == pytest.approx(0.0103030, abs=5e-8)

    # cohort conservation over an exhaustive scan of small grid shapes, one
    # year stepped by `age_one_year` and `retire`, as `stepwise_projection` steps
    rng = np.random.default_rng(20060101)
    rule = RetirementRule(
        benefit_types=("old_age",),
        thresholds={"old_age": {"x": (Schedule(default=22), Schedule(default=1))}})
    for n_ages in range(1, 6):
        for max_sen in range(0, 4):
            for _ in range(4):
                min_age, max_age = 20, 20 + n_ages - 1
                counts = rng.uniform(0.0, 100.0, (2, 1, n_ages, max_sen + 1))
                grid = CohortGrid(2006, ("x",), min_age, max_age, max_sen, counts)
                mm = MortalityModel(
                    base_year=2006, sexes=("x",), min_age=min_age, max_age=max_age,
                    q0=rng.uniform(0.0, 1.0, (1, n_ages)),
                    drift=np.zeros((1, n_ages)),
                    sigma=rng.uniform(0.0, 0.5, (1, n_ages)))
                eps = rng.standard_normal((1, n_ages))

                q = death_probability_grid(mm, 2006, eps)
                assert np.all((0.0 <= q) & (q <= 1.0))
                aged = age_one_year(grid, mm, eps)
                deaths = float((counts * q[None, :, :, None]).sum())
                top_survivors = float(
                    (counts[:, :, -1, :] * (1.0 - q)[None, :, -1, None]).sum())
                assert aged.total() == pytest.approx(
                    grid.total() - deaths - top_survivors, rel=1e-12, abs=1e-9)
                assert np.all(aged.counts >= 0.0)

                retired, _ = retire(aged, rule)
                assert retired.total() == pytest.approx(aged.total(), rel=1e-12)
                assert np.all(retired.counts >= 0.0)


def test_criterion_7_risk_decomposition(cfg, sensitivity):
    runs, elapsed = sensitivity
    t2040 = 2040 - cfg.first_year
    fund = {k: r.series["fund_value"][:, t2040] for k, r in runs.items()}
    balance = {k: r.series["pension_balance"][:, t2040] for k, r in runs.items()}

    # (a) accidental mortality barely moves the fund value
    spread = fund["mortality"].std(ddof=1)
    median = np.median(fund["mortality"])
    assert spread < 0.05 * abs(median), (spread, median)

    # (b) the return process carries most of the fund-value variance
    var_ret = fund["returns"].var(ddof=1)
    var_all = fund["all"].var(ddof=1)
    assert abs(var_ret - var_all) / var_all <= 0.25, var_ret / var_all

    # (c) arrivals carry almost all of the pension-balance variance
    var_ent = balance["entrants"].var(ddof=1)
    var_bal = balance["all"].var(ddof=1)
    assert var_ent >= 0.75 * var_bal, var_ent / var_bal

    assert elapsed < 120.0, elapsed


def test_criterion_8_reproducibility(cfg, tmp_path, monkeypatch):
    run_cfg = cfg.with_run(n_reps=400)
    serial = run_simulation(run_cfg)
    monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", 100)
    parallel = run_simulation(run_cfg, workers=2)
    paths = {}
    for label, result in (("serial", serial), ("parallel", parallel)):
        outdir = tmp_path / label
        emit_simulation_outputs(outdir, run_cfg, result)
        paths[label] = outdir
    names = sorted(os.listdir(paths["serial"]))
    assert names == sorted(os.listdir(paths["parallel"]))
    for name in names:
        a = (paths["serial"] / name).read_bytes()
        b = (paths["parallel"] / name).read_bytes()
        assert a == b, f"{name} differs between serial and parallel runs"


def test_criterion_9_fan_chart_structure(cfg, sensitivity):
    runs, _ = sensitivity
    result = runs["all"]
    probes = cfg.run.probes
    i25, i50, i75 = (probes.index(p) for p in (25.0, 50.0, 75.0))
    for name in result.series_names:
        values = result.fan_chart(name, probes)["values"]
        assert np.all(np.diff(values, axis=0) >= 0.0), name
        assert np.all(values[i25] <= values[i50]) and np.all(values[i50] <= values[i75]), name

    # with every shock family off, every band collapses onto the
    # deterministic path
    collapsed = run_simulation(cfg.with_run(n_reps=50, flags=StochasticFlags.none()))
    det = run_deterministic_projection(cfg)
    expected = {
        "fund_value": det.ledger["value_end"] / 100.0,
        "total_balance": det.ledger["total_balance"] / 100.0,
        "pension_balance": det.ledger["pension_balance"] / 100.0,
        "entrants_total": sum(det.entrants.values()),
        "actives": det.actives,
        "retirees": det.retirees,
    }
    for sex in cfg.sexes:
        expected[f"entrants_{sex}"] = det.entrants[sex]
    assert set(expected) == set(collapsed.series_names)
    for name in collapsed.series_names:
        values = collapsed.fan_chart(name, probes)["values"]
        for band in values:
            assert np.array_equal(band, expected[name]), name
