import dataclasses
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from paygsim import Schedule, variance_new_entrants
from paygsim.engine import entrant_moment_tables, entrants_matrix
from paygsim.entrants import DRAWS_PER_CELL, FACTOR_NAMES, EntrantsModelParams, FactorMoments
from paygsim.errors import CoverageError
from paygsim.montecarlo import entrant_paths
from paygsim.stochastic import open_streams


def moments(mean, sigma):
    return FactorMoments(mean=Schedule(default=mean), sigma=Schedule(default=sigma))


def make_params(means=(0.1, 0.5, 0.2, 0.5), sigmas=(0.02, 0.02, 0.02, 0.02),
                sexes=("male", "female"), h=5, k=4):
    factors = {
        s: {
            "enrolment": moments(means[0], sigmas[0]),
            "graduation": moments(means[1], sigmas[1]),
            "admission": moments(means[2], sigmas[2]),
            "membership": moments(means[3], sigmas[3]),
        }
        for s in sexes
    }
    return EntrantsModelParams(factors=factors, study_years=h, training_years=k)


def make_series(mean=1000.0, sigma=100.0, years=range(1990, 2031),
                sexes=("male", "female")):
    return {s: FactorMoments(Schedule(overrides={y: mean for y in years}),
                             Schedule(overrides={y: sigma for y in years}))
            for s in sexes}


def arrival_cfg(params, series, years, sexes=("male", "female"), seed=0, n_reps=1):
    """What the arrival rules read of a scenario."""
    return SimpleNamespace(entrants_params=params, population=series, years=list(years),
                           sexes=tuple(sexes), run=SimpleNamespace(seed=seed, n_reps=n_reps))


def new_entrants(params, series, sex, year, eps=None):
    """NE(year) of one sex from its five shocks (population first), through
    `entrants_matrix`; the expected value when eps is None."""
    eps = np.zeros(DRAWS_PER_CELL) if eps is None else np.asarray(eps, dtype=float)
    cfg = arrival_cfg(params, series, [year], sexes=(sex,))
    return entrants_matrix(cfg, eps.reshape(1, 1, 1, -1))[0, 0, 0]


class TestSamplePopulation:
    """The population factor on its own: every rate pinned at 1."""

    @staticmethod
    def population(series, year, eps):
        ones = make_params(means=(1.0,) * 4, sigmas=(0.0,) * 4)
        # NE(year + h + k) reads the population of `year`
        return new_entrants(ones, series, "male", year + 9, [eps, 0.0, 0.0, 0.0, 0.0])

    def test_zero_sigma_returns_mean(self):
        series = make_series(mean=2_266_000.0, sigma=0.0)
        assert self.population(series, 2000, eps=2.5) == 2_266_000.0

    def test_floor(self):
        series = make_series(mean=1000.0, sigma=500.0)
        assert self.population(series, 2000, eps=-3.0) == 0.0

    def test_shift(self):
        series = make_series(mean=1000.0, sigma=500.0)
        assert self.population(series, 2000, eps=1.0) == 1500.0

    def test_unknown_sex_or_year(self):
        params, series = make_params(), make_series()
        with pytest.raises(CoverageError, match="'other'"):
            entrant_moment_tables(arrival_cfg(params, series, [2020], sexes=("male", "other")))
        with pytest.raises(CoverageError, match="'other'"):
            variance_new_entrants(params, series, "other", 2020)
        # NE(1910) reads the population of 1910 - h - k
        with pytest.raises(CoverageError, match="1901"):
            entrant_moment_tables(arrival_cfg(params, series, [2020, 1910]))
        with pytest.raises(CoverageError, match="1901"):
            variance_new_entrants(params, series, "male", 1910)


class TestExpectationAndVariance:
    def test_expected_is_factor_product(self):
        params = make_params()
        series = make_series()
        # 1000 * 0.1 * 0.5 * 0.2 * 0.5
        assert new_entrants(params, series, "male", 2020) == pytest.approx(5.0)

    def test_lags_pick_the_right_calendar_years(self):
        # enrolment moves with t-h-k, graduation with t-k, the last two with t
        params = make_params()
        bumped = {
            s: {
                "enrolment": FactorMoments(
                    Schedule(default=0.1, overrides={2011: 0.2}), Schedule(default=0.0)),
                "graduation": FactorMoments(
                    Schedule(default=0.5, overrides={2016: 1.0}), Schedule(default=0.0)),
                "admission": FactorMoments(
                    Schedule(default=0.2, overrides={2020: 0.4}), Schedule(default=0.0)),
                "membership": FactorMoments(
                    Schedule(default=0.5, overrides={2020: 1.0}), Schedule(default=0.0)),
            }
            for s in ("male",)
        }
        p2 = EntrantsModelParams(factors=bumped, study_years=5, training_years=4)
        series = make_series(sigma=0.0, sexes=("male",))
        # every override lands on the factor years of NE(2020): 16x the base
        assert new_entrants(p2, series, "male", 2020) == pytest.approx(80.0)
        # one year later none of the overrides apply
        assert new_entrants(p2, series, "male", 2021) == pytest.approx(5.0)

    def test_variance_zero_when_all_sigmas_zero(self):
        params = make_params(sigmas=(0.0, 0.0, 0.0, 0.0))
        series = make_series(sigma=0.0)
        assert variance_new_entrants(params, series, "male", 2020) == 0.0

    def test_variance_pure_population_noise(self):
        params = make_params(means=(1.0, 1.0, 1.0, 1.0), sigmas=(0.0, 0.0, 0.0, 0.0))
        series = make_series(mean=0.0, sigma=1.0)
        assert variance_new_entrants(params, series, "male", 2020) == pytest.approx(1.0)

    def test_variance_single_noisy_factor(self):
        # only the admission rate is noisy: var = (pop*e*g*m)^2 * sigma^2
        params = make_params(sigmas=(0.0, 0.0, 0.1, 0.0))
        series = make_series(sigma=0.0)
        scale = 1000.0 * 0.1 * 0.5 * 0.5
        assert variance_new_entrants(params, series, "male", 2020) == pytest.approx(
            scale**2 * 0.1**2)

    def test_mean_and_variance_scale_with_population(self):
        params = make_params()
        small = make_series(mean=1000.0, sigma=0.0)
        big = make_series(mean=3000.0, sigma=0.0)
        m1 = new_entrants(params, small, "male", 2020)
        m3 = new_entrants(params, big, "male", 2020)
        assert m3 == pytest.approx(3 * m1)
        v1 = variance_new_entrants(params, small, "male", 2020)
        v3 = variance_new_entrants(params, big, "male", 2020)
        assert v3 == pytest.approx(9 * v1)

    def test_unknown_sex(self):
        params = make_params(sexes=("male",))
        series = make_series()
        with pytest.raises(CoverageError, match="sex"):
            variance_new_entrants(params, series, "female", 2020)


class TestSampling:
    def test_given_eps_zero_equals_expectation(self):
        params = make_params()
        series = make_series()
        got = new_entrants(params, series, "male", 2020, np.zeros(5))
        assert got == pytest.approx(1000.0 * 0.1 * 0.5 * 0.2 * 0.5)

    def test_given_eps_hand_value(self):
        params = make_params()
        series = make_series()
        # push population by +1 sigma, leave the rates at their means
        got = new_entrants(params, series, "male", 2020, np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
        assert got == pytest.approx(1100.0 * 0.1 * 0.5 * 0.2 * 0.5)

    def test_given_eps_shape_checked(self):
        params = make_params()
        series = make_series()
        with pytest.raises(ValueError, match="shocks"):
            new_entrants(params, series, "male", 2020, np.zeros(4))

    def test_draw_order_is_population_then_factors(self):
        params = make_params()
        series = make_series()
        block = next(open_streams(77, [0])).standard_normal(DRAWS_PER_CELL)
        cfg = arrival_cfg(params, series, [2020], sexes=("male",), seed=77)
        by_stream = entrant_paths(cfg, entrant_moment_tables(cfg))["male"][0, 0]
        by_eps = new_entrants(params, series, "male", 2020, block)
        assert by_stream == by_eps

    def test_path_consumes_years_outer_sexes_inner(self):
        params = make_params()
        series = make_series()
        years = [2019, 2020, 2021]
        sexes = ["male", "female"]
        cfg = arrival_cfg(params, series, years, sexes, seed=5)
        path = entrant_paths(cfg, entrant_moment_tables(cfg))
        block = next(open_streams(5, [0])).standard_normal(
            (len(years), len(sexes), DRAWS_PER_CELL))
        for j, t in enumerate(years):
            for i, s in enumerate(sexes):
                want = new_entrants(params, series, s, t, block[j, i])
                assert path[s][0, j] == want

    def test_expected_path_matches_pointwise(self):
        params = make_params()
        series = make_series()
        years = list(range(2015, 2025))
        cfg = arrival_cfg(params, series, years)
        path = entrants_matrix(cfg, np.zeros((1, len(years), 2, DRAWS_PER_CELL)))[0]
        for si, s in enumerate(("male", "female")):
            want = [new_entrants(params, series, s, t) for t in years]
            assert np.allclose(path[:, si], want)

    def test_monte_carlo_mean_matches_expectation(self):
        params = make_params()
        series = make_series()
        years = [2018, 2022]
        n = 10_000
        cfg = arrival_cfg(params, series, years, seed=2024, n_reps=n)
        draws = entrant_paths(cfg, entrant_moment_tables(cfg))
        for s in ("male", "female"):
            for j, t in enumerate(years):
                x = draws[s][:, j]
                want = new_entrants(params, series, s, t)
                # truncation bias is tiny at these moments; 3 standard errors
                assert abs(x.mean() - want) <= 3 * x.std(ddof=1) / np.sqrt(n)


def oracle_script():
    path = Path(__file__).resolve().parent.parent / "scripts" / "compute_oracles.py"
    spec = importlib.util.spec_from_file_location("compute_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines the script's functions; main is not run
    return module


@pytest.mark.parametrize("rates", ["bundled", "new_every_year"])
def test_the_oracle_script_reads_every_factor_where_the_tables_do(cfg, rates):
    # the script lags each factor by its own arithmetic, an independent check
    # of the year at which the tables read it
    if rates == "new_every_year":  # each rate differs by factor and year, so a wrong lag shows
        years = range(cfg.first_year - 20, cfg.last_year + 1)

        def rate(d, scale):
            return Schedule(overrides={y: scale * ((d + 1) * 0.01 + y * 1e-5) for y in years})
        factors = {s: {name: FactorMoments(rate(d, 1.0), rate(d, 0.1))
                       for d, name in enumerate(FACTOR_NAMES)} for s in cfg.sexes}
        cfg = dataclasses.replace(cfg, entrants_params=dataclasses.replace(
            cfg.entrants_params, factors=factors))
    mean, sigma = entrant_moment_tables(cfg)
    script = oracle_script()
    for ti, year in enumerate(cfg.years):
        for si, sex in enumerate(cfg.sexes):
            assert script.lagged_moments(cfg, sex, year) == list(
                zip(mean[ti, si].tolist(), sigma[ti, si].tolist())), (sex, year)
