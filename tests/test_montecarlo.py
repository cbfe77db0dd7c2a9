import tracemalloc

import numpy as np
import pytest

from conftest import write_scenario
from paygsim import montecarlo
from paygsim import (NormalSource, StochasticFlags, load_config,
                     distribution_moments, percentile_bands,
                     run_deterministic_projection, run_simulation)
from paygsim.montecarlo import draw_shock_blocks


@pytest.fixture(scope="module")
def small_cfg(tmp_path_factory):
    return load_config(write_scenario(str(tmp_path_factory.mktemp("scn"))))


@pytest.fixture(scope="module")
def base_run(small_cfg):
    return run_simulation(small_cfg)


class TestReproducibility:
    def test_same_seed_same_run(self, small_cfg, base_run):
        again = run_simulation(small_cfg)
        for name in base_run.series_names:
            assert np.array_equal(base_run.series[name], again.series[name])

    def test_different_seed_differs(self, small_cfg, base_run):
        other = run_simulation(small_cfg.with_run(seed=12))
        assert not np.array_equal(base_run.series["fund_value"],
                                  other.series["fund_value"])

    def test_replication_depends_only_on_seed_and_index(self, small_cfg, base_run):
        # rerunning with fewer replications reproduces the shared prefix
        fewer = run_simulation(small_cfg.with_run(n_reps=3))
        for name in base_run.series_names:
            assert np.array_equal(base_run.series[name][:3], fewer.series[name])

    def test_chunking_does_not_change_results(self, small_cfg, base_run):
        rechunked = run_simulation(small_cfg, chunk_size=3)
        for name in base_run.series_names:
            assert np.array_equal(base_run.series[name], rechunked.series[name])

    def test_parallel_equals_serial(self, small_cfg, base_run):
        parallel = run_simulation(small_cfg, workers=2, chunk_size=2)
        for name in base_run.series_names:
            assert np.array_equal(base_run.series[name], parallel.series[name])
        for name, col in base_run.ledger.items():
            assert np.array_equal(col, parallel.ledger[name])

    def test_shock_blocks_deterministic(self, small_cfg):
        a = draw_shock_blocks(small_cfg, range(4))
        b = draw_shock_blocks(small_cfg, range(4))
        assert np.array_equal(a.entrants, b.entrants)
        assert np.array_equal(a.mortality, b.mortality)
        assert np.array_equal(a.returns, b.returns)
        # the same replication index yields the same draws in any batch
        c = draw_shock_blocks(small_cfg, [3])
        assert np.array_equal(a.entrants[3], c.entrants[0])
        assert np.array_equal(a.returns[3], c.returns[0])


class TestStreamedChunks:
    """Chunks, and the sub-blocks within them, land in one preallocated result."""

    @staticmethod
    def assert_same_run(a, b):
        assert a.series_names == b.series_names
        for name in a.series_names:
            assert np.array_equal(a.series[name], b.series[name]), name
        assert tuple(a.ledger) == tuple(b.ledger)
        for name in a.ledger:
            assert a.ledger[name].dtype == np.int64
            assert np.array_equal(a.ledger[name], b.ledger[name]), name

    @pytest.mark.parametrize("workers", [None, 2])
    def test_uneven_chunks_and_sub_blocks_match_one_chunk(self, small_cfg, monkeypatch,
                                                          workers):
        cfg = small_cfg.with_run(n_reps=23)
        monkeypatch.setattr(montecarlo, "SUB_BLOCK", 23)
        whole = run_simulation(cfg, chunk_size=23)
        # neither size divides 23; pool workers are forked after the patch
        monkeypatch.setattr(montecarlo, "SUB_BLOCK", 3)
        self.assert_same_run(whole, run_simulation(cfg, workers=workers, chunk_size=7))
        monkeypatch.setattr(montecarlo, "SUB_BLOCK", 2)
        self.assert_same_run(whole, run_simulation(cfg, workers=workers, chunk_size=5))

    def test_shock_blocks_fill_the_leading_rows_of_out(self, small_cfg):
        buffers = draw_shock_blocks(small_cfg, range(5))
        fresh = draw_shock_blocks(small_cfg, range(7, 10))
        reused = draw_shock_blocks(small_cfg, range(7, 10), out=buffers)
        assert np.shares_memory(reused.mortality, buffers.mortality)
        assert reused.rep_indices.tolist() == [7, 8, 9]
        for k in ("entrants", "mortality", "returns"):
            assert getattr(reused, k).shape == getattr(fresh, k).shape
            assert np.array_equal(getattr(reused, k), getattr(fresh, k))

    @pytest.mark.parametrize("n_reps, workers", [(2000, None), (4000, 2)])
    def test_working_set_stays_bounded(self, cfg, n_reps, workers):
        # beside the result, the parent holds only a per-chunk working set,
        # which must not grow with n_reps or with the number of chunks
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = run_simulation(cfg.with_run(n_reps=n_reps), workers=workers)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        held = sum(a.nbytes for d in (result.series, result.ledger) for a in d.values())
        assert held == n_reps * len(cfg.years) * 17 * 8
        assert peak - held <= 16e6


class TestFlagCollapse:
    def test_all_flags_off_reproduces_the_deterministic_path(self, small_cfg):
        det = run_deterministic_projection(small_cfg)
        frozen = run_simulation(small_cfg.with_flags(StochasticFlags.none()))
        for rep in range(frozen.n_reps):
            assert np.array_equal(frozen.ledger["value_end"][rep],
                                  det.ledger.columns["value_end"])
            assert np.array_equal(frozen.series["actives"][rep], det.actives)
            for si, s in enumerate(small_cfg.sexes):
                assert np.array_equal(frozen.series[f"entrants_{s}"][rep],
                                      det.entrants[s])

    def test_returns_only_leaves_entrants_at_expectations(self, small_cfg):
        det = run_deterministic_projection(small_cfg)
        run = run_simulation(small_cfg.with_flags(StochasticFlags.only("returns")))
        for si, s in enumerate(small_cfg.sexes):
            for rep in range(run.n_reps):
                assert np.array_equal(run.series[f"entrants_{s}"][rep], det.entrants[s])
        # returns do vary across replications
        assert np.std(run.series["fund_value"][:, -1]) > 0.0

    def test_entrants_only_varies_entrants(self, small_cfg):
        run = run_simulation(small_cfg.with_flags(StochasticFlags.only("entrants")))
        spread = np.std(run.series["entrants_total"][:, -1])
        assert spread > 0.0


class TestFanChart:
    def test_bands_are_nested(self, base_run):
        probes = (5.0, 25.0, 50.0, 75.0, 95.0)
        fan = base_run.fan_chart("fund_value", probes)
        v = fan["values"]
        assert v.shape == (len(probes), len(fan["years"]))
        for i in range(len(probes) - 1):
            assert np.all(v[i] <= v[i + 1])

    def test_single_replication_fan_is_the_path(self, small_cfg):
        solo = run_simulation(small_cfg.with_run(n_reps=1))
        fan = solo.fan_chart("fund_value", (5.0, 50.0, 95.0))
        for row in fan["values"]:
            assert np.array_equal(row, solo.series["fund_value"][0])

    def test_median_of_identity_sample(self):
        x = np.arange(1.0, 101.0).reshape(100, 1)
        bands = percentile_bands(x, (50.0,))
        assert bands[0, 0] == pytest.approx(50.5)

    def test_extreme_probes_are_min_and_max(self):
        x = np.array([[3.0], [1.0], [2.0]])
        bands = percentile_bands(x, (0.0, 100.0))
        assert bands[0, 0] == 1.0 and bands[1, 0] == 3.0

    def test_single_element_sample(self):
        bands = percentile_bands(np.array([[7.0]]), (0.0, 50.0, 100.0))
        assert np.all(bands == 7.0)

    def test_probe_validation(self):
        x = np.zeros((4, 2))
        with pytest.raises(ValueError, match="increasing"):
            percentile_bands(x, (50.0, 5.0))
        with pytest.raises(ValueError, match="between 0 and 100"):
            percentile_bands(x, (-1.0,))
        with pytest.raises(ValueError, match="probe"):
            percentile_bands(x, ())
        with pytest.raises(ValueError, match="empty"):
            percentile_bands(np.zeros((0, 2)), (50.0,))


class TestMoments:
    def test_two_point_sample(self):
        out = distribution_moments(np.array([-1.0, 1.0]))
        assert out["mean"] == 0.0
        assert out["std"] == pytest.approx(np.sqrt(2.0))
        assert out["skewness"] == 0.0
        assert not out["degenerate"]

    def test_constant_sample_is_degenerate(self):
        out = distribution_moments(np.full(50, 3.25))
        assert out["degenerate"]
        assert out["skewness"] == 0.0
        assert out["excess_kurtosis"] == 0.0
        assert out["std"] == 0.0

    def test_normal_sample_moments(self):
        draws = NormalSource(99).standard_normal(1_000_000)
        out = distribution_moments(draws)
        assert abs(out["mean"]) < 0.004
        assert abs(out["std"] - 1.0) < 0.003
        assert abs(out["skewness"]) < 0.01
        assert abs(out["excess_kurtosis"]) < 0.05

    def test_needs_two_observations(self):
        with pytest.raises(ValueError, match="at least 2"):
            distribution_moments(np.array([1.0]))

    def test_columnwise_on_matrix(self):
        x = np.array([[1.0, 5.0], [3.0, 5.0]])
        out = distribution_moments(x, axis=0)
        assert out["mean"].tolist() == [2.0, 5.0]
        assert out["degenerate"].tolist() == [False, True]

    def test_result_moments_respect_year_selection(self, base_run, small_cfg):
        years = [2008, 2012]
        mom = base_run.moments("fund_value", years)
        assert mom["years"].tolist() == years
        whole = base_run.moments("fund_value")
        t = 2008 - small_cfg.first_year
        assert mom["mean"][0] == whole["mean"][t]

    def test_result_moments_year_validation(self, base_run):
        with pytest.raises(ValueError, match="2005"):
            base_run.moments("fund_value", [2005])

    def test_uncertainty_grows_along_the_horizon(self, small_cfg):
        # more shocks accumulate each year, so the fund-value spread widens
        wide = run_simulation(small_cfg.with_run(n_reps=400))
        std = wide.moments("fund_value")["std"]
        assert std[-1] > 3 * std[0]
