import os
import pickle
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from conftest import write_scenario
from paygsim import cli, engine, montecarlo
from paygsim import (StochasticFlags, load_config, distribution_moments,
                     percentile_bands, run_deterministic_projection, run_simulation)
from paygsim.cashflows import LEDGER_COLUMNS, identities_hold, ledger_columns, to_cents
from paygsim.errors import CoverageError
from paygsim.montecarlo import draw_shock_blocks
from paygsim.stochastic import open_streams
from paygsim.outputs import emit_simulation_outputs, simulation_summary


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

    def test_chunking_does_not_change_results(self, small_cfg, base_run, monkeypatch):
        monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", 3)
        rechunked = run_simulation(small_cfg)
        for name in base_run.series_names:
            assert np.array_equal(base_run.series[name], rechunked.series[name])

    def test_parallel_equals_serial(self, small_cfg, base_run, monkeypatch):
        monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", 2)
        parallel = run_simulation(small_cfg, workers=2)
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
    """Chunks, each drawn and simulated together, land in one preallocated result."""

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
    def test_uneven_chunks_match_one_chunk(self, small_cfg, monkeypatch, workers):
        for flags in (StochasticFlags(), StochasticFlags.none()):
            cfg = small_cfg.with_run(n_reps=23, flags=flags)
            monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", 23)
            whole = run_simulation(cfg)
            # no size but 1 divides 23, and 50 is more than all of them; pool
            # workers are forked after the patch
            for chunk in (7, 5, 3, 1, 50):
                monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", chunk)
                self.assert_same_run(whole, run_simulation(cfg, workers=workers))

    def test_shock_blocks_of_a_later_range_are_the_rows_of_a_longer_one(self, small_cfg):
        whole = draw_shock_blocks(small_cfg, range(10))
        tail = draw_shock_blocks(small_cfg, range(7, 10))
        for k in ("entrants", "mortality", "returns"):
            assert np.array_equal(getattr(tail, k), getattr(whole, k)[7:10]), k

    @pytest.mark.parametrize("n_reps, workers", [(2000, None), (4000, 2)])
    def test_working_set_stays_bounded(self, cfg, monkeypatch, n_reps, workers):
        # the result holds five of the nine ledger columns, the entrants of
        # each sex, actives and retirees, and nothing else of size; beside
        # it, the parent holds only a per-chunk working set, which must not
        # grow with n_reps or with the number of chunks
        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "DEFAULT_CHUNK", 1)
            run_simulation(cfg.with_run(n_reps=2), workers=workers)  # imports
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = run_simulation(cfg.with_run(n_reps=n_reps), workers=workers)
            held, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        arrays = n_reps * len(cfg.years) * (5 + len(cfg.sexes) + 2) * 8
        assert arrays <= held <= arrays + 64e3
        assert result.n_reps == n_reps
        assert peak - held <= 16e6

    def test_emission_holds_one_series_at_a_time(self, cfg, tmp_path):
        # fan charts, moments and the summary compute a derived series (or
        # copy a held one) one at a time, and never keep it
        n_reps = 4000
        big = cfg.with_run(n_reps=n_reps)
        result = run_simulation(big, workers=2)
        tracemalloc.start()
        try:
            emit_simulation_outputs(str(tmp_path), big, result)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= n_reps * len(big.years) * 8 + 2e6


class TestSerialPipeline:
    """A serial run draws each unit on one helper thread, at most one unit
    ahead of the unit being simulated."""

    def test_the_helper_draws_at_most_one_unit_ahead(self, small_cfg, monkeypatch):
        cfg = small_cfg.with_run(n_reps=17)
        monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", 3)  # six units
        simulated, draws = [], []  # units simulated when each draw began
        real_draw, real_flows = montecarlo.draw_shock_blocks, montecarlo.simulate_flows
        before = threading.active_count()

        def draw(cfg, reps):
            draws.append((reps[0], len(simulated), threading.get_ident()))
            assert threading.active_count() == before + 1  # this helper alone
            return real_draw(cfg, reps)

        def flows(*args):
            time.sleep(0.01)  # a helper free to run ahead would draw every unit now
            out = real_flows(*args)
            simulated.append(threading.get_ident())
            return out

        monkeypatch.setattr(montecarlo, "draw_shock_blocks", draw)
        monkeypatch.setattr(montecarlo, "simulate_flows", flows)
        result = run_simulation(cfg)
        assert threading.active_count() == before  # the helper has exited
        assert [lo for lo, _, _ in draws] == [0, 3, 6, 9, 12, 15]
        for unit, (_, done, _) in enumerate(draws):
            assert unit - 1 <= done <= unit, unit  # unit - 1 may still be simulated
        helpers = {ident for _, _, ident in draws}
        assert len(helpers) == 1 and threading.get_ident() not in helpers
        assert set(simulated) == {threading.get_ident()}
        TestStreamedChunks.assert_same_run(result, run_simulation(cfg))

    def test_a_short_switch_interval_changes_nothing(self, small_cfg, monkeypatch):
        # the threads switch at nearly every bytecode, so a block handed over
        # before it was drawn, or reused while simulated, would show
        monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", small_cfg.run.n_reps)
        whole = run_simulation(small_cfg)
        monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rechunked = run_simulation(small_cfg)
        finally:
            sys.setswitchinterval(interval)
        TestStreamedChunks.assert_same_run(whole, rechunked)

    class Boom(Exception):
        pass

    @pytest.mark.parametrize("where", ["simulate_flows", "draw_shock_blocks"])
    @pytest.mark.parametrize("failing_unit", [0, 2])
    def test_an_error_in_a_unit_reaches_the_caller(self, small_cfg, monkeypatch,
                                                   where, failing_unit):
        # simulate_flows runs on the calling thread, draw_shock_blocks on the helper
        monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", 3)
        real, calls = getattr(montecarlo, where), []

        def failing(*args):
            calls.append(None)
            if len(calls) > failing_unit:
                raise self.Boom(where)
            return real(*args)

        monkeypatch.setattr(montecarlo, where, failing)
        before = threading.active_count()
        with pytest.raises(self.Boom, match=where):
            run_simulation(small_cfg)
        assert threading.active_count() == before
        assert len(calls) == failing_unit + 1  # the run stops at the first failure

    def test_a_serial_run_loads_no_process_pool_machinery(self):
        code = ("import sys\n"
                "from paygsim import load_config, run_simulation\n"
                "from paygsim.config import default_config_path\n"
                "run_simulation(load_config(default_config_path()).with_run(n_reps=120))\n"
                "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing')\n"
                "             if m in sys.modules))\n")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert out.stdout.strip() == "[]"


class TestRunWideInputsBuiltOnce:
    """The entrant moment tables are built once per run, not once per chunk."""

    @pytest.fixture()
    def calls(self, monkeypatch, tmp_path):
        # every module that holds the name gets the counting copy; a call in a
        # forked pool worker appends to the same file
        log = tmp_path / "calls"
        real = engine.entrant_moment_tables

        def counted(cfg):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real(cfg)

        for module in (engine, montecarlo, cli):
            monkeypatch.setattr(module, "entrant_moment_tables", counted)
        return lambda: len(log.read_text().splitlines()) if log.exists() else 0

    @pytest.mark.parametrize("workers", [None, 2])
    def test_once_per_run_simulation(self, small_cfg, monkeypatch, calls, workers):
        monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", 3)  # three chunks of 8 reps
        run_simulation(small_cfg, workers=workers)
        assert calls() == 1

    def test_once_per_sampled_entrants_command(self, calls, tmp_path):
        scenario = write_scenario(str(tmp_path))
        assert cli.main(["entrants", "--config", scenario, "--reps", "3",
                         "--out", str(tmp_path / "out")]) == 0
        assert calls() == 1


class TestLeanResult:
    """The result keeps each number once and derives the other series."""

    @pytest.fixture(scope="class", params=[None, 2], ids=["serial", "workers2"])
    def result(self, request, small_cfg):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "DEFAULT_CHUNK", 3)
            return run_simulation(small_cfg, workers=request.param)

    @staticmethod
    def same_bits(a, b) -> bool:
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_derived_series_equal_their_formulas(self, result, small_cfg):
        for name, col in (("fund_value", "value_end"), ("total_balance", "total_balance"),
                          ("pension_balance", "pension_balance")):
            assert self.same_bits(result.series[name], result.ledger[col] / 100.0), name
        per_sex = np.stack([result.series[f"entrants_{s}"] for s in small_cfg.sexes], axis=2)
        assert self.same_bits(result.series["entrants_total"], per_sex.sum(axis=2))

    def test_held_series_are_the_result_arrays(self, result, small_cfg):
        for s in small_cfg.sexes:
            assert np.shares_memory(result.series[f"entrants_{s}"], result.entrants[s])
        assert np.shares_memory(result.series["actives"], result.actives)
        assert np.shares_memory(result.series["retirees"], result.retirees)

    def test_derived_series_are_computed_on_every_read(self, result):
        for name in ("fund_value", "entrants_total"):
            first, second = result.series[name], result.series[name]
            assert first is not second and not np.shares_memory(first, second)

    def test_selected_columns_equal_the_whole_series(self, result, small_cfg):
        picks = (-1, [0, 4, 2], slice(1, 6))
        for name in result.series_names:
            whole = result.series[name]
            for idx in picks:
                assert self.same_bits(result.columns(name, idx), whole[:, idx]), (name, idx)

    def test_series_names_and_order(self, result):
        names = ("fund_value", "total_balance", "pension_balance", "entrants_male",
                 "entrants_female", "entrants_total", "actives", "retirees")
        assert result.series_names == names
        assert tuple(result.series) == names and len(result.series) == len(names)
        assert "actives" in result.series and "entrants_other" not in result.series
        with pytest.raises(KeyError):
            result.series["entrants_other"]

    def test_series_and_held_arrays_are_read_only(self, result):
        with pytest.raises(TypeError):
            result.series["fund_value"] = np.zeros((result.n_reps, len(result.years)))
        with pytest.raises(TypeError):
            del result.series["actives"]
        for held in (result.ledger["value_end"], result.entrants["male"], result.actives,
                     result.series["retirees"]):
            with pytest.raises(ValueError, match="read-only"):
                held[0, 0] = 1

    def test_fan_chart_and_moments_match_materialised_series(self, result, small_cfg):
        probes, years = (5.0, 50.0, 95.0), [2008, 2012, 2016]
        idx = [y - small_cfg.first_year for y in years]
        for name in result.series_names:
            whole = np.array(result.series[name])
            fan = result.fan_chart(name, probes)["values"]
            assert self.same_bits(fan, np.percentile(whole, probes, axis=0)), name
            mom = result.moments(name, years)
            ref = distribution_moments(whole[:, idx], axis=0)
            for stat in ("mean", "std", "skewness", "excess_kurtosis"):
                assert self.same_bits(mom[stat], ref[stat]), (name, stat)

    def test_summary_sign_test_reads_the_cents(self, result, small_cfg):
        fund = result.series["fund_value"]
        summary = simulation_summary(small_cfg, result)
        assert summary["prob_fund_value_nonnegative"] == float(
            np.mean(fund.min(axis=1) >= 0.0))
        for name in result.series_names:
            assert summary["final_year_series"][name]["mean"] == float(
                result.series[name][:, -1].mean())


class TestDerivedLedger:
    """The result holds five ledger columns and derives the other four, bit
    for bit what `ledger_columns` gives for the same replications."""

    @staticmethod
    def recompute(cfg):
        flags = cfg.run.flags
        blocks = draw_shock_blocks(cfg, range(cfg.run.n_reps))
        ne = engine.entrant_product(*engine.entrant_moment_tables(cfg), blocks.entrants
                                    if flags.entrants else np.zeros_like(blocks.entrants))
        system = engine.build_system(cfg)
        flows = engine.simulate_flows(system, ne, engine.survival_rates(system, blocks.mortality)
                                      if flags.mortality else None)
        rates = engine.return_rates(cfg, blocks.returns, stochastic=flags.returns)
        return ledger_columns(int(to_cents(cfg.economics.initial_assets)), flows["subjective"],
                              flows["integrative"], flows["disbursements"],
                              engine.admin_path(cfg), rates)

    @pytest.mark.parametrize("workers, chunk, n_reps, flags", [
        (None, 100, 24, StochasticFlags()),
        (2, 5, 24, StochasticFlags()),
        (None, 7, 23, StochasticFlags()),
        (2, 3, 23, StochasticFlags()),
        (None, 100, 6, StochasticFlags.none()),
    ], ids=["serial", "workers2", "uneven", "uneven-workers2", "no-shocks"])
    def test_every_column_equals_ledger_columns(self, small_cfg, monkeypatch,
                                                workers, chunk, n_reps, flags):
        cfg = small_cfg.with_run(n_reps=n_reps, flags=flags)
        monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", chunk)  # before workers fork
        result = run_simulation(cfg, workers=workers)
        want = self.recompute(cfg)
        assert tuple(result.ledger) == LEDGER_COLUMNS and len(result.ledger) == 9
        for name in LEDGER_COLUMNS:
            col = result.ledger[name]
            assert col.dtype == np.int64 and not col.flags.writeable, name
            assert col.shape == want[name].shape and col.tobytes() == want[name].tobytes(), name
        assert "value_start" in result.ledger and "fund_value" not in result.ledger
        with pytest.raises(KeyError):
            result.ledger["fund_value"]

    def test_identities_hold_on_every_replication(self, small_cfg, base_run):
        assert identities_hold(base_run.ledger)
        # and the check is not vacuous: a cent moved in any one column of a
        # projection's or a run's ledger fails it
        det = run_deterministic_projection(small_cfg).ledger
        assert identities_hold(det)
        for ledger, cell in ((det, 3), (base_run.ledger, (5, 3))):
            for name in LEDGER_COLUMNS:
                moved = {k: np.array(col) for k, col in ledger.items()}
                moved[name][cell] += 1
                assert not identities_hold(moved), name

    def test_derived_columns_are_computed_on_every_read(self, base_run):
        for name in ("value_start", "disbursements", "investment_income"):
            first, second = base_run.ledger[name], base_run.ledger[name]
            assert first is not second and not np.shares_memory(first, second), name
            with pytest.raises(ValueError, match="read-only"):
                first[0, 0] = 1
        assert np.shares_memory(base_run.ledger["value_end"], base_run.held_ledger["value_end"])

    def test_a_pool_task_returns_only_the_held_columns(self, small_cfg):
        cfg = small_cfg.with_run(n_reps=5)
        shared = (cfg, engine.build_system(cfg), engine.entrant_moment_tables(cfg),
                  engine.admin_path(cfg), int(to_cents(cfg.economics.initial_assets)))
        part = pickle.loads(pickle.dumps(montecarlo._run_chunk(*shared, 0, 5)))
        want = self.recompute(cfg)
        assert tuple(part["ledger"]) == ("contrib_subjective", "contrib_integrative",
                                         "pension_balance", "total_balance", "value_end")
        for name, col in part["ledger"].items():
            assert np.array_equal(col, want[name]), name


class TestFlagCollapse:
    def test_all_flags_off_reproduces_the_deterministic_path(self, small_cfg):
        det = run_deterministic_projection(small_cfg)
        frozen = run_simulation(small_cfg.with_run(flags=StochasticFlags.none()))
        for rep in range(frozen.n_reps):
            assert np.array_equal(frozen.ledger["value_end"][rep],
                                  det.ledger["value_end"])
            assert np.array_equal(frozen.series["actives"][rep], det.actives)
            for si, s in enumerate(small_cfg.sexes):
                assert np.array_equal(frozen.series[f"entrants_{s}"][rep],
                                      det.entrants[s])

    def test_returns_only_leaves_entrants_at_expectations(self, small_cfg):
        det = run_deterministic_projection(small_cfg)
        run = run_simulation(small_cfg.with_run(flags=StochasticFlags.only("returns")))
        for si, s in enumerate(small_cfg.sexes):
            for rep in range(run.n_reps):
                assert np.array_equal(run.series[f"entrants_{s}"][rep], det.entrants[s])
        # returns do vary across replications
        assert np.std(run.series["fund_value"][:, -1]) > 0.0

    def test_entrants_only_varies_entrants(self, small_cfg):
        run = run_simulation(small_cfg.with_run(flags=StochasticFlags.only("entrants")))
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

    @pytest.mark.parametrize("overwrite", [False, True])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_bands_equal_numpy_percentile_bit_for_bit(self, axis, overwrite):
        # ties and a constant run included; `+ 0.0` turns each -0.0 into 0.0
        rng = np.random.default_rng(3)
        x = np.round(rng.standard_normal((301, 7, 5)), 1) + 0.0
        x[:, 0] = 2.5
        probes = (0.0, 0.1, 1.0, 5.0, 25.0, 50.0, 75.0, 95.0, 99.0, 99.9, 100.0)
        want = np.percentile(x, probes, axis=axis, method="linear")
        sample = x.copy()
        got = percentile_bands(sample, probes, axis=axis, overwrite_input=overwrite)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert np.array_equal(sample, x) != overwrite  # only an overwrite touches it

    def test_signed_zeros_give_equal_bands(self):
        # 0.0 and -0.0 compare equal, so which one a band picks is not fixed
        x = np.array([[0.0], [-0.0], [1.0], [-0.0], [0.0], [-1.0]])
        probes = (25.0, 50.0, 75.0)
        assert np.array_equal(percentile_bands(x, probes),
                              np.percentile(x, probes, axis=0, method="linear"))

    def test_fan_chart_of_every_series_equals_numpy_percentile(self, small_cfg):
        result = run_simulation(small_cfg.with_run(n_reps=40))
        probes = (1.0, 25.0, 50.0, 99.0)
        for name, series in result.series.items():
            want = np.percentile(series, probes, axis=0, method="linear")
            assert result.fan_chart(name, probes)["values"].tobytes() == want.tobytes(), name

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
        draws = next(open_streams(99, [0])).standard_normal(1_000_000)
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

    @pytest.mark.parametrize("year", [1900, 2005, 2017])
    def test_result_moments_year_validation(self, base_run, year):
        with pytest.raises(CoverageError, match=f"year {year} outside"):
            base_run.moments("fund_value", [2008, year])

    def test_uncertainty_grows_along_the_horizon(self, small_cfg):
        # more shocks accumulate each year, so the fund-value spread widens
        wide = run_simulation(small_cfg.with_run(n_reps=400))
        std = wide.moments("fund_value")["std"]
        assert std[-1] > 3 * std[0]


class TestStreamOpening:
    """Streams are opened from one key table per batch, not one SeedSequence
    per replication; counting constructions guards that without timing."""

    @pytest.fixture()
    def seed_sequences(self, monkeypatch):
        made = []
        original = np.random.SeedSequence

        def counted(*args, **kwargs):
            made.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counted)
        return made

    def test_run_simulation_opens_streams_in_bulk(self, small_cfg, seed_sequences):
        result = run_simulation(small_cfg.with_run(n_reps=2000))
        assert result.n_reps == 2000
        assert len(seed_sequences) <= 1

    def test_entrants_command_opens_streams_in_bulk(self, seed_sequences, tmp_path):
        from paygsim.cli import main
        scenario = write_scenario(str(tmp_path))
        assert main(["entrants", "--config", scenario, "--reps", "200",
                     "--out", str(tmp_path / "out")]) == 0
        assert len(seed_sequences) <= 1

    def test_the_counter_sees_constructions(self, seed_sequences):
        np.random.SeedSequence(1, spawn_key=(0,))
        assert len(seed_sequences) == 1
