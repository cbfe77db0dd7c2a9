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
                     percentile_bands, run_deterministic_projection, run_simulation,
                     stepwise_projection)
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


class TestPoolSize:
    """The pool starts no more processes than there are chunks or CPUs."""

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records its size and runs the
        initializer and the chunks in this process, starting none."""

        def __init__(self, sizes, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    # 8 replications in chunks of 2 make 4 chunks; an empty pool size means
    # the run was serial; cpus None means os.sched_getaffinity is missing
    # and os.cpu_count() gives 3
    @pytest.mark.parametrize("workers, cpus, size", [
        (5000, 8, [4]), (5000, 3, [3]), (2, 8, [2]), (5000, None, [3]), (5000, 1, []),
    ])
    def test_pool_is_sized_to_the_work(self, small_cfg, base_run, monkeypatch,
                                       workers, cpus, size):
        import concurrent.futures
        sizes = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda **kw: self.RecordingPool(sizes, **kw))
        monkeypatch.setattr(montecarlo, "_worker_args", ())  # put back afterwards
        monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", 2)
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 3)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                                raising=False)
        result = run_simulation(small_cfg, workers=workers)
        assert sizes == size
        TestStreamedChunks.assert_same_run(base_run, result)


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

    def test_shock_blocks_drawn_into_a_larger_set_fill_its_leading_rows(self, small_cfg):
        want = draw_shock_blocks(small_cfg, range(7, 10))
        out = montecarlo._empty_blocks(small_cfg, 5)
        got = draw_shock_blocks(small_cfg, range(7, 10), out=out)
        for k in ("entrants", "mortality", "returns"):
            assert np.shares_memory(getattr(got, k), getattr(out, k)), k
            assert np.array_equal(getattr(got, k), getattr(want, k)), k
            assert np.array_equal(getattr(out, k)[:3], getattr(want, k)), k

    @pytest.mark.parametrize("n_reps, workers", [(2000, None), (4000, 2)])
    def test_working_set_stays_bounded(self, cfg, monkeypatch, n_reps, workers):
        # the result holds the held ledger columns, the entrants of each
        # sex, actives and retirees, and nothing else of size; beside
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
        held_arrays = len(montecarlo._HELD_COLUMNS) + len(cfg.sexes) + 2
        arrays = n_reps * len(cfg.years) * held_arrays * 8
        assert arrays <= held <= arrays + 64e3
        assert result.n_reps == n_reps
        assert peak - held <= 16e6

    def test_emission_holds_one_series_at_a_time(self, cfg, tmp_path, monkeypatch):
        # fan charts, moments and the summary compute a derived series (or
        # copy a held one) one block of years at a time, and never keep it:
        # beyond the output text, which a 2-replication run writes as well,
        # emission holds a few one-year blocks
        n_reps = 4000
        block = 8 * n_reps
        monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", block)

        def emission_peak(reps):
            run_cfg = cfg.with_run(n_reps=reps)
            result = run_simulation(run_cfg, workers=2)
            tracemalloc.start()
            try:
                emit_simulation_outputs(str(tmp_path), run_cfg, result)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        emission_peak(2)  # the first call's set-up
        text = emission_peak(2)
        assert emission_peak(n_reps) <= text + 4 * block


class TestSerialPipeline:
    """A serial run has two unit threads, the calling thread and one helper:
    each takes the next unit, draws it into its own shock blocks and
    simulates it. Each run here is made on its own thread, `RUNNER`, and
    fails if it has not returned within `BOUND_S`: a thread left waiting
    would hold it."""

    RUNNER, BOUND_S = "test-run", 30

    @classmethod
    def run(cls, cfg, **kw):
        """run_simulation(cfg, **kw), on a daemon thread that must return
        within BOUND_S; its result, or the error it raised."""
        out = {}

        def target():
            try:
                out["result"] = run_simulation(cfg, **kw)
            except BaseException as exc:  # raised again in the test's thread
                out["error"] = exc

        thread = threading.Thread(target=target, name=cls.RUNNER, daemon=True)
        thread.start()
        thread.join(timeout=cls.BOUND_S)
        if thread.is_alive():
            pytest.fail(f"run_simulation has not returned within {cls.BOUND_S} s")
        if "error" in out:
            raise out["error"]
        return out["result"]

    @staticmethod
    def paygsim_threads():
        return [t for t in threading.enumerate() if t.name.startswith("paygsim")]

    def test_each_replication_is_drawn_once(self, small_cfg, monkeypatch):
        # the threads switch at nearly every bytecode on one CPU, so a unit
        # taken twice or skipped, or a block set both threads draw into,
        # would show in the draws or the bytes
        cfg = small_cfg.with_run(n_reps=17)
        monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", 17)
        whole = self.run(cfg)
        monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", 3)  # six units
        pooled = run_simulation(cfg, workers=2)
        drawn, real = [], montecarlo.draw_shock_blocks

        def draw(cfg, reps, out=None):
            drawn.extend(reps)
            return real(cfg, reps, out=out)

        monkeypatch.setattr(montecarlo, "draw_shock_blocks", draw)
        # both threads on one CPU, where the run's threads inherit this one's
        pinned = hasattr(os, "sched_setaffinity")
        cpus = os.sched_getaffinity(0) if pinned else None
        if pinned:
            os.sched_setaffinity(0, {min(cpus)})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = self.run(cfg)
        finally:
            sys.setswitchinterval(interval)
            if pinned:
                os.sched_setaffinity(0, cpus)
        assert sorted(drawn) == list(range(17))
        TestStreamedChunks.assert_same_run(whole, result)
        TestStreamedChunks.assert_same_run(pooled, result)

    def test_a_serial_run_allocates_two_block_sets_on_the_calling_thread(self, small_cfg,
                                                                         monkeypatch):
        monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", 3)  # six units
        made, sets = [], {}
        real_empty, real_draw = montecarlo._empty_blocks, montecarlo.draw_shock_blocks

        def empty_blocks(cfg, n):
            made.append((threading.current_thread().name, n, len(self.paygsim_threads())))
            return real_empty(cfg, n)

        def draw(cfg, reps, out=None):
            sets.setdefault(threading.current_thread().name, set()).add(id(out))
            return real_draw(cfg, reps, out=out)

        monkeypatch.setattr(montecarlo, "_empty_blocks", empty_blocks)
        monkeypatch.setattr(montecarlo, "draw_shock_blocks", draw)
        self.run(small_cfg.with_run(n_reps=17))
        assert made == [(self.RUNNER, 3, 0)] * 2  # before the helper starts
        # each thread draws every unit it takes into one set of its own
        assert all(len(ids) == 1 for ids in sets.values())
        assert len(set().union(*sets.values())) == len(sets)

    def test_a_stalled_helper_holds_back_only_its_unit(self, small_cfg, monkeypatch):
        # the helper is held in its first draw until the calling thread has
        # drawn every other unit
        cfg = small_cfg.with_run(n_reps=17)
        monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", 3)  # six units
        release, drawn, real = threading.Event(), [], montecarlo.draw_shock_blocks

        def draw(cfg, reps, out=None):
            caller = threading.current_thread().name == self.RUNNER
            drawn.append((reps[0], caller))
            if not caller:
                assert release.wait(timeout=30), "the calling thread left units undrawn"
            elif sum(c for _, c in drawn) == 5:
                release.set()
            return real(cfg, reps, out=out)

        monkeypatch.setattr(montecarlo, "draw_shock_blocks", draw)
        try:
            result = self.run(cfg)
        finally:
            release.set()
        assert sorted(lo for lo, _ in drawn) == list(range(0, 17, 3))
        assert sum(not caller for _, caller in drawn) <= 1
        monkeypatch.undo()
        TestStreamedChunks.assert_same_run(result, self.run(cfg))

    class Boom(Exception):
        pass

    @pytest.mark.parametrize("stage", ["draw", "compose"])
    @pytest.mark.parametrize("thread", ["caller", "helper"])
    @pytest.mark.parametrize("nth", [0, 1])
    def test_an_error_in_either_thread_reaches_the_caller(self, small_cfg, monkeypatch,
                                                         stage, thread, nth):
        # the failing thread fails in its unit nth, once the other thread is
        # held in its first unit's simulation; the other thread is let go
        # when the failing one has left its unit loop, so a unit it took
        # after the error would show in `events`
        monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", 3)  # six units
        real_draw, real_compose = montecarlo.draw_shock_blocks, montecarlo._compose
        units, events, failer = {}, [], []  # units each thread took; the failing thread
        held, failed = threading.Event(), threading.Event()

        def failing():
            return (threading.current_thread().name == self.RUNNER) == (thread == "caller")

        def in_unit_loop(ident):
            frame = sys._current_frames().get(ident)
            while frame is not None and frame.f_code.co_name != "take_units":
                frame = frame.f_back
            return frame is not None

        def fail_here(at):
            if at == stage and failing() and units[threading.get_ident()] == nth + 1:
                assert held.wait(timeout=30)
                events.append("fail")
                failer.append(threading.get_ident())
                failed.set()
                raise self.Boom(stage)

        def draw(cfg, reps, out=None):
            units[threading.get_ident()] = units.get(threading.get_ident(), 0) + 1
            events.append("start")
            fail_here("draw")
            return real_draw(cfg, reps, out=out)

        def compose(*args):
            fail_here("compose")
            if not failing() and units[threading.get_ident()] == 1:
                held.set()
                assert failed.wait(timeout=30)
                deadline = time.monotonic() + 30
                while in_unit_loop(failer[0]):
                    assert time.monotonic() < deadline
                    time.sleep(0.001)
            return real_compose(*args)

        monkeypatch.setattr(montecarlo, "draw_shock_blocks", draw)
        monkeypatch.setattr(montecarlo, "_compose", compose)
        with pytest.raises(self.Boom, match=stage):
            self.run(small_cfg.with_run(n_reps=17))
        assert "start" not in events[events.index("fail"):]
        assert self.paygsim_threads() == []

    def test_a_serial_run_loads_no_process_pool_machinery(self):
        code = ("import sys\n"
                "from paygsim import load_config, run_simulation\n"
                "from paygsim.config import default_config_path\n"
                "run_simulation(load_config(default_config_path()).with_run(n_reps=120))\n"
                "print(sorted(m for m in ('concurrent.futures', 'concurrent.futures.process',\n"
                "                         'multiprocessing') if m in sys.modules))\n")
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
    """The result holds four ledger columns and derives the other five, bit
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
        for name in ("value_start", "disbursements", "investment_income", "total_balance"):
            first, second = base_run.ledger[name], base_run.ledger[name]
            assert first is not second and not np.shares_memory(first, second), name
            with pytest.raises(ValueError, match="read-only"):
                first[0, 0] = 1
        assert np.shares_memory(base_run.ledger["value_end"], base_run.held_ledger["value_end"])

    def test_a_pool_task_returns_only_the_held_columns(self, small_cfg, monkeypatch):
        cfg = small_cfg.with_run(n_reps=5)
        monkeypatch.setattr(montecarlo, "_worker_args", (
            cfg, engine.build_system(cfg), engine.entrant_moment_tables(cfg),
            engine.admin_path(cfg), int(to_cents(cfg.economics.initial_assets))))
        part = pickle.loads(pickle.dumps(montecarlo._run_pooled_chunk(0, 5)))
        want = self.recompute(cfg)
        assert tuple(part["ledger"]) == ("contrib_subjective", "contrib_integrative",
                                         "pension_balance", "value_end")
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

    def test_mortality_and_entrant_shocks_follow_their_own_flags(self, small_cfg):
        # mortality alone moves the headcounts and leaves the arrivals at
        # their expectations; entrants alone is a replay of the arrivals
        # with no mortality shocks
        det = run_deterministic_projection(small_cfg)
        run = run_simulation(small_cfg.with_run(flags=StochasticFlags.only("mortality")))
        assert np.std(run.series["actives"][:, -1]) > 0.0
        for s in small_cfg.sexes:
            for rep in range(run.n_reps):
                assert np.array_equal(run.series[f"entrants_{s}"][rep], det.entrants[s])
        run = run_simulation(small_cfg.with_run(flags=StochasticFlags.only("entrants")))

        def replayed(rep):
            slow = stepwise_projection(small_cfg, entrants_path={
                s: run.entrants[s][rep] for s in small_cfg.sexes})
            return all(np.array_equal(run.ledger[k][rep], slow.ledger[k]) for k in LEDGER_COLUMNS)

        assert any(replayed(rep) for rep in range(run.n_reps))


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

    @pytest.mark.parametrize("years_per_block", [1, 3])
    def test_year_blocks_give_the_bands_of_the_whole_series(self, small_cfg, monkeypatch,
                                                            years_per_block):
        result = run_simulation(small_cfg.with_run(n_reps=40))
        probes = (0.1, 25.0, 50.0, 99.9)
        monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", years_per_block * 8 * result.n_reps)
        for name in result.series_names:
            want = percentile_bands(result.series[name], probes)
            assert result.fan_chart(name, probes)["values"].tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("reduce", [
        lambda result, name: result.fan_chart(name, (5.0, 50.0, 95.0)),
        lambda result, name: result.moments(name),
    ], ids=["fan_chart", "moments"])
    def test_a_reduction_holds_a_few_year_blocks_at_a_time(self, small_cfg, monkeypatch, reduce):
        # total_balance is derived through two int64 temporaries per block;
        # a whole series would take len(years) blocks
        result = run_simulation(small_cfg.with_run(n_reps=2000))
        block = 8 * result.n_reps
        monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", block)
        assert len(result.years) >= 10
        reduce(result, "fund_value")  # numpy's first-call set-up
        for name in ("total_balance", "entrants_total", "fund_value"):
            tracemalloc.start()
            try:
                reduce(result, name)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 * block, name

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

    SELECTIONS = {"all": None, "bundled": tuple(range(2010, 2046, 5)),
                  "uneven": (2006, 2007, 2011, 2019, 2030, 2041, 2046), "empty": (),
                  "single": (2033,), "repeated": (2030, 2010, 2030),
                  "unsorted": (2045, 2006, 2020, 2015)}

    @pytest.fixture(scope="class")
    def bundled_run(self, cfg):
        assert cfg.run.moments_years == self.SELECTIONS["bundled"]
        return run_simulation(cfg.with_run(n_reps=40))

    @pytest.mark.parametrize("selection", SELECTIONS)
    @pytest.mark.parametrize("years_per_block", [1, 2, 3])
    def test_year_blocks_give_the_moments_of_the_whole_selection(
            self, bundled_run, monkeypatch, years_per_block, selection):
        # a year's moments depend on its own column alone, whatever else its
        # block holds; years come back in the caller's order, repeats included
        result = bundled_run
        years = self.SELECTIONS[selection]
        want_years = result.years.tolist() if years is None else list(years)
        idx = [y - result.first_year for y in want_years]
        monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", years_per_block * 8 * result.n_reps)
        for name in result.series_names:
            want = distribution_moments(result.series[name][:, idx], axis=0)
            got = result.moments(name, years)
            assert got["n"] == want["n"] == result.n_reps
            assert got["series"] == name and got["years"].tolist() == want_years
            for stat in ("mean", "std", "skewness", "excess_kurtosis", "degenerate"):
                assert got[stat].shape == (len(idx),), (name, stat)
                assert got[stat].tobytes() == want[stat].tobytes(), (name, stat)

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
