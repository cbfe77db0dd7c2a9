import json
import os

import numpy as np
import pytest

from paygsim import load_config, run_deterministic_projection, run_simulation
from paygsim.cashflows import identities_hold, ledger_columns
from paygsim.outputs import (LEDGER_HEADER, MOMENT_STATS, _eur, emit_entrants_outputs,
                             emit_projection_outputs, emit_simulation_outputs,
                             projection_summary, run_manifest, simulation_summary,
                             write_entrants_csv, write_entrants_mc_csv,
                             write_fan_chart_csv, write_json, write_ledger_csv,
                             write_ledger_raw_csv, write_moments_csv)

from bundle_readers import (parse_eur, read_entrants_csv, read_entrants_mc_csv,
                            read_ledger_csv, read_ledger_raw_csv, read_long_csv)


@pytest.fixture(scope="module")
def small_cfg(tmp_path_factory):
    from conftest import write_scenario
    return load_config(write_scenario(str(tmp_path_factory.mktemp("scn"))))


@pytest.fixture(scope="module")
def projection(small_cfg):
    return run_deterministic_projection(small_cfg)


@pytest.fixture(scope="module")
def simulation(small_cfg):
    return run_simulation(small_cfg)


class TestEuroStrings:
    def test_formatting(self):
        assert _eur(0) == "0.00"
        assert _eur(5) == "0.05"
        assert _eur(-5) == "-0.05"
        assert _eur(123456) == "1234.56"
        assert _eur(-100) == "-1.00"
        assert _eur(206779398900) == "2067793989.00"

    def test_round_trip(self):
        for cents in (0, 1, -1, 99, -99, 100, 12345678901, -12345678901):
            assert parse_eur(_eur(cents)) == cents


YEARS = list(range(2006, 2012))


class TestLedgerFiles:
    @pytest.fixture()
    def ledger(self):
        rng = np.random.default_rng(8)
        n = len(YEARS)
        return ledger_columns(200_000_000, rng.uniform(0, 3e5, n),
                              rng.uniform(0, 2e5, n), rng.uniform(0, 4e5, n),
                              rng.uniform(0, 5e4, n), rng.normal(0.03, 0.04, n))

    def test_raw_file_round_trips_exactly(self, tmp_path, ledger):
        path = tmp_path / "raw.csv"
        write_ledger_raw_csv(path, YEARS, ledger)
        years, back = read_ledger_raw_csv(path)
        assert years == YEARS
        assert list(back) == list(ledger)
        for name, col in ledger.items():
            assert np.array_equal(back[name], col)
        assert identities_hold(back)

    def test_rewrite_is_byte_identical(self, tmp_path, ledger):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_ledger_raw_csv(a, YEARS, ledger)
        write_ledger_raw_csv(b, *read_ledger_raw_csv(a))
        assert a.read_bytes() == b.read_bytes()

    def test_display_file_headers_and_identities(self, tmp_path, ledger):
        path = tmp_path / "ledger.csv"
        write_ledger_csv(path, YEARS, ledger)
        rows = read_ledger_csv(path)
        assert list(rows[0]) == list(LEDGER_HEADER)
        for row in rows:
            # each column is rounded on its own, so identities can slip by
            # one unit of the reporting precision but no more
            assert abs(row["E_pension_balance"] - (row["B_contrib_subjective"]
                       + row["C_contrib_integrative"] - row["D_disbursements"])) <= 1
            assert abs(row["H_total_balance"] - (row["E_pension_balance"]
                       + row["F_investment_income"] - row["G_admin_costs"])) <= 1
            assert abs(row["I_value_end"] - (row["A_value_start"]
                       + row["H_total_balance"])) <= 1

    def test_display_chain_links_exactly(self, tmp_path, ledger):
        # I(t) and A(t+1) round the same cent value, so they agree exactly
        path = tmp_path / "ledger.csv"
        write_ledger_csv(path, YEARS, ledger)
        rows = read_ledger_csv(path)
        assert [row["year"] for row in rows] == YEARS
        for a, b in zip(rows, rows[1:]):
            assert a["I_value_end"] == b["A_value_start"]


class TestDistributionFiles:
    def test_fan_chart_round_trip(self, tmp_path, simulation):
        path = tmp_path / "fan.csv"
        probes = (5.0, 50.0, 95.0)
        write_fan_chart_csv(path, simulation, probes)
        back = read_long_csv(path, key=float)
        assert set(back) == set(simulation.series_names)
        fan = simulation.fan_chart("fund_value", probes)
        for t, year in enumerate(fan["years"]):
            for pi, p in enumerate(probes):
                assert back["fund_value"][int(year)][p] == fan["values"][pi, t]

    def test_moments_round_trip(self, tmp_path, simulation, small_cfg):
        path = tmp_path / "moments.csv"
        years = small_cfg.run.moments_years
        write_moments_csv(path, simulation, years)
        back = read_long_csv(path)
        mom = simulation.moments("total_balance", years)
        for t, year in enumerate(mom["years"]):
            got = back["total_balance"][int(year)]
            assert set(got) == set(MOMENT_STATS)
            assert got["mean"] == mom["mean"][t]
            assert got["std"] == mom["std"][t]

    def test_entrants_round_trip(self, tmp_path):
        years = [2006, 2007, 2008]
        by_sex = {"male": np.array([5.125, 5.0, 4.875]),
                  "female": np.array([4.5, 4.625, 4.75])}
        path = tmp_path / "entrants.csv"
        write_entrants_csv(path, years, by_sex)
        got_years, got = read_entrants_csv(path)
        assert got_years == years
        for s in by_sex:
            assert np.array_equal(got[s], by_sex[s])

    def test_entrants_full_precision(self, tmp_path):
        value = 595.5420463795
        path = tmp_path / "entrants.csv"
        write_entrants_csv(path, [2020], {"male": np.array([value])})
        _, got = read_entrants_csv(path)
        assert got["male"][0] == value

    def test_entrants_mc_round_trip(self, tmp_path):
        years = [2006, 2007]
        mean = {"male": np.array([5.1, 5.2])}
        std = {"male": np.array([0.4, 0.5])}
        path = tmp_path / "mc.csv"
        write_entrants_mc_csv(path, years, mean, std)
        back = read_entrants_mc_csv(path)
        assert back["male"][2006] == (5.1, 0.4)
        assert back["male"][2007] == (5.2, 0.5)


class TestJsonDocuments:
    def test_write_is_deterministic_and_sorted(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_json(a, {"zeta": 1, "alpha": {"b": 2, "a": 3}})
        write_json(b, {"alpha": {"a": 3, "b": 2}, "zeta": 1})
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text(encoding="utf-8")) == {"zeta": 1,
                                                              "alpha": {"a": 3, "b": 2}}

    def test_manifest_fields(self, small_cfg):
        m = run_manifest(small_cfg, "simulate")
        assert m["schema"] == "paygsim.manifest/1"
        assert m["mode"] == "simulate"
        assert m["config_sha256"] == small_cfg.source_digest
        assert m["seed"] == small_cfg.run.seed
        assert m["n_reps"] == small_cfg.run.n_reps
        assert m["stochastic"] == ["entrants", "mortality", "returns"]
        assert m["horizon"] == {"first_year": 2006, "last_year": 2016}

    def test_projection_summary(self, small_cfg, projection):
        s = projection_summary(small_cfg, projection)
        assert s["schema"] == "paygsim.summary/1"
        assert s["identities_hold"] is True
        assert s["fund_value_end_eur"] == pytest.approx(
            projection.ledger["value_end"][-1] / 100.0)
        for sex in small_cfg.sexes:
            assert s["entrants_final_year"][sex] == projection.entrants[sex][-1]

    def test_simulation_summary(self, small_cfg, simulation):
        s = simulation_summary(small_cfg, simulation)
        assert s["n_reps"] == simulation.n_reps
        assert 0.0 <= s["prob_fund_value_nonnegative"] <= 1.0
        stats = s["final_year_series"]["fund_value"]
        x = simulation.series["fund_value"][:, -1]
        assert stats["mean"] == pytest.approx(x.mean())
        assert stats["min"] == x.min() and stats["max"] == x.max()


class TestBundles:
    def test_projection_bundle(self, tmp_path, small_cfg, projection):
        written = emit_projection_outputs(str(tmp_path / "out"), small_cfg, projection)
        names = sorted(os.path.basename(p) for p in written)
        assert names == ["entrants.csv", "ledger.csv", "ledger_raw.csv",
                         "manifest.json", "summary.json"]
        assert all(os.path.exists(p) for p in written)
        years, back = read_ledger_raw_csv(os.path.join(tmp_path, "out", "ledger_raw.csv"))
        assert years == small_cfg.years
        for name, col in projection.ledger.items():
            assert np.array_equal(back[name], col), name
        assert identities_hold(back)

    def test_simulation_bundle(self, tmp_path, small_cfg, simulation):
        written = emit_simulation_outputs(str(tmp_path / "out"), small_cfg, simulation)
        names = sorted(os.path.basename(p) for p in written)
        assert names == ["fanchart.csv", "manifest.json", "moments.csv", "summary.json"]

    def test_single_rep_skips_moments(self, tmp_path, small_cfg):
        solo = run_simulation(small_cfg.with_run(n_reps=1))
        written = emit_simulation_outputs(str(tmp_path / "out"), small_cfg.with_run(n_reps=1), solo)
        names = sorted(os.path.basename(p) for p in written)
        assert "moments.csv" not in names
        assert "fanchart.csv" in names

    def test_entrants_bundle(self, tmp_path, small_cfg, projection):
        written = emit_entrants_outputs(str(tmp_path / "out"), small_cfg, projection.entrants)
        names = sorted(os.path.basename(p) for p in written)
        assert names == ["entrants.csv", "manifest.json"]

    def test_rerun_is_byte_identical(self, tmp_path, small_cfg, simulation, projection):
        for emit, result in ((emit_simulation_outputs, simulation),
                             (emit_projection_outputs, projection)):
            d1, d2 = str(tmp_path / "r1"), str(tmp_path / "r2")
            emit(d1, small_cfg, result)
            emit(d2, small_cfg, result)
            for name in os.listdir(d1):
                with open(os.path.join(d1, name), "rb") as f1, \
                        open(os.path.join(d2, name), "rb") as f2:
                    assert f1.read() == f2.read(), name
