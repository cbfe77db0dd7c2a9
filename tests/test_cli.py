import json
import os

import numpy as np
import pytest

from paygsim import __version__, load_config
from paygsim.cli import main
from paygsim.config import default_config_path
from paygsim.entrants import expected_entrants_path, simulate_entrants_path
from paygsim.outputs import (read_entrants_csv, read_entrants_mc_csv,
                             read_fan_chart_csv, read_json)
from paygsim.stochastic import NormalSource


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    from conftest import write_scenario
    return write_scenario(str(tmp_path_factory.mktemp("scn")))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_bytes_by_name(outdir):
    names = sorted(os.listdir(outdir))
    return {n: open(os.path.join(outdir, n), "rb").read() for n in names}


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"paygsim {__version__}"

    def test_subcommand_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        # argparse's own usage error, not one of ours
        assert exc.value.code == 2

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestValidate:
    def test_bundled_default(self, capsys, cfg):
        code, out, err = run(capsys, "validate")
        assert code == 0
        assert err == ""
        assert out.startswith(f"ok: {default_config_path()}")
        assert cfg.source_digest in out
        assert f"years {cfg.first_year}-{cfg.last_year}" in out

    def test_explicit_file(self, capsys, scenario):
        code, out, _ = run(capsys, "validate", "--config", scenario)
        assert code == 0
        assert load_config(scenario).source_digest in out

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "validate", "--config",
                             str(tmp_path / "nope.yaml"))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_broken_file_collects_all_errors(self, capsys, tmp_path):
        from conftest import write_scenario
        path = write_scenario(str(tmp_path), tweaks={
            "run": {"n_reps": 0},
            "economics": {"expected_return": "high"},
        })
        code, _, err = run(capsys, "validate", "--config", path)
        assert code == 2
        lines = err.strip().splitlines()
        assert len(lines) >= 2
        assert all(line.startswith("error: ") for line in lines)

    @pytest.mark.parametrize("command", ["validate", "project"])
    @pytest.mark.parametrize("column, value", [("q0", "nan"), ("drift", "nan"),
                                               ("sigma", "inf")])
    def test_non_finite_mortality_cell_exits_2(self, capsys, tmp_path, command,
                                               column, value):
        from conftest import BASE_CSVS, write_scenario
        cell = {"q0": "0.01", "drift": "0.0", "sigma": "0.005", column: value}
        bad = f"male,33,{cell['q0']},{cell['drift']},{cell['sigma']}"
        table = [bad if r.startswith("male,33,") else r for r in BASE_CSVS["mortality.csv"]]
        path = write_scenario(str(tmp_path), csv_overrides={"mortality.csv": table})
        argv = ["--out", str(tmp_path / "out")] if command == "project" else []
        code, out, err = run(capsys, command, "--config", path, *argv)
        assert code == 2
        assert not (tmp_path / "out").exists()
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "mortality.csv" in lines[0] and column in lines[0]
        assert "'male' age 33" in lines[0]


class TestProject:
    def test_writes_bundle(self, capsys, scenario, tmp_path):
        outdir = tmp_path / "run"
        code, out, _ = run(capsys, "project", "--config", scenario,
                           "--out", str(outdir))
        assert code == 0
        assert sorted(os.listdir(outdir)) == [
            "entrants.csv", "ledger.csv", "ledger_raw.csv",
            "manifest.json", "summary.json"]
        assert out.count("wrote ") == 5
        manifest = read_json(outdir / "manifest.json")
        assert manifest["mode"] == "project"
        assert manifest["config_sha256"] == load_config(scenario).source_digest

    def test_rerun_is_byte_identical(self, capsys, scenario, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        for outdir in (first, second):
            assert run(capsys, "project", "--config", scenario,
                       "--out", str(outdir))[0] == 0
        assert read_bytes_by_name(first) == read_bytes_by_name(second)

    def test_out_colliding_with_file_exits_3(self, capsys, scenario, tmp_path):
        target = tmp_path / "occupied"
        target.write_text("already here")
        code, _, err = run(capsys, "project", "--config", scenario,
                           "--out", str(target))
        assert code == 3
        assert err.startswith("error: ")
        assert target.read_text() == "already here"


class TestSimulate:
    def test_writes_bundle(self, capsys, scenario, tmp_path):
        outdir = tmp_path / "run"
        code, out, _ = run(capsys, "simulate", "--config", scenario,
                           "--reps", "4", "--out", str(outdir))
        assert code == 0
        assert sorted(os.listdir(outdir)) == [
            "fanchart.csv", "manifest.json", "moments.csv", "summary.json"]
        manifest = read_json(outdir / "manifest.json")
        assert manifest["mode"] == "simulate"
        assert manifest["n_reps"] == 4

    def test_overrides_land_in_manifest(self, capsys, scenario, tmp_path):
        outdir = tmp_path / "run"
        code, _, _ = run(capsys, "simulate", "--config", scenario,
                         "--out", str(outdir), "--seed", "99", "--reps", "3",
                         "--percentiles", "95,5,50", "--stochastic", "returns")
        assert code == 0
        manifest = read_json(outdir / "manifest.json")
        assert manifest["seed"] == 99
        assert manifest["n_reps"] == 3
        # probes are sorted on the way in
        assert manifest["percentile_probes"] == [5.0, 50.0, 95.0]
        assert manifest["stochastic"] == ["returns"]
        fan = read_fan_chart_csv(outdir / "fanchart.csv")
        probes = set(next(iter(fan["fund_value"].values())))
        assert probes == {5.0, 50.0, 95.0}

    def test_single_rep_skips_moments(self, capsys, scenario, tmp_path):
        outdir = tmp_path / "run"
        code, out, _ = run(capsys, "simulate", "--config", scenario,
                           "--reps", "1", "--out", str(outdir))
        assert code == 0
        assert "skipping moments.csv" in out
        assert not (outdir / "moments.csv").exists()

    def test_stochastic_none(self, capsys, scenario, tmp_path):
        outdir = tmp_path / "run"
        code, _, _ = run(capsys, "simulate", "--config", scenario,
                         "--reps", "2", "--stochastic", "none",
                         "--out", str(outdir))
        assert code == 0
        assert read_json(outdir / "manifest.json")["stochastic"] == []
        # with every source switched off the band has zero width
        fan = read_fan_chart_csv(outdir / "fanchart.csv")
        for per_year in fan["fund_value"].values():
            assert len(set(per_year.values())) == 1

    def test_unknown_factor_exits_2(self, capsys, scenario, tmp_path):
        code, _, err = run(capsys, "simulate", "--config", scenario,
                           "--stochastic", "entrants,gremlins",
                           "--out", str(tmp_path / "run"))
        assert code == 2
        assert "gremlins" in err
        assert not (tmp_path / "run").exists()

    def test_empty_stochastic_exits_2(self, capsys, scenario, tmp_path):
        code, _, err = run(capsys, "simulate", "--config", scenario,
                           "--stochastic", " , ", "--out", str(tmp_path / "r"))
        assert code == 2
        assert "empty" in err

    def test_zero_reps_exits_2(self, capsys, scenario, tmp_path):
        code, _, err = run(capsys, "simulate", "--config", scenario,
                           "--reps", "0", "--out", str(tmp_path / "r"))
        assert code == 2
        assert "--reps" in err

    def test_bad_percentiles_exit_2(self, capsys, scenario, tmp_path):
        for probes in ("150", "0", "100", "abc"):
            code, _, err = run(capsys, "simulate", "--config", scenario,
                               "--percentiles", probes,
                               "--out", str(tmp_path / "r"))
            assert code == 2, probes
            assert err.startswith("error: --percentiles")

    def test_seed_changes_results_rerun_does_not(self, capsys, scenario,
                                                 tmp_path):
        def fan_bytes(outdir, seed):
            assert run(capsys, "simulate", "--config", scenario, "--reps", "4",
                       "--seed", str(seed), "--out", str(outdir))[0] == 0
            return (outdir / "fanchart.csv").read_bytes()

        a = fan_bytes(tmp_path / "a", 7)
        b = fan_bytes(tmp_path / "b", 7)
        c = fan_bytes(tmp_path / "c", 8)
        assert a == b
        assert a != c

    def test_workers_flag_matches_serial(self, capsys, scenario, tmp_path):
        serial, parallel = tmp_path / "s", tmp_path / "p"
        for outdir, workers in ((serial, None), (parallel, "2")):
            argv = ["simulate", "--config", scenario, "--reps", "6",
                    "--out", str(outdir)]
            if workers:
                argv += ["--workers", workers]
            assert run(capsys, *argv)[0] == 0
        assert read_bytes_by_name(serial) == read_bytes_by_name(parallel)


class TestEntrants:
    def test_expected_path_only(self, capsys, scenario, tmp_path):
        outdir = tmp_path / "run"
        code, _, _ = run(capsys, "entrants", "--config", scenario,
                         "--out", str(outdir))
        assert code == 0
        assert sorted(os.listdir(outdir)) == ["entrants.csv", "manifest.json"]
        cfg = load_config(scenario)
        years, by_sex = read_entrants_csv(outdir / "entrants.csv")
        expected = expected_entrants_path(cfg.entrants_params, cfg.population,
                                          cfg.sexes, cfg.years)
        assert years == list(cfg.years)
        for sex in cfg.sexes:
            np.testing.assert_allclose(by_sex[sex], expected[sex], rtol=1e-12)

    def test_sampled_spread_uses_replication_streams(self, capsys, scenario,
                                                     tmp_path):
        outdir = tmp_path / "run"
        reps, seed = 5, 42
        code, _, _ = run(capsys, "entrants", "--config", scenario,
                         "--reps", str(reps), "--seed", str(seed),
                         "--out", str(outdir))
        assert code == 0
        assert (outdir / "entrants_mc.csv").exists()
        cfg = load_config(scenario)
        draws = {s: np.empty((reps, len(cfg.years))) for s in cfg.sexes}
        for rep in range(reps):
            one = simulate_entrants_path(
                cfg.entrants_params, cfg.population, cfg.sexes, cfg.years,
                NormalSource(seed, stream_id=rep))
            for s in cfg.sexes:
                draws[s][rep] = one[s]
        table = read_entrants_mc_csv(outdir / "entrants_mc.csv")
        for s in cfg.sexes:
            for t, year in enumerate(cfg.years):
                mean, std = table[s][year]
                assert mean == pytest.approx(draws[s][:, t].mean(), rel=1e-12)
                assert std == pytest.approx(draws[s][:, t].std(ddof=1),
                                            rel=1e-12)

    def test_single_sample_has_zero_spread(self, capsys, scenario, tmp_path):
        outdir = tmp_path / "run"
        assert run(capsys, "entrants", "--config", scenario, "--reps", "1",
                   "--out", str(outdir))[0] == 0
        table = read_entrants_mc_csv(outdir / "entrants_mc.csv")
        assert all(std == 0.0 for per_year in table.values()
                   for _, std in per_year.values())

    def test_negative_reps_exit_2(self, capsys, scenario, tmp_path):
        code, _, err = run(capsys, "entrants", "--config", scenario,
                           "--reps", "-3", "--out", str(tmp_path / "r"))
        assert code == 2
        assert ">= 0" in err
