import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
import yaml

from paygsim import __version__, config, load_config
from paygsim.cli import build_parser, main
from paygsim.config import default_config_path
from paygsim.engine import entrants_matrix
from paygsim.entrants import DRAWS_PER_CELL
from paygsim.montecarlo import draw_shock_blocks
from paygsim.outputs import emit_entrants_outputs

from bundle_readers import read_entrants_csv, read_entrants_mc_csv, read_long_csv


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    from conftest import write_scenario
    return write_scenario(str(tmp_path_factory.mktemp("scn")))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def expected_arrivals(cfg) -> dict:
    """Arrivals per sex at zero shocks: the expected path."""
    zeros = np.zeros((1, len(cfg.years), len(cfg.sexes), DRAWS_PER_CELL))
    ne = entrants_matrix(cfg, zeros)[0]
    return {s: ne[:, si] for si, s in enumerate(cfg.sexes)}


def bundled_copy(tmp_path, edit):
    """Copy the bundled scenario into tmp_path, apply `edit` to its parsed
    YAML and return the copy's path."""
    bundled = os.path.dirname(default_config_path())
    for name in os.listdir(bundled):
        shutil.copy(os.path.join(bundled, name), tmp_path)
    path = tmp_path / "default_scenario.yaml"
    raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    edit(raw)
    path.write_text(yaml.safe_dump(raw, sort_keys=False), encoding="utf-8")
    return str(path)


def read_bytes_by_name(outdir):
    names = sorted(os.listdir(outdir))
    out = {}
    for n in names:
        with open(os.path.join(outdir, n), "rb") as fh:
            out[n] = fh.read()
    return out


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

    def test_one_parser_serves_every_call(self, capsys, scenario):
        build_parser.cache_clear()
        for _ in range(2):
            assert run(capsys, "validate", "--config", scenario)[0] == 0
        assert build_parser.cache_info().misses == 1


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

    # each schedule is checked at every year the model reads, so validate
    # rejects what project would fail on, with one line per problem
    @pytest.mark.parametrize("tweaks, fields", [
        ({"contributions": {"subjective": {"rate": {"overrides": {2006: 0.1}}}}},
         ["contributions.subjective.rate"]),
        ({"economics": {"profile_base_year": 2000,
                        "inflation": {"overrides": {y: 0.02 for y in range(2006, 2017)}}}},
         ["economics.inflation"]),
        ({"entrants": {"factors": {"male": {"enrolment": {"mean": -0.1, "sigma": 0.02}}}}},
         ["entrants.factors.male.enrolment.mean"]),
        ({"contributions": {"subjective": {"rate": {"default": 0.1, "overrides": {2010: 1.5}}}},
          "economics": {"inflation": {"overrides": {2006: 0.02}}}},
         ["contributions.subjective.rate", "economics.inflation"]),
    ])
    def test_schedule_problems_exit_2_one_line_each(self, capsys, tmp_path, tweaks, fields):
        from conftest import write_scenario
        path = write_scenario(str(tmp_path), tweaks=tweaks)
        code, out, err = run(capsys, "validate", "--config", path)
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert all(line.startswith("error: ") for line in lines)
        assert [line.split(": ")[1] for line in lines] == fields

    # the bundled horizon is 2006-2046; arrivals read enrolment 9 years back
    @pytest.mark.parametrize("factor, years, message", [
        ("admission", range(2006, 2047), None),
        ("admission", [y for y in range(2006, 2047) if y != 2020],
         "no value for year 2020 (values are read for 2006-2046)"),
        ("enrolment", range(1998, 2038),
         "no value for year 1997 (values are read for 1997-2037)"),
    ])
    def test_each_arrival_factor_is_checked_at_the_years_it_is_read(
            self, capsys, tmp_path, factor, years, message):
        def edit(raw):
            moments = raw["entrants"]["factors"]["male"][factor]
            moments["mean"] = {"overrides": {y: moments["mean"] for y in years}}

        path = bundled_copy(tmp_path, edit)
        if message is None:
            assert run(capsys, "validate", "--config", path)[0] == 0
            out = str(tmp_path / "out")
            assert run(capsys, "project", "--config", path, "--out", out)[0] == 0
        else:
            where = f"entrants.factors.male.{factor}.mean"
            assert run(capsys, "validate", "--config", path) == (
                2, "", f"error: {where}: {message}\n")

    # the bundled grid is ages 29-105, seniority 0-45; a geometry value
    # outside 0-150 is blamed on its own field, and the census is then not
    # read (an age of a billion would have it allocate a grid that wide)
    @pytest.mark.parametrize("field, value, message", [
        ("population.max_seniority", -1,
         "population.max_seniority: must be between 0 and 150, got -1"),
        ("population.min_age", -1, "population.min_age: must be between 0 and 150, got -1"),
        ("population.max_age", -1, "population.max_age: must be between 0 and 150, got -1"),
        ("population.entry_age", -1, "population.entry_age: must be between 0 and 150, got -1"),
        ("population.max_age", 10**9,
         "population.max_age: must be between 0 and 150, got 1000000000"),
        ("population.min_age", 110, "population.min_age: must be <= max_age, got 110 > 105"),
        ("population.entry_age", 20, "population.entry_age: 20 outside [29, 105]"),
        ("economics.return_deviations.sigma", -0.03667,
         "economics.return_deviations.sigma: must be between 0 and 1, got -0.03667"),
        # a year outside 1800-2300 would have the loader list a billion years,
        # or the price index overflow
        ("horizon.first_year", -10**9,
         "horizon.first_year: must be between 1800 and 2300, got -1000000000"),
        ("horizon.last_year", 2301, "horizon.last_year: must be between 1800 and 2300, got 2301"),
        ("mortality.base_year", 1799,
         "mortality.base_year: must be between 1800 and 2300, got 1799"),
        ("economics.profile_base_year", 10**30, "economics.profile_base_year: must be "
         "between 1800 and 2300, got 1000000000000000000000000000000"),
        ("economics.admin_base_year", 1700,
         "economics.admin_base_year: must be between 1800 and 2300, got 1700"),
        # more euros than int64 cents hold, which `project` could only refuse
        # naming no field
        ("economics.initial_assets", 1.0e17,
         "economics.initial_assets: must be between -9e+16 and 9e+16, got 1e+17"),
    ])
    def test_a_bad_bundled_value_is_one_line_under_its_own_field(
            self, capsys, tmp_path, field, value, message):
        def edit(raw):
            *parents, key = field.split(".")
            for name in parents:
                raw = raw[name]
            raw[key] = value

        path = bundled_copy(tmp_path, edit)
        assert run(capsys, "validate", "--config", path) == (2, "", f"error: {message}\n")

    # values within their bounds whose zero-shock flows outgrow what the
    # ledger holds: `validate` runs that projection and blames the rate
    # compounded over the horizon, and `project`, which runs the same
    # projection, refuses the file alike and writes nothing
    @pytest.mark.parametrize("command", ["validate", "project"])
    @pytest.mark.parametrize("field, value, message", [
        ("admin_growth", 10**30,
         "economics.admin_growth: the administration costs of 2017 overflow a float"),
        ("inflation", 1.0, "economics.inflation: contrib_subjective of year 29 of the "
                           "horizon: 1.619705324992427e+17 euros do not fit in int64 cents"),
        ("expected_return", 3.0, "economics.expected_return: investment income of year 13 "
                                 "of the horizon does not fit in int64 cents"),
    ])
    def test_validate_and_project_refuse_flows_that_overflow(self, capsys, tmp_path, command,
                                                             field, value, message):
        def edit(raw):
            raw["economics"][field] = value

        path = bundled_copy(tmp_path, edit)
        out = tmp_path / "out"
        argv = ["--out", str(out)] if command == "project" else []
        assert run(capsys, command, "--config", path, *argv) == (2, "", f"error: {message}\n")
        assert not out.exists()

    # the same values, which `simulate` refuses as it meets them: a sampled
    # path may overflow where the expected one does not, so it is a runtime
    # failure
    @pytest.mark.parametrize("field, value, message", [
        ("admin_growth", 10**30, "economics.admin_growth: the administration "
                                 "costs of 2017 overflow a float"),
        # prices double every year: 2034's subjective contributions are the
        # first amount int64 cents cannot hold
        ("inflation", 1.0, "contrib_subjective of year 29 of the horizon: "
                           "1.5964172581443424e+17 euros do not fit in int64 cents"),
    ])
    def test_flows_that_overflow_exit_3_naming_where(self, capsys, tmp_path, field, value,
                                                      message):
        def edit(raw):
            raw["economics"][field] = value

        path = bundled_copy(tmp_path, edit)
        out = str(tmp_path / "out")
        assert run(capsys, "simulate", "--config", path, "--out", out, "--reps", "2") == (
            3, "", f"error: {message}\n")

    @pytest.mark.parametrize("value, message", [
        ("high", "economics.expected_return: expected a number or a mapping, got str"),
        ({"default": 0.03, "step": 1}, "economics.expected_return: unknown keys ['step']"),
        ({"overrides": [2006]},
         "economics.expected_return: expected the overrides to be a year->value mapping"),
    ])
    def test_malformed_schedule_names_its_field_once(self, capsys, tmp_path, value, message):
        from conftest import write_scenario
        path = write_scenario(str(tmp_path), tweaks={"economics": {"expected_return": value}})
        assert run(capsys, "validate", "--config", path) == (2, "", f"error: {message}\n")

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

    @pytest.mark.parametrize("command", ["validate", "project", "entrants"])
    @pytest.mark.parametrize("table, row, bad, column, value, where", [
        ("income.csv", "male,40,50000", "male,40,inf", "amount", "inf", "'male' age 40"),
        ("income.csv", "male,40,50000", "male,40,nan", "amount", "nan", "'male' age 40"),
        ("income.csv", "male,40,50000", "male,40,abc", "amount", "abc", "'male' age 40"),
        ("income.csv", "male,40,50000", "male,40", "amount", None, "'male' age 40"),
        ("turnover.csv", "female,33,80000", "female,33,-inf", "amount", "-inf",
         "'female' age 33"),
        ("pensions.csv", "male,45,20000", "male,45,nan", "amount", "nan", "'male' age 45"),
        ("conversion.csv", "female,50,0.06", "female,50,inf", "coefficient", "inf",
         "'female' age 50"),
        ("population.csv", "2000,male,1000,100", "2000,male,nan,100", "expected", "nan",
         "'male' year 2000"),
        ("population.csv", "2010,female,1000,100", "2010,female,1000,inf", "sigma", "inf",
         "'female' year 2010"),
        ("census.csv", "male,35,5,active,30", "male,35,5,active,nan", "count", "nan",
         "'male' age 35 seniority 5"),
    ])
    def test_non_finite_table_cell_exits_2(self, capsys, tmp_path, command, table, row,
                                           bad, column, value, where):
        from conftest import BASE_CSVS, write_scenario
        assert row in BASE_CSVS[table]
        lines = [bad if r == row else r for r in BASE_CSVS[table]]
        path = write_scenario(str(tmp_path), csv_overrides={table: lines})
        argv = [] if command == "validate" else ["--out", str(tmp_path / "out")]
        code, out, err = run(capsys, command, "--config", path, *argv)
        assert code == 2
        assert not (tmp_path / "out").exists()
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert table in lines[0] and f"{column} {value!r}" in lines[0]
        assert where in lines[0] and "not a finite number" in lines[0]

    @pytest.mark.parametrize("command", ["validate", "project"])
    @pytest.mark.parametrize("table, row, bad, column, value, where", [
        ("income.csv", "male,40,50000", "male,40,-50000", "amount", "-50000", "'male' age 40"),
        ("turnover.csv", "female,33,80000", "female,33,-1e-9", "amount", "-1e-9",
         "'female' age 33"),
        ("pensions.csv", "male,45,20000", "male,45,-20000", "amount", "-20000", "'male' age 45"),
        ("conversion.csv", "male,45,0.06", "male,45,-0.06", "coefficient", "-0.06",
         "'male' age 45"),
        ("population.csv", "1997,male,1000,100", "1997,male,-1000,100", "expected", "-1000",
         "'male' year 1997"),
        ("population.csv", "2010,female,1000,100", "2010,female,1000,-100", "sigma", "-100",
         "'female' year 2010"),
        ("mortality.csv", "male,40,0.01,0.0,0.005", "male,40,0.01,0.0,-0.001", "sigma",
         "-0.001", "'male' age 40"),
        ("mortality.csv", "female,33,0.01,0.0,0.005", "female,33,-0.01,0.0,0.005", "q0",
         "-0.01", "'female' age 33"),
    ])
    def test_negative_table_cell_exits_2(self, capsys, tmp_path, command, table, row, bad,
                                         column, value, where):
        # a negative amount, coefficient, population or dispersion would run
        # and give wrong numbers: negative pensions, or arrivals floored to 0
        from conftest import BASE_CSVS, write_scenario
        assert row in BASE_CSVS[table]
        lines = [bad if r == row else r for r in BASE_CSVS[table]]
        path = write_scenario(str(tmp_path), csv_overrides={table: lines})
        argv = [] if command == "validate" else ["--out", str(tmp_path / "out")]
        code, out, err = run(capsys, command, "--config", path, *argv)
        assert code == 2
        assert not (tmp_path / "out").exists()
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert lines[0].endswith(f"{os.path.join(str(tmp_path), table)}: "
                                 f"{column} {value!r} for sex {where} is negative")

    # the bundled census has 134 rows, ending on line 139; its grid is ages
    # 29-105, seniority 0-45, entry at 29
    @pytest.mark.parametrize("row, message", [
        ("male,36,6,active,-1",
         "count '-1' for sex 'male' age 36 seniority 6 on line 140 is negative"),
        ("male,36,20,active,3",
         "line 140: seniority 20 at age 36 violates seniority <= age - entry_age (29)"),
    ])
    def test_a_bad_census_row_is_one_line_naming_the_file_and_line(self, capsys, tmp_path,
                                                                   row, message):
        path = bundled_copy(tmp_path, lambda raw: None)
        census = tmp_path / "census_2006.csv"
        census.write_text(census.read_text(encoding="utf-8") + row + "\n", encoding="utf-8")
        assert run(capsys, "validate", "--config", path) == (
            2, "", f"error: population.census_csv: {census}: {message}\n")

    @pytest.mark.parametrize("command", ["validate", "project", "entrants"])
    @pytest.mark.parametrize("table, row, column", [
        ("census.csv", "male", "age"), ("census.csv", "female,38", "seniority"),
        ("population.csv", "2000", "sex"), ("mortality.csv", "male", "age"),
        ("turnover.csv", "female", "age"),
    ])
    def test_row_short_of_a_key_column_exits_2(self, capsys, tmp_path, command, table,
                                               row, column):
        from conftest import BASE_CSVS, write_scenario
        lines = BASE_CSVS[table] + [row]
        path = write_scenario(str(tmp_path), csv_overrides={table: lines})
        argv = [] if command == "validate" else ["--out", str(tmp_path / "out")]
        code, out, err = run(capsys, command, "--config", path, *argv)
        assert code == 2
        assert not (tmp_path / "out").exists()
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert f"{table}: line {len(BASE_CSVS[table]) + 1}: no {column} cell" in lines[0]

    @pytest.mark.parametrize("command", ["validate", "project", "entrants"])
    def test_csv_path_that_is_a_directory_exits_2(self, capsys, tmp_path, command):
        from conftest import write_scenario
        path = write_scenario(str(tmp_path), {"mortality": {"table_csv": "tables"}})
        (tmp_path / "tables").mkdir()
        argv = [] if command == "validate" else ["--out", str(tmp_path / "out")]
        code, out, err = run(capsys, command, "--config", path, *argv)
        assert code == 2
        assert not (tmp_path / "out").exists()
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: mortality.table_csv: ")
        assert "tables" in lines[0]


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
        manifest = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["mode"] == "project"
        assert manifest["config_sha256"] == load_config(scenario).source_digest

    def test_rerun_is_byte_identical(self, capsys, scenario, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        for outdir in (first, second):
            assert run(capsys, "project", "--config", scenario,
                       "--out", str(outdir))[0] == 0
        assert read_bytes_by_name(first) == read_bytes_by_name(second)

    # --out is the file itself, or a directory that would have to be made
    # below it
    @pytest.mark.parametrize("command", ["project", "simulate"])
    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_colliding_with_file_exits_3(self, capsys, scenario, tmp_path, command,
                                             below):
        target = tmp_path / "occupied"
        target.write_text("already here")
        extra = ["--reps", "2"] if command == "simulate" else []
        code, _, err = run(capsys, command, "--config", scenario, *extra,
                           "--out", str(target / below))
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        assert target.read_text() == "already here"


class TestSimulate:
    def test_writes_bundle(self, capsys, scenario, tmp_path):
        outdir = tmp_path / "run"
        code, out, _ = run(capsys, "simulate", "--config", scenario,
                           "--reps", "4", "--out", str(outdir))
        assert code == 0
        assert sorted(os.listdir(outdir)) == [
            "fanchart.csv", "manifest.json", "moments.csv", "summary.json"]
        manifest = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["mode"] == "simulate"
        assert manifest["n_reps"] == 4

    def test_overrides_land_in_manifest(self, capsys, scenario, tmp_path):
        outdir = tmp_path / "run"
        code, _, _ = run(capsys, "simulate", "--config", scenario,
                         "--out", str(outdir), "--seed", "99", "--reps", "3",
                         "--percentiles", "5,50,95", "--stochastic", "returns")
        assert code == 0
        manifest = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["seed"] == 99
        assert manifest["n_reps"] == 3
        assert manifest["percentile_probes"] == [5.0, 50.0, 95.0]
        assert manifest["stochastic"] == ["returns"]
        fan = read_long_csv(outdir / "fanchart.csv", key=float)
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
        manifest = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["stochastic"] == []
        # with every source switched off the band has zero width
        fan = read_long_csv(outdir / "fanchart.csv", key=float)
        for per_year in fan["fund_value"].values():
            assert len(set(per_year.values())) == 1

    def test_unknown_factor_exits_2(self, capsys, scenario, tmp_path):
        code, _, err = run(capsys, "simulate", "--config", scenario,
                           "--stochastic", "entrants,gremlins",
                           "--out", str(tmp_path / "run"))
        assert code == 2
        assert err == ("error: --stochastic: unknown shock family 'gremlins', "
                       "expected one of entrants, mortality, returns\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("families, unknown", [
        ("dog,dog", ["dog"]), ("dog,cat,returns,dog", ["dog", "cat"])])
    def test_a_repeated_unknown_family_is_named_once(self, capsys, scenario, tmp_path,
                                                     families, unknown):
        code, _, err = run(capsys, "simulate", "--config", scenario,
                           "--stochastic", families, "--out", str(tmp_path / "run"))
        assert code == 2
        assert err == "".join(f"error: --stochastic: unknown shock family {n!r}, "
                              "expected one of entrants, mortality, returns\n" for n in unknown)

    def test_empty_stochastic_exits_2(self, capsys, scenario, tmp_path):
        code, _, err = run(capsys, "simulate", "--config", scenario,
                           "--stochastic", " , ", "--out", str(tmp_path / "r"))
        assert code == 2
        assert "empty" in err

    def test_zero_reps_exits_2(self, capsys, scenario, tmp_path):
        code, _, err = run(capsys, "simulate", "--config", scenario,
                           "--reps", "0", "--out", str(tmp_path / "r"))
        assert code == 2
        assert "run.n_reps" in err

    def test_bad_percentiles_exit_2(self, capsys, scenario, tmp_path):
        # values are checked by the run settings, like a scenario's probes
        for probes, field in (("150", "run.percentile_probes"), ("0", "run.percentile_probes"),
                              ("100", "run.percentile_probes"),
                              ("95,5,50", "run.percentile_probes"),
                              ("5,5", "run.percentile_probes"), ("abc", "--percentiles")):
            code, _, err = run(capsys, "simulate", "--config", scenario,
                               "--percentiles", probes,
                               "--out", str(tmp_path / "r"))
            assert code == 2, probes
            assert err.startswith(f"error: {field}"), (probes, err)

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
        expected = expected_arrivals(cfg)
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
        # replication rep's stream, opened with numpy's own key derivation;
        # five shocks per (year, sex) cell, years outer, sexes inner
        eps = np.empty((reps, len(cfg.years), len(cfg.sexes), DRAWS_PER_CELL))
        for rep in range(reps):
            gen = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(seed, spawn_key=(rep,))))
            for cell in eps[rep].reshape(-1, DRAWS_PER_CELL):
                cell[:] = gen.standard_normal(DRAWS_PER_CELL)
        ne = entrants_matrix(cfg, eps)
        draws = {s: ne[:, :, si] for si, s in enumerate(cfg.sexes)}
        table = read_entrants_mc_csv(outdir / "entrants_mc.csv")
        for s in cfg.sexes:
            for t, year in enumerate(cfg.years):
                mean, std = table[s][year]
                assert mean == pytest.approx(draws[s][:, t].mean(), rel=1e-12)
                assert std == pytest.approx(draws[s][:, t].std(ddof=1),
                                            rel=1e-12)

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("reps", [1, 99, 100, 101, 250])
    def test_sampled_spread_equals_the_shock_block_recompute(self, capsys, scenario,
                                                             tmp_path, reps, seed):
        # batches of replications draw what one shock block per replication draws
        code, _, _ = run(capsys, "entrants", "--config", scenario, "--reps", str(reps),
                         "--seed", str(seed), "--out", str(tmp_path / "cli"))
        assert code == 0
        cfg = load_config(scenario).with_run(n_reps=reps, seed=seed)
        blocks = draw_shock_blocks(cfg, range(reps))
        ne = entrants_matrix(cfg, blocks.entrants)
        paths = {s: ne[:, :, si] for si, s in enumerate(cfg.sexes)}
        mean = {s: p.mean(axis=0) for s, p in paths.items()}
        std = {s: p.std(axis=0, ddof=1) if reps > 1 else np.zeros(len(cfg.years))
               for s, p in paths.items()}
        expected = expected_arrivals(cfg)
        emit_entrants_outputs(str(tmp_path / "recompute"), cfg, expected, (mean, std))
        assert (read_bytes_by_name(tmp_path / "cli")
                == read_bytes_by_name(tmp_path / "recompute"))

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


class TestOneResolve:
    """A command reads and resolves its scenario once, its run flags edited
    into the file's run section, and keeps the file's digest."""

    @pytest.fixture()
    def resolves(self, monkeypatch):
        """The arguments of each `config._resolve` call, in order."""
        calls, resolve = [], config._resolve
        monkeypatch.setattr(config, "_resolve", lambda *a: calls.append(a) or resolve(*a))
        return calls

    @pytest.mark.parametrize("argv", [
        ["simulate", "--reps", "3", "--seed", "2", "--percentiles", "5,50,95",
         "--stochastic", "entrants"],
        ["entrants", "--reps", "2", "--seed", "2"],
        ["project"],
    ], ids=lambda argv: argv[0])
    def test_a_command_resolves_its_scenario_once(self, capsys, resolves, scenario, tmp_path,
                                                  argv):
        out = tmp_path / "run"
        assert run(capsys, *argv, "--config", scenario, "--out", str(out))[0] == 0
        assert len(resolves) == 1
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["config_sha256"] == load_config(scenario).source_digest

    def test_validate_resolves_its_scenario_once(self, capsys, resolves, scenario):
        code, out, _ = run(capsys, "validate", "--config", scenario)
        assert code == 0 and len(resolves) == 1
        assert f"  sha256 {load_config(scenario).source_digest}\n" in out

    def test_a_bad_field_and_a_bad_run_flag_are_reported_together(self, capsys, tmp_path):
        from conftest import write_scenario
        path = write_scenario(str(tmp_path), tweaks={"economics": {"inflation": "high"}})
        out = tmp_path / "run"
        assert run(capsys, "simulate", "--config", path, "--reps", "0", "--out", str(out)) == (
            2, "", "error: run.n_reps: must be >= 1, got 0\n"
                   "error: economics.inflation: expected a number or a mapping, got str\n")
        assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "entrants"])
def test_a_run_too_large_for_memory_exits_3_with_one_error_line(command, tmp_path):
    # 10**8 replications pass the run checks, but each result or path array
    # takes 30.5 GiB; the child alone runs under a 3 GB address-space limit,
    # where allocating one fails at once
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (3 * 10**9, 3 * 10**9))

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-m", "paygsim.cli", command, "--reps", "100000000",
                          "--out", str(tmp_path / "out")],
                         env=dict(os.environ, PYTHONPATH=src), preexec_fn=limit,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 3, out.stderr
    assert out.stderr.startswith("error: out of memory: ")
    assert len(out.stderr.splitlines()) == 1
