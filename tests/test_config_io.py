import copy
import math
import os
import re

import numpy as np
import pytest
import yaml

from conftest import BASE_SCENARIO, write_scenario
from paygsim import (StochasticFlags, default_config_path, load_config,
                     run_deterministic_projection, run_simulation, stepwise_projection)
from paygsim.cli import main
from paygsim.config import _SCHEMA, _Field, _bool, _float, _int, _schedule
from paygsim.errors import ConfigError


class TestDefaultScenario:
    def test_loads_and_carries_the_headline_assumptions(self, cfg):
        assert cfg.first_year == 2006
        assert cfg.entry_age == 29
        assert cfg.economics.initial_assets == 2_067_793_989.0
        assert cfg.economics.admin_base == 28_447_830.0
        assert cfg.economics.admin_growth == 0.05
        assert cfg.economics.expected_return.value(2030) == 0.034
        assert cfg.economics.deviations.phi == -0.612
        assert cfg.economics.deviations.sigma == 0.03667
        assert cfg.contrib_subjective.rate.value(2020) == 0.107
        # the integrative rate is higher for the first flow years only
        assert cfg.contrib_integrative.rate.value(2006) == 0.04
        assert cfg.contrib_integrative.rate.value(2009) == 0.04
        assert cfg.contrib_integrative.rate.value(2010) == 0.02
        assert cfg.economics.inflation.value(2006) == 0.02
        assert cfg.economics.inflation.value(2040) == 0.016

    def test_digest_is_stable(self, cfg):
        again = load_config(default_config_path())
        assert again.source_digest == cfg.source_digest
        assert len(cfg.source_digest) == 64

    def test_run_defaults(self, cfg):
        assert cfg.run.flags == StochasticFlags(True, True, True)
        assert cfg.run.probes == tuple(sorted(cfg.run.probes))
        assert all(cfg.first_year <= y <= cfg.last_year for y in cfg.run.moments_years)


class TestSmallScenario:
    def test_loads(self, small_scenario):
        cfg = load_config(small_scenario)
        assert cfg.years == list(range(2006, 2017))
        assert cfg.census.total() == 200.0
        assert cfg.run.seed == 11

    def test_with_run_and_with_flags(self, small_scenario):
        cfg = load_config(small_scenario)
        off = cfg.with_run(flags=StochasticFlags.none())
        assert off.run.flags.names() == ()
        assert off.run.seed == cfg.run.seed
        re = cfg.with_run(seed=99, n_reps=3)
        assert (re.run.seed, re.run.n_reps) == (99, 3)

    def test_n_reps_is_capped_at_the_stream_id_range(self, small_scenario):
        # replication i draws from stream id i, and stream ids are below 2**32
        cfg = load_config(small_scenario)
        assert cfg.with_run(n_reps=2**32).run.n_reps == 2**32
        with pytest.raises(ConfigError) as exc:
            cfg.with_run(n_reps=2**32 + 1)
        assert exc.value.messages == ["run.n_reps: must be <= 2**32, got 4294967297"]

    @pytest.mark.parametrize("change, field", [
        ({"n_reps": 0}, "run.n_reps"), ({"n_reps": -3}, "run.n_reps"),
        ({"seed": -1}, "run.seed"),
        ({"probes": (50.0, 5.0)}, "run.percentile_probes"),
        ({"probes": (5.0, 100.5)}, "run.percentile_probes"),
        ({"probes": (-1.0,)}, "run.percentile_probes"),
        # the ends of the range are not probes
        ({"probes": (0.0, 50.0, 100.0)}, "run.percentile_probes"),
        ({"probes": (0.0,)}, "run.percentile_probes"),
        ({"probes": (100.0,)}, "run.percentile_probes"),
        ({"probes": ()}, "run.percentile_probes"),
        ({"probes": (5.0, 5.0, 50.0)}, "run.percentile_probes"),
        ({"moments_years": (1900,)}, "run.moments_years"),
        ({"moments_years": (2010, 2017)}, "run.moments_years"),
    ])
    def test_with_run_validates(self, small_scenario, change, field):
        cfg = load_config(small_scenario)
        with pytest.raises(ConfigError, match=field):
            cfg.with_run(**change)

    def test_with_run_keeps_the_horizon_ends(self, small_scenario):
        cfg = load_config(small_scenario).with_run(moments_years=(2006, 2016))
        assert cfg.run.moments_years == (2006, 2016)

    def test_workers_must_be_positive(self, small_scenario):
        with pytest.raises(ConfigError, match="workers"):
            run_simulation(load_config(small_scenario), workers=0)

    def test_flags_names(self):
        assert StochasticFlags(True, False, True).names() == ("entrants", "returns")
        assert StochasticFlags.none().names() == ()
        assert StochasticFlags.only("mortality").names() == ("mortality",)


    @pytest.mark.parametrize("names", [("entrant",), ("mortality", "Returns")])
    def test_flags_only_rejects_an_unknown_family(self, names):
        with pytest.raises(ConfigError, match="unknown shock family .* expected one of "
                                              "entrants, mortality, returns"):
            StochasticFlags.only(*names)

class TestBrokenScenarios:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.yaml"))

    def test_invalid_yaml(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("horizon: [unclosed\n")
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_config(str(p))

    def test_negative_seed_in_file(self, tmp_path):
        path = write_scenario(str(tmp_path), tweaks={"run": {"seed": -2}})
        with pytest.raises(ConfigError, match="run.seed"):
            load_config(path)

    def test_non_mapping_top_level(self, tmp_path):
        p = tmp_path / "list.yaml"
        p.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError, match="mapping"):
            load_config(str(p))

    def test_nonstationary_phi_names_the_field(self, tmp_path):
        path = write_scenario(str(tmp_path), tweaks={
            "economics": {"return_deviations": {"phi": 1.2, "sigma": 0.02, "x0": 0.0}}})
        with pytest.raises(ConfigError, match="stationarity") as exc:
            load_config(path)
        assert any("economics.return_deviations" in m for m in exc.value.messages)

    def test_missing_population_years_named(self, tmp_path):
        rows = ["year,sex,expected,sigma"] + [
            f"{y},{s},1000,100" for y in range(1995, 2017) if y != 2000
            for s in ("male", "female")]
        path = write_scenario(str(tmp_path), csv_overrides={"population.csv": rows})
        with pytest.raises(ConfigError, match="2000") as exc:
            load_config(path)
        assert any("population" in m for m in exc.value.messages)

    def test_missing_required_field_reports_its_path(self, tmp_path):
        path = write_scenario(str(tmp_path), tweaks={"economics": {"initial_assets": None}})
        with pytest.raises(ConfigError, match="economics.initial_assets"):
            load_config(path)

    def test_several_problems_collected_at_once(self, tmp_path):
        path = write_scenario(str(tmp_path), tweaks={
            "run": {"n_reps": 0, "percentile_probes": [50.0, 5.0], "moments_years": [2005]},
            "contributions": {"subjective": {"rate": 1.5, "profile_csv": "income.csv"}},
        })
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        text = "\n".join(exc.value.messages)
        for field in ("run.n_reps", "run.percentile_probes", "run.moments_years",
                      "contributions.subjective.rate"):
            assert text.count(field) == 1, field

    @pytest.mark.parametrize("probes", [[0.0, 50.0], [50.0, 100.0], [50.0, 5.0], ["x"], []])
    def test_probes_must_be_increasing_and_interior(self, tmp_path, probes):
        path = write_scenario(str(tmp_path), tweaks={"run": {"percentile_probes": probes}})
        with pytest.raises(ConfigError, match="run.percentile_probes"):
            load_config(path)

    def test_moments_years_must_be_inside_horizon(self, tmp_path):
        path = write_scenario(str(tmp_path), tweaks={"run": {"moments_years": [2005]}})
        with pytest.raises(ConfigError, match="moments_years"):
            load_config(path)

    def test_horizon_order(self, tmp_path):
        path = write_scenario(str(tmp_path), tweaks={
            "horizon": {"first_year": 2016, "last_year": 2006}})
        with pytest.raises(ConfigError, match="horizon.last_year"):
            load_config(path)

    def test_census_seniority_ahead_of_entry_age(self, tmp_path):
        rows = ["sex,age,seniority,status,count", "male,31,5,active,1"]
        path = write_scenario(str(tmp_path), csv_overrides={"census.csv": rows})
        with pytest.raises(ConfigError, match="seniority"):
            load_config(path)

    # the grid holds both sexes at ages 30 to 50
    @pytest.mark.parametrize("sexes, ages, error", [
        (("male", "female"), range(30, 45), "does not cover the cohort grid"),
        (("male", "female"), range(31, 51), "does not cover the cohort grid"),
        (("male",), range(30, 51), "no row for sex 'female'"),
        # a table with a header and no rows
        (("male", "female"), range(0), "no usable rows"),
    ])
    def test_mortality_not_covering_grid(self, tmp_path, sexes, ages, error):
        rows = ["sex,age,q0,drift,sigma"] + [
            f"{s},{a},0.01,0.0,0.005" for s in sexes for a in ages]
        path = write_scenario(str(tmp_path), csv_overrides={"mortality.csv": rows})
        with pytest.raises(ConfigError, match=error):
            load_config(path)

    def test_missing_csv_column(self, tmp_path):
        rows = ["sex,age,count", "male,30,5"]
        path = write_scenario(str(tmp_path), csv_overrides={"census.csv": rows})
        with pytest.raises(ConfigError, match="missing columns"):
            load_config(path)

    def test_unknown_sex_in_csv(self, tmp_path):
        rows = ["year,sex,expected,sigma", "1995,dog,1,0"]
        path = write_scenario(str(tmp_path), csv_overrides={"population.csv": rows})
        with pytest.raises(ConfigError, match="dog"):
            load_config(path)

    # a row short of a key column, or with a key that is not an integer,
    # for each loader; the comment line counts, so the bad row is on line 5
    @pytest.mark.parametrize("table, header, row, column", [
        ("census.csv", "sex,age,seniority,status,count", "male", "age"),
        ("census.csv", "sex,age,seniority,status,count", "male,35", "seniority"),
        ("census.csv", "age,seniority,sex,status,count", "35,5", "sex"),
        ("census.csv", "sex,age,seniority,status,count", "male,3x,5,active,1", "age"),
        ("population.csv", "year,sex,expected,sigma", "1995", "sex"),
        ("population.csv", "sex,year,expected,sigma", "male", "year"),
        ("population.csv", "year,sex,expected,sigma", "19.5,male,1,0", "year"),
        ("mortality.csv", "sex,age,q0,drift,sigma", "male", "age"),
        ("mortality.csv", "age,sex,q0,drift,sigma", "30", "sex"),
        ("income.csv", "sex,age,amount", "male", "age"),
        ("income.csv", "age,amount,sex", "30,50000", "sex"),
        ("pensions.csv", "age,sex,amount", "", "age"),
    ])
    def test_row_short_of_a_key_column_names_file_line_and_column(
            self, tmp_path, table, header, row, column):
        from conftest import BASE_CSVS
        cells = [dict(zip(BASE_CSVS[table][0].split(","), r.split(",")))
                 for r in BASE_CSVS[table][1:3]]
        good = [",".join(c[k] for k in header.split(",")) for c in cells]
        rows = ["# a comment line", header, *good, row or ","]
        path = write_scenario(str(tmp_path), csv_overrides={table: rows})
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert len(exc.value.messages) == 1
        message = exc.value.messages[0]
        assert table in message and "line 5:" in message and column in message
        assert "NoneType" not in message

    def test_empty_sex_cell_is_for_every_sex(self, tmp_path):
        # an empty cell, unlike a missing one, is a row for every sex
        rows = ["age,amount,sex"] + [f"{a},50000," for a in range(30, 51)]
        cfg = load_config(write_scenario(str(tmp_path), csv_overrides={"income.csv": rows}))
        assert np.all(cfg.contrib_subjective.profile.values == 50000.0)

    def test_non_finite_cell_of_a_table_for_every_sex(self, tmp_path):
        # a row without a sex applies to all sexes, and the error says so
        rows = ["age,amount"] + [f"{a},50000" for a in range(30, 40)] + ["40,inf"]
        path = write_scenario(str(tmp_path), csv_overrides={"income.csv": rows})
        with pytest.raises(ConfigError, match="amount 'inf' for every sex age 40") as exc:
            load_config(path)
        assert len(exc.value.messages) == 1

    def test_broken_conversion_table_is_reported_once(self, tmp_path):
        path = write_scenario(str(tmp_path), tweaks={"benefits": {"types": {"old_age": {
            "kind": "notional_account", "conversion_csv": "absent.csv"}}}})
        with pytest.raises(ConfigError, match="absent.csv") as exc:
            load_config(path)
        assert len(exc.value.messages) == 1

    def test_retirement_thresholds_required(self, tmp_path):
        path = write_scenario(str(tmp_path), tweaks={
            "retirement": {"benefit_types": ["old_age", "early"],
                           "thresholds": {"old_age": {"min_age": 40, "min_seniority": 5}}}})
        with pytest.raises(ConfigError, match="retirement.thresholds.early"):
            load_config(path)


# The small scenario projects 2006-2016, with arrivals lagged 5 + 4 years and
# prices stated at 2005. Its notional accounts are backfilled: the most
# senior census active (seniority 8) left the one-year exemption in 2000, so
# the subjective rate is read from 2000.
HORIZON = {y: 0.1 for y in range(2006, 2017)}


class TestEachScheduleIsCheckedWhereTheModelReadsIt:
    @pytest.mark.parametrize("tweaks, field, detail", [
        # a history year without a subjective rate
        ({"contributions": {"subjective": {"rate": {"overrides": {2006: 0.1}}}}},
         "contributions.subjective.rate", "no value for year 2000"),
        ({"contributions": {"subjective": {"rate": {"overrides": HORIZON}}}},
         "contributions.subjective.rate", "no value for year 2000"),
        # an out-of-range rate credited before the census
        ({"contributions": {"subjective": {"rate": {"default": 0.1, "overrides": {2003: 1.5}}}}},
         "contributions.subjective.rate", "rate at 2003 outside [0, 1]: 1.5"),
        # the price index compounds inflation from the year after the base year
        ({"economics": {"profile_base_year": 2000, "inflation": {"overrides": HORIZON}}},
         "economics.inflation", "no value for year 2001"),
        ({"economics": {"expected_return": {"overrides": {2006: 0.03}}}},
         "economics.expected_return", "no value for year 2007"),
        ({"economics": {"expected_return": float("nan")}},
         "economics.expected_return", "expected_return at 2006 outside [-inf, inf]: nan"),
        ({"retirement": {"thresholds": {"old_age": {
            "min_age": {"overrides": {y: 40 for y in range(2006, 2016)}},
            "min_seniority": 5}}}},
         "retirement.thresholds.old_age.min_age", "no value for year 2016"),
        # factor moments are read from the enrolment year of the first arrivals
        ({"entrants": {"factors": {"male": {"enrolment": {"mean": -0.1, "sigma": 0.02}}}}},
         "entrants.factors.male.enrolment.mean", "mean at 1997 outside [0, inf]: -0.1"),
        ({"entrants": {"factors": {"female": {"graduation": {"mean": 0.5, "sigma": -0.02}}}}},
         "entrants.factors.female.graduation.sigma", "sigma at 1997 outside [0, inf]: -0.02"),
        ({"entrants": {"factors": {"male": {"admission": {
            "mean": {"overrides": {y: 0.2 for y in range(1998, 2017)}}, "sigma": 0.02}}}}},
         "entrants.factors.male.admission.mean", "no value for year 1997"),
        # the whole-scenario checks, now made where their field is parsed
        ({"mortality": {"base_year": 2007}}, "mortality.base_year", "after the first"),
        ({"benefits": {"accrual_rate": -0.01}}, "benefits.accrual_rate", "must be >= 0"),
        ({"economics": {"initial_assets": float("inf")}},
         "economics.initial_assets", "must be finite"),
    ])
    def test_one_message_naming_the_field(self, tmp_path, tweaks, field, detail):
        with pytest.raises(ConfigError) as exc:
            load_config(write_scenario(str(tmp_path), tweaks=tweaks))
        [message] = exc.value.messages
        assert message.startswith(f"{field}: ") and detail in message

    def test_a_gap_is_reported_with_an_earlier_problem(self, tmp_path):
        path = write_scenario(str(tmp_path), tweaks={
            "contributions": {"subjective": {"rate": {"default": 0.1, "overrides": {2010: 1.5}}}},
            "economics": {"inflation": {"overrides": {2006: 0.02}}}})
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert exc.value.messages == [
            "contributions.subjective.rate: rate at 2010 outside [0, 1]: 1.5",
            "economics.inflation: no value for year 2007 (values are read for 2006-2016)"]

    # values at exactly the years checked are enough for both projections
    @pytest.mark.parametrize("tweaks", [
        {"contributions": {"subjective": {"rate": {
            "overrides": {y: 0.1 for y in range(2000, 2017)}}}}},
        {"benefits": {"backfill_notional": False},
         "contributions": {"subjective": {"rate": {"overrides": HORIZON}}}},
        {"economics": {"profile_base_year": 2000,
                       "inflation": {"overrides": {y: 0.02 for y in range(2001, 2017)}}}},
        {"entrants": {"factors": {"male": {"enrolment": {
            "mean": {"overrides": {y: 0.1 for y in range(1997, 2017)}}, "sigma": 0.02}}}}},
    ])
    def test_the_checked_years_are_the_years_read(self, tmp_path, tweaks):
        cfg = load_config(write_scenario(str(tmp_path), tweaks=tweaks))
        det, grid = run_deterministic_projection(cfg), stepwise_projection(cfg)
        assert np.array_equal(det.ledger["value_end"], grid.ledger["value_end"])

    @pytest.mark.parametrize("tweaks, field", [
        ({"horizon": {"first_year": None}}, "horizon.first_year"),
        ({"population": {"census_csv": None}}, "population.census_csv"),
        ({"entrants": {"study_years": "x"}}, "entrants.study_years"),
        ({"entrants": {"factors": {"male": {"membership": None}}}},
         "entrants.factors.male.membership"),
        ({"retirement": {"thresholds": {"old_age": {"min_age": None, "min_seniority": 5}}}},
         "retirement.thresholds.old_age.min_age"),
        ({"contributions": {"exemption_years": "x"}}, "contributions.exemption_years"),
        ({"economics": {"initial_assets": None}}, "economics.initial_assets"),
    ])
    def test_one_mistake_gives_one_message(self, tmp_path, tweaks, field):
        with pytest.raises(ConfigError) as exc:
            load_config(write_scenario(str(tmp_path), tweaks=tweaks))
        assert len(exc.value.messages) == 1, exc.value.messages
        assert exc.value.messages[0].startswith(f"{field}: ")


class TestFieldKinds:
    """Flag fields take only YAML booleans, integer fields only integers and
    number fields only numbers;
    anything else is an error naming the field, not a silent conversion."""

    @pytest.mark.parametrize("tweaks, message", [
        # a flag: a quoted boolean would read as true
        ({"run": {"stochastic": {"entrants": "false"}}},
         "run.stochastic.entrants: expected true or false, got 'false'"),
        ({"benefits": {"backfill_notional": "no"}},
         "benefits.backfill_notional: expected true or false, got 'no'"),
        # an integer given a boolean, which would read as 1
        ({"run": {"seed": True}}, "run.seed: expected an integer, got True"),
        # an integer given a non-integral number, which would be truncated
        ({"run": {"n_reps": 1000.7}}, "run.n_reps: expected an integer, got 1000.7"),
        ({"run": {"seed": float("inf")}}, "run.seed: expected an integer, got inf"),
        # a quoted number is not an integer
        ({"run": {"n_reps": "12"}}, "run.n_reps: expected an integer, got '12'"),
        ({"horizon": {"last_year": "2016"}}, "horizon.last_year: expected an integer, got '2016'"),
        # a list field given one value, and a file given a number
        ({"run": {"moments_years": "2010"}},
         "run.moments_years: expected a list of integers, got '2010'"),
        ({"run": {"percentile_probes": 50}},
         "run.percentile_probes: expected a list of numbers, got 50"),
        ({"mortality": {"table_csv": 3}}, "mortality.table_csv: expected a file path, got 3"),
        # a schedule's override years are integers too
        ({"economics": {"inflation": {"default": 0.02, "overrides": {2010.7: 0.05}}}},
         "economics.inflation: expected an integer, got 2010.7"),
        ({"economics": {"inflation": {"default": 0.02, "overrides": {True: 0.09}}}},
         "economics.inflation: expected an integer, got True"),
    ])
    def test_a_wrong_kind_is_one_message_naming_the_field(self, tmp_path, tweaks, message):
        with pytest.raises(ConfigError) as exc:
            load_config(write_scenario(str(tmp_path), tweaks=tweaks))
        assert exc.value.messages == [message]

    @pytest.mark.parametrize("value", [True, "0.05"])
    @pytest.mark.parametrize("field, tweak", [
        ("benefits.accrual_rate", {"benefits": {"accrual_rate": ...}}),
        ("economics.initial_assets", {"economics": {"initial_assets": ...}}),
        ("economics.admin_base", {"economics": {"admin_base": ...}}),
        ("economics.admin_growth", {"economics": {"admin_growth": ...}}),
        ("economics.return_deviations.phi", {"economics": {"return_deviations": {"phi": ...}}}),
        ("economics.return_deviations.sigma",
         {"economics": {"return_deviations": {"sigma": ...}}}),
        ("economics.return_deviations.x0", {"economics": {"return_deviations": {"x0": ...}}}),
        ("run.percentile_probes", {"run": {"percentile_probes": [...]}}),
        # a schedule's mapping form: its default and an override
        ("economics.inflation", {"economics": {"inflation": {"default": ...}}}),
        ("economics.inflation",
         {"economics": {"inflation": {"default": 0.02, "overrides": {2010: ...}}}}),
    ], ids=lambda p: p if isinstance(p, str) else None)
    def test_a_float_field_takes_only_a_number(self, tmp_path, capsys, field, tweak, value):
        # a boolean would read as 1.0 and a quoted number would be parsed;
        # the value goes where the tweak has `...`
        def fill(node):
            if isinstance(node, dict):
                return {k: fill(v) for k, v in node.items()}
            if isinstance(node, list):
                return [fill(v) for v in node]
            return value if node is ... else node

        path = write_scenario(str(tmp_path), tweaks=fill(tweak))
        message = f"{field}: expected a number, got {value!r}"
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert exc.value.messages == [message]
        assert main(["validate", "--config", path]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_wrong_kinds_are_collected_with_the_other_errors(self, tmp_path, capsys):
        path = write_scenario(str(tmp_path), tweaks={
            "run": {"stochastic": {"mortality": 1}},
            "benefits": {"backfill_notional": "yes", "accrual_rate": -0.01},
            "economics": {"admin_base_year": 2006.5}})
        assert main(["validate", "--config", path]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: run.stochastic.mortality: expected true or false, got 1",
            "error: benefits.backfill_notional: expected true or false, got 'yes'",
            "error: benefits.accrual_rate: must be >= 0, got -0.01",
            "error: economics.admin_base_year: expected an integer, got 2006.5"]

    def test_integral_floats_and_yaml_booleans_still_load(self, tmp_path):
        cfg = load_config(write_scenario(str(tmp_path), tweaks={
            "run": {"n_reps": 12.0, "stochastic": {"returns": False}},
            "benefits": {"backfill_notional": False}}))
        assert cfg.run.n_reps == 12 and type(cfg.run.n_reps) is int
        assert cfg.run.flags == StochasticFlags(entrants=True, mortality=True, returns=False)
        assert cfg.backfill_notional is False


def test_a_sex_the_tables_do_not_have_is_one_message(tmp_path, capsys):
    path = write_scenario(str(tmp_path), tweaks={"population": {"sexes": ["x"]}})
    assert main(["validate", "--config", path]) == 2
    assert capsys.readouterr().err == (
        "error: population.sexes: got ['x'], but mortality.table_csv has rows "
        "for 'male', 'female'\n")


@pytest.mark.parametrize("sexes", [["x"], ["male", "female", "x"], ["male", "x"]])
def test_a_contradicting_sex_list_keeps_unrelated_errors(tmp_path, capsys, sexes):
    path = write_scenario(str(tmp_path), tweaks={"population": {"sexes": sexes},
                                                 "economics": {"admin_growth": "0.05"}})
    assert main(["validate", "--config", path]) == 2
    assert capsys.readouterr().err == (
        "error: economics.admin_growth: expected a number, got '0.05'\n"
        f"error: population.sexes: got {sexes!r}, but mortality.table_csv has rows "
        "for 'male', 'female'\n")


def test_a_listed_sex_no_table_has_is_one_message(tmp_path, capsys):
    path = write_scenario(str(tmp_path), tweaks={"population": {"sexes": ["male", "female", "x"]}})
    assert main(["validate", "--config", path]) == 2
    assert capsys.readouterr().err == (
        "error: population.sexes: got ['male', 'female', 'x'], but mortality.table_csv has "
        "rows for 'male', 'female'\n")


def test_a_sex_named_total_is_refused(tmp_path, capsys):
    # its arrivals series would be entrants_total, the name of the sum over
    # the sexes, and drop out of every output
    path = write_scenario(str(tmp_path))
    for file in tmp_path.iterdir():
        file.write_text(file.read_text(encoding="utf-8").replace("female", "total"),
                        encoding="utf-8")
    message = ("population.sexes: a sex cannot be named 'total': entrants_total is "
               "the series of all arrivals")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert exc.value.messages == [message]
    assert main(["validate", "--config", path]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("field, names", [
    ("population.sexes", ["male", "male"]),
    # the engine and the grid oracle would pay such a type differently
    ("retirement.benefit_types", ["old_age", "old_age"]),
])
def test_a_repeated_name_is_one_message(tmp_path, field, names):
    section, key = field.split(".")
    with pytest.raises(ConfigError) as exc:
        load_config(write_scenario(str(tmp_path), tweaks={section: {key: names}}))
    assert exc.value.messages == [
        f"{field}: expected a non-empty list of distinct names, got {names!r}"]


def _with_thresholds(tmp_path, thresholds: dict) -> str:
    """The small scenario with its old_age thresholds replaced."""
    path = write_scenario(str(tmp_path))
    with open(path, encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    raw["retirement"]["thresholds"]["old_age"] = thresholds
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(raw, fh)
    return path


def test_per_sex_thresholds(tmp_path):
    path = _with_thresholds(tmp_path, {"male": {"min_age": 40, "min_seniority": 5},
                                       "female": {"min_age": 38, "min_seniority": 4}})
    thresholds = load_config(path).retirement.thresholds["old_age"]
    assert [(a.value(2010), s.value(2010)) for a, s in thresholds.values()] == [(40, 5), (38, 4)]


def test_a_per_sex_threshold_error_names_the_sex(tmp_path):
    path = _with_thresholds(tmp_path, {"male": {"min_age": 40, "min_seniority": 5},
                                       "female": {"min_age": 40}})
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert exc.value.messages == [
        "retirement.thresholds.old_age.female.min_seniority: missing required field"]


@pytest.mark.parametrize("tweaks, message", [
    ({"economics": {"admin_grwoth": 0.05}},
     "economics.admin_grwoth: unknown key; did you mean 'admin_growth'?"),
    ({"run": {"stochastic": {"entrant": False}}},
     "run.stochastic.entrant: unknown key; did you mean 'entrants'?"),
    ({"entrants": {"factors": {"mael": BASE_SCENARIO["entrants"]["factors"]["male"]}}},
     "entrants.factors.mael: unknown key; did you mean 'male'?"),
    ({"econmics": {"admin_growth": 0.05}}, "econmics: unknown key; did you mean 'economics'?"),
    ({"contributions": {"voluntary": {"rate": 0.01}}},
     "contributions.voluntary: unknown key; did you mean 'integrative'?"),
    # a type that retirement.benefit_types does not list
    ({"benefits": {"types": {"disability": {"kind": "notional_account",
                                           "conversion_csv": "conversion.csv"}}}},
     "benefits.types.disability: unknown key; did you mean 'old_age'?"),
    # the merged type keeps its conversion_csv, which a fixed_profile type does not read
    ({"benefits": {"types": {"old_age": {"kind": "fixed_profile", "profile_csv": "pensions.csv"}}}},
     "benefits.types.old_age.conversion_csv: unknown key; did you mean 'profile_csv'?"),
])
def test_an_unknown_key_is_one_message_with_the_closest_key(tmp_path, capsys, tweaks, message):
    path = write_scenario(str(tmp_path), tweaks=tweaks)
    assert main(["validate", "--config", path]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("repeat, message", [
    # a second section would replace the first one whole
    (lambda text: text + "run:\n  seed: 9\n", "run: given on line 4 and again on line {end}"),
    (lambda text: text.replace("  seed: 11\n", "  seed: 11\n  seed: 5\n"),
     "run.seed: given on line 5 and again on line 6"),
], ids=["section", "nested"])
def test_a_repeated_key_is_refused_with_both_lines(tmp_path, capsys, repeat, message):
    path = write_scenario(str(tmp_path))
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert text.startswith("horizon:\n  first_year: 2006\n  last_year: 2016\nrun:\n  seed: 11\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(repeat(text))
    assert main(["validate", "--config", path]) == 2
    end = text.count("\n") + 1
    assert capsys.readouterr().err == f"error: {message.format(end=end)}\n"


def test_a_key_given_beside_a_merge_key_is_no_repeat(tmp_path):
    path = write_scenario(str(tmp_path))
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    old = "  subjective:\n    rate: 0.1\n    profile_csv: income.csv\n  integrative:\n"
    assert old in text
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(old, old.replace("subjective:", "subjective: &subjective")
                              + "    <<: *subjective\n"))
    merged, plain = load_config(path), load_config(write_scenario(str(tmp_path)))
    got, want = merged.contrib_integrative, plain.contrib_integrative
    assert got.rate == want.rate
    assert np.array_equal(got.profile.values, want.profile.values)


SMALL_NAMES = {"<sex>": "male", "<type>": "old_age", "<factor>": "enrolment"}


def _schema_fields(schema: dict = _SCHEMA, path: tuple = (), names: dict = SMALL_NAMES):
    """(path, field) for every field of the scenario schema, each wildcard
    at its name in `names` and each optional level left out."""
    for name, spec in schema.items():
        spec = spec[1] if isinstance(spec, tuple) else spec
        at = path if name.endswith("?") else path + (names.get(name, name),)
        if isinstance(spec, dict):
            yield from _schema_fields(spec, at, names)
        else:
            yield at, spec


def test_readme_lists_exactly_the_schedules():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        table = fh.read().split("\n| schedule ", 1)[1].split("\n\n", 1)[0]
    listed = re.findall(r"^\| `([^`]+)`", table, flags=re.M)
    schedules = [".".join(path) for path, field in _schema_fields(names={})
                 if field.kind is _schedule]
    assert sorted(listed) == sorted(schedules)


def _wrong_values(field: _Field) -> dict:
    """A value of every wrong kind for the field, and one out of its bounds."""
    values = {"a quoted number": "12", "a list": [[1]], "a mapping": {"a": 1}, "null": None}
    if field.kind is not _bool:
        values["a boolean"] = True
    if field.kind in (_int, _float, _schedule) and field.lo > -math.inf:
        values["below its bounds"] = field.lo - 1
    elif field.hi < math.inf:
        values["above its bounds"] = field.hi + 1
    elif field.kind is _float:
        values["not finite"] = math.inf
    elif field.kind is _schedule:
        values["not a number"] = math.nan
    return values


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    """A directory holding the small scenario's CSV files."""
    return os.path.dirname(write_scenario(str(tmp_path_factory.mktemp("fuzz"))))


@pytest.mark.parametrize("path, field, what, value", [
    (path, field, what, value)
    for path, field in _schema_fields() for what, value in _wrong_values(field).items()],
    ids=lambda p: ".".join(p) if isinstance(p, tuple) else p if isinstance(p, str) else "")
def test_a_wrong_value_in_any_field_is_one_message(csv_dir, capsys, path, field, what, value):
    raw = copy.deepcopy(BASE_SCENARIO)
    node = raw
    for key in path[:-1]:
        node = node.setdefault(key, {})
    if field.when is not None:  # the field exists only for one kind of benefit
        node.clear()
        node[field.when[0]] = field.when[1]
    node[path[-1]] = value
    scenario = os.path.join(csv_dir, "fuzzed.yaml")
    with open(scenario, "w", encoding="utf-8") as fh:
        yaml.safe_dump(raw, fh)
    assert main(["validate", "--config", scenario]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {'.'.join(path)}: ")


def test_thresholds_for_every_sex_and_for_each_sex_may_be_given_together(tmp_path):
    # the type's own thresholds are read for a sex without its own mapping
    both = {"min_age": 45, "min_seniority": 5}
    for per_sex in ({"female": both}, {"male": both, "female": both}):
        load_config(_with_thresholds(tmp_path, {"min_age": 40, "min_seniority": 5, **per_sex}))


@pytest.mark.parametrize("field, value, detail", [
    ("pool_min_age", "x", "expected an integer, got 'x'"),
    ("pool_max_age", 25.5, "expected an integer, got 25.5"),
])
def test_a_bad_pool_age_is_reported_under_its_own_field(tmp_path, field, value, detail):
    with pytest.raises(ConfigError) as exc:
        load_config(write_scenario(str(tmp_path), tweaks={"entrants": {field: value}}))
    assert exc.value.messages == [f"entrants.{field}: {detail}"]


def _nested_fields(raw: dict, prefix=()):
    """The path of every section, mapping and list in a scenario."""
    for key, value in raw.items():
        if isinstance(value, (dict, list)):
            yield prefix + (key,)
            if isinstance(value, dict):
                yield from _nested_fields(value, prefix + (key,))


@pytest.mark.parametrize("value", [None, 3, "x"])
@pytest.mark.parametrize("field", [".".join(p) for p in _nested_fields(BASE_SCENARIO)])
def test_a_malformed_shape_is_reported_not_raised(tmp_path, capsys, field, value):
    tweaks = value
    for key in reversed(field.split(".")):
        tweaks = {key: tweaks}
    code = main(["validate", "--config", write_scenario(str(tmp_path), tweaks=tweaks)])
    err = capsys.readouterr().err
    assert code in (0, 2)
    assert all(line.startswith("error: ") for line in err.splitlines())
    if value is not None:  # null reads as absent where a field has a default
        assert code == 2


@pytest.mark.parametrize("tweaks, message", [
    ({"population": {"sexes": None}},
     "population.sexes: expected a non-empty list of distinct names, got None"),
    ({"population": {"sexes": []}},
     "population.sexes: expected a non-empty list of distinct names, got []"),
    ({"retirement": {"benefit_types": 3}},
     "retirement.benefit_types: expected a non-empty list of distinct names, got 3"),
    ({"entrants": {"factors": 3}}, "entrants.factors: expected a mapping, got int"),
    ({"economics": {"return_deviations": 3}},
     "economics.return_deviations: expected a mapping, got int"),
    ({"run": {"stochastic": 3}}, "run.stochastic: expected a mapping, got int"),
    ({"horizon": "x"}, "horizon: expected a mapping, got str"),
    ({"retirement": {"thresholds": {"old_age": {"male": 3}}}},
     "retirement.thresholds.old_age.male: expected a mapping, got int"),
    ({"entrants": {"factors": {"male": {"enrolment": [0.1]}}}},
     "entrants.factors.male.enrolment: expected a mapping, got list"),
])
def test_a_malformed_shape_names_its_field(tmp_path, tweaks, message):
    with pytest.raises(ConfigError) as exc:
        load_config(write_scenario(str(tmp_path), tweaks=tweaks))
    assert exc.value.messages == [message]


class TestDigestTracksEveryInput:
    def test_yaml_edit_changes_digest(self, tmp_path):
        path = write_scenario(str(tmp_path))
        before = load_config(path).source_digest
        path2 = write_scenario(str(tmp_path), tweaks={"run": {"seed": 12}})
        assert load_config(path2).source_digest != before

    def test_csv_edit_changes_digest(self, tmp_path):
        path = write_scenario(str(tmp_path))
        before = load_config(path).source_digest
        rows = ["sex,age,q0,drift,sigma"] + [
            f"{s},{a},0.011,0.0,0.005" for s in ("male", "female") for a in range(30, 51)]
        write_scenario(str(tmp_path), csv_overrides={"mortality.csv": rows})
        assert load_config(path).source_digest != before

    def test_same_inputs_same_digest(self, tmp_path):
        path = write_scenario(str(tmp_path))
        assert load_config(path).source_digest == load_config(path).source_digest


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
@pytest.mark.parametrize("which", ["bundled", "small"])
def test_c_and_python_yaml_loaders_agree(tmp_path, which):
    path = default_config_path() if which == "bundled" else write_scenario(str(tmp_path))
    with open(path, "rb") as fh:
        raw = fh.read()
    assert yaml.load(raw, Loader=yaml.CSafeLoader) == yaml.load(raw, Loader=yaml.SafeLoader)
