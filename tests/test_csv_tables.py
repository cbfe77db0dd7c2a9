"""How the scenario's CSV tables are read: which rows count, which row a
broken table is reported at, and what two rows for one cell mean."""

import csv
import math
import os
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BASE_CSVS, write_scenario
from paygsim import default_config_path, load_config
from paygsim.cli import main
from paygsim.cohorts import STATUS_NAMES
from paygsim.config import load_age_table, load_census, load_mortality, load_population_series
from paygsim.errors import ConfigError

BUNDLED_DIR = os.path.dirname(default_config_path())
BUNDLED_CSVS = sorted(f for f in os.listdir(BUNDLED_DIR) if f.endswith(".csv"))


def _tables(cfg) -> dict:
    """Every array and series the loaders build, by name."""
    out = {"census": cfg.census,
           "population.expected": {s: m.mean.overrides for s, m in cfg.population.items()},
           "population.sigma": {s: m.sigma.overrides for s, m in cfg.population.items()},
           "subjective": cfg.contrib_subjective.profile,
           "integrative": cfg.contrib_integrative.profile,
           "pre_existing": cfg.pre_existing,
           **{f"mortality.{k}": getattr(cfg.mortality, k) for k in ("q0", "drift", "sigma")}}
    for name, rule in cfg.benefits.items():
        out[f"benefits.{name}"] = rule.table
    return out


def _assert_same_tables(a, b):
    ta, tb = _tables(a), _tables(b)
    assert list(ta) == list(tb)
    for name in ta:
        if isinstance(ta[name], dict):
            assert ta[name] == tb[name], name
        else:
            assert ta[name].shape == tb[name].shape, name
            assert ta[name].tobytes() == tb[name].tobytes(), name


@pytest.fixture()
def bundled_copy(tmp_path):
    """A copy of the bundled scenario and its tables, in a scratch directory."""
    for name in os.listdir(BUNDLED_DIR):
        shutil.copy(os.path.join(BUNDLED_DIR, name), tmp_path)
    return tmp_path


def test_tables_in_any_row_order_with_comments_and_blank_lines_load_alike(bundled_copy):
    for name in BUNDLED_CSVS:
        path = bundled_copy / name
        lines = path.read_text(encoding="utf-8").splitlines()
        header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        shuffled = lines[:header + 1]
        for k, row in enumerate(reversed(lines[header + 1:])):
            shuffled += [row, "# an interleaved comment" if k % 2 else ""]
        path.write_text("\n".join(shuffled) + "\n", encoding="utf-8")
    _assert_same_tables(load_config(str(bundled_copy / "default_scenario.yaml")),
                        load_config(default_config_path()))


def test_a_table_with_a_byte_order_mark_loads(bundled_copy):
    path = bundled_copy / "mortality_2006.csv"
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    cfg = load_config(str(bundled_copy / "default_scenario.yaml"))
    _assert_same_tables(cfg, load_config(default_config_path()))
    # the digest reads the bytes as they are
    assert cfg.source_digest != load_config(default_config_path()).source_digest


def test_a_table_with_unnamed_trailing_columns_loads(bundled_copy):
    path = bundled_copy / "mortality_2006.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(ln if ln.startswith("#") else ln + ",,"
                              for ln in lines) + "\n", encoding="utf-8")
    _assert_same_tables(load_config(str(bundled_copy / "default_scenario.yaml")),
                        load_config(default_config_path()))


def test_a_header_that_names_a_column_twice_is_refused(bundled_copy, capsys):
    # read by name, the second sigma column would otherwise be the one used
    path = bundled_copy / "mortality_2006.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(ln if ln.startswith("#") else ln + (",sigma" if "sigma" in ln
                                                                  else ",0.9")
                              for ln in lines) + "\n", encoding="utf-8")
    assert main(["validate", "--config", str(bundled_copy / "default_scenario.yaml")]) == 2
    assert capsys.readouterr().err == (
        f"error: mortality.table_csv: {path}: column 'sigma' appears twice in the header\n")


# each value column of the bundled tables, and the field that names its file
# first (both benefit types name conversion.csv)
VALUE_COLUMNS = [
    ("census_2006.csv", "count", "population.census_csv"),
    ("reference_population.csv", "expected", "entrants.population_csv"),
    ("reference_population.csv", "sigma", "entrants.population_csv"),
    ("mortality_2006.csv", "q0", "mortality.table_csv"),
    ("mortality_2006.csv", "drift", "mortality.table_csv"),
    ("mortality_2006.csv", "sigma", "mortality.table_csv"),
    ("income_2005.csv", "amount", "contributions.subjective.profile_csv"),
    ("turnover_2005.csv", "amount", "contributions.integrative.profile_csv"),
    ("pensions_2006.csv", "amount", "benefits.pre_existing_profile_csv"),
    ("conversion.csv", "coefficient", "benefits.types.vecchiaia.conversion_csv"),
]


@pytest.mark.parametrize("cell", ["nan", "x", "-1"])
@pytest.mark.parametrize("name, column, field", VALUE_COLUMNS)
def test_one_bad_cell_of_a_bundled_table_is_one_line_naming_its_file_line(
        bundled_copy, capsys, name, column, field, cell):
    path = bundled_copy / name
    lines = path.read_text(encoding="utf-8").splitlines()
    header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    line = header + 4  # the third data row, counting file lines from 1
    cells = lines[line - 1].split(",")
    cells[lines[header].split(",").index(column)] = cell
    lines[line - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    problem = ("is not a finite number" if cell != "-1" else
               "must be above -1" if column == "drift" else "is negative")
    assert main(["validate", "--config", str(bundled_copy / "default_scenario.yaml")]) == 2
    assert capsys.readouterr().err == (
        f"error: {field}: {path}: line {line}: {column} {cell!r} {problem}\n")


def test_a_second_row_for_a_mortality_cell_is_refused(bundled_copy):
    path = bundled_copy / "mortality_2006.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    first = lines.index(next(ln for ln in lines if ln.startswith("male,29,"))) + 1
    path.write_text("\n".join(lines + ["male,29,0.5,-0.01,2.5e-05"]) + "\n", encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        load_config(str(bundled_copy / "default_scenario.yaml"))
    assert exc.value.messages == [
        f"mortality.table_csv: {path}: line {len(lines) + 1}: sex 'male' age 29 "
        f"was given on line {first}"]


EVERY_SEX_INCOME = ["age,amount,sex"] + [f"{a},50000," for a in range(30, 51)]


# a table whose last line gives a cell again: the cell, and the line that
# gave it first; a row for every sex gives the cell of each sex
@pytest.mark.parametrize("table, lines, cell, first", [
    ("mortality.csv", BASE_CSVS["mortality.csv"] + ["female,31,0.01,0.0,0.005"],
     "sex 'female' age 31", 24),
    ("population.csv", BASE_CSVS["population.csv"] + ["2000,male,1000,100"],
     "sex 'male' year 2000", 12),
    ("income.csv", BASE_CSVS["income.csv"] + ["male,30,60000"], "sex 'male' age 30", 2),
    ("conversion.csv", BASE_CSVS["conversion.csv"] + ["female,35,0.07"],
     "sex 'female' age 35", 18),
    ("income.csv", EVERY_SEX_INCOME + ["40,1,female"], "sex 'female' age 40", 12),
    ("income.csv", BASE_CSVS["income.csv"] + [",40,1"], "sex 'male' age 40", 12),
    ("turnover.csv", ["age,amount"] + [f"{a},80000" for a in range(30, 51)] + ["40,1"],
     "sex 'male' age 40", 12),
])
def test_two_rows_for_one_cell_name_the_file_the_cell_and_both_lines(
        tmp_path, table, lines, cell, first):
    path = write_scenario(str(tmp_path), csv_overrides={table: lines})
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    [message] = exc.value.messages
    assert message.endswith(f"{os.path.join(str(tmp_path), table)}: line {len(lines)}: "
                            f"{cell} was given on line {first}")


# one row added to the small scenario's census, on line 10, for each check a
# census row must pass
@pytest.mark.parametrize("row, message", [
    ("dog,30,0,active,1", "line 10: unknown sex 'dog'"),
    ("male,29,0,active,1", "line 10: age 29 outside [30, 50]"),
    ("male,30,16,active,1", "line 10: seniority 16 outside [0, 15]"),
    ("male,30,0,working,1", "line 10: status must be one of ('active', 'retired'), "
                            "got 'working'"),
    ("male,30,0,active,-1", "line 10: count '-1' is negative"),
    ("male,31,2,retired,1", "line 10: seniority 2 at age 31 violates "
                            "seniority <= age - entry_age (30)"),
])
def test_each_census_check_names_the_file(tmp_path, row, message):
    rows = BASE_CSVS["census.csv"] + [row]
    path = write_scenario(str(tmp_path), csv_overrides={"census.csv": rows})
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert exc.value.messages == [
        f"population.census_csv: {os.path.join(str(tmp_path), 'census.csv')}: {message}"]


def test_census_rows_for_one_cell_add_up(tmp_path):
    once = load_config(write_scenario(str(tmp_path))).census
    rows = BASE_CSVS["census.csv"] + ["male,35,5,active,30"]
    twice = load_config(write_scenario(str(tmp_path), csv_overrides={"census.csv": rows}))
    assert twice.census[0, 0, 5, 5] == 2 * once[0, 0, 5, 5] == 60.0


# two bad rows: the earlier one fails a check that a row meets later than the
# later row's check, and the earlier row is the one reported
@pytest.mark.parametrize("table, rows, message", [
    ("population.csv", ["year,sex,expected,sigma", "1995,male,1000,100", "19x5,male,1000,100",
                        "1996,dog,1000,100"],
     "line 3: year '19x5' is not an integer"),
    ("population.csv", ["year,sex,expected,sigma", "1995,dog,1000,100", "19x5,male,1000,100"],
     "line 2: unknown sex 'dog'"),
    ("population.csv", ["year,sex,expected,sigma", "1995,male,1000,nan", "1996,male,inf,100"],
     "line 2: sigma 'nan' is not a finite number"),
    ("mortality.csv", ["sex,age,q0,drift,sigma", "male,30,0.01,0.0,x", "male,3x,0.01,0.0,0.005",
                       "cat,31,0.01,0.0,0.005"],
     "line 2: sigma 'x' is not a finite number"),
    ("mortality.csv", ["sex,age,q0,drift,sigma", "male,30,0.01", "male,31,0.01,0.0,0.005",
                       "male"],
     "line 2: drift None is not a finite number"),
    # an age table is an array from its first age to its last, so an age
    # past 150 is refused before the array is made
    ("mortality.csv", BASE_CSVS["mortality.csv"] + ["male,1000000,0.01,0.0,0.005"],
     "line 44: age 1000000 outside [0, 150]"),
    ("mortality.csv", BASE_CSVS["mortality.csv"] + [f"male,{10**30},0.01,0.0,0.005",
                                                    "male,-1,0.01,0.0,0.005"],
     f"line 44: age {10**30} outside [0, 150]"),
    # a death probability above 1, and a drift that would zero or flip the
    # sign of every later probability
    ("mortality.csv", BASE_CSVS["mortality.csv"] + ["male,51,1.5,0.0,0.005"],
     "line 44: q0 '1.5' must be at most 1"),
    ("mortality.csv", BASE_CSVS["mortality.csv"] + ["male,51,0.01,-1.0,0.005"],
     "line 44: drift '-1.0' must be above -1"),
    ("mortality.csv", BASE_CSVS["mortality.csv"] + ["male,51,0.01,0.0,-0.1"],
     "line 44: sigma '-0.1' is negative"),
    ("mortality.csv", BASE_CSVS["mortality.csv"] + ["male,51,0.01,-2,0.005",
                                                    "male,52,1.5,0.0,0.005"],
     "line 44: drift '-2' must be above -1"),
    ("income.csv", BASE_CSVS["income.csv"] + ["male,-1,5", "male,3x,5"],
     "line 44: age -1 outside [0, 150]"),
    ("income.csv", ["sex,age,amount", "lion,30,50000", "male,31,inf", "male,3x,1"],
     "line 2: unknown sex 'lion'"),
    ("income.csv", ["age,amount,sex", "30,inf,male", "31,1", "3x,1,male"],
     "line 2: amount 'inf' is not a finite number"),
    ("census.csv", ["sex,age,seniority,status,count", "male,30,0,active,nan",
                    "male,3x,0,active,1", "male,31,y,active,1"],
     "line 2: count 'nan' is not a finite number"),
    ("census.csv", ["sex,age,seniority,status,count", "male,30,0,working,1",
                    "dog,30,0,active,1", "male,30,99,active,1"],
     "line 2: status must be one of ('active', 'retired'), got 'working'"),
    ("census.csv", ["sex,age,seniority,status,count", "male,30,0,active,1",
                    "male,20,0,active,1", "male,30,99,active,-1"],
     "line 3: age 20 outside [30, 50]"),
    # the small scenario's grid is ages 30-50, seniority 0-15, entry at 30
    ("census.csv", ["sex,age,seniority,status,count", "male,30,0,active,1",
                    "male,36,6,active,-1", "male,3x,0,active,1"],
     "line 3: count '-1' is negative"),
    ("census.csv", ["sex,age,seniority,status,count", "male,36,20,active,3",
                    "male,36,6,active,-1"],
     "line 2: seniority 20 outside [0, 15]"),
    ("census.csv", ["sex,age,seniority,status,count", "male,36,7,active,3",
                    "male,36,6,active,-1"],
     "line 2: seniority 7 at age 36 violates seniority <= age - entry_age (30)"),
])
def test_a_broken_table_reports_its_earliest_bad_row(tmp_path, table, rows, message):
    path = write_scenario(str(tmp_path), csv_overrides={table: rows})
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert exc.value.messages[0].endswith(f"{os.path.join(str(tmp_path), table)}: {message}")


# ---------------------------------------------------------------------------
# The loaders against a row-by-row reference on generated tables

def ref_rows(path, required):
    """(file line, {column: cell}) for each data row, read one row at a time."""
    with open(path, encoding="utf-8-sig") as fh:
        numbered = [(n, ln) for n, ln in enumerate(fh.read().splitlines(), 1)
                    if not ln.startswith("#")]
    reader = csv.DictReader(ln + "\n" for _, ln in numbered)
    found = reader.fieldnames or []
    missing = [c for c in required if c not in found]
    if missing:
        raise ConfigError([f"{path}: missing columns {missing}, found {found}"])
    for c in found:
        if c and found.count(c) > 1:
            raise ConfigError([f"{path}: column {c!r} appears twice in the header"])
    return [(numbered[reader.line_num - 1][0], row) for row in reader]


def ref_key(path, line, row, col, kind=str):
    cell = row[col]
    if cell is None:
        raise ConfigError([f"{path}: line {line}: no {col} cell"])
    try:
        return kind(cell)
    except ValueError:
        raise ConfigError([f"{path}: line {line}: {col} {cell!r} is not an integer"]) from None


def ref_finite(path, line, row, col, nonnegative=False):
    try:
        value = float(row[col])
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError([f"{path}: line {line}: {col} {row[col]!r} is not a finite number"])
    if nonnegative and value < 0:
        raise ConfigError([f"{path}: line {line}: {col} {row[col]!r} is negative"])
    return value


def ref_age_span(path, line, age):
    if not 0 <= age <= 150:
        raise ConfigError([f"{path}: line {line}: age {age} outside [0, 150]"])


def ref_load(path, table):
    """What loading `table` gives, one row at a time: its cells by key, or
    the first error. A cell given twice is refused once every row reads."""
    sexes, cells, repeat = ("male", "female"), {}, None
    for line, row in ref_rows(path, REQUIRED[table]):
        if table == "age":
            age = ref_key(path, line, row, "age", int)
            sex = ref_key(path, line, row, "sex") if "sex" in row else ""
            value = ref_finite(path, line, row, "amount", nonnegative=True)
            if sex and sex not in sexes:
                raise ConfigError([f"{path}: line {line}: unknown sex {sex!r}"])
            ref_age_span(path, line, age)
            keys, axis = [(s, age) for s in ([sex] if sex else sexes)], "age"
        elif table == "census":  # on ages 30-40, seniority 0-8, entry at 29
            sex = ref_key(path, line, row, "sex")
            if sex not in sexes:
                raise ConfigError([f"{path}: line {line}: unknown sex {sex!r}"])
            age, sen = (ref_key(path, line, row, c, int) for c in ("age", "seniority"))
            status = ref_key(path, line, row, "status")
            value = ref_finite(path, line, row, "count", nonnegative=True)
            for bad, message in ((not 30 <= age <= 40, f"age {age} outside [30, 40]"),
                                 (not 0 <= sen <= 8, f"seniority {sen} outside [0, 8]"),
                                 (status not in ("active", "retired"), "status must be one of "
                                  f"('active', 'retired'), got {status!r}"),
                                 (value > 0 and sen > age - 29, f"seniority {sen} at age {age} "
                                  "violates seniority <= age - entry_age (29)")):
                if bad:
                    raise ConfigError([f"{path}: line {line}: {message}"])
            key = (status, sex, age, sen)
            cells[key] = cells.get(key, 0.0) + value
            continue
        else:  # the mortality table or the population series
            sex = ref_key(path, line, row, "sex")
            if sex not in sexes:
                raise ConfigError([f"{path}: line {line}: unknown sex {sex!r}"])
            axis = "age" if table == "mortality" else "year"
            key = ref_key(path, line, row, axis, int)
            value = tuple(ref_finite(path, line, row, col,
                                     nonnegative=table == "population" or col != "drift")
                          for col in REQUIRED[table][2:])
            for bad, col, must in ((value[0] > 1, "q0", "be at most 1"),
                                   (value[1] <= -1, "drift", "be above -1")):
                if bad and table == "mortality":
                    raise ConfigError([f"{path}: line {line}: {col} {row[col]!r} must {must}"])
            if axis == "age":
                ref_age_span(path, line, key)
            keys = [(sex, key)]
        for k in keys:
            if k in cells and repeat is None:
                repeat = (f"{path}: line {line}: sex {k[0]!r} {axis} {k[1]} "
                          f"was given on line {cells[k][0]}")
            cells.setdefault(k, (line, value))
    if repeat:
        raise ConfigError([repeat])
    if table == "census":
        return cells
    if table in ("age", "mortality") and not cells:
        raise ConfigError([f"{path}: no usable rows"])
    ages = range(min(a for _, a in cells), max(a for _, a in cells) + 1) if cells else ()
    for sex, age in ((s, a) for s in sexes for a in ages if table == "mortality"):
        if (sex, age) not in cells:
            raise ConfigError([f"{path}: no row for sex {sex!r} age {age}"])
    return {k: v for k, (_, v) in cells.items()}


REQUIRED = {"age": ("age", "amount"), "census": ("sex", "age", "seniority", "status", "count"),
            "mortality": ("sex", "age", "q0", "drift", "sigma"),
            "population": ("sex", "year", "expected", "sigma")}
COLUMNS = {"age": ("sex", "age", "amount"), **{t: REQUIRED[t] for t in REQUIRED if t != "age"}}
CELLS = {"sex": ("male", "female", "", "dog"),
         "age": ("30", "31", " 32", "3x", "33.0", "45", "-1", "151"),
         "year": ("1995", "1996", "19x6"), "seniority": ("0", "2", "9", "y"),
         "status": ("active", "retired", "working"),
         "amount": ("0.5", "12", "inf", "nan", "x", "", "1e400", " 7", "-3"),
         "count": ("1", "2.5", "nan", "-1"), "expected": ("1000", "inf", "-1000"),
         "sigma": ("0.001", "z", "-0.5"),
         "q0": ("0.01", "0.5", "1.5", "nan", "-0.01"), "drift": ("0", "-0.01", "-1", "x")}


@st.composite
def tables(draw):
    """A table with a few rows of good and bad cells, some short or long,
    blank or comment lines between them, and its columns in any order, now
    and then one of them twice."""
    table = draw(st.sampled_from(sorted(COLUMNS)))
    columns = list(COLUMNS[table])
    if table == "age" and draw(st.booleans()):
        columns.remove("sex")
    columns = draw(st.permutations(columns))
    if draw(st.integers(0, 9)) == 0:  # a header that names a column twice
        columns.append(draw(st.sampled_from(columns)))
    lines = [",".join(columns)]
    for _ in range(draw(st.integers(0, 6))):
        row = [draw(st.sampled_from(CELLS[c])) for c in columns]
        cut = draw(st.sampled_from([len(row), len(row), len(row), len(row) + 1, 1]))
        lines.append(",".join((row + ["extra"])[:cut]))
        lines += draw(st.sampled_from([[], [], ["# a comment"], [""]]))
    return table, lines


def production_load(path, table):
    if table == "age":
        lo, values = load_age_table(path, ("male", "female"), "amount")
        return {(("male", "female")[si], lo + a): float(v)
                for (si, a), v in np.ndenumerate(values) if not np.isnan(v)}
    if table == "population":
        series = load_population_series(path, ("male", "female"))
        return {(s, y): (v, m.sigma.overrides[y])
                for s, m in series.items() for y, v in m.mean.overrides.items()}
    if table == "mortality":
        mm = load_mortality(path, ("male", "female"), 2006)
        return {(s, mm.min_age + a): (float(mm.q0[si, a]), float(mm.drift[si, a]),
                                      float(mm.sigma[si, a]))
                for si, s in enumerate(mm.sexes) for a in range(mm.q0.shape[1])}
    counts = load_census(path, ("male", "female"), 30, 40, 8, 29)
    return {(STATUS_NAMES[st_], ("male", "female")[s], 30 + a, k): float(counts[st_, s, a, k])
            for st_, s, a, k in zip(*counts.nonzero())}


@settings(max_examples=300, deadline=None)
@given(tables())
def test_loaders_read_as_a_row_by_row_reader_does(tmp_path_factory, drawn):
    table, lines = drawn
    path = str(tmp_path_factory.mktemp("table") / "table.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    outcomes = []
    for load in (ref_load, production_load):
        try:
            outcomes.append(load(path, table))
        except ConfigError as exc:
            outcomes.append(exc.messages)
    assert outcomes[0] == outcomes[1]
