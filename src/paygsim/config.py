"""Scenario configuration: YAML schema, CSV fixtures, validation.

A scenario is one YAML file plus the CSV tables it references by relative
path (census, mortality, reference population, age profiles, conversion
coefficients). `load_config` reads the file into a YAML tree and resolves
the tree through one schema, `_SCHEMA`, which gives each field's kind,
default and bounds and the years a schedule is read at; a key it does not
declare is an error. `ScenarioConfig.edit` and `with_run` resolve an edited
tree the same way, parsing again the table bytes read before. Every problem
names its field, and all are collected before raising, so a broken file can
be fixed in one pass. CSV files may start with '#' comments; loaders name columns.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import io
import math
import os
from collections import namedtuple
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import zip_longest

import numpy as np
import yaml

from .cashflows import BenefitRule, ContributionRule, EconomicAssumptions
from .cohorts import ACTIVE, STATUS_NAMES, MortalityModel, RetirementRule
from .entrants import FACTOR_NAMES, EntrantsModelParams, FactorMoments, _draw_lags
from .errors import ConfigError
from .schedules import Schedule, _float, _int
from .stochastic import Ar1Params

DEFAULT_PROBES = (0.1, 1.0, 5.0, 25.0, 50.0, 75.0, 95.0, 99.0, 99.9)
MAX_AGE = 150  # of every age a scenario gives, in its population section or its age tables


@dataclass(frozen=True)
class StochasticFlags:
    """Which shock families are live; everything else runs on expected values."""

    entrants: bool = True
    mortality: bool = True
    returns: bool = True

    @classmethod
    def none(cls) -> "StochasticFlags":
        return cls(False, False, False)

    @classmethod
    def only(cls, *names) -> "StochasticFlags":
        """Exactly the named families live; an unknown name is a ConfigError,
        which names each unknown name once, in the order given."""
        unknown = [f"unknown shock family {n!r}, expected one of {', '.join(SHOCK_FAMILIES)}"
                   for n in dict.fromkeys(names) if n not in SHOCK_FAMILIES]
        if unknown:
            raise ConfigError(unknown)
        return cls(**{n: (n in names) for n in SHOCK_FAMILIES})

    def names(self) -> tuple[str, ...]:
        return tuple(n for n in SHOCK_FAMILIES if getattr(self, n))


SHOCK_FAMILIES = tuple(f.name for f in fields(StochasticFlags))  # in draw and report order


@dataclass(frozen=True)
class RunSettings:
    """How a run samples and reports. `_SCHEMA` checks every field, whether
    it comes from a scenario file, `--seed`, `--reps`, `--percentiles` or
    `with_run`; a record built by hand is not checked."""

    seed: int
    n_reps: int
    flags: StochasticFlags
    probes: tuple[float, ...]
    moments_years: tuple[int, ...]


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a projection needs, fully resolved and validated."""

    first_year: int
    last_year: int
    run: RunSettings
    sexes: tuple[str, ...]
    min_age: int
    max_age: int
    max_seniority: int
    entry_age: int
    census: np.ndarray  # read-only (status, sex, age, seniority) counts on the grid above
    entrants_params: EntrantsModelParams
    population: dict[str, FactorMoments]  # sex -> the first factor of NE(t)
    mortality: MortalityModel
    retirement: RetirementRule
    contrib_subjective: ContributionRule
    contrib_integrative: ContributionRule
    exemption_years: int  # of both streams, and of the backfilled history
    benefits: dict[str, BenefitRule]
    pre_existing: np.ndarray  # (sex, age) pensions in payment, as ContributionRule.profile
    accrual_rate: float
    backfill_notional: bool
    economics: EconomicAssumptions
    source_digest: str = ""
    _source: _Source | None = field(default=None, repr=False, compare=False)

    @property
    def years(self) -> list[int]:
        return list(range(self.first_year, self.last_year + 1))

    def edit(self, changes: dict) -> "ScenarioConfig":
        """This scenario with its YAML tree edited, resolved as `load_config`
        resolves a file but from the table bytes it read, raising the
        ConfigError `validate` prints for the edited file. Each key of
        `changes` is a dotted path as errors name a field or mapping
        (`economics.inflation`, `run.n_reps`), and its YAML value replaces that
        one whole. The digest is the edited tree's, unless only `run` changes:
        a manifest records the run settings itself."""
        if self._source is None:
            raise ConfigError(["edit: the scenario was not loaded from a file"])
        return _resolve(self._source, changes)

    def with_run(self, **kw) -> "ScenarioConfig":
        """`edit` of the run section, by RunSettings' field names."""
        names = {"flags": "stochastic", "probes": "percentile_probes"}
        return self.edit({f"run.{names.get(k, k)}": (
            vars(v) if k == "flags" else list(v) if isinstance(v, tuple) else v)
            for k, v in kw.items()})


# what a scenario is resolved from: its YAML tree, the directory its CSV paths
# are relative to, the bytes its digest starts from and each table's bytes, by path
_Source = namedtuple("_Source", "tree base_dir head files")


def default_config_path() -> str:
    """Path of the bundled scenario."""
    return os.path.join(os.path.dirname(__file__), "data", "default_scenario.yaml")


# ---------------------------------------------------------------------------
# CSV loaders


class _Table:
    """A CSV file's data rows as columns: the lines that are not '#' comments,
    read as CSV, the first of them the header, skipping blank lines. A loader
    reads each column it needs in the order a row is checked, then calls
    `check`; a column whose cells do not all read records a failure at its
    first bad cell."""

    def __init__(self, path: str, lines: list[str], required: tuple[str, ...]):
        self.path, self._lines = path, lines
        reader = self._reader()
        header = next(reader, [])
        missing = [c for c in required if c not in header]
        if missing:
            raise ConfigError([f"{path}: missing columns {missing}, found {header}"])
        rows = list(filter(None, reader))
        self.n = len(rows)
        self._index = {name: j for j, name in enumerate(header)}  # a repeated name: its last
        self._columns = list(zip_longest(*rows))  # None where a row is short
        self._failures: list[tuple[int, int, str]] = []

    def _reader(self):
        # each line ends in a newline, as a quoted cell that spans lines keeps it
        kept = [ln for ln in self._lines if ln[:1] != "#"]
        return csv.reader(io.StringIO("\n".join(kept + [""])))

    @cached_property
    def lines(self) -> list[int]:
        """The file line each data row ends on, read again for a message."""
        numbers = [n for n, ln in enumerate(self._lines, 1) if ln[:1] != "#"]
        reader = self._reader()
        next(reader, None)
        return [numbers[reader.line_num - 1] for row in reader if row]

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def cells(self, name: str) -> tuple:
        j = self._index[name]
        return self._columns[j] if j < len(self._columns) else (None,) * self.n

    def _fail(self, row: int, message: str) -> None:
        self._failures.append((row, len(self._failures), message))

    def check(self) -> None:
        """Raise the failure a row-by-row reading meets first: that of the
        earliest failing row, and of the first check it fails."""
        if self._failures:
            _, _, message = min(self._failures)
            raise ConfigError([f"{self.path}: {message}"])

    def present(self, name: str) -> tuple:
        """A key column's cells; a row too short to have one fails."""
        cells = self.cells(name)
        if None in cells:
            i = cells.index(None)
            self._fail(i, f"line {self.lines[i]}: no {name} cell")
        return cells

    def ints(self, name: str) -> list:
        """A key column as integers, None for a cell that is not one."""
        cells = self.cells(name)
        try:
            return list(map(int, cells))
        except (TypeError, ValueError):
            values = [_parse(int, c) for c in cells]
            i = values.index(None)
            self._fail(i, f"line {self.lines[i]}: no {name} cell" if cells[i] is None
                       else f"line {self.lines[i]}: {name} {cells[i]!r} is not an integer")
            return values

    def finites(self, name: str, where: Callable[[int], str],
                nonnegative: bool = False) -> np.ndarray:
        """A value column as floats; a cell that is not a finite number fails,
        and so does a negative one if `nonnegative`, its message naming the
        row as `where(row)` does."""
        cells = self.cells(name)
        try:
            values = np.array(list(map(float, cells)))
        except (TypeError, ValueError):
            values = np.array([_parse(float, c, math.nan) for c in cells])
        finite = np.isfinite(values)
        bad = ~finite | (values < 0) if nonnegative else ~finite
        if bad.any():
            i = int(bad.argmax())
            problem = "is negative" if finite[i] else "is not a finite number"
            self._fail(i, f"{name} {cells[i]!r} for {where(i)} {problem}")
        return values

    def refuse(self, bad: np.ndarray, problem: Callable[[int], str]) -> None:
        """Fail the first row `bad` marks, naming its line and `problem(row)`."""
        for i in np.flatnonzero(bad)[:1]:
            self._fail(i, f"line {self.lines[i]}: {problem(i)}")

    def sex_index(self, cells: tuple, sexes, every: bool = False) -> list:
        """Each row's index into `sexes`, by its sex cell; if `every`, an empty
        cell is a row for every sex, -1. An unknown sex fails."""
        index = {s: i for i, s in enumerate(sexes)} | ({"": -1} if every else {})
        try:
            return [index[c] for c in cells]
        except KeyError:
            i = next(i for i, c in enumerate(cells) if c not in index)
            self._fail(i, f"line {self.lines[i]}: unknown sex {cells[i]!r}")
            return []

    def refuse_repeats(self, rows, keys, describe: Callable) -> None:
        """A ConfigError if two rows give one cell: `keys[k]` is the cell that
        row `rows[k]` gives, in row order, and `describe(key)` names it."""
        first = {}
        for row, key in zip(rows, keys):
            if first.setdefault(key, row) != row:
                raise ConfigError([f"{self.path}: line {self.lines[row]}: {describe(key)} "
                                   f"was given on line {self.lines[first[key]]}"])


def _parse(kind, cell, failed=None):
    """kind(cell), or `failed` if the cell does not read as one."""
    try:
        return kind(cell)
    except (TypeError, ValueError):
        return failed


def _read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError([f"{path}: {exc}"]) from exc


def _read_csv(path: str, required: tuple[str, ...], read) -> _Table:
    """A CSV file as a table, its bytes given by `read(path)`; it may start
    with a byte-order mark, and must have the required columns."""
    return _Table(path, read(path).decode("utf-8-sig").splitlines(), required)


def _age_grid(table: _Table, sex: list, age: list, values: np.ndarray,
              sexes) -> tuple[int, np.ndarray]:
    """The first age with a row, and the rows' finite values as a (sex, age,
    cell) array from it to the last; NaN where a sex has no row. A sex of -1
    is a row for every sex. An age outside [0, MAX_AGE], which the array
    would span, and two rows for one sex and age are a ConfigError."""
    table.refuse(np.array([a is not None and not 0 <= a <= MAX_AGE for a in age], bool),
                 lambda i: f"age {age[i]} outside [0, {MAX_AGE}]")
    table.check()
    if not table.n:
        raise ConfigError([f"{table.path}: no usable rows"])
    age, sex = np.array(age), np.array(sex)
    lo, hi = int(age.min()), int(age.max())
    row, s = ((sex[:, None] == np.arange(len(sexes))) | (sex[:, None] < 0)).nonzero()
    grid = np.full((len(sexes), hi - lo + 1) + values.shape[1:], np.nan)
    grid[s, age[row] - lo] = claimed = values[row]
    if np.count_nonzero(np.isfinite(grid)) < claimed.size:  # a cell was given twice
        table.refuse_repeats(row.tolist(), list(zip(s.tolist(), age[row].tolist())),
                             lambda k: f"sex {sexes[k[0]]!r} age {k[1]}")
    return lo, grid


def load_population_series(path: str, sexes, read=_read_file) -> dict[str, FactorMoments]:
    """Columns: year, sex, expected, sigma; a negative cell is refused.

    Returns sex -> FactorMoments, the first factor of NE(t): a mean and a
    sigma schedule with no default and one override per year the CSV gives."""
    table = _read_csv(path, ("year", "sex", "expected", "sigma"), read)
    sex = table.present("sex")
    index = table.sex_index(sex, sexes)
    year = table.ints("year")
    expected, sigma = (table.finites(col, lambda i: f"sex {sex[i]!r} year {year[i]}",
                                     nonnegative=True) for col in ("expected", "sigma"))
    table.check()
    table.refuse_repeats(range(table.n), list(zip(sex, year)),
                         lambda k: f"sex {k[0]!r} year {k[1]}")
    rows = [[i for i, k in enumerate(index) if k == j] for j in range(len(sexes))]
    columns = expected.tolist(), sigma.tolist()
    return {s: FactorMoments(*(Schedule(overrides={year[i]: c[i] for i in r}) for c in columns))
            for s, r in zip(sexes, rows)}


def load_age_table(path: str, sexes, value_col: str,
                   read=_read_file) -> tuple[int, np.ndarray]:
    """Columns: age, <value_col>, optionally sex (absent rows apply to all sexes).

    The first age with a row, and the (sex, age) values from it to the last;
    ages a sex has no row for are NaN, so a cell must be finite when it is
    read. A negative cell is refused.
    """
    table = _read_csv(path, ("age", value_col), read)
    age = table.ints("age")
    # a table without a sex column, or an empty sex cell, is for every sex
    sex = table.present("sex") if "sex" in table else ("",) * table.n
    values = table.finites(value_col, lambda i: (
        f"sex {sex[i]!r} age {age[i]}" if sex[i] else f"every sex age {age[i]}"),
        nonnegative=True)
    index = table.sex_index(sex, sexes, every=True)
    return _age_grid(table, index, age, values, sexes)


def _on_grid(table: tuple[int, np.ndarray], min_age: int, max_age: int) -> np.ndarray:
    """An age table's values at the cohort grid's ages, read-only: its rows
    outside the grid are dropped, and grid ages it has no row for are NaN."""
    lo, values = table
    at = np.arange(min_age, max_age + 1) - lo  # each grid age's column of the table
    inside = (at >= 0) & (at < values.shape[1])
    out = np.where(inside, values[:, np.where(inside, at, 0)], np.nan)
    out.flags.writeable = False
    return out


def load_mortality(path: str, sexes, base_year: int, read=_read_file) -> MortalityModel:
    """Columns: sex, age, q0, drift, sigma; q0 must lie in [0, 1], drift above -1, sigma >= 0."""
    table = _read_csv(path, ("sex", "age", "q0", "drift", "sigma"), read)
    sex = table.present("sex")
    index = table.sex_index(sex, sexes)
    age = table.ints("age")
    columns = [table.finites(col, lambda i: f"sex {sex[i]!r} age {age[i]}",
                             nonnegative=col != "drift") for col in ("q0", "drift", "sigma")]
    for bad, col, must in ((columns[0] > 1, "q0", "be at most 1"),
                           (columns[1] <= -1, "drift", "be above -1")):
        table.refuse(bad, lambda i: f"{col} {table.cells(col)[i]!r} must {must}")
    lo, grid = _age_grid(table, index, age, np.stack(columns, axis=1), sexes)
    if np.isnan(grid).any():
        si, ai, _ = np.argwhere(np.isnan(grid))[0]
        raise ConfigError([f"{path}: no row for sex {sexes[si]!r} age {lo + ai}"])
    q0, drift, sigma = (grid[..., i].copy() for i in range(3))
    return MortalityModel(base_year=base_year, sexes=tuple(sexes), min_age=lo,
                          max_age=lo + grid.shape[1] - 1, q0=q0, drift=drift, sigma=sigma)


def load_census(path: str, sexes, min_age, max_age, max_seniority, entry_age,
                read=_read_file) -> np.ndarray:
    """Columns: sex, age, seniority, status, count. The read-only (status, sex,
    age, seniority) counts, the rows for one cell added up in row order."""
    table = _read_csv(path, ("sex", "age", "seniority", "status", "count"), read)
    sex = table.present("sex")
    index = table.sex_index(sex, sexes)
    age, seniority = table.ints("age"), table.ints("seniority")
    status = table.present("status")
    count = table.finites("count", lambda i: f"sex {sex[i]!r} age {age[i]} seniority "
                          f"{seniority[i]} on line {table.lines[i]}", nonnegative=True)
    # NaN off the grid, or where `ints` refused the cell (which that row reports first)
    a, k = (np.array([c if c is not None and lo <= c <= hi else math.nan for c in cells])
            for cells, lo, hi in ((age, min_age, max_age), (seniority, 0, max_seniority)))
    code = np.fromiter((STATUS_NAMES.index(c) if c in STATUS_NAMES else -1 for c in status), int)
    for bad, problem in (
            (np.isnan(a), lambda i: f"age {age[i]} outside [{min_age}, {max_age}]"),
            (np.isnan(k), lambda i: f"seniority {seniority[i]} outside [0, {max_seniority}]"),
            (code < 0, lambda i: f"status must be one of {STATUS_NAMES}, got {status[i]!r}"),
            ((count > 0) & (k > a - entry_age), lambda i: f"seniority {seniority[i]} at age "
             f"{age[i]} violates seniority <= age - entry_age ({entry_age})")):
        table.refuse(bad, problem)
    table.check()
    counts = np.zeros((len(STATUS_NAMES), len(sexes), max_age - min_age + 1, max_seniority + 1))
    rows = code, np.array(index, dtype=int), a.astype(int) - min_age, k.astype(int)
    np.add.at(counts, rows, count)  # unbuffered: row order
    counts.flags.writeable = False
    return counts


# ---------------------------------------------------------------------------
# YAML assembly


class _Ctx:
    """Error accumulator with field-path reporting, and the values read so
    far, nested as in the file, with (path, value, field) for each."""

    def __init__(self):
        self.errors: list[str] = []
        self.values: dict = {}
        self.read: list[tuple[str, object, _Field]] = []

    def fail(self, path: str, message: str):
        self.errors.append(f"{path}: {message}")

    def take(self, path: str, fn):
        """Run fn, recording any ValueError/ConfigError under the field path."""
        try:
            return fn()
        except ConfigError as exc:
            self.errors.extend(f"{path}: {m}" for m in exc.messages)
        except (ValueError, TypeError, KeyError) as exc:
            self.fail(path, str(exc) or type(exc).__name__)
        return None

    def raise_if_failed(self):
        if self.errors:
            # a field shared by every sex is checked once per sex
            raise ConfigError(list(dict.fromkeys(self.errors)))


def _kind(accepts, expected: str, make=lambda value: value):
    """A field kind: `make(value)` if it `accepts` the YAML value, else a
    ValueError saying what it expected. Schedules define `_int` and `_float`."""
    def parse(value):
        if not accepts(value):
            raise ValueError(f"expected {expected}, got {value!r}")
        return make(value)
    return parse


_bool = _kind(lambda x: isinstance(x, bool), "true or false")  # not a quoted "false"
_file = _kind(lambda x: isinstance(x, str) and x != "", "a file path")
_benefit_kind = _kind(lambda x: x in ("notional_account", "fixed_profile"),
                      "notional_account or fixed_profile")
_name_list = _kind(lambda x: isinstance(x, list) and x != [] and all(isinstance(n, str) for n in x)
                   and len(set(x)) == len(x), "a non-empty list of distinct names", tuple)
_floats = _kind(lambda x: isinstance(x, list), "a list of numbers",
                lambda x: tuple(map(_float, x)))
_ints = _kind(lambda x: isinstance(x, list), "a list of integers", lambda x: tuple(map(_int, x)))
_schedule = Schedule.from_config


def _refine(kind, holds, must: str):
    """A field kind: `kind`'s value if it `holds`, else a ValueError saying what it must."""
    def parse(value):
        x = kind(value)
        if not holds(x):
            raise ValueError(f"must {must}, got {list(x) if isinstance(x, tuple) else x}")
        return x
    return parse


# replication i draws from stream id i, and stream ids are below 2**32
_rep_count = _refine(_int, lambda n: n <= 2**32, "be <= 2**32")
_probes = _refine(_floats, lambda p: p != () and list(p) == sorted(set(p))
                  and all(0.0 < x < 100.0 for x in p),
                  "be one or more increasing probes within (0, 100)")
_distinct_years = _refine(_ints, lambda y: len(set(y)) == len(y), "not repeat a year")
_stationary = _refine(_float, lambda x: -1.0 < x < 1.0, "lie within (-1, 1) for stationarity")


def _sexes(value) -> tuple[str, ...]:
    """A name list in which no sex's arrivals series, entrants_<sex>, is
    named like another series."""
    sexes = _name_list(value)
    if "total" in sexes:
        raise ValueError("a sex cannot be named 'total': entrants_total is the series "
                         "of all arrivals")
    return sexes


@dataclass(frozen=True)
class _Field:
    """A field's kind and default: a YAML value, a function of the values read
    before it (a KeyError if one failed), or None if required. A number is
    finite, at least `lo` (above it if `strict`) and at most `hi`; so is a
    schedule at `years` ("<factor>": the years its arrival
    factor is read at). It exists where sibling `when[0]` is `when[1]`; a
    `column` makes an age table."""

    kind: Callable
    default: object = None
    lo: float = -math.inf
    hi: float = math.inf
    strict: bool = False
    years: str | None = None
    when: tuple[str, str] | None = None
    column: str | None = None

    def admits(self, x: float) -> bool:
        return math.isfinite(x) and (self.lo < x if self.strict else self.lo <= x) and x <= self.hi


def _first_year(t: dict) -> int:
    return t["horizon"]["first_year"]


# Every field of a scenario, in the order it is read and reported. <sex>,
# <type> and <factor> stand for each name in population.sexes,
# retirement.benefit_types and FACTOR_NAMES, and each must be present. A
# level marked `?` may be left out; the fields under it then hold for every name.
# Every year field lies in 1800-2300, which keeps short each span of years
# the loader lists and each gap of years a price or cost path compounds over.
_SCHEMA = {
    "horizon": {k: _Field(_int, lo=1800, hi=2300) for k in ("first_year", "last_year")},
    # `_resolve` also keeps each moments year in the horizon
    "run": (lambda seed, n_reps, stochastic, percentile_probes, moments_years: RunSettings(
        seed, n_reps, stochastic, percentile_probes, moments_years), {
        "seed": _Field(_int, 0, lo=0),
        "n_reps": _Field(_rep_count, 1000, lo=1),
        "stochastic": (StochasticFlags, {n: _Field(_bool, True) for n in SHOCK_FAMILIES}),
        "percentile_probes": _Field(_probes, list(DEFAULT_PROBES)),
        "moments_years": _Field(_distinct_years, lambda t: list(
            range(t["horizon"]["first_year"], t["horizon"]["last_year"] + 1))),
    }),
    "population": {
        "sexes": _Field(_sexes, ["male", "female"]),
        **{k: _Field(_int, lo=0, hi=MAX_AGE)
           for k in ("min_age", "max_age", "max_seniority", "entry_age")},
        "census_csv": _Field(_file),
    },
    "entrants": {
        "study_years": _Field(_int, 5, lo=0),
        "training_years": _Field(_int, 4, lo=0),
        # each factor is a rate, its mean and spread at most 100%
        "factors": {"<sex>": {"<factor>": (FactorMoments, {
            k: _Field(_schedule, 0.0, lo=0.0, hi=1.0, years="<factor>")
            for k in ("mean", "sigma")})}},
        "pool_min_age": _Field(_int, 18),
        "pool_max_age": _Field(_int, 25),
        "population_csv": _Field(_file),
    },
    "mortality": {"base_year": _Field(_int, _first_year, lo=1800, hi=2300),
                  "table_csv": _Field(_file)},
    "retirement": {
        "benefit_types": _Field(_name_list),
        "thresholds": {"<type>": {"<sex>?": (
            lambda min_age, min_seniority: (min_age, min_seniority),
            {k: _Field(_schedule, years="horizon") for k in ("min_age", "min_seniority")})}},
    },
    "contributions": {
        "exemption_years": _Field(_int, 0, lo=0),
        "subjective": {"rate": _Field(_schedule, 0.0, lo=0.0, hi=1.0, years="credited"),
                       "profile_csv": _Field(_file, column="amount")},
        "integrative": {"rate": _Field(_schedule, 0.0, lo=0.0, hi=1.0, years="horizon"),
                        "profile_csv": _Field(_file, column="amount")},
    },
    "benefits": {
        "backfill_notional": _Field(_bool, False),
        "accrual_rate": _Field(_float, 0.0, lo=0.0),
        "pre_existing_profile_csv": _Field(_file, column="amount"),
        "types": {"<type>": {
            "kind": _Field(_benefit_kind, "notional_account"),
            "conversion_csv": _Field(_file, when=("kind", "notional_account"),
                                     column="coefficient"),
            "profile_csv": _Field(_file, when=("kind", "fixed_profile"), column="amount"),
        }},
    },
    "economics": {
        "profile_base_year": _Field(_int, _first_year, lo=1800, hi=2300),
        # a rate of -100% or below would zero or flip the sign of every later
        # amount; one above 100% a year is no price path this model is meant for
        "inflation": _Field(_schedule, 0.0, lo=-1.0, hi=1.0, strict=True, years="priced"),
        "expected_return": _Field(_schedule, 0.0, lo=-1.0, strict=True, years="horizon"),
        # deviations of the return rate, so within 100% of it
        "return_deviations": (Ar1Params, {"phi": _Field(_stationary, 0.0),
                                          "sigma": _Field(_float, 0.0, lo=0.0, hi=1.0),
                                          "x0": _Field(_float, 0.0, lo=-1.0, hi=1.0)}),
        "admin_base_year": _Field(_int, _first_year, lo=1800, hi=2300),
        "initial_assets": _Field(_float, lo=-9e16, hi=9e16),  # within what int64 cents hold
        "admin_base": _Field(_float, 0.0),
        "admin_growth": _Field(_float, 0.0, lo=-1.0, strict=True),
    },
}


def _walk(schema: dict, node: dict, at: str, out: dict, ctx: _Ctx, keys=None) -> None:
    """Read the fields `schema` declares from the YAML mapping `node`, at path
    `at`, into `out`; a (build, fields) mapping into build(**fields) once all
    its fields are read. A field that fails is left out, its problem recorded
    under its path, as is one whose default reads a field that failed, and a
    key of `node` that no field declares, unless `keys` collects the keys."""
    declared = set() if keys is None else keys
    for name, spec in schema.items():
        # the names a wildcard stands for; None if the list they come from failed
        names = (name,) if name[0] != "<" else {
            "<sex>": lambda: ctx.values.get("population", {}).get("sexes"),
            "<type>": lambda: ctx.values.get("retirement", {}).get("benefit_types"),
            "<factor>": lambda: FACTOR_NAMES}[name.rstrip("?")]()
        if names is None:
            return  # the list failed: these keys are neither read nor checked
        build, spec = spec if isinstance(spec, tuple) else (None, spec)
        if name.endswith("?"):
            declared.update(spec)  # read here for each name whose own mapping is left out
        for n in names:
            declared.add(n)
            where, value = f"{at}.{n}" if at else n, node.get(n)
            if isinstance(spec, dict):  # a mapping of fields
                if value is None and name.endswith("?"):  # the level is left out
                    _walk(spec, node, at, out.setdefault(n, {}), ctx, declared)
                elif value is None and name.startswith("<"):
                    ctx.fail(where, "missing required field")
                elif value is None or isinstance(value, dict):
                    _walk(spec, value or {}, where, out.setdefault(n, {}), ctx)
                else:
                    ctx.fail(where, f"expected a mapping, got {type(value).__name__}")
                if build is not None and len(out.get(n, ())) == len(spec):
                    out[n] = ctx.take(where, lambda: build(**out[n]))
                continue
            if spec.when is not None and out.get(spec.when[0]) != spec.when[1]:
                if spec.when[0] in out:
                    declared.discard(n)  # not a key of this sibling's value
                continue
            try:
                if n not in node and spec.default is not None:
                    value = spec.default(ctx.values) if callable(spec.default) else spec.default
                elif value is None and spec.default is None:
                    raise ValueError("missing required field")
                value = spec.kind(value)
                if isinstance(value, (int, float)) and not spec.admits(value):
                    bound = (f"<= {spec.hi:g}" if spec.lo == -math.inf
                             else f"between {spec.lo:g} and {spec.hi:g}" if math.isfinite(spec.hi)
                             else f"{'>' if spec.strict else '>='} {spec.lo:g}")
                    raise ValueError(f"must be {bound if math.isfinite(value) else 'finite'}, "
                                     f"got {value}")
            except KeyError:
                continue  # the default is read from a field that failed
            except (ValueError, OverflowError) as exc:  # an integer too large for a float
                ctx.fail(where, str(exc))
                continue
            out[n] = value
            ctx.read.append((where, value, spec))
    for n in node if keys is None else ():
        if n not in declared:
            import difflib  # only a scenario with a stray key pays for the import
            close = difflib.get_close_matches(str(n), sorted(declared), n=1, cutoff=0)
            ctx.fail(f"{at}.{n}" if at else str(n), f"unknown key; did you mean {close[0]!r}?")


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader, libyaml's if built, refusing a repeated key YAML would overwrite."""

    def construct_document(self, root):
        todo, seen = [(root, "")], set()
        while todo:
            node, at = todo.pop(0)
            if not isinstance(node, yaml.MappingNode) or id(node) in seen:
                continue  # no list the schema takes holds a mapping; an alias is checked once
            seen.add(id(node))
            marks: dict = {}
            for key, value in node.value:
                where = f"{at}.{key.value}" if at else f"{key.value}"
                first = marks.setdefault((key.tag, where), key.start_mark)
                if first is not key.start_mark:
                    raise ConfigError([f"{where}: given on line {first.line + 1} and again on "
                                       f"line {key.start_mark.line + 1}"])
                todo.append((value, where))
        return super().construct_document(root)


def load_config(path: str, changes: dict = {}) -> ScenarioConfig:
    """Read and resolve one scenario file, with `changes` edited in as `edit`
    edits them. Raises ConfigError listing every problem. Its digest covers
    the file's bytes (as `edit` says) and then each table's."""
    raw_bytes = _read_file(path)
    try:
        tree = yaml.load(raw_bytes, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigError([f"{path}: not valid YAML: {exc}"]) from exc
    if not isinstance(tree, dict):
        raise ConfigError([f"{path}: top level must be a mapping"])
    # CSV paths are relative to the file's directory
    return _resolve(_Source(tree, os.path.dirname(os.path.abspath(path)), raw_bytes, {}), changes)


def _edited(tree: dict, changes: dict) -> dict:
    """`tree` with a copy of each value in `changes` at its dotted path. Each
    mapping along a path is copied before it changes, so neither `tree` nor
    a mapping that a YAML alias shares with it changes."""
    tree = dict(tree)
    for path, value in changes.items():
        node, (*parents, leaf) = tree, path.split(".")
        for i, key in enumerate(parents):
            child = node.get(key)
            if not isinstance(child, (dict, type(None))):
                raise ConfigError([f"{'.'.join(parents[:i + 1])}: expected a mapping, "
                                   f"got {type(child).__name__}"])
            node[key] = node = dict(child or {})
        node[leaf] = copy.deepcopy(value)
    return tree


def _resolve(source: _Source, changes: dict) -> ScenarioConfig:
    """The scenario `source.tree` describes with `changes` edited in, each
    field read through `_SCHEMA` and checked against the others; a table
    `source` holds no bytes of is read from disk. The digest covers the
    source's head if only `run` changes, else the edited tree, then each
    table as it is read."""
    tree, base_dir = _edited(source.tree, changes), source.base_dir
    head = (source.head if all(path.split(".")[0] == "run" for path in changes)
            else b"edited\n" + repr(tree).encode())
    hasher, files = hashlib.sha256(head), {}

    def read(path: str) -> bytes:
        if path not in files:
            files[path] = source.files[path] if path in source.files else _read_file(path)
        hasher.update(files[path])
        return files[path]

    # a check whose inputs failed to parse is skipped: one mistake, one message
    ctx = _Ctx()
    _walk(_SCHEMA, tree, "", ctx.values, ctx)
    hz, _, pop, ent, mort, ret, con, ben, eco = (ctx.values.get(s, {}) for s in _SCHEMA)
    first, last, sexes = hz.get("first_year"), hz.get("last_year"), pop.get("sexes")
    if None not in (first, last) and last < first:
        ctx.fail("horizon.last_year", f"must be >= first_year ({first}), got {last}")
    if None in (first, last, sexes) or last < first:
        ctx.raise_if_failed()  # every year is read from the horizon, every table per sex
    years = range(first, last + 1)
    spans = {"horizon": years, "credited": years}  # the years schedules are read at

    def load(path: str, name: str | None, loader, *args):
        """The table the CSV field at `path` names; None if the field or the load failed."""
        return None if name is None else ctx.take(
            path, lambda: loader(os.path.join(base_dir, name), *args, read))

    for y in next((x for where, x, _ in ctx.read if where == "run.moments_years"), ()):
        if y not in years:
            ctx.fail("run.moments_years", f"year {y} outside horizon [{first}, {last}]")

    min_age, max_age, max_sen, entry_age = (
        pop.get(k) for k in ("min_age", "max_age", "max_seniority", "entry_age"))
    census = None
    # keep collecting problems in other sections even when the grid geometry
    # is unusable; only the census load depends on it
    if None not in (min_age, max_age, max_sen, entry_age):
        if min_age > max_age:
            ctx.fail("population.min_age", f"must be <= max_age, got {min_age} > {max_age}")
        elif not min_age <= entry_age <= max_age:
            ctx.fail("population.entry_age", f"{entry_age} outside [{min_age}, {max_age}]")
        else:
            census = load("population.census_csv", pop.get("census_csv"), load_census,
                          sexes, min_age, max_age, max_sen, entry_age)

    study, training = ent.get("study_years"), ent.get("training_years")
    if None not in (study, training):
        # arrivals at t read each draw at its own lag before t
        for name, lag in zip(("population",) + FACTOR_NAMES, _draw_lags(study, training)):
            spans[name] = range(first - lag, last - lag + 1)
    pool_ages = [ent.get("pool_min_age"), ent.get("pool_max_age")]
    if None not in pool_ages and pool_ages[0] > pool_ages[1]:
        ctx.fail("entrants.pool_min_age", "must be <= pool_max_age, got {} > {}".format(*pool_ages))
    population = load("entrants.population_csv", ent.get("population_csv"),
                      load_population_series, sexes)
    for s in sexes if population is not None and "population" in spans else ():
        missing = [y for y in spans["population"] if y not in population[s].mean.overrides]
        if missing:
            ctx.fail("entrants.population_csv",
                     f"sex {s!r}: population series missing years "
                     f"{missing[0]}..{missing[-1]} needed for the horizon")

    mort_base = mort.get("base_year")
    if mort_base is not None and mort_base > first:
        ctx.fail("mortality.base_year", f"{mort_base} is after the first projection year")
    mortality = None if mort_base is None else load(
        "mortality.table_csv", mort.get("table_csv"), load_mortality, sexes, mort_base)
    if (mortality is not None and None not in (min_age, max_age)
            and (mortality.min_age > min_age or mortality.max_age < max_age)):
        ctx.fail("mortality.table_csv", "table does not cover the cohort grid")

    exemption = con.get("exemption_years")
    # a backfilled history credits the subjective rate from the year the most
    # senior census active left the exemption, as `engine.build_system` does
    if ben.get("backfill_notional") and census is not None and exemption is not None:
        senior = census[ACTIVE].nonzero()[2].max(initial=0)  # counts are >= 0
        spans["credited"] = range(min(first, first - senior + exemption + 1), last + 1)
    # each age table is parsed, and its problems reported, once, under the
    # first field that names it; the digest reads it again for every field
    parsed, named = {}, {}
    for where, name, f in (entry for entry in ctx.read if entry[2].column):
        key = named[where] = (name, f.column)
        if key not in parsed:
            parsed[key] = load(where, name, load_age_table, sexes, f.column)
        elif parsed[key] is not None:
            ctx.take(where, lambda: read(os.path.join(base_dir, name)))

    if eco.get("profile_base_year") is not None:
        # `engine.price_index` compounds inflation from the year after the base year
        spans["priced"] = range(min(eco["profile_base_year"] + 1, first), last + 1)

    for where, sched, f in ctx.read:
        # a schedule needs a value at every year it is read at, within its bounds;
        # a default is checked once, and overrides at every year. A factor's
        # years are those of the factor its path names.
        at = spans.get(where.split(".")[-2] if f.years == "<factor>" else f.years)
        if at is None:
            continue
        values = ({y: sched.overrides.get(y, sched.default) for y in at} if sched.overrides
                  else {at[0]: sched.default})
        gap = next((y for y, x in values.items() if x is None), None)
        bad = next((y for y, x in values.items() if gap is None and not f.admits(x)), None)
        if gap is not None:
            ctx.fail(where, f"no value for year {gap} (values are read for {at[0]}-{at[-1]})")
        elif bad is not None:
            ctx.fail(where, f"{where.rsplit('.', 1)[-1]} at {bad} outside "  # open at infinity
                     f"{'(' if f.strict or f.lo == -math.inf else '['}{f.lo:g}, {f.hi:g}"
                     f"{')' if f.hi == math.inf else ']'}: {values[bad]}")
    if ctx.errors:
        # the mortality table has rows for every sex, and each listed sex has
        # rows in it or in the population series; a sex list that contradicts
        # this fails every table and factor read per sex, and is reported once,
        # beside the errors that name no sex the list and the tables disagree on
        found = []
        for name in (mort.get("table_csv"), ent.get("population_csv")):
            try:
                table = _read_csv(os.path.join(base_dir, name), ("sex",), read)
                found.append(list(dict.fromkeys(s for s in table.cells("sex") if s)))
            except (ConfigError, TypeError, ValueError):  # no name, or an unreadable table
                found.append(None)
        mort_sexes, pop_sexes = found
        if mort_sexes is not None and (set(mort_sexes) - set(sexes) or (
                set(sexes) - set(mort_sexes) - set(sexes if pop_sexes is None else pop_sexes))):
            disputed = set(sexes) ^ {*mort_sexes, *(pop_sexes or ())}
            ctx.errors = [e for e in ctx.errors if not any(
                s in e.partition(": ")[0].split(".") or f"sex {s!r}" in e for s in disputed)]
            ctx.fail("population.sexes", f"got {list(sexes)}, but mortality.table_csv has "
                     f"rows for {', '.join(map(repr, mort_sexes))}")
    ctx.raise_if_failed()

    on_grid = {key: _on_grid(table, min_age, max_age) for key, table in parsed.items()}
    tables = {where.rpartition(".")[0]: on_grid[key] for where, key in named.items()}
    return ScenarioConfig(
        first_year=first, last_year=last, run=ctx.values["run"],
        sexes=sexes, min_age=min_age, max_age=max_age, max_seniority=max_sen,
        entry_age=entry_age, census=census, population=population, mortality=mortality,
        entrants_params=EntrantsModelParams(ent["factors"], study, training),
        retirement=RetirementRule(ret["benefit_types"], ret["thresholds"]),
        **{f"contrib_{n}": ContributionRule(n, con[n]["rate"], tables[f"contributions.{n}"])
           for n in ("subjective", "integrative")}, exemption_years=exemption,
        benefits={b: BenefitRule(fields["kind"], tables[f"benefits.types.{b}"])
                  for b, fields in ben["types"].items()},
        pre_existing=tables["benefits"],  # tables are keyed by the mapping naming them
        accrual_rate=ben["accrual_rate"], backfill_notional=ben["backfill_notional"],
        # the other economics fields are named as EconomicAssumptions names them
        economics=EconomicAssumptions(deviations=eco["return_deviations"], **{
            k: x for k, x in eco.items() if k != "return_deviations"}),
        source_digest=hasher.hexdigest(), _source=_Source(tree, base_dir, head, files))
