"""Scenario configuration: YAML schema, CSV fixtures, validation.

A scenario is one YAML file plus the CSV tables it references by relative
path (census, mortality, reference population, age profiles, conversion
coefficients). `load_config` reads the YAML through one schema, `_SCHEMA`,
which gives each field's kind, default and bounds and the years a schedule
is read at; a key it does not declare is an error. Every problem names its
field, and all are collected before raising, so a broken file can be fixed
in one pass. CSV files may start with '#' comments; loaders name columns.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
from collections.abc import Callable
from dataclasses import dataclass, fields, replace
from functools import cached_property
from itertools import zip_longest

import numpy as np
import yaml

from .cashflows import AgeProfile, BenefitRule, ContributionRule, EconomicAssumptions
from .cohorts import ACTIVE, CohortGrid, MortalityModel, RetirementRule
from .entrants import FACTOR_NAMES, EntrantsModelParams, FactorMoments, PopulationSeries
from .errors import ConfigError
from .schedules import Schedule, _float, _int
from .stochastic import Ar1Params

DEFAULT_PROBES = (0.1, 1.0, 5.0, 25.0, 50.0, 75.0, 95.0, 99.0, 99.9)


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
        """Exactly the named families live; an unknown name is a ConfigError."""
        unknown = [f"unknown shock family {n!r}, expected one of {', '.join(SHOCK_FAMILIES)}"
                   for n in names if n not in SHOCK_FAMILIES]
        if unknown:
            raise ConfigError(unknown)
        return cls(**{n: (n in names) for n in SHOCK_FAMILIES})

    def names(self) -> tuple[str, ...]:
        return tuple(n for n in SHOCK_FAMILIES if getattr(self, n))


SHOCK_FAMILIES = tuple(f.name for f in fields(StochasticFlags))  # in draw and report order


@dataclass(frozen=True)
class RunSettings:
    """How a run samples and reports. Every way of setting the probes, from a
    scenario file, `--percentiles` or `with_run`, goes through this check."""

    seed: int
    n_reps: int
    flags: StochasticFlags
    probes: tuple[float, ...]
    moments_years: tuple[int, ...]

    def __post_init__(self):
        probes = list(self.probes)
        errors = [message for bad, message in (
            (self.n_reps < 1, f"run.n_reps: must be >= 1, got {self.n_reps}"),
            # replication i draws from stream id i, and stream ids are below 2**32
            (self.n_reps > 2**32, f"run.n_reps: must be <= 2**32, got {self.n_reps}"),
            (self.seed < 0, f"run.seed: must be >= 0, got {self.seed}"),
            (not probes or probes != sorted(set(probes))
             or not all(0.0 < p < 100.0 for p in probes),
             f"run.percentile_probes: must be one or more increasing probes within (0, 100), "
             f"got {probes}"),
        ) if bad]
        if errors:
            raise ConfigError(errors)


def _check_moments_years(years, first_year: int, last_year: int) -> None:
    """ConfigError unless every moments year lies in [first_year, last_year]."""
    errors = [f"run.moments_years: year {y} outside horizon [{first_year}, {last_year}]"
              for y in years if not first_year <= y <= last_year]
    if errors:
        raise ConfigError(errors)


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
    census: CohortGrid
    entrants_params: EntrantsModelParams
    population: PopulationSeries
    mortality: MortalityModel
    retirement: RetirementRule
    contrib_subjective: ContributionRule
    contrib_integrative: ContributionRule
    benefits: dict[str, BenefitRule]
    pre_existing: AgeProfile
    accrual_rate: float
    backfill_notional: bool
    economics: EconomicAssumptions
    source_digest: str = ""

    @property
    def years(self) -> list[int]:
        return list(range(self.first_year, self.last_year + 1))

    def with_run(self, **kw) -> "ScenarioConfig":
        run = replace(self.run, **kw)
        _check_moments_years(run.moments_years, self.first_year, self.last_year)
        return replace(self, run=run)


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

    def finites(self, name: str, where: Callable[[int], str]) -> np.ndarray:
        """A value column as floats; a cell that is not a finite number fails,
        its message naming the row as `where(row)` does."""
        cells = self.cells(name)
        try:
            values = np.array(list(map(float, cells)))
        except (TypeError, ValueError):
            values = np.array([_parse(float, c, math.nan) for c in cells])
        bad = ~np.isfinite(values)
        if bad.any():
            i = int(bad.argmax())
            self._fail(i, f"{name} {cells[i]!r} for {where(i)} is not a finite number")
        return values

    def sex_index(self, cells: tuple, sexes, every: bool = False) -> list:
        """Each row's index into `sexes`, by its sex cell; if `every`, an empty
        cell is a row for every sex, -1. An unknown sex fails."""
        index = {s: i for i, s in enumerate(sexes)} | ({"": -1} if every else {})
        try:
            return [index[c] for c in cells]
        except KeyError:
            i = next(i for i, c in enumerate(cells) if c not in index)
            self._fail(i, f"unknown sex {cells[i]!r}")
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


def _read_csv(path: str, required: tuple[str, ...], hasher) -> _Table:
    """A CSV file as a table, its bytes hashed; it may start with a byte-order
    mark, and must have the required columns."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError([f"{path}: {exc}"]) from exc
    hasher.update(raw)
    return _Table(path, raw.decode("utf-8-sig").splitlines(), required)


def _age_grid(table: _Table, sex: list, age: list, values: np.ndarray,
              sexes) -> tuple[int, int, np.ndarray]:
    """The first and last age with a row, and the rows' finite values as a
    (sex, age, cell) array between them; NaN where a sex has no row. A sex of
    -1 is a row for every sex. Two rows for one sex and age are a ConfigError."""
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
    return lo, hi, grid


def load_population_series(path: str, sexes, min_age: int, max_age: int,
                           hasher) -> PopulationSeries:
    """Columns: year, sex, expected, sigma."""
    table = _read_csv(path, ("year", "sex", "expected", "sigma"), hasher)
    sex = table.present("sex")
    index = table.sex_index(sex, sexes)
    year = table.ints("year")
    expected, sigma = (table.finites(col, lambda i: f"sex {sex[i]!r} year {year[i]}")
                       for col in ("expected", "sigma"))
    table.check()
    table.refuse_repeats(range(table.n), list(zip(sex, year)),
                         lambda k: f"sex {k[0]!r} year {k[1]}")
    rows = [[i for i, k in enumerate(index) if k == j] for j in range(len(sexes))]
    expected, sigma = ({s: {year[i]: column[i] for i in r} for s, r in zip(sexes, rows)}
                       for column in (expected.tolist(), sigma.tolist()))
    return PopulationSeries(expected=expected, sigma=sigma, min_age=min_age, max_age=max_age)


def load_age_table(path: str, sexes, value_col: str, hasher) -> AgeProfile:
    """Columns: age, <value_col>, optionally sex (absent rows apply to all sexes).

    Ages a sex has no row for are NaN in the assembled table, so a cell must
    be finite when it is read.
    """
    table = _read_csv(path, ("age", value_col), hasher)
    age = table.ints("age")
    # a table without a sex column, or an empty sex cell, is for every sex
    sex = table.present("sex") if "sex" in table else ("",) * table.n
    values = table.finites(value_col, lambda i: (
        f"sex {sex[i]!r} age {age[i]}" if sex[i] else f"every sex age {age[i]}"))
    index = table.sex_index(sex, sexes, every=True)
    table.check()
    lo, hi, grid = _age_grid(table, index, age, values, sexes)
    return AgeProfile(sexes=tuple(sexes), min_age=lo, max_age=hi, values=grid)


def load_mortality(path: str, sexes, base_year: int, hasher) -> MortalityModel:
    """Columns: sex, age, q0, drift, sigma."""
    table = _read_csv(path, ("sex", "age", "q0", "drift", "sigma"), hasher)
    sex = table.present("sex")
    index = table.sex_index(sex, sexes)
    age = table.ints("age")
    columns = [table.finites(col, lambda i: f"sex {sex[i]!r} age {age[i]}")
               for col in ("q0", "drift", "sigma")]
    table.check()
    lo, hi, grid = _age_grid(table, index, age, np.stack(columns, axis=1), sexes)
    if np.isnan(grid).any():
        si, ai, _ = np.argwhere(np.isnan(grid))[0]
        raise ConfigError([f"{path}: no row for sex {sexes[si]!r} age {lo + ai}"])
    q0, drift, sigma = (grid[..., i].copy() for i in range(3))
    return MortalityModel(base_year=base_year, sexes=tuple(sexes), min_age=lo, max_age=hi,
                          q0=q0, drift=drift, sigma=sigma)


def load_census(path: str, year, sexes, min_age, max_age, max_seniority,
                hasher) -> CohortGrid:
    """Columns: sex, age, seniority, status, count. Rows for one cell add up."""
    table = _read_csv(path, ("sex", "age", "seniority", "status", "count"), hasher)
    sex = table.present("sex")
    age, seniority = table.ints("age"), table.ints("seniority")
    count = table.finites("count", lambda i: f"sex {sex[i]!r} age {age[i]} "
                                             f"seniority {seniority[i]}")
    table.check()
    try:
        return CohortGrid.from_records(zip(sex, age, seniority, table.cells("status"), count),
                                       year, sexes, min_age, max_age, max_seniority)
    except ValueError as exc:
        raise ConfigError([f"{path}: {exc}"]) from exc


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

    def take(self, path: str | None, fn):
        """Run fn, recording any ValueError/ConfigError under the field path
        (None for a ConfigError whose messages name their fields)."""
        try:
            return fn()
        except ConfigError as exc:
            self.errors.extend(m if path is None else f"{path}: {m}" for m in exc.messages)
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
    before it (a KeyError if one failed), or None if required. An `_int` or
    `_float` is finite and at least `lo`; a schedule is in [lo, hi] at `years`.
    It exists where sibling `when[0]` is `when[1]`; a `column` makes an age table."""

    kind: Callable
    default: object = None
    lo: float = -math.inf
    hi: float = math.inf
    years: str | None = None
    when: tuple[str, str] | None = None
    column: str | None = None


def _first_year(t: dict) -> int:
    return t["horizon"]["first_year"]


# Every field of a scenario, in the order it is read and reported. <sex>,
# <type> and <factor> stand for each name in population.sexes,
# retirement.benefit_types and FACTOR_NAMES, and each must be present. A
# level marked `?` may be left out; the fields under it then hold for every name.
_SCHEMA = {
    "horizon": {"first_year": _Field(_int), "last_year": _Field(_int)},
    "run": {
        "seed": _Field(_int, 0),
        "n_reps": _Field(_int, 1000),
        "stochastic": (StochasticFlags, {n: _Field(_bool, True) for n in SHOCK_FAMILIES}),
        "percentile_probes": _Field(_floats, list(DEFAULT_PROBES)),
        "moments_years": _Field(_ints, lambda t: list(
            range(t["horizon"]["first_year"], t["horizon"]["last_year"] + 1))),
    },
    "population": {
        "sexes": _Field(_sexes, ["male", "female"]),
        **{k: _Field(_int) for k in ("min_age", "max_age", "max_seniority", "entry_age")},
        "census_csv": _Field(_file),
    },
    "entrants": {
        "study_years": _Field(_int, 5, lo=0),
        "training_years": _Field(_int, 4, lo=0),
        "factors": {"<sex>": {"<factor>": (FactorMoments, {
            k: _Field(_schedule, 0.0, lo=0.0, years="lagged") for k in ("mean", "sigma")})}},
        "pool_min_age": _Field(_int, 18),
        "pool_max_age": _Field(_int, 25),
        "population_csv": _Field(_file),
    },
    "mortality": {"base_year": _Field(_int, _first_year), "table_csv": _Field(_file)},
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
        "profile_base_year": _Field(_int, _first_year),
        "inflation": _Field(_schedule, 0.0, years="priced"),
        "expected_return": _Field(_schedule, 0.0, years="horizon"),
        "return_deviations": (Ar1Params, {k: _Field(_float, 0.0) for k in ("phi", "sigma", "x0")}),
        "admin_base_year": _Field(_int, _first_year),
        "initial_assets": _Field(_float),
        "admin_base": _Field(_float, 0.0),
        "admin_growth": _Field(_float, 0.0),
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
                if spec.kind in (_int, _float) and not (math.isfinite(value) and value >= spec.lo):
                    raise ValueError(f"must be >= {spec.lo:g}, got {value}" if value < spec.lo
                                     else f"must be finite, got {value}")
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


def load_config(path: str) -> ScenarioConfig:
    """Parse and validate one scenario file. Raises ConfigError listing every problem."""
    hasher = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            raw_bytes = fh.read()
    except OSError as exc:
        raise ConfigError([f"{path}: {exc}"]) from exc
    hasher.update(raw_bytes)
    try:
        raw = yaml.load(raw_bytes, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigError([f"{path}: not valid YAML: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError([f"{path}: top level must be a mapping"])
    base_dir = os.path.dirname(os.path.abspath(path))  # CSV paths are relative to it

    # a check whose inputs failed to parse is skipped: one mistake, one message
    ctx = _Ctx()
    _walk(_SCHEMA, raw, "", ctx.values, ctx)
    hz, run, pop, ent, mort, ret, con, ben, eco = (ctx.values.get(s, {}) for s in _SCHEMA)
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
            path, lambda: loader(os.path.join(base_dir, name), *args, hasher))

    settings = None
    if len(run) == 5:
        settings = ctx.take(None, lambda: RunSettings(
            run["seed"], run["n_reps"], run["stochastic"], run["percentile_probes"],
            run["moments_years"]))
        ctx.take(None, lambda: _check_moments_years(run["moments_years"], first, last))

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
                          first, sexes, min_age, max_age, max_sen)
        if census is not None:
            ctx.take("population.census_csv", lambda: census.check_seniority_bound(entry_age))

    study, training = ent.get("study_years"), ent.get("training_years")
    if None not in (study, training):
        # arrivals at t read the population and enrolment of t - study - training
        spans["lagged"] = range(first - study - training, last + 1)
    pool_ages = [ent.get("pool_min_age"), ent.get("pool_max_age")]
    population = None if None in pool_ages else load(
        "entrants.population_csv", ent.get("population_csv"), load_population_series,
        sexes, *pool_ages)
    for s in sexes if population is not None and "lagged" in spans else ():
        missing = [y for y in spans["lagged"][:len(years)] if y not in population.expected[s]]
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
    # senior census active left the exemption, as `engine.opening_balance` does
    if ben.get("backfill_notional") and census is not None and exemption is not None:
        senior = census.counts[ACTIVE].nonzero()[2].max(initial=0)  # counts are >= 0
        spans["credited"] = range(min(first, first - senior + exemption + 1), last + 1)
    # every age table by its field's path, loaded in the order the digest reads them
    tables = {where: load(where, name, load_age_table, sexes, f.column)
              for where, name, f in ctx.read if f.column}

    if eco.get("profile_base_year") is not None:
        # `engine.price_index` compounds inflation from the year after the base year
        spans["priced"] = range(min(eco["profile_base_year"] + 1, first), last + 1)

    for where, sched, f in (entry for entry in ctx.read if entry[2].years in spans):
        # a schedule needs a value at every year it is read at, within its bounds;
        # a default is checked once, and overrides at every year
        at = spans[f.years]
        values = ({y: sched.overrides.get(y, sched.default) for y in at} if sched.overrides
                  else {at[0]: sched.default})
        gap = next((y for y, x in values.items() if x is None), None)
        bad = next((y for y, x in values.items() if gap is None and not f.lo <= x <= f.hi), None)
        if gap is not None:
            ctx.fail(where, f"no value for year {gap} (values are read for {at[0]}-{at[-1]})")
        elif bad is not None:
            ctx.fail(where, f"{where.rsplit('.', 1)[-1]} at {bad} outside "
                     f"[{f.lo:g}, {f.hi:g}]: {values[bad]}")
    if ctx.errors:
        # the mortality table has rows for every sex, and each listed sex has
        # rows in it or in the population series; a sex list that contradicts
        # this fails every table and factor read per sex, and is reported once,
        # beside the errors that name no sex the list and the tables disagree on
        found = []
        for name in (mort.get("table_csv"), ent.get("population_csv")):
            try:
                table = _read_csv(os.path.join(base_dir, name), ("sex",), hashlib.sha256())
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

    contribs = {n: ContributionRule(n, con[n]["rate"], tables[f"contributions.{n}.profile_csv"],
                                    exemption) for n in ("subjective", "integrative")}
    return ScenarioConfig(
        first_year=first, last_year=last, run=settings,
        sexes=sexes, min_age=min_age, max_age=max_age, max_seniority=max_sen,
        entry_age=entry_age, census=census, population=population, mortality=mortality,
        entrants_params=EntrantsModelParams(ent["factors"], study, training),
        retirement=RetirementRule(ret["benefit_types"], ret["thresholds"]),
        contrib_subjective=contribs["subjective"], contrib_integrative=contribs["integrative"],
        benefits={b: BenefitRule(fields["kind"], tables.get(f"benefits.types.{b}.conversion_csv"),
                                 tables.get(f"benefits.types.{b}.profile_csv"))
                  for b, fields in ben["types"].items()},
        pre_existing=tables["benefits.pre_existing_profile_csv"],
        accrual_rate=ben["accrual_rate"], backfill_notional=ben["backfill_notional"],
        # the other economics fields are named as EconomicAssumptions names them
        economics=EconomicAssumptions(deviations=eco["return_deviations"], **{
            k: x for k, x in eco.items() if k != "return_deviations"}),
        source_digest=hasher.hexdigest())
