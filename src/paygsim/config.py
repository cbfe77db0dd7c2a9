"""Scenario configuration: YAML schema, CSV fixtures, validation.

A scenario is one YAML file plus the CSV tables it references by relative
path (census, mortality, reference population, age profiles, conversion
coefficients). `load_config` parses everything into typed objects and
checks each field where it is parsed, over every year the model reads it;
every problem is reported with the path of the offending field, and all
problems are collected before raising so a broken file can be fixed in one
pass.

CSV files may contain leading comment lines starting with '#'. Expected
headers are documented next to each loader.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from dataclasses import dataclass, replace

import numpy as np
import yaml

from .cashflows import AgeProfile, BenefitRule, ContributionRule, EconomicAssumptions
from .cohorts import ACTIVE, CohortGrid, MortalityModel, RetirementRule
from .entrants import FACTOR_NAMES, EntrantsModelParams, FactorMoments, PopulationSeries
from .errors import ConfigError
from .schedules import Schedule, _float
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
        return cls(**{n: (n in names) for n in ("entrants", "mortality", "returns")})

    def names(self) -> tuple[str, ...]:
        return tuple(n for n in ("entrants", "mortality", "returns") if getattr(self, n))


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


def _read_csv(path: str, required: tuple[str, ...], hasher) -> list[tuple[int, dict]]:
    """Rows of a CSV file, each with the number of the file line it ends on,
    skipping '#' comment lines."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError([f"{path}: {exc}"]) from exc
    hasher.update(raw)
    text = raw.decode("utf-8")
    numbered = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if not ln.startswith("#")]
    reader = csv.DictReader(ln + "\n" for _, ln in numbered)
    got = tuple(reader.fieldnames or ())
    missing = [c for c in required if c not in got]
    if missing:
        raise ConfigError([f"{path}: missing columns {missing}, found {list(got)}"])
    return [(numbered[reader.line_num - 1][0], row) for row in reader]


def _key(path: str, line: int, row: dict, col: str) -> str:
    """One cell of a key column; a ConfigError naming the file, line and
    column if the row is too short to have it."""
    cell = row[col]
    if cell is None:
        raise ConfigError([f"{path}: line {line}: no {col} cell"])
    return cell


def _int_key(path: str, line: int, row: dict, col: str) -> int:
    cell = _key(path, line, row, col)
    try:
        return int(cell)
    except ValueError:
        raise ConfigError([f"{path}: line {line}: {col} {cell!r} is not an integer"]) from None


def _finite(path: str, row: dict, col: str, where: str) -> float:
    """One cell as a float; a ConfigError naming the cell if it is not a
    finite number (including a cell missing from a short row)."""
    try:
        value = float(row[col])
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError([f"{path}: {col} {row[col]!r} for {where} is not a finite number"])
    return value


def load_population_series(path: str, sexes, min_age: int, max_age: int,
                           hasher) -> PopulationSeries:
    """Columns: year, sex, expected, sigma."""
    expected = {s: {} for s in sexes}
    sigma = {s: {} for s in sexes}
    for line, row in _read_csv(path, ("year", "sex", "expected", "sigma"), hasher):
        sex = _key(path, line, row, "sex")
        if sex not in expected:
            raise ConfigError([f"{path}: unknown sex {sex!r}"])
        year = _int_key(path, line, row, "year")
        where = f"sex {sex!r} year {year}"
        expected[sex][year] = _finite(path, row, "expected", where)
        sigma[sex][year] = _finite(path, row, "sigma", where)
    return PopulationSeries(expected=expected, sigma=sigma,
                            min_age=min_age, max_age=max_age)


def load_age_table(path: str, sexes, value_col: str, hasher) -> AgeProfile:
    """Columns: age, <value_col>, optionally sex (absent rows apply to all sexes).

    Ages a sex has no row for are NaN in the assembled table, so a cell must
    be finite when it is read.
    """
    rows = _read_csv(path, ("age", value_col), hasher)
    by_sex = {s: {} for s in sexes}
    for line, row in rows:
        age = _int_key(path, line, row, "age")
        # a table without a sex column, or an empty sex cell, is for every sex
        sex = _key(path, line, row, "sex") if "sex" in row else ""
        val = _finite(path, row, value_col,
                      f"sex {sex!r} age {age}" if sex else f"every sex age {age}")
        for s in [sex] if sex else sexes:
            if s not in by_sex:
                raise ConfigError([f"{path}: unknown sex {sex!r}"])
            by_sex[s][age] = val
    ages = sorted({a for d in by_sex.values() for a in d})
    if not ages:
        raise ConfigError([f"{path}: no usable rows"])
    lo, hi = ages[0], ages[-1]
    values = np.full((len(sexes), hi - lo + 1), np.nan)
    for si, s in enumerate(sexes):
        for a, v in by_sex[s].items():
            values[si, a - lo] = v
    return AgeProfile(sexes=tuple(sexes), min_age=lo, max_age=hi, values=values)


def load_mortality(path: str, sexes, base_year: int, hasher) -> MortalityModel:
    """Columns: sex, age, q0, drift, sigma."""
    rows = _read_csv(path, ("sex", "age", "q0", "drift", "sigma"), hasher)
    by_sex = {s: {} for s in sexes}
    for line, row in rows:
        sex = _key(path, line, row, "sex")
        if sex not in by_sex:
            raise ConfigError([f"{path}: unknown sex {sex!r}"])
        age = _int_key(path, line, row, "age")
        where = f"sex {sex!r} age {age}"
        by_sex[sex][age] = tuple(_finite(path, row, name, where)
                                 for name in ("q0", "drift", "sigma"))
    ages = sorted({a for d in by_sex.values() for a in d})
    lo, hi = ages[0], ages[-1]
    n = hi - lo + 1
    q0 = np.full((len(sexes), n), np.nan)
    drift = np.zeros((len(sexes), n))
    sig = np.zeros((len(sexes), n))
    for si, s in enumerate(sexes):
        for a, (q, d, g) in by_sex[s].items():
            q0[si, a - lo], drift[si, a - lo], sig[si, a - lo] = q, d, g
    if np.any(np.isnan(q0)):
        si, ai = np.argwhere(np.isnan(q0))[0]
        raise ConfigError([f"{path}: no row for sex {sexes[si]!r} age {lo + ai}"])
    return MortalityModel(base_year=base_year, sexes=tuple(sexes),
                          min_age=lo, max_age=hi, q0=q0, drift=drift, sigma=sig)


def load_census(path: str, year, sexes, min_age, max_age, max_seniority,
                hasher) -> CohortGrid:
    """Columns: sex, age, seniority, status, count."""
    records = []
    for line, row in _read_csv(path, ("sex", "age", "seniority", "status", "count"), hasher):
        sex = _key(path, line, row, "sex")
        age, seniority = (_int_key(path, line, row, col) for col in ("age", "seniority"))
        count = _finite(path, row, "count", f"sex {sex!r} age {age} seniority {seniority}")
        records.append((sex, age, seniority, row["status"], count))
    try:
        return CohortGrid.from_records(records, year, sexes, min_age, max_age, max_seniority)
    except ValueError as exc:
        raise ConfigError([f"{path}: {exc}"]) from exc


# ---------------------------------------------------------------------------
# YAML assembly


class _Ctx:
    """Error accumulator with field-path reporting."""

    def __init__(self):
        self.errors: list[str] = []

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


def _need(raw: dict, key: str):
    """raw[key], or a ValueError that `_Ctx.take` records under the field."""
    # an explicit YAML null reads the same as an absent key
    value = raw.get(key)
    if value is None:
        raise ValueError("missing required field")
    return value


def _int(value) -> int:
    """An integer field's value; a boolean or a non-integral number is a
    ValueError, not truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _flag(raw: dict, key: str, default: bool) -> bool:
    """raw[key] if it is a YAML boolean, `default` if absent; otherwise a
    ValueError, so that a quoted "false" is not read as true."""
    value = raw.get(key, default)
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _table_sexes(path: str) -> list[str]:
    """The sexes a table has rows for, in order of appearance; none if it
    cannot be read, which its own load reports."""
    try:
        rows = _read_csv(path, ("sex",), hashlib.sha256())
    except (ConfigError, ValueError):
        return []
    return list(dict.fromkeys(row["sex"] for _, row in rows if row["sex"]))


def _mapping(raw: dict, key, path: str, ctx: _Ctx, required: bool = False) -> dict | None:
    """raw[key] if it is a mapping; {} if absent or null and not `required`;
    otherwise None, with the problem recorded under the field."""
    value = raw.get(key)
    if value is None and not required:
        return {}
    if not isinstance(value, dict):
        ctx.fail(path, "missing required field" if value is None
                 else f"expected a mapping, got {type(value).__name__}")
        return None
    return value


def _names(raw: dict, key: str, path: str, ctx: _Ctx, default=None) -> tuple[str, ...] | None:
    """raw[key] as a tuple of one or more names, or None with the problem recorded."""
    value = raw.get(key, default)
    if not (isinstance(value, list) and value and all(isinstance(v, str) for v in value)):
        ctx.fail(path, f"expected a non-empty list of names, got {value!r}")
        return None
    return tuple(value)


def _schedule(raw, path: str, ctx: _Ctx, years: range,
              lo: float = -math.inf, hi: float = math.inf) -> Schedule | None:
    """Parse a schedule and check it over the years the model reads it at:
    a value at every year of `years`, each within [lo, hi]. Only the
    overrides are visited, and the default where it is read."""
    if raw is None:
        ctx.fail(path, "missing required field")
        return None
    sched = ctx.take(path, lambda: Schedule.from_config(raw))
    if sched is None:
        return None
    if not sched.covers(years):
        gap = next(y for y in years if y not in sched.overrides)
        ctx.fail(path, f"no value for year {gap} (values are read for {years[0]}-{years[-1]})")
        return sched
    read = {y: v for y, v in sched.overrides.items() if y in years}
    if len(read) < len(years):  # the default is read at the years without an override
        read[next(y for y in years if y not in read)] = sched.default
    bad = min((y for y, v in read.items() if not lo <= v <= hi), default=None)
    if bad is not None:
        ctx.fail(path, f"{path.rsplit('.', 1)[-1]} at {bad} outside [{lo:g}, {hi:g}]: {read[bad]}")
    return sched


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
        raw = yaml.load(raw_bytes, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigError([f"{path}: not valid YAML: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError([f"{path}: top level must be a mapping"])
    base_dir = os.path.dirname(os.path.abspath(path))
    return _assemble(raw, base_dir, hasher)


def _resolve(base_dir: str, rel: str) -> str:
    return rel if os.path.isabs(rel) else os.path.join(base_dir, rel)


def _assemble(raw: dict, base_dir: str, hasher) -> ScenarioConfig:
    # a check whose inputs failed to parse is skipped: one mistake, one message
    ctx = _Ctx()
    horizon, run_raw, pop_raw, ent_raw, mort_raw, ret_raw, con_raw, ben_raw, eco_raw = (
        _mapping(raw, name, name, ctx) for name in ("horizon", "run", "population", "entrants",
                                                     "mortality", "retirement", "contributions",
                                                     "benefits", "economics"))
    ctx.raise_if_failed()  # every field is read from its section

    first = ctx.take("horizon.first_year", lambda: _int(_need(horizon, "first_year")))
    last = ctx.take("horizon.last_year", lambda: _int(_need(horizon, "last_year")))
    if first is not None and last is not None and last < first:
        ctx.fail("horizon.last_year", f"must be >= first_year ({first}), got {last}")
    ctx.raise_if_failed()
    years = range(first, last + 1)

    seed = ctx.take("run.seed", lambda: _int(run_raw.get("seed", 0)))
    n_reps = ctx.take("run.n_reps", lambda: _int(run_raw.get("n_reps", 1000)))
    flags_raw = _mapping(run_raw, "stochastic", "run.stochastic", ctx)
    switches = {} if flags_raw is None else {
        n: ctx.take(f"run.stochastic.{n}", lambda n=n: _flag(flags_raw, n, True))
        for n in ("entrants", "mortality", "returns")}
    flags = StochasticFlags(**switches) if switches and None not in switches.values() else None
    probes = ctx.take("run.percentile_probes", lambda: tuple(
        _float(p) for p in run_raw.get("percentile_probes", DEFAULT_PROBES)))
    moments_years = ctx.take("run.moments_years", lambda: tuple(
        _int(y) for y in run_raw.get("moments_years", years)))
    run = None
    if None not in (seed, n_reps, flags, probes, moments_years):
        run = ctx.take(None, lambda: RunSettings(seed=seed, n_reps=n_reps, flags=flags,
                                                 probes=probes, moments_years=moments_years))
        ctx.take(None, lambda: _check_moments_years(moments_years, first, last))

    sexes = _names(pop_raw, "sexes", "population.sexes", ctx, default=["male", "female"])
    if sexes is None:
        ctx.raise_if_failed()  # every table and factor is read per sex
    first_per_sex = len(ctx.errors)  # what follows is read per sex; see the end
    min_age = ctx.take("population.min_age", lambda: _int(_need(pop_raw, "min_age")))
    max_age = ctx.take("population.max_age", lambda: _int(_need(pop_raw, "max_age")))
    max_sen = ctx.take("population.max_seniority", lambda: _int(_need(pop_raw, "max_seniority")))
    entry_age = ctx.take("population.entry_age", lambda: _int(_need(pop_raw, "entry_age")))
    # keep collecting problems in other sections even when the grid geometry
    # is unusable; only the census load depends on it
    geometry_ok = None not in (min_age, max_age, max_sen, entry_age)
    if geometry_ok and min_age > max_age:
        ctx.fail("population.min_age", f"must be <= max_age, got {min_age} > {max_age}")
        geometry_ok = False
    if geometry_ok and not min_age <= entry_age <= max_age:
        ctx.fail("population.entry_age", f"{entry_age} outside [{min_age}, {max_age}]")
        geometry_ok = False

    census = None
    if geometry_ok:
        census = ctx.take("population.census_csv", lambda: load_census(
            _resolve(base_dir, _need(pop_raw, "census_csv")),
            first, sexes, min_age, max_age, max_sen, hasher))
        if census is not None:
            ctx.take("population.census_csv", lambda: census.check_seniority_bound(entry_age))

    n_errors = len(ctx.errors)  # a factor reported below is not reported missing again
    study = ctx.take("entrants.study_years", lambda: _int(ent_raw.get("study_years", 5)))
    training = ctx.take("entrants.training_years", lambda: _int(ent_raw.get("training_years", 4)))
    # arrivals at t read the population and enrolment of t - study - training
    lagged = range(0) if None in (study, training) else range(first - study - training, last + 1)
    factors_raw = _mapping(ent_raw, "factors", "entrants.factors", ctx)
    factors = {}
    for s in sexes if factors_raw is not None else ():
        sex_raw = _mapping(factors_raw, s, f"entrants.factors.{s}", ctx, required=True)
        if sex_raw is None:
            continue
        fs = factors[s] = {}
        for name in FACTOR_NAMES:
            if sex_raw.get(name) is None:
                continue  # EntrantsModelParams names the missing factor
            fr = _mapping(sex_raw, name, f"entrants.factors.{s}.{name}", ctx)
            if fr is not None:
                fs[name] = FactorMoments(*(
                    _schedule(fr.get(k, 0.0), f"entrants.factors.{s}.{name}.{k}", ctx, lagged, 0.0)
                    for k in ("mean", "sigma")))
    entrants_params = None if len(ctx.errors) > n_errors else ctx.take(
        "entrants", lambda: EntrantsModelParams(
            factors=factors, study_years=study, training_years=training))

    pool_ages = [ctx.take(f"entrants.{k}", lambda k=k, d=d: _int(ent_raw.get(k, d)))
                 for k, d in (("pool_min_age", 18), ("pool_max_age", 25))]
    population = None if None in pool_ages else ctx.take(
        "entrants.population_csv", lambda: load_population_series(
            _resolve(base_dir, _need(ent_raw, "population_csv")), sexes, *pool_ages, hasher))
    for s in sexes if population is not None else ():
        missing = [y for y in lagged[:len(years)] if y not in population.expected[s]]
        if missing:
            ctx.fail("entrants.population_csv",
                     f"sex {s!r}: population series missing years "
                     f"{missing[0]}..{missing[-1]} needed for the horizon")

    mort_base = ctx.take("mortality.base_year", lambda: _int(mort_raw.get("base_year", first)))
    if mort_base is not None and mort_base > first:
        ctx.fail("mortality.base_year", f"{mort_base} is after the first projection year")
    mortality = ctx.take("mortality.table_csv", lambda: load_mortality(
        _resolve(base_dir, _need(mort_raw, "table_csv")), sexes, mort_base, hasher))
    if (mortality is not None and None not in (min_age, max_age)
            and (mortality.min_age > min_age or mortality.max_age < max_age)):
        ctx.fail("mortality.table_csv", "table does not cover the cohort grid")

    types = _names(ret_raw, "benefit_types", "retirement.benefit_types", ctx) or ()
    n_errors = len(ctx.errors)  # nor a benefit type reported below as lacking thresholds
    thresholds_raw = _mapping(ret_raw, "thresholds", "retirement.thresholds", ctx)
    thresholds = {}
    for b in types if thresholds_raw is not None else ():
        th = _mapping(thresholds_raw, b, f"retirement.thresholds.{b}", ctx, required=True)
        if th is None:
            continue
        # a mapping per sex, or one for every sex
        by_sex = {s: _mapping(th, s, f"retirement.thresholds.{b}.{s}", ctx) or th for s in sexes}
        thresholds[b] = {s: tuple(
            _schedule(by_sex[s].get(k), f"retirement.thresholds.{b}.{k}", ctx, years)
            for k in ("min_age", "min_seniority")) for s in sexes}
    retirement = None if len(ctx.errors) > n_errors else ctx.take(
        "retirement", lambda: RetirementRule(benefit_types=types, thresholds=thresholds))

    exemption = ctx.take("contributions.exemption_years",
                         lambda: _int(con_raw.get("exemption_years", 0)))
    backfill = ctx.take("benefits.backfill_notional",
                        lambda: _flag(ben_raw, "backfill_notional", False))
    # a backfilled history credits the subjective rate from the year the most
    # senior census active left the exemption, as `engine.opening_balance` does
    credited = years
    if backfill and census is not None and exemption is not None:
        senior = census.counts[ACTIVE].nonzero()[2].max(initial=0)  # counts are >= 0
        credited = range(min(first, first - senior + exemption + 1), last + 1)
    contribs = {}
    for name, span in (("subjective", credited), ("integrative", years)):
        sub = _mapping(con_raw, name, f"contributions.{name}", ctx, required=True)
        if sub is None:
            continue
        rate = _schedule(sub.get("rate", 0.0), f"contributions.{name}.rate", ctx, span, 0.0, 1.0)
        profile = ctx.take(f"contributions.{name}.profile_csv", lambda sub=sub: load_age_table(
            _resolve(base_dir, _need(sub, "profile_csv")), sexes, "amount", hasher))
        contribs[name] = None if exemption is None else ctx.take(
            f"contributions.{name}", lambda n=name, r=rate, p=profile: ContributionRule(
                name=n, rate=r, profile=p, exemption_years=exemption))

    accrual = ctx.take("benefits.accrual_rate", lambda: _float(ben_raw.get("accrual_rate", 0.0)))
    if accrual is not None and accrual < 0:
        ctx.fail("benefits.accrual_rate", f"must be >= 0, got {accrual}")
    pre_existing = ctx.take("benefits.pre_existing_profile_csv", lambda: load_age_table(
        _resolve(base_dir, _need(ben_raw, "pre_existing_profile_csv")), sexes, "amount", hasher))
    types_raw = _mapping(ben_raw, "types", "benefits.types", ctx)
    benefits = {}
    for b in types if types_raw is not None else ():
        sub = _mapping(types_raw, b, f"benefits.types.{b}", ctx, required=True)
        if sub is None:
            continue
        kind = sub.get("kind", "notional_account")
        conversion = profile = None
        n_errors = len(ctx.errors)
        if kind == "notional_account":
            conversion = ctx.take(f"benefits.types.{b}.conversion_csv", lambda sub=sub:
                                  load_age_table(_resolve(base_dir, _need(sub, "conversion_csv")),
                                                 sexes, "coefficient", hasher))
        elif kind == "fixed_profile":
            profile = ctx.take(f"benefits.types.{b}.profile_csv", lambda sub=sub:
                               load_age_table(_resolve(base_dir, _need(sub, "profile_csv")),
                                              sexes, "amount", hasher))
        if len(ctx.errors) > n_errors:
            continue  # the table's own error says what is wrong
        benefits[b] = ctx.take(f"benefits.types.{b}", lambda k=kind, c=conversion, p=profile:
                               BenefitRule(kind=k, conversion=c, profile=p))

    price_base = ctx.take("economics.profile_base_year",
                          lambda: _int(eco_raw.get("profile_base_year", first)))
    # `engine.price_index` compounds inflation from the year after the base year
    inflation = _schedule(eco_raw.get("inflation", 0.0), "economics.inflation", ctx,
                          range(0) if price_base is None
                          else range(min(price_base + 1, first), last + 1))
    exp_ret = _schedule(eco_raw.get("expected_return", 0.0), "economics.expected_return",
                        ctx, years)
    dev_raw = _mapping(eco_raw, "return_deviations", "economics.return_deviations", ctx)
    dev = None if dev_raw is None else {
        k: ctx.take(f"economics.return_deviations.{k}", lambda k=k: _float(dev_raw.get(k, 0.0)))
        for k in ("phi", "sigma", "x0")}
    deviations = None if dev is None or None in dev.values() else ctx.take(
        "economics.return_deviations", lambda: Ar1Params(**dev))
    admin_year = ctx.take("economics.admin_base_year",
                          lambda: _int(eco_raw.get("admin_base_year", first)))
    assets = ctx.take("economics.initial_assets",
                      lambda: _float(_need(eco_raw, "initial_assets")))
    if assets is not None and not math.isfinite(assets):
        ctx.fail("economics.initial_assets", "must be finite")
    admin_base, admin_growth = (
        ctx.take(f"economics.{k}", lambda k=k: _float(eco_raw.get(k, 0.0)))
        for k in ("admin_base", "admin_growth"))
    economics = ctx.take("economics", lambda: EconomicAssumptions(
        initial_assets=assets, admin_base=admin_base, admin_growth=admin_growth,
        admin_base_year=admin_year,
        inflation=inflation, expected_return=exp_ret, deviations=deviations,
        profile_base_year=price_base))
    if ctx.errors:
        # the mortality table has rows for every sex; a sex list it
        # contradicts fails every table and factor read per sex, and is
        # reported once instead
        mort_csv = mort_raw.get("table_csv")
        found = _table_sexes(_resolve(base_dir, mort_csv)) if isinstance(mort_csv, str) else []
        if any(s not in sexes for s in found):
            del ctx.errors[first_per_sex:]
            ctx.fail("population.sexes", f"got {list(sexes)}, but mortality.table_csv has "
                     f"rows for {', '.join(map(repr, found))}")
    ctx.raise_if_failed()

    return ScenarioConfig(
        first_year=first, last_year=last,
        run=run,
        sexes=sexes, min_age=min_age, max_age=max_age, max_seniority=max_sen,
        entry_age=entry_age, census=census, entrants_params=entrants_params,
        population=population, mortality=mortality, retirement=retirement,
        contrib_subjective=contribs["subjective"],
        contrib_integrative=contribs["integrative"],
        benefits=benefits, pre_existing=pre_existing, accrual_rate=accrual,
        backfill_notional=backfill, economics=economics,
        source_digest=hasher.hexdigest())
