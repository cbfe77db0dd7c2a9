"""Scenario configuration: YAML schema, CSV fixtures, validation.

A scenario is one YAML file plus the CSV tables it references by relative
path (census, mortality, reference population, age profiles, conversion
coefficients). `load_config` parses everything into typed objects and then
validates the assembled scenario as a whole; every problem is reported with
the path of the offending field, and all problems are collected before
raising so a broken file can be fixed in one pass.

CSV files may contain leading comment lines starting with '#'. Expected
headers are documented next to each loader.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np
import yaml

from .cashflows import AgeProfile, BenefitRule, ContributionRule, EconomicAssumptions
from .cohorts import CohortGrid, MortalityModel, RetirementRule
from .entrants import (FACTOR_NAMES, EducationHistory, EntrantsModelParams,
                       FactorMoments, PopulationSeries)
from .errors import ConfigError
from .schedules import Schedule
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

    def any(self) -> bool:
        return self.entrants or self.mortality or self.returns

    def names(self) -> tuple[str, ...]:
        return tuple(n for n in ("entrants", "mortality", "returns") if getattr(self, n))


@dataclass(frozen=True)
class RunSettings:
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
            (probes != sorted(probes) or not all(0.0 <= p <= 100.0 for p in probes),
             f"run.percentile_probes: must be increasing within [0, 100], got {probes}"),
        ) if bad]
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

    def with_flags(self, flags: StochasticFlags) -> "ScenarioConfig":
        return replace(self, run=replace(self.run, flags=flags))

    def with_run(self, **kw) -> "ScenarioConfig":
        return replace(self, run=replace(self.run, **kw))


def default_config_path() -> str:
    """Path of the bundled scenario."""
    return os.path.join(os.path.dirname(__file__), "data", "default_scenario.yaml")


# ---------------------------------------------------------------------------
# CSV loaders


def _read_csv(path: str, required: tuple[str, ...], hasher=None) -> list[dict]:
    """Rows of a CSV file, skipping leading '#' comment lines."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError([f"{path}: {exc}"]) from exc
    if hasher is not None:
        hasher.update(raw)
    text = raw.decode("utf-8")
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    reader = csv.DictReader(io.StringIO("\n".join(lines)))
    got = tuple(reader.fieldnames or ())
    missing = [c for c in required if c not in got]
    if missing:
        raise ConfigError([f"{path}: missing columns {missing}, found {list(got)}"])
    return list(reader)


def load_population_series(path: str, sexes, min_age: int, max_age: int,
                           hasher=None) -> PopulationSeries:
    """Columns: year, sex, expected, sigma."""
    expected = {s: {} for s in sexes}
    sigma = {s: {} for s in sexes}
    for row in _read_csv(path, ("year", "sex", "expected", "sigma"), hasher):
        sex = row["sex"]
        if sex not in expected:
            raise ConfigError([f"{path}: unknown sex {sex!r}"])
        year = int(row["year"])
        expected[sex][year] = float(row["expected"])
        sigma[sex][year] = float(row["sigma"])
    return PopulationSeries(expected=expected, sigma=sigma,
                            min_age=min_age, max_age=max_age)


def load_age_table(path: str, sexes, value_col: str, hasher=None) -> AgeProfile:
    """Columns: age, <value_col>, optionally sex (absent rows apply to all sexes)."""
    rows = _read_csv(path, ("age", value_col), hasher)
    by_sex = {s: {} for s in sexes}
    for row in rows:
        age = int(row["age"])
        val = float(row[value_col])
        targets = [row["sex"]] if row.get("sex") not in (None, "") else list(sexes)
        for s in targets:
            if s not in by_sex:
                raise ConfigError([f"{path}: unknown sex {row['sex']!r}"])
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


def load_mortality(path: str, sexes, base_year: int, hasher=None) -> MortalityModel:
    """Columns: sex, age, q0, drift, sigma."""
    rows = _read_csv(path, ("sex", "age", "q0", "drift", "sigma"), hasher)
    by_sex = {s: {} for s in sexes}
    for row in rows:
        if row["sex"] not in by_sex:
            raise ConfigError([f"{path}: unknown sex {row['sex']!r}"])
        cell = float(row["q0"]), float(row["drift"]), float(row["sigma"])
        for name, v in zip(("q0", "drift", "sigma"), cell):
            if not math.isfinite(v):
                raise ConfigError([f"{path}: {name} {row[name]!r} for sex {row['sex']!r} "
                                   f"age {row['age']} is not a finite number"])
        by_sex[row["sex"]][int(row["age"])] = cell
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
                hasher=None) -> CohortGrid:
    """Columns: sex, age, seniority, status, count."""
    records = []
    for row in _read_csv(path, ("sex", "age", "seniority", "status", "count"), hasher):
        records.append((row["sex"], int(row["age"]), int(row["seniority"]),
                        row["status"], float(row["count"])))
    try:
        return CohortGrid.from_records(records, year, sexes, min_age, max_age, max_seniority)
    except ValueError as exc:
        raise ConfigError([f"{path}: {exc}"]) from exc


def load_education_history(path: str, sexes=None) -> dict[str, EducationHistory]:
    """Columns: year, sex, population, enrolments, graduations,
    new_professionals, new_fund_members, cancellations. One history per sex."""
    per_sex: dict[str, dict[int, dict[str, float]]] = {}
    for row in _read_csv(path, ("year", "sex") + EducationHistory.FIELDS):
        rec = {f: float(row[f]) for f in EducationHistory.FIELDS}
        per_sex.setdefault(row["sex"], {})[int(row["year"])] = rec
    if sexes is not None:
        missing = set(sexes) - set(per_sex)
        if missing:
            raise ConfigError([f"{path}: no rows for sexes {sorted(missing)}"])
    return {s: EducationHistory(records=d) for s, d in per_sex.items()}


# ---------------------------------------------------------------------------
# YAML assembly


class _Ctx:
    """Error accumulator with field-path reporting."""

    def __init__(self):
        self.errors: list[str] = []

    def fail(self, path: str, message: str):
        self.errors.append(f"{path}: {message}")

    def take(self, path: str, fn, fallback=None):
        """Run fn, recording any ValueError/ConfigError under the field path."""
        try:
            return fn()
        except ConfigError as exc:
            self.errors.extend(f"{path}: {m}" for m in exc.messages)
        except (ValueError, TypeError, KeyError) as exc:
            self.fail(path, str(exc) or type(exc).__name__)
        return fallback

    def raise_if_failed(self):
        if self.errors:
            raise ConfigError(self.errors)


def _need(raw: dict, key: str, path: str, ctx: _Ctx, default=None):
    # an explicit YAML null reads the same as an absent key
    value = raw.get(key)
    if value is None:
        if default is not None:
            return default
        ctx.fail(f"{path}.{key}" if path else key, "missing required field")
        return None
    return value


def _schedule(raw, path: str, ctx: _Ctx) -> Schedule:
    return ctx.take(path, lambda: Schedule.from_config(raw, path),
                    fallback=Schedule(default=0.0))


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
    ctx = _Ctx()

    horizon = raw.get("horizon", {})
    first = ctx.take("horizon.first_year", lambda: int(_need(horizon, "first_year", "horizon", ctx)))
    last = ctx.take("horizon.last_year", lambda: int(_need(horizon, "last_year", "horizon", ctx)))
    if first is not None and last is not None and last < first:
        ctx.fail("horizon.last_year", f"must be >= first_year ({first}), got {last}")
    ctx.raise_if_failed()
    years = list(range(first, last + 1))

    run_raw = raw.get("run", {})
    seed = ctx.take("run.seed", lambda: int(run_raw.get("seed", 0)))
    n_reps = ctx.take("run.n_reps", lambda: int(run_raw.get("n_reps", 1000)))
    if n_reps is not None and n_reps < 1:
        ctx.fail("run.n_reps", f"must be >= 1, got {n_reps}")
    flags_raw = run_raw.get("stochastic", {})
    flags = StochasticFlags(
        entrants=bool(flags_raw.get("entrants", True)),
        mortality=bool(flags_raw.get("mortality", True)),
        returns=bool(flags_raw.get("returns", True)),
    )
    probes = tuple(float(p) for p in run_raw.get("percentile_probes", DEFAULT_PROBES))
    for p in probes:
        if not 0.0 < p < 100.0:
            ctx.fail("run.percentile_probes", f"probes must lie in (0, 100), got {p}")
    if list(probes) != sorted(probes):
        probes = tuple(sorted(probes))
    moments_years = tuple(int(y) for y in run_raw.get("moments_years", years))
    for y in moments_years:
        if not first <= y <= last:
            ctx.fail("run.moments_years", f"year {y} outside horizon [{first}, {last}]")

    pop_raw = raw.get("population", {})
    sexes = tuple(pop_raw.get("sexes", ("male", "female")))
    min_age = ctx.take("population.min_age", lambda: int(_need(pop_raw, "min_age", "population", ctx)))
    max_age = ctx.take("population.max_age", lambda: int(_need(pop_raw, "max_age", "population", ctx)))
    max_sen = ctx.take("population.max_seniority",
                       lambda: int(_need(pop_raw, "max_seniority", "population", ctx)))
    entry_age = ctx.take("population.entry_age",
                         lambda: int(_need(pop_raw, "entry_age", "population", ctx)))
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
            _resolve(base_dir, _need(pop_raw, "census_csv", "population", ctx)),
            first, sexes, min_age, max_age, max_sen, hasher))
        if census is not None:
            ctx.take("population.census_csv", lambda: census.check_seniority_bound(entry_age))

    ent_raw = raw.get("entrants", {})
    study = ctx.take("entrants.study_years", lambda: int(ent_raw.get("study_years", 5)))
    training = ctx.take("entrants.training_years", lambda: int(ent_raw.get("training_years", 4)))
    factors = {}
    for s in sexes:
        fs = {}
        sex_raw = ent_raw.get("factors", {}).get(s)
        if sex_raw is None:
            ctx.fail(f"entrants.factors.{s}", "missing required field")
            continue
        for name in FACTOR_NAMES:
            fr = sex_raw.get(name)
            if fr is None:
                ctx.fail(f"entrants.factors.{s}.{name}", "missing required field")
                continue
            mean = _schedule(fr.get("mean", 0.0), f"entrants.factors.{s}.{name}.mean", ctx)
            sig = _schedule(fr.get("sigma", 0.0), f"entrants.factors.{s}.{name}.sigma", ctx)
            fs[name] = FactorMoments(mean=mean, sigma=sig)
        factors[s] = fs
    entrants_params = ctx.take("entrants", lambda: EntrantsModelParams(
        factors=factors, study_years=study, training_years=training))

    population = ctx.take("entrants.population_csv", lambda: load_population_series(
        _resolve(base_dir, _need(ent_raw, "population_csv", "entrants", ctx)),
        sexes, int(ent_raw.get("pool_min_age", 18)), int(ent_raw.get("pool_max_age", 25)),
        hasher))

    mort_raw = raw.get("mortality", {})
    mortality = ctx.take("mortality.table_csv", lambda: load_mortality(
        _resolve(base_dir, _need(mort_raw, "table_csv", "mortality", ctx)),
        sexes, int(mort_raw.get("base_year", first)), hasher))

    ret_raw = raw.get("retirement", {})
    types = tuple(ret_raw.get("benefit_types", ()))
    if not types:
        ctx.fail("retirement.benefit_types", "at least one benefit type is required")
    thresholds = {}
    for b in types:
        th = ret_raw.get("thresholds", {}).get(b)
        if th is None:
            ctx.fail(f"retirement.thresholds.{b}", "missing required field")
            continue
        per_sex = {}
        for s in sexes:
            sub = th.get(s, th)
            per_sex[s] = (
                _schedule(sub.get("min_age"), f"retirement.thresholds.{b}.min_age", ctx)
                if sub.get("min_age") is not None else ctx.fail(
                    f"retirement.thresholds.{b}.min_age", "missing required field"),
                _schedule(sub.get("min_seniority"), f"retirement.thresholds.{b}.min_seniority", ctx)
                if sub.get("min_seniority") is not None else ctx.fail(
                    f"retirement.thresholds.{b}.min_seniority", "missing required field"),
            )
        thresholds[b] = per_sex
    retirement = ctx.take("retirement", lambda: RetirementRule(
        benefit_types=types, thresholds=thresholds))

    con_raw = raw.get("contributions", {})
    exemption = ctx.take("contributions.exemption_years",
                         lambda: int(con_raw.get("exemption_years", 0)))
    contribs = {}
    for name in ("subjective", "integrative"):
        sub = con_raw.get(name)
        if sub is None:
            ctx.fail(f"contributions.{name}", "missing required field")
            continue
        rate = _schedule(sub.get("rate", 0.0), f"contributions.{name}.rate", ctx)
        for y in years:
            r = rate.value(y) if rate.covers([y]) else None
            if r is not None and not 0.0 <= r <= 1.0:
                ctx.fail(f"contributions.{name}.rate", f"rate at {y} outside [0, 1]: {r}")
                break
        profile = ctx.take(f"contributions.{name}.profile_csv", lambda sub=sub: load_age_table(
            _resolve(base_dir, _need(sub, "profile_csv", f"contributions.{name}", ctx)),
            sexes, "amount", hasher))
        contribs[name] = ctx.take(f"contributions.{name}", lambda n=name, r=rate, p=profile:
                                  ContributionRule(name=n, rate=r, profile=p,
                                                   exemption_years=exemption))

    ben_raw = raw.get("benefits", {})
    accrual = ctx.take("benefits.accrual_rate", lambda: float(ben_raw.get("accrual_rate", 0.0)))
    backfill = bool(ben_raw.get("backfill_notional", False))
    pre_existing = ctx.take("benefits.pre_existing_profile_csv", lambda: load_age_table(
        _resolve(base_dir, _need(ben_raw, "pre_existing_profile_csv", "benefits", ctx)),
        sexes, "amount", hasher))
    benefits = {}
    for b in types:
        sub = ben_raw.get("types", {}).get(b)
        if sub is None:
            ctx.fail(f"benefits.types.{b}", "missing required field")
            continue
        kind = sub.get("kind", "notional_account")
        conversion = profile = None
        if kind == "notional_account":
            conversion = ctx.take(f"benefits.types.{b}.conversion_csv", lambda sub=sub, b=b:
                                  load_age_table(_resolve(base_dir, _need(
                                      sub, "conversion_csv", f"benefits.types.{b}", ctx)),
                                      sexes, "coefficient", hasher))
        elif kind == "fixed_profile":
            profile = ctx.take(f"benefits.types.{b}.profile_csv", lambda sub=sub, b=b:
                               load_age_table(_resolve(base_dir, _need(
                                   sub, "profile_csv", f"benefits.types.{b}", ctx)),
                                   sexes, "amount", hasher))
        benefits[b] = ctx.take(f"benefits.types.{b}", lambda k=kind, c=conversion, p=profile:
                               BenefitRule(kind=k, conversion=c, profile=p))

    eco_raw = raw.get("economics", {})
    inflation = _schedule(eco_raw.get("inflation", 0.0), "economics.inflation", ctx)
    exp_ret = _schedule(eco_raw.get("expected_return", 0.0), "economics.expected_return", ctx)
    dev_raw = eco_raw.get("return_deviations", {})
    deviations = ctx.take("economics.return_deviations", lambda: Ar1Params(
        phi=float(dev_raw.get("phi", 0.0)), sigma=float(dev_raw.get("sigma", 0.0)),
        x0=float(dev_raw.get("x0", 0.0))))
    economics = ctx.take("economics", lambda: EconomicAssumptions(
        initial_assets=float(_need(eco_raw, "initial_assets", "economics", ctx)),
        admin_base=float(eco_raw.get("admin_base", 0.0)),
        admin_growth=float(eco_raw.get("admin_growth", 0.0)),
        admin_base_year=int(eco_raw.get("admin_base_year", first)),
        inflation=inflation, expected_return=exp_ret, deviations=deviations,
        profile_base_year=int(eco_raw.get("profile_base_year", first))))
    ctx.raise_if_failed()

    cfg = ScenarioConfig(
        first_year=first, last_year=last,
        run=RunSettings(seed=seed, n_reps=n_reps, flags=flags, probes=probes,
                        moments_years=moments_years),
        sexes=sexes, min_age=min_age, max_age=max_age, max_seniority=max_sen,
        entry_age=entry_age, census=census, entrants_params=entrants_params,
        population=population, mortality=mortality, retirement=retirement,
        contrib_subjective=contribs["subjective"],
        contrib_integrative=contribs["integrative"],
        benefits=benefits, pre_existing=pre_existing, accrual_rate=accrual,
        backfill_notional=backfill, economics=economics,
        source_digest=hasher.hexdigest())
    _cross_validate(cfg, ctx)
    ctx.raise_if_failed()
    return cfg


def _cross_validate(cfg: ScenarioConfig, ctx: _Ctx):
    """Coverage checks that need the whole scenario assembled."""
    years = cfg.years
    lag = cfg.entrants_params.study_years + cfg.entrants_params.training_years
    for s in cfg.sexes:
        have = set(cfg.population.expected.get(s, {}))
        need = set(range(cfg.first_year - lag, cfg.last_year - lag + 1))
        missing = sorted(need - have)
        if missing:
            ctx.fail("entrants.population_csv",
                     f"sex {s!r}: population series missing years "
                     f"{missing[0]}..{missing[-1]} needed for the horizon")
        for name in FACTOR_NAMES:
            fm = cfg.entrants_params.factors[s][name]
            for sched, what in ((fm.mean, "mean"), (fm.sigma, "sigma")):
                span = range(cfg.first_year - lag, cfg.last_year + 1)
                if not sched.covers(span):
                    ctx.fail(f"entrants.factors.{s}.{name}.{what}",
                             "schedule does not cover the lagged horizon")
    if cfg.mortality.base_year > cfg.first_year:
        ctx.fail("mortality.base_year",
                 f"{cfg.mortality.base_year} is after the first projection year")
    if (cfg.mortality.min_age > cfg.min_age or cfg.mortality.max_age < cfg.max_age
            or cfg.mortality.sexes != cfg.sexes):
        ctx.fail("mortality.table_csv", "table does not cover the cohort grid")
    if not math.isfinite(cfg.economics.initial_assets):
        ctx.fail("economics.initial_assets", "must be finite")
    for sched, path in ((cfg.economics.inflation, "economics.inflation"),
                        (cfg.economics.expected_return, "economics.expected_return")):
        if not sched.covers(years):
            ctx.fail(path, "schedule does not cover the horizon")
    if cfg.accrual_rate < 0:
        ctx.fail("benefits.accrual_rate", f"must be >= 0, got {cfg.accrual_rate}")
    for b in cfg.retirement.benefit_types:
        for s in cfg.sexes:
            for sched, what in zip(cfg.retirement.thresholds[b][s],
                                   ("min_age", "min_seniority")):
                if sched is None or not sched.covers(years):
                    ctx.fail(f"retirement.thresholds.{b}.{what}",
                             "schedule does not cover the horizon")
