"""The table-driven `build_system` against a per-cohort reference.

`reference_build` below is the original implementation, kept here as the
oracle: it walks each cohort record year by year through scalar
`Schedule.value` and `ref_value` lookups, and compounds its own price index
one year at a time. The production build fills all cohorts at once
from per-year and per-(sex, age) tables with the same float operations in
the same order, so every table of the `CohortSystem` must agree bit for bit.
A cohort's retirement year shows in its rows of the retired mask, and its
benefit type in its disbursements wherever the types' tables differ.
"""

from dataclasses import dataclass, fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from conftest import BASE_CSVS, write_scenario
from paygsim import load_config
from paygsim.cohorts import ACTIVE, RETIRED
from paygsim.engine import CohortSystem, build_system
from paygsim.errors import CoverageError
from paygsim.projection import stepwise_projection
from strategies import FIXED_PROFILE, SECOND_CONVERSION, load_variant, scenario_tweaks

ARRAYS = ("initial_counts", "arrival_rows", "qbar", "qsigma", "flow_block",
          "survival_index")


# ---------------------------------------------------------------------------
# Reference: one cohort at a time, one scalar lookup at a time


@dataclass
class RefCohort:
    """One group of members with a common deterministic path."""

    sex: str
    sex_index: int
    first_year: int                 # first census year with the cohort on the grid
    first_age: int
    first_seniority: int
    initially_retired: bool
    initial_count: float            # census headcount; 0 for arrival cohorts
    arrival_year: int | None = None  # entrants: the year whose arrivals feed the cohort
    retirement_year: int | None = None
    benefit_type: str | None = None
    opening_notional: float = 0.0   # per-capita balance the year before first_year


def ref_value(cfg, table, sex, age):
    """One cell of a (sex, age) table on the grid's ages; a CoverageError
    where the table has no value."""
    value = table[cfg.sexes.index(sex), age - cfg.min_age] if cfg.min_age <= age else np.nan
    if np.isnan(value):
        raise CoverageError(f"table has no value for sex {sex!r} age {age}")
    return float(value)


def ref_price_index(cfg, year):
    """Product of (1 + inflation) over the years after the profile base year."""
    out = 1.0
    for y in range(cfg.economics.profile_base_year + 1, year + 1):
        out *= 1.0 + cfg.economics.inflation.value(y)
    return out


def ref_opening_balance(cfg, sex, age, seniority):
    if not cfg.backfill_notional or seniority <= 0:
        return 0.0
    rule = cfg.contrib_subjective
    bal = 0.0
    for sen in range(seniority):
        year = cfg.first_year - seniority + sen
        credit = 0.0
        if sen > cfg.exemption_years:
            credit = (rule.rate.value(year)
                      * ref_value(cfg, rule.profile, sex, age - seniority + sen)
                      * ref_price_index(cfg, year))
        bal = bal * (1.0 + cfg.accrual_rate) + credit
    return bal


def ref_retirement(cfg, sex, first_year, first_age, first_seniority,
                   last_on_grid, first_check_year):
    rule = cfg.retirement
    for t in range(first_check_year, last_on_grid + 1):
        x = first_age + (t - first_year)
        a = min(first_seniority + (t - first_year), cfg.max_seniority)
        best, best_type = -np.inf, None
        for b in rule.benefit_types:
            age_min, sen_min = rule.thresholds[b][sex]
            lead = min(x - age_min.value(t) - 1.0, a - sen_min.value(t))
            if lead > best:
                best, best_type = lead, b
        if best >= 0:
            return t, best_type
    return None, None


def ref_fill(cfg, co, row, subj, integ, disb, active_mask, retired_mask, ages):
    last_on_grid = min(cfg.last_year, co.first_year + (cfg.max_age - co.first_age))
    infl = cfg.economics.inflation
    pension = 0.0
    if co.initially_retired:
        pension = ref_value(cfg, cfg.pre_existing, co.sex, co.first_age)
    bal = co.opening_notional
    for t in range(co.first_year, last_on_grid + 1):
        ti = t - cfg.first_year
        x = co.first_age + (t - co.first_year)
        ages[row, ti] = x
        retired = co.initially_retired or (co.retirement_year is not None
                                           and t >= co.retirement_year)
        if retired:
            if t == co.retirement_year:
                ben = cfg.benefits[co.benefit_type]
                if ben.kind == "notional_account":
                    pension = bal * ref_value(cfg, ben.table, co.sex, x)
                else:
                    pension = ref_value(cfg, ben.table, co.sex, x) * ref_price_index(cfg, t)
            elif t > co.first_year:
                pension *= 1.0 + infl.value(t)
            retired_mask[row, ti] = True
            disb[row, ti] = pension
            continue
        active_mask[row, ti] = True
        sen = min(co.first_seniority + (t - co.first_year), cfg.max_seniority)
        if sen > cfg.exemption_years:
            idx = ref_price_index(cfg, t)
            subj[row, ti] = (cfg.contrib_subjective.rate.value(t)
                             * ref_value(cfg, cfg.contrib_subjective.profile, co.sex, x) * idx)
            integ[row, ti] = (cfg.contrib_integrative.rate.value(t)
                              * ref_value(cfg, cfg.contrib_integrative.profile, co.sex, x) * idx)
        bal = bal * (1.0 + cfg.accrual_rate) + subj[row, ti]


def ref_survival_index(cfg, cohorts, ages):
    """Each cohort's cell of the year's survival row, for every year but the
    last: its (sex, age) cell of the mortality table, or the 1.0 cell off the
    grid, or the 0.0 cell at the terminal age."""
    mm = cfg.mortality
    n_mort_ages = mm.max_age - mm.min_age + 1
    n_cells = len(cfg.sexes) * n_mort_ages
    out = np.empty((len(cfg.years) - 1, len(cohorts)), dtype=int)
    for row, co in enumerate(cohorts):
        for ti in range(len(cfg.years) - 1):
            age = ages[row, ti]
            if age < 0:
                out[ti, row] = n_cells
            elif age == cfg.max_age:
                out[ti, row] = n_cells + 1
            else:
                out[ti, row] = co.sex_index * n_mort_ages + age - mm.min_age
    return out


def reference_build(cfg):
    """Cohort records and the `CohortSystem` tables, built the per-cohort way."""
    years = cfg.years
    n_years = len(years)
    census = cfg.census
    cohorts = []
    for status in (ACTIVE, RETIRED):
        for si, ai, ki in np.argwhere(census[status] > 0):
            sex = cfg.sexes[si]
            age = cfg.min_age + int(ai)
            co = RefCohort(sex=sex, sex_index=int(si), first_year=cfg.first_year,
                           first_age=age, first_seniority=int(ki),
                           initially_retired=status == RETIRED,
                           initial_count=float(census[status, si, ai, ki]))
            if status == ACTIVE:
                co.opening_notional = ref_opening_balance(cfg, sex, age, int(ki))
            cohorts.append(co)
    arrival_rows = np.full((n_years, len(cfg.sexes)), -1, dtype=int)
    for te in years[:-1]:
        for si, sex in enumerate(cfg.sexes):
            arrival_rows[te - cfg.first_year, si] = len(cohorts)
            cohorts.append(RefCohort(sex=sex, sex_index=si, first_year=te + 1,
                                     first_age=cfg.entry_age, first_seniority=0,
                                     initially_retired=False, initial_count=0.0,
                                     arrival_year=te))
    n = len(cohorts)
    out = {k: np.zeros((n, n_years)) for k in ("subjective", "integrative", "disbursement")}
    out["active_mask"] = np.zeros((n, n_years), dtype=bool)
    out["retired_mask"] = np.zeros((n, n_years), dtype=bool)
    out["ages"] = np.full((n, n_years), -1, dtype=np.int32)
    for row, co in enumerate(cohorts):
        last_on_grid = min(cfg.last_year, co.first_year + (cfg.max_age - co.first_age))
        if not co.initially_retired:
            first_check = co.first_year if co.arrival_year is not None else co.first_year + 1
            co.retirement_year, co.benefit_type = ref_retirement(
                cfg, co.sex, co.first_year, co.first_age, co.first_seniority,
                last_on_grid, first_check)
        ref_fill(cfg, co, row, out["subjective"], out["integrative"],
                 out["disbursement"], out["active_mask"], out["retired_mask"], out["ages"])
    mm = cfg.mortality
    qbar = np.empty((n_years, len(cfg.sexes), mm.max_age - mm.min_age + 1))
    for ti, t in enumerate(years):
        qbar[ti] = np.minimum(1.0, (1.0 + mm.drift) ** (t - mm.base_year) * mm.q0)
    # year-major rows in `FLOWS` order: three per-capita flows, then the masks
    flow_block = np.stack([out[k].T.astype(float) for k in (
        "subjective", "integrative", "disbursement", "active_mask", "retired_mask")], axis=1)
    tables = dict(initial_counts=np.array([c.initial_count for c in cohorts]),
                  arrival_rows=arrival_rows, qbar=qbar, qsigma=mm.sigma,
                  flow_block=flow_block,
                  survival_index=ref_survival_index(cfg, cohorts, out["ages"]))
    return cohorts, tables


def assert_same_build(cfg):
    """Build both ways, compare every table bit for bit and return the
    production system with the reference's cohort records."""
    system = build_system(cfg)
    cohorts, tables = reference_build(cfg)
    for name in ARRAYS:
        got, want = getattr(system, name), tables[name]
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name  # bit for bit, -0.0 included
    assert system.n_cohorts == len(cohorts)
    return system, cohorts


def chosen_types(cohorts):
    return {c.benefit_type for c in cohorts if c.retirement_year}


# ---------------------------------------------------------------------------


def test_bundled_scenario(cfg):
    system, _ = assert_same_build(cfg)
    assert system.n_cohorts == 214


def test_system_holds_only_the_simulated_tables():
    assert [f.name for f in fields(CohortSystem)] == [
        "first_year", "last_year", "sexes", *ARRAYS]


def test_small_scenario(small_scenario):
    assert_same_build(load_config(small_scenario))


def test_small_scenario_without_backfill(tmp_path):
    assert_same_build(load_config(write_scenario(
        str(tmp_path), tweaks={"benefits": {"backfill_notional": False}})))


def test_tied_types_go_to_the_first_listed(tmp_path):
    same = {"min_age": 40, "min_seniority": 5}
    cfg = load_config(write_scenario(str(tmp_path), tweaks={
        "retirement": {"benefit_types": ["old_age", "twin"],
                       "thresholds": {"old_age": same, "twin": same}},
        "benefits": {"types": {"twin": {"kind": "notional_account",
                                        "conversion_csv": "conversion2.csv"}}}},
        csv_overrides={"conversion2.csv": SECOND_CONVERSION}))
    # twin converts at other rates, so the tie-break shows in the disbursements
    _, cohorts = assert_same_build(cfg)
    assert chosen_types(cohorts) == {"old_age"}


def test_fixed_profile_benefit(tmp_path):
    # the fixed type asks for less, so it has the wider lead
    cfg = load_config(write_scenario(str(tmp_path), tweaks={
        "retirement": {"benefit_types": ["old_age", "flat"],
                       "thresholds": {"old_age": {"min_age": 40, "min_seniority": 8},
                                      "flat": {"min_age": 38, "min_seniority": 3}}},
        "benefits": {"types": {"flat": {"kind": "fixed_profile",
                                        "profile_csv": "fixed.csv"}}}},
        csv_overrides={"fixed.csv": FIXED_PROFILE}))
    system, cohorts = assert_same_build(cfg)
    assert chosen_types(cohorts) == {"flat"}
    assert system.flow_block[1:, 2].any()


class TestCoverage:
    """A table gap raises only where some cohort actually visits it."""

    @staticmethod
    def _config(tmp_path, name, keep):
        header, *rows = BASE_CSVS[name]
        kept = [r for r in rows if keep(int(r.split(",")[1]))]
        return load_config(write_scenario(str(tmp_path), csv_overrides={name: [header] + kept}))

    def _build(self, tmp_path, name, keep):
        return build_system(self._config(tmp_path, name, keep))

    def test_unvisited_income_ages_may_be_missing(self, tmp_path):
        # everybody retires at 41, so no active ever reaches 45
        self._build(tmp_path, "income.csv", lambda age: age < 45)

    def test_visited_income_age_must_be_present(self, tmp_path):
        with pytest.raises(CoverageError, match="subjective profile"):
            self._build(tmp_path, "income.csv", lambda age: age != 35)

    def test_backcast_income_age_must_be_present(self, tmp_path):
        # the census cell aged 38 with seniority 8 entered at 30
        with pytest.raises(CoverageError, match="history"):
            self._build(tmp_path, "income.csv", lambda age: age != 32)

    def test_the_oracle_reports_the_same_backcast_gap(self, tmp_path):
        cfg = self._config(tmp_path, "income.csv", lambda age: age != 32)
        messages = []
        for project in (build_system, stepwise_projection):
            with pytest.raises(CoverageError) as exc:
                project(cfg)
            messages.append(str(exc.value))
        assert messages == ["subjective profile has a gap in the history of "
                            "sex 'male' age 35 seniority 5"] * 2

    def test_backcast_may_not_leave_the_grid(self, small_scenario):
        # an active aged 33 with seniority 10 entered at 23, below the grid;
        # load_config refuses such a census, so this one is put in by hand
        cfg = load_config(small_scenario)
        counts = cfg.census.copy()
        counts[ACTIVE, 0, 33 - cfg.min_age, 10] = 1.0
        cfg = replace(cfg, census=counts)
        for project in (build_system, stepwise_projection):
            with pytest.raises(CoverageError, match="age grid"):
                project(cfg)

    def test_unvisited_conversion_ages_may_be_missing(self, tmp_path):
        self._build(tmp_path, "conversion.csv", lambda age: age >= 41)

    def test_visited_conversion_age_must_be_present(self, tmp_path):
        with pytest.raises(CoverageError, match="conversion"):
            self._build(tmp_path, "conversion.csv", lambda age: age != 41)

    @staticmethod
    def _without_pension_row(tmp_path, row):
        header, *rows = BASE_CSVS["pensions.csv"]
        return load_config(write_scenario(str(tmp_path), csv_overrides={
            "pensions.csv": [header] + [r for r in rows if not r.startswith(row)]}))

    def test_a_census_retirees_pension_must_be_present(self, tmp_path):
        # the census retirees are aged 42
        cfg = self._without_pension_row(tmp_path, "male,42,")
        for project in (build_system, stepwise_projection):
            with pytest.raises(CoverageError, match="sex 'male' age 42"):
                project(cfg)

    def test_pension_ages_no_retiree_holds_may_be_missing(self, tmp_path):
        cfg = self._without_pension_row(tmp_path, "male,45,")
        assert_same_build(cfg)
        stepwise_projection(cfg)


# ---------------------------------------------------------------------------
# Random variants of the small scenario

@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario_tweaks())
def test_random_variants_build_identically(tweaks):
    assert_same_build(load_variant(tweaks))
