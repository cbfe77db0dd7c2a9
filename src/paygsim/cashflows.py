"""Fund cash flows and the yearly ledger recursion.

A ledger is a mapping from the nine columns of the classical statement to
int64 cent arrays whose last axis is the calendar year: opening value A,
subjective contributions B, integrative contributions C, pension
disbursements D, pension balance E = B + C - D, investment income F = A * r,
administration costs G, total balance H = E + F - G, closing value
I = A + H. The closing value of one year is the opening value of the next.

Currency is held as integer cents. Primitive flows (B, C, D, G, F) are
quantized half away from zero when they enter the ledger; the derived
columns are exact integer sums, so the identities hold to the cent in every
year and re-parse stably from the emitted files. Thousand-unit rounding
happens only at report formatting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, StateError
from .schedules import Schedule
from .stochastic import Ar1Params
from .cohorts import ACTIVE, RETIRED, CohortGrid


def round_half_away(x):
    """Round to integer, halves away from zero."""
    x = np.asarray(x, dtype=float)
    return np.trunc(x + np.copysign(0.5, x)).astype(np.int64)[()]


def to_cents(x):
    """Quantize euros to int64 cents, halves away from zero; StateError if they do not fit."""
    cents = np.asarray(x, dtype=float) * 100.0
    bad = ~(np.abs(cents) < 2.0 ** 63)  # NaN fails the comparison too
    if bad.any():
        raise StateError(f"{cents[bad].flat[0] / 100.0} euros do not fit in int64 cents")
    return round_half_away(cents)


def cents_to_thousands(cents):
    """Display rounding: cents to thousands of currency units, halves away from zero."""
    c = np.asarray(cents, dtype=np.int64)
    sign = np.where(c < 0, -1, 1)
    return (sign * ((np.abs(c) + 50_000) // 100_000)).astype(np.int64)[()]


@dataclass(frozen=True)
class AgeProfile:
    """Per-(sex, age) amounts, e.g. incomes or pensions at base-year prices.

    values has shape (n_sex, n_age); missing cells are NaN and asking for one
    raises a coverage error.
    """

    sexes: tuple[str, ...]
    min_age: int
    max_age: int
    values: np.ndarray

    def __post_init__(self):
        want = (len(self.sexes), self.max_age - self.min_age + 1)
        if self.values.shape != want:
            raise ValueError(f"values shape {self.values.shape}, expected {want}")

    def value(self, sex: str, age: int) -> float:
        if sex not in self.sexes:
            raise CoverageError(f"profile has no sex {sex!r}")
        if not self.min_age <= age <= self.max_age:
            raise CoverageError(f"profile does not cover age {age}")
        v = self.values[self.sexes.index(sex), age - self.min_age]
        if np.isnan(v):
            raise CoverageError(f"profile has no value for sex {sex!r} age {age}")
        return float(v)

    def slice_for(self, grid: CohortGrid) -> np.ndarray:
        """(n_sex, n_age) values aligned with a grid's age axis (NaN where missing)."""
        if self.sexes != grid.sexes:
            raise CoverageError("profile sexes do not match the grid")
        out = np.full((len(grid.sexes), grid.n_ages), np.nan)
        lo = max(self.min_age, grid.min_age)
        hi = min(self.max_age, grid.max_age)
        if lo <= hi:
            out[:, lo - grid.min_age:hi - grid.min_age + 1] = \
                self.values[:, lo - self.min_age:hi - self.min_age + 1]
        return out


@dataclass(frozen=True)
class EconomicAssumptions:
    """Fund-level economic inputs shared by every flow."""

    initial_assets: float          # euros at the first opening date
    admin_base: float              # euros at admin_base_year
    admin_growth: float
    admin_base_year: int
    inflation: Schedule            # rate in force during each year
    expected_return: Schedule
    deviations: Ar1Params          # AR(1) around the expected return
    profile_base_year: int         # prices at which the age profiles are stated


@dataclass(frozen=True)
class ContributionRule:
    """One contribution stream: rate schedule times an age profile.

    The profile is stated at profile_base_year prices and appreciated by
    cumulative inflation. Cells with seniority <= exemption_years pay nothing.
    """

    name: str
    rate: Schedule
    profile: AgeProfile
    exemption_years: int

    def __post_init__(self):
        if self.exemption_years < 0:
            raise ValueError("exemption_years must be >= 0")


def contribution_income(grid: CohortGrid, rule: ContributionRule, year: int,
                        price_index: float) -> float:
    """Total stream income for the year from the start-of-year census."""
    counts = grid.counts[ACTIVE, :, :, rule.exemption_years + 1:].sum(axis=2)  # past exemption
    base = rule.profile.slice_for(grid)
    populated = counts > 0
    if np.any(populated & np.isnan(base)):
        si, ai = np.argwhere(populated & np.isnan(base))[0]
        raise CoverageError(
            f"{rule.name} profile has no value for sex {grid.sexes[si]!r} "
            f"age {grid.min_age + ai} but the cell is populated"
        )
    rate = rule.rate.value(year)
    return float(np.nansum(counts * base) * rate * price_index)


def accrue_and_credit(balances: np.ndarray, grid: CohortGrid, rule: ContributionRule,
                      year: int, price_index: float, accrual_rate: float) -> np.ndarray:
    """End-of-year notional balances: one year of accrual plus the year's credits.
    balances are per-cell totals on a grid's active layer; totals (not per-capita
    values) make merges and mortality scaling exact."""
    base = rule.profile.slice_for(grid)
    percap = rule.rate.value(year) * np.where(np.isnan(base), 0.0, base) * price_index
    credit = grid.counts[ACTIVE] * percap[:, :, None]
    credit[:, :, :rule.exemption_years + 1] = 0.0
    return balances * (1.0 + accrual_rate) + credit


@dataclass(frozen=True)
class BenefitRule:
    """How one benefit type turns a retiring cohort into an annual pension.

    kind "notional_account": the per-capita balance times the conversion
    coefficient at the retirement age. kind "fixed_profile": a per-(sex, age)
    pension profile at base-year prices, appreciated to the retirement year.
    Every pension in payment is then indexed to inflation annually.
    """

    kind: str
    conversion: AgeProfile | None = None
    profile: AgeProfile | None = None

    def __post_init__(self):
        if self.kind not in ("notional_account", "fixed_profile"):
            raise ValueError(f"unknown benefit kind {self.kind!r}")
        if self.kind == "notional_account" and self.conversion is None:
            raise ValueError("notional_account benefits need conversion coefficients")
        if self.kind == "fixed_profile" and self.profile is None:
            raise ValueError("fixed_profile benefits need a pension profile")


def pension_disbursement(grid: CohortGrid, benefit_totals: np.ndarray) -> float:
    """Total pensions paid during the year to the start-of-year retirees.

    benefit_totals is aligned with the retired layer and already holds this
    year's price level. A populated retired cell without any assigned benefit
    is a state error, not a zero.
    """
    if benefit_totals.shape != grid.counts[RETIRED].shape:
        raise ValueError("benefit totals are not aligned with the retired layer")
    orphan = (grid.counts[RETIRED] > 0) & ~(benefit_totals > 0)
    if np.any(orphan):
        si, ai, ki = np.argwhere(orphan)[0]
        raise StateError(
            f"retiree cohort sex {grid.sexes[si]!r} age {grid.min_age + ai} "
            f"seniority {ki} has no benefit assignment"
        )
    return float(benefit_totals.sum())


LEDGER_COLUMNS = ("value_start", "contrib_subjective", "contrib_integrative",
                  "disbursements", "pension_balance", "investment_income",
                  "admin_costs", "total_balance", "value_end")
LEDGER_LETTERS = dict(zip("ABCDEFGHI", LEDGER_COLUMNS))


def ledger_columns(opening_cents: int, subj_eur, integ_eur, disb_eur,
                   admin_eur, rates) -> dict[str, np.ndarray]:
    """Cent-exact ledger columns from euro flow arrays.

    Flow arrays may be (n_years,) or (n_reps, n_years); the recursion runs
    along the last axis. Investment income is the opening value times the
    year's return, quantized like any primitive flow. An amount that int64
    cents cannot hold raises StateError instead of wrapping around.
    """
    subj = to_cents(subj_eur)
    integ = to_cents(integ_eur)
    disb = to_cents(disb_eur)
    admin = to_cents(admin_eur)
    rates = np.asarray(rates, dtype=float)
    shape = np.broadcast_shapes(subj.shape, integ.shape, disb.shape, admin.shape, rates.shape)
    subj, integ, disb, admin, rates = (np.broadcast_to(a, shape).copy()
                                       for a in (subj, integ, disb, admin, rates))
    gross = subj + integ
    pension = gross - disb
    value_start = np.empty(shape, dtype=np.int64)
    invest = np.empty(shape, dtype=np.int64)
    total = np.empty(shape, dtype=np.int64)
    value_end = np.empty(shape, dtype=np.int64)
    opening = np.broadcast_to(np.int64(opening_cents), shape[:-1]).copy()
    for t in range(shape[-1]):
        value_start[..., t] = opening
        income = opening * rates[..., t]
        if not np.all(np.abs(income) < 2.0 ** 63):  # NaN fails the comparison too
            raise StateError(f"investment income of year {t + 1} of the horizon "
                             "does not fit in int64 cents")
        invest[..., t] = round_half_away(income)
        total[..., t] = pension[..., t] + invest[..., t] - admin[..., t]
        opening = opening + total[..., t]
        value_end[..., t] = opening
    # the integer sums above wrap silently; a wrapped sum has the sign of
    # neither term (the subtrahends are to_cents outputs, so negating is safe)
    net = pension + invest
    for what, a, b, got in (("contributions", subj, integ, gross),
                            ("pension balance", gross, -disb, pension),
                            ("total balance", pension, invest, net),
                            ("total balance", net, -admin, total),
                            ("closing value", value_start, total, value_end)):
        if np.any(((a ^ got) & (b ^ got)) < 0):
            raise StateError(f"{what} does not fit in int64 cents")
    return dict(zip(LEDGER_COLUMNS, (value_start, subj, integ, disb, pension, invest,
                                     admin, total, value_end)))


def identities_hold(ledger) -> bool:
    """Whether E = B + C - D, H = E + F - G and I = A + H hold to the cent in
    every cell of a ledger mapping, whatever its columns' shape."""
    a, b, c, d, e, f, g, h, i = (np.asarray(ledger[k]) for k in LEDGER_COLUMNS)
    return (np.array_equal(e, b + c - d) and np.array_equal(h, e + f - g)
            and np.array_equal(i, a + h))
