"""Fund cash flows and the yearly ledger recursion.

One ledger row per calendar year, mirroring the classical nine-column
statement: opening value A, subjective contributions B, integrative
contributions C, pension disbursements D, pension balance E = B + C - D,
investment income F = A * r, administration costs G, total balance
H = E + F - G, closing value I = A + H. The closing value of one year is the
opening value of the next.

Currency is held as integer cents. Primitive flows (B, C, D, G, F) are
quantized half away from zero when they enter a row; the derived columns are
exact integer sums, so the identities hold to the cent on every row and
re-parse stably from the emitted files. Thousand-unit rounding happens only
at report formatting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CoverageError, StateError
from .schedules import Schedule
from .stochastic import Ar1Params, ar1_step
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
    """Display rounding: cents to thousands of currency units, halves up."""
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


def admin_expense(ec: EconomicAssumptions, year: int) -> float:
    """Administration costs grow geometrically from the base year."""
    return ec.admin_base * (1.0 + ec.admin_growth) ** (year - ec.admin_base_year)


def inflation_index(ec: EconomicAssumptions, year: int) -> float:
    """Cumulative price factor from the profile base year to `year`."""
    if year < ec.profile_base_year:
        raise CoverageError(f"year {year} precedes profile base year {ec.profile_base_year}")
    out = 1.0
    for y in range(ec.profile_base_year + 1, year + 1):
        out *= 1.0 + ec.inflation.value(y)
    return out


def sample_return(ec: EconomicAssumptions, x_prev: float, year: int, eps,
                  stochastic: bool) -> tuple[float, float]:
    """Yearly return: expected base rate plus the AR(1) deviation.

    With the flag off the deviation is pinned at 0 and eps is ignored, so a
    deterministic run never develops return memory.
    """
    x_new = float(ar1_step(ec.deviations, x_prev, eps)) if stochastic else 0.0
    return ec.expected_return.value(year) + x_new, x_new


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


def _contributing_counts(grid: CohortGrid, exemption_years: int) -> np.ndarray:
    """(n_sex, n_age) active headcount past the contribution exemption."""
    start = exemption_years + 1
    if start > grid.max_seniority:
        return np.zeros((len(grid.sexes), grid.n_ages))
    return grid.counts[ACTIVE, :, :, start:].sum(axis=2)


def contribution_income(grid: CohortGrid, rule: ContributionRule, year: int,
                        price_index: float) -> float:
    """Total stream income for the year from the start-of-year census."""
    counts = _contributing_counts(grid, rule.exemption_years)
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


@dataclass
class NotionalAccounts:
    """Accumulated subjective contributions of the active cells, as cell totals.

    totals is aligned with the active layer of a CohortGrid. Balances grow by
    the accrual rate plus newly credited contributions, and otherwise move
    with their cohort. Storing totals (not per-capita values) makes merges and
    mortality scaling exact.
    """

    accrual_rate: float
    totals: np.ndarray

    def accrue_and_credit(self, grid: CohortGrid, rule: ContributionRule,
                          year: int, price_index: float) -> None:
        """End-of-year update: one year of accrual plus the year's credits."""
        counts = grid.counts[ACTIVE]
        base = rule.profile.slice_for(grid)
        percap = rule.rate.value(year) * np.where(np.isnan(base), 0.0, base) * price_index
        credit = counts * percap[:, :, None]
        credit[:, :, :rule.exemption_years + 1] = 0.0
        self.totals = self.totals * (1.0 + self.accrual_rate) + credit


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


@dataclass(frozen=True)
class LedgerRow:
    """One year of the fund statement, all amounts in integer cents."""

    year: int
    value_start: int
    contrib_subjective: int
    contrib_integrative: int
    disbursements: int
    pension_balance: int
    investment_income: int
    admin_costs: int
    total_balance: int
    value_end: int

    COLUMNS = ("value_start", "contrib_subjective", "contrib_integrative",
               "disbursements", "pension_balance", "investment_income",
               "admin_costs", "total_balance", "value_end")
    LETTERS = dict(zip("ABCDEFGHI", COLUMNS))

    def identities_hold(self) -> bool:
        return (self.pension_balance == self.contrib_subjective
                + self.contrib_integrative - self.disbursements
                and self.total_balance == self.pension_balance
                + self.investment_income - self.admin_costs
                and self.value_end == self.value_start + self.total_balance)


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
    return {
        "value_start": value_start, "contrib_subjective": subj,
        "contrib_integrative": integ, "disbursements": disb,
        "pension_balance": pension, "investment_income": invest,
        "admin_costs": admin, "total_balance": total, "value_end": value_end,
    }


@dataclass(frozen=True)
class FundLedger:
    """Full-horizon statement: one row per year, columns as int64 cent arrays."""

    first_year: int
    columns: dict[str, np.ndarray] = field(repr=False)

    @property
    def years(self) -> np.ndarray:
        return np.arange(self.first_year, self.first_year + self.n_years)

    @property
    def n_years(self) -> int:
        return len(self.columns["value_start"])

    def row(self, year: int) -> LedgerRow:
        t = year - self.first_year
        if not 0 <= t < self.n_years:
            raise CoverageError(f"ledger does not cover year {year}")
        return LedgerRow(year=year, **{c: int(self.columns[c][t]) for c in LedgerRow.COLUMNS})

    def rows(self):
        return [self.row(int(y)) for y in self.years]

    def identities_hold(self) -> bool:
        return all(r.identities_hold() for r in self.rows())


def step_fund_value(year: int, value_start_cents: int, subj_eur: float,
                    integ_eur: float, disb_eur: float, admin_eur: float,
                    rate: float) -> LedgerRow:
    """One ledger row from that year's flows and return."""
    cols = ledger_columns(value_start_cents, [subj_eur], [integ_eur],
                          [disb_eur], [admin_eur], [rate])
    return LedgerRow(year=year, **{c: int(cols[c][0]) for c in LedgerRow.COLUMNS})


def build_ledger(first_year: int, opening_eur: float, subj_eur, integ_eur,
                 disb_eur, admin_eur, rates) -> FundLedger:
    """Assemble the statement for a whole horizon of euro flows."""
    cols = ledger_columns(int(to_cents(opening_eur)), subj_eur, integ_eur,
                          disb_eur, admin_eur, rates)
    return FundLedger(first_year=first_year, columns=cols)
