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
from .cohorts import ACTIVE


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
class EconomicAssumptions:
    """Fund-level economic inputs shared by every flow."""

    initial_assets: float          # euros at the first opening date
    admin_base: float              # euros at admin_base_year
    admin_growth: float
    admin_base_year: int
    inflation: Schedule            # rate in force during each year
    expected_return: Schedule
    deviations: Ar1Params          # AR(1) around the expected return
    profile_base_year: int         # prices at which the age tables are stated


@dataclass(frozen=True)
class ContributionRule:
    """One contribution stream: rate schedule times an age profile.

    The profile is a (sex, age) array on the cohort grid's ages, NaN where its
    table has no row, stated at profile_base_year prices and appreciated by
    cumulative inflation. Both streams share one exemption, the scenario's
    `exemption_years`: cells with seniority at or below it pay nothing.
    """

    name: str
    rate: Schedule
    profile: np.ndarray


def contribution_income(counts: np.ndarray, year: int, sexes, min_age: int,
                        rule: ContributionRule, price_index: float, exemption_years: int) -> float:
    """Total stream income for the year from the start-of-year census counts."""
    paying = counts[ACTIVE, :, :, exemption_years + 1:].sum(axis=2)  # past exemption
    for si, ai in np.argwhere((paying > 0) & np.isnan(rule.profile))[:1]:
        raise CoverageError(
            f"{rule.name} profile has no value for sex {sexes[si]!r} "
            f"age {min_age + ai} but the cell is populated"
        )
    return float(np.nansum(paying * rule.profile) * rule.rate.value(year) * price_index)


def accrue_and_credit(balances: np.ndarray, counts: np.ndarray, year: int,
                      rule: ContributionRule, price_index: float, accrual_rate: float,
                      exemption_years: int) -> np.ndarray:
    """End-of-year notional balances: one year of accrual plus the year's credits.
    balances are per-cell totals on the counts' active layer; totals (not per-capita
    values) make merges and mortality scaling exact."""
    percap = rule.rate.value(year) * np.nan_to_num(rule.profile) * price_index
    credit = counts[ACTIVE] * percap[:, :, None]
    credit[:, :, :exemption_years + 1] = 0.0
    return balances * (1.0 + accrual_rate) + credit


@dataclass(frozen=True)
class BenefitRule:
    """How one benefit type turns a retiring cohort into an annual pension.

    Each type reads one (sex, age) table, like `ContributionRule.profile`,
    and its kind says what the table holds. "notional_account": conversion
    coefficients; the pension is the per-capita balance times the coefficient
    at the retirement age. "fixed_profile": pensions at base-year prices,
    appreciated to the retirement year. Every pension in payment is then
    indexed to inflation annually.
    """

    kind: str
    table: np.ndarray


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
    cents = []
    for name, eur in zip((*LEDGER_COLUMNS[1:4], LEDGER_COLUMNS[6]),
                         (subj_eur, integ_eur, disb_eur, admin_eur)):
        try:
            cents.append(to_cents(eur))
        except StateError as exc:  # name the column and the year of the amount refused
            t = (~(np.abs(np.asarray(eur, dtype=float) * 100.0) < 2.0 ** 63)).nonzero()[-1][0]
            raise StateError(f"{name} of year {t + 1} of the horizon: {exc}") from None
    subj, integ, disb, admin = cents
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
