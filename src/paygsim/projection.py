"""Whole-horizon projections.

`run_deterministic_projection` produces the expected-value path through the
cohort engine with every shock at zero; a Monte Carlo run with all shock
families switched off reproduces it exactly, replication by replication.

`stepwise_projection` is a second, independent implementation that evolves
the full (status, sex, age, seniority) grid one year at a time using the
compositional operations, carrying notional balances and pensions in payment
as per-cell totals. It accepts the same shock arrays, so any replication of
the cohort engine can be replayed against it. It is much slower and exists
to cross-check the cohort decomposition, which is why it deliberately shares
none of its evolution code.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cashflows import (FundLedger, NotionalAccounts, build_ledger,
                        contribution_income, pension_disbursement)
from .cohorts import (ACTIVE, RETIRED, death_probability_grid,
                      inject_new_entrants, retirement_assignment, shift_active,
                      shift_retired)
from .config import ScenarioConfig
from .engine import (admin_path, build_system, entrant_moment_tables, entrant_product,
                     opening_balance, price_index, return_rates, simulate_flows)
from .errors import CoverageError


@dataclass
class ProjectionResult:
    """One projected path: yearly euro flows, headcounts and the cent ledger."""

    first_year: int
    years: np.ndarray
    ledger: FundLedger
    subjective: np.ndarray
    integrative: np.ndarray
    disbursements: np.ndarray
    admin: np.ndarray
    rates: np.ndarray
    actives: np.ndarray
    retirees: np.ndarray
    entrants: dict[str, np.ndarray]


def _assemble_result(cfg: ScenarioConfig, flows: dict, rates: np.ndarray,
                     admin: np.ndarray, ne: np.ndarray) -> ProjectionResult:
    ledger = build_ledger(cfg.first_year, cfg.economics.initial_assets,
                          flows["subjective"], flows["integrative"],
                          flows["disbursements"], admin, rates)
    return ProjectionResult(
        first_year=cfg.first_year, years=np.array(cfg.years), ledger=ledger,
        subjective=flows["subjective"], integrative=flows["integrative"],
        disbursements=flows["disbursements"], admin=admin, rates=rates,
        actives=flows["actives"], retirees=flows["retirees"],
        entrants={s: ne[:, si].copy() for si, s in enumerate(cfg.sexes)})


def run_deterministic_projection(cfg: ScenarioConfig) -> ProjectionResult:
    """Expected-value path: every shock at zero, cohort engine throughout."""
    system = build_system(cfg)
    ne = entrant_product(*entrant_moment_tables(cfg), 0.0)
    flows = simulate_flows(system, ne[None])
    rates = return_rates(cfg, np.zeros((1, len(cfg.years))), stochastic=False)
    admin = admin_path(cfg)
    flows = {k: v[0] for k, v in flows.items()}
    return _assemble_result(cfg, flows, rates[0], admin, ne)


# ---------------------------------------------------------------------------
# Reference grid engine


def _initial_totals(cfg: ScenarioConfig):
    """Per-cell notional balances and pensions in payment at the census."""
    census = cfg.census
    notional = np.zeros_like(census.counts[ACTIVE])
    si, ai, ki = np.argwhere(census.counts[ACTIVE] > 0).T
    notional[si, ai, ki] = census.counts[ACTIVE, si, ai, ki] * opening_balance(
        cfg, si, cfg.min_age + ai, ki)
    pensions = np.zeros_like(census.counts[RETIRED])
    for si, ai, ki in np.argwhere(census.counts[RETIRED] > 0):
        pensions[si, ai, ki] = census.counts[RETIRED, si, ai, ki] * \
            cfg.pre_existing.value(cfg.sexes[si], cfg.min_age + int(ai))
    return notional, pensions


def _new_pensions(cfg: ScenarioConfig, benefit_type: str, grid, year: int,
                  moved_counts: np.ndarray, moved_totals: np.ndarray) -> np.ndarray:
    """Pension totals created by one benefit type's retirements this census."""
    ben = cfg.benefits[benefit_type]
    if ben.kind == "notional_account":
        factor = ben.conversion.slice_for(grid)[:, :, None]
        source = moved_totals
    else:
        factor = ben.profile.slice_for(grid)[:, :, None] * price_index(cfg, year)
        source = moved_counts
    live = source != 0.0
    bad = live & ~np.isfinite(np.broadcast_to(factor, source.shape))
    if np.any(bad):
        si, ai, _ = np.argwhere(bad)[0]
        raise CoverageError(
            f"benefit {benefit_type!r} has no coefficient for sex "
            f"{grid.sexes[si]!r} age {grid.min_age + ai}")
    return np.where(live, source * np.nan_to_num(factor), 0.0)


def stepwise_projection(cfg: ScenarioConfig, entrants_path=None,
                        eps_mort=None, eps_ret=None) -> ProjectionResult:
    """Year-by-year grid evolution; shocks may be supplied to replay a path.

    Args:
        cfg: the scenario.
        entrants_path: dict sex -> (n_years,) arrivals; expected path if None.
        eps_mort: (n_years, n_sex, n_mort_ages) mortality shocks, or None.
        eps_ret: (n_years,) return shocks, or None for the expected rate.
    """
    years = cfg.years
    n_years = len(years)
    ec = cfg.economics
    mm = cfg.mortality
    grid = cfg.census
    notional, pensions = _initial_totals(cfg)
    account = NotionalAccounts(accrual_rate=cfg.accrual_rate, totals=notional)
    if entrants_path is None:
        ne = entrant_product(*entrant_moment_tables(cfg), 0.0)
        entrants_path = {s: ne[:, si] for si, s in enumerate(cfg.sexes)}

    prices = price_index(cfg, years)
    out = {k: np.empty(n_years) for k in
           ("subjective", "integrative", "disbursements", "rates",
            "actives", "retirees")}
    x_dev = ec.deviations.x0
    for ti, t in enumerate(years):
        index_t = prices[ti]
        out["subjective"][ti] = contribution_income(grid, cfg.contrib_subjective, t, index_t)
        out["integrative"][ti] = contribution_income(grid, cfg.contrib_integrative, t, index_t)
        out["disbursements"][ti] = pension_disbursement(grid, pensions)
        if eps_ret is None:
            out["rates"][ti] = ec.expected_return.value(t)
        else:
            x_dev = ec.deviations.phi * x_dev + ec.deviations.sigma * float(eps_ret[ti])
            out["rates"][ti] = ec.expected_return.value(t) + x_dev
        out["actives"][ti] = grid.total_active()
        out["retirees"][ti] = grid.total_retired()
        if t == cfg.last_year:
            break

        # end of year t: credit the year's contributions to the accounts
        account.accrue_and_credit(grid, cfg.contrib_subjective, t, index_t)

        # mortality and ageing, applied to counts and totals alike
        lo = grid.min_age - mm.min_age
        q = death_probability_grid(mm, t, None if eps_mort is None else eps_mort[ti])
        surv = (1.0 - q[:, lo:lo + grid.n_ages])[:, :, None]
        counts = np.empty_like(grid.counts)
        counts[ACTIVE] = shift_active(grid.counts[ACTIVE] * surv)
        counts[RETIRED] = shift_retired(grid.counts[RETIRED] * surv)
        account.totals = shift_active(account.totals * surv)
        pensions = shift_retired(pensions * surv)
        grid = replace(grid, year=t + 1, counts=counts)
        grid = inject_new_entrants(
            grid, {s: float(entrants_path[s][ti]) for s in cfg.sexes}, cfg.entry_age)

        # pensions in payment are indexed as the new year opens,
        # before this census's retirements join at their starting level
        pensions = pensions * (1.0 + ec.inflation.value(t + 1))
        counts = grid.counts.copy()
        for b, mask in retirement_assignment(grid, cfg.retirement, t + 1).items():
            moved = np.where(mask, counts[ACTIVE], 0.0)
            moved_bal = np.where(mask, account.totals, 0.0)
            pensions = pensions + _new_pensions(cfg, b, grid, t + 1, moved, moved_bal)
            counts[RETIRED] += moved
            counts[ACTIVE] -= moved
            account.totals = account.totals - moved_bal
        grid = replace(grid, counts=counts)

    return _assemble_result(
        cfg, {k: out[k] for k in ("subjective", "integrative", "disbursements",
                                  "actives", "retirees")},
        out["rates"], admin_path(cfg),
        np.stack([entrants_path[s] for s in cfg.sexes], axis=1))
