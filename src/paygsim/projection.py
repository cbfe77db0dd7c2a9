"""Whole-horizon projections.

`run_deterministic_projection` produces the expected-value path through the
cohort engine with every shock at zero; a Monte Carlo run with all shock
families switched off reproduces it exactly, replication by replication.

`stepwise_projection` is a second, independent implementation that evolves
the full (status, sex, age, seniority) grid one year at a time using the
year step of `cohorts` (`age_one_year`, `inject_new_entrants`, `retire`),
carrying notional balances and pensions in payment as per-cell totals. It
accepts the same shock arrays, so any replication of the cohort engine can be
replayed against it. It is much slower and exists to cross-check the cohort
decomposition, which is why it deliberately shares none of the engine's
evolution code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cashflows
from .cashflows import accrue_and_credit, contribution_income, pension_disbursement, to_cents
from .cohorts import ACTIVE, RETIRED, age_one_year, inject_new_entrants, retire
from .config import ScenarioConfig
from .engine import (admin_path, build_system, entrant_moment_tables, entrant_product,
                     opening_balance, price_index, return_rates, simulate_flows)
from .errors import CoverageError


@dataclass
class ProjectionResult:
    """One projected path: yearly euro flows, headcounts and the cent ledger,
    which maps each of `cashflows.LEDGER_COLUMNS` to its (n_years,) array."""

    first_year: int
    years: np.ndarray
    ledger: dict[str, np.ndarray]
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
    # looked up on its module, where perfbench's tracer wraps it
    ledger = cashflows.ledger_columns(int(to_cents(cfg.economics.initial_assets)),
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


def _initial_totals(cfg: ScenarioConfig) -> np.ndarray:
    """Per-cell totals shaped like the census counts: notional balances on the
    active layer, pensions in payment on the retired layer."""
    counts = cfg.census.counts
    totals = np.zeros_like(counts)
    si, ai, ki = np.argwhere(counts[ACTIVE] > 0).T
    totals[ACTIVE, si, ai, ki] = counts[ACTIVE, si, ai, ki] * opening_balance(
        cfg, si, cfg.min_age + ai, ki)
    for si, ai, ki in np.argwhere(counts[RETIRED] > 0):
        totals[RETIRED, si, ai, ki] = counts[RETIRED, si, ai, ki] * \
            cfg.pre_existing.value(cfg.sexes[si], cfg.min_age + int(ai))
    return totals


def _replay_input(name: str, value, shape: tuple) -> np.ndarray | None:
    """A replay argument as a float array shaped for the horizon; None stays None."""
    if value is None:
        return None
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
    return arr


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
    A replay argument shaped otherwise than below, or an entrants_path naming
    other sexes, is a ValueError raised before year 1.

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
    if entrants_path is None:
        ne = entrant_product(*entrant_moment_tables(cfg), 0.0)
    elif set(entrants_path) != set(cfg.sexes):
        raise ValueError(f"entrants_path has sexes {sorted(entrants_path)}, "
                         f"expected {sorted(cfg.sexes)}")
    else:
        ne = np.stack([_replay_input(f"entrants_path[{s!r}]", entrants_path[s], (n_years,))
                       for s in cfg.sexes], axis=1)
    eps_mort = _replay_input("eps_mort", eps_mort, (n_years,) + mm.q0.shape)
    eps_ret = _replay_input("eps_ret", eps_ret, (n_years,))

    grid = cfg.census
    totals = _initial_totals(cfg)
    prices = price_index(cfg, years)
    out = {k: np.empty(n_years) for k in ("subjective", "integrative", "disbursements",
                                          "rates", "actives", "retirees")}
    x_dev = ec.deviations.x0
    for ti, t in enumerate(years):
        index_t = prices[ti]
        out["subjective"][ti] = contribution_income(grid, cfg.contrib_subjective, t, index_t)
        out["integrative"][ti] = contribution_income(grid, cfg.contrib_integrative, t, index_t)
        out["disbursements"][ti] = pension_disbursement(grid, totals[RETIRED])
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
        totals[ACTIVE] = accrue_and_credit(totals[ACTIVE], grid, cfg.contrib_subjective,
                                           t, index_t, cfg.accrual_rate)
        grid, totals = age_one_year(grid, mm, None if eps_mort is None else eps_mort[ti],
                                    totals)
        grid = inject_new_entrants(
            grid, {s: float(ne[ti, si]) for si, s in enumerate(cfg.sexes)}, cfg.entry_age)

        # pensions in payment are indexed as the new year opens,
        # before this census's retirements join at their starting level
        totals[RETIRED] *= 1.0 + ec.inflation.value(t + 1)
        active = grid.counts[ACTIVE]
        grid, masks = retire(grid, cfg.retirement)
        for b, mask in masks.items():
            moved_bal = np.where(mask, totals[ACTIVE], 0.0)
            totals[RETIRED] += _new_pensions(cfg, b, grid, t + 1,
                                             np.where(mask, active, 0.0), moved_bal)
            totals[ACTIVE] -= moved_bal

    return _assemble_result(cfg, out, out["rates"], admin_path(cfg), ne)
