"""Whole-horizon projections.

`run_deterministic_projection` produces the expected-value path through the
cohort engine with every shock at zero; a Monte Carlo run with all shock
families switched off reproduces it exactly, replication by replication.

`stepwise_projection` is a second, independent implementation that evolves
the full (status, sex, age, seniority) counts one year at a time using the
year step of `cohorts` (`age_one_year`, `inject_new_entrants`, `retire`),
carrying notional balances and pensions in payment as per-cell totals. It
accepts the same shock arrays, so any replication of the cohort engine can be
replayed against it. It is much slower and exists to cross-check the cohort
decomposition, so it shares none of the engine's evolution code: it replays
the census accounts' backfilled history itself, and takes only input rules
from the engine (the price index, admin costs and expected arrivals). It runs
every scenario the engine runs, a pension of zero included, and reports a
table gap as a CoverageError where a member reads it, as the engine does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cashflows
from .cashflows import accrue_and_credit, contribution_income, to_cents
from .cohorts import ACTIVE, RETIRED, age_one_year, inject_new_entrants, retire
from .config import ScenarioConfig
from .engine import (admin_path, build_system, entrant_moment_tables, entrant_product,
                     price_index, return_rates, simulate_flows)
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
    rates: np.ndarray
    actives: np.ndarray
    retirees: np.ndarray
    entrants: dict[str, np.ndarray]


def _assemble_result(cfg: ScenarioConfig, flows: dict, rates: np.ndarray,
                     ne: np.ndarray) -> ProjectionResult:
    # looked up on its module, where perfbench's tracer wraps it
    ledger = cashflows.ledger_columns(int(to_cents(cfg.economics.initial_assets)),
                                      flows["subjective"], flows["integrative"],
                                      flows["disbursements"], admin_path(cfg), rates)
    return ProjectionResult(
        first_year=cfg.first_year, years=np.array(cfg.years), ledger=ledger,
        subjective=flows["subjective"], integrative=flows["integrative"],
        disbursements=flows["disbursements"], rates=rates,
        actives=flows["actives"], retirees=flows["retirees"],
        entrants={s: ne[:, si].copy() for si, s in enumerate(cfg.sexes)})


def run_deterministic_projection(cfg: ScenarioConfig) -> ProjectionResult:
    """Expected-value path: every shock at zero, cohort engine throughout."""
    system = build_system(cfg)
    ne = entrant_product(*entrant_moment_tables(cfg), 0.0)
    flows = simulate_flows(system, ne[None])
    rates = return_rates(cfg, np.zeros((1, len(cfg.years))), stochastic=False)
    flows = {k: v[0] for k, v in flows.items()}
    return _assemble_result(cfg, flows, rates[0], ne)


# ---------------------------------------------------------------------------
# Reference grid engine


def _initial_totals(cfg: ScenarioConfig) -> np.ndarray:
    """Per-cell totals shaped like the census counts: pensions in payment on
    the retired layer, notional balances on the active layer. Those are zero
    unless the scenario backfills them, replaying each cell's subjective
    credits one year at a time, from entry, after the exemption."""
    counts, rule, exemption = cfg.census, cfg.contrib_subjective, cfg.exemption_years
    totals = np.zeros_like(counts)
    si, ai, ki = np.argwhere(counts[ACTIVE] > 0).T
    lags = (range(ki.max(initial=0) - exemption - 1, 0, -1)
            if cfg.backfill_notional else ())  # the credited years before the census
    if lags and np.any(ai < ki):  # entered below the grid's first age
        raise CoverageError("a contribution history leaves the age grid")
    bal = np.zeros(len(ki))  # per capita
    for lag in lags:
        year, paying = cfg.first_year - lag, ki - lag > exemption
        credit = np.zeros(len(ki))
        credit[paying] = (rule.rate.value(year) * rule.profile[si[paying], ai[paying] - lag]
                          * price_index(cfg, year))
        bal = bal * (1.0 + cfg.accrual_rate) + credit
    for i in np.isnan(bal).nonzero()[0][:1]:  # the first gap, if any
        raise CoverageError(f"subjective profile has a gap in the history of sex "
                            f"{cfg.sexes[si[i]]!r} age {cfg.min_age + ai[i]} seniority {ki[i]}")
    totals[ACTIVE, si, ai, ki] = counts[ACTIVE, si, ai, ki] * bal
    si, ai, ki = np.argwhere(counts[RETIRED] > 0).T
    pension = cfg.pre_existing[si, ai]
    for i in np.isnan(pension).nonzero()[0][:1]:  # the first gap, if any
        raise CoverageError(f"profile has no value for sex {cfg.sexes[si[i]]!r} "
                            f"age {cfg.min_age + ai[i]}")
    totals[RETIRED, si, ai, ki] = counts[RETIRED, si, ai, ki] * pension
    return totals


def _replay_input(name: str, value, shape: tuple,
                  nonnegative: bool = False) -> np.ndarray | None:
    """A replay argument as a float array shaped for the horizon, its every value
    finite (and >= 0 if `nonnegative`); None stays None."""
    if value is None:
        return None
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
    bad = ~(np.isfinite(arr) & (arr >= 0)) if nonnegative else ~np.isfinite(arr)
    for at in np.argwhere(bad)[:1]:
        raise ValueError(f"{name}[{', '.join(map(str, at))}] is {arr[tuple(at)]}, "
                         f"expected a finite number{' >= 0' if nonnegative else ''}")
    return arr


def _new_pensions(cfg: ScenarioConfig, benefit_type: str, year: int,
                  moved_counts: np.ndarray, moved_totals: np.ndarray) -> np.ndarray:
    """Pension totals created by one benefit type's retirements this census."""
    ben = cfg.benefits[benefit_type]
    if ben.kind == "notional_account":
        factor, source = ben.table[:, :, None], moved_totals
    else:
        factor, source = ben.table[:, :, None] * price_index(cfg, year), moved_counts
    # a gap is met by every member who retires, an empty account's too
    bad = (moved_counts > 0) & ~np.isfinite(np.broadcast_to(factor, source.shape))
    for si, ai, _ in np.argwhere(bad)[:1]:
        raise CoverageError(
            f"benefit {benefit_type!r} has no coefficient for sex "
            f"{cfg.sexes[si]!r} age {cfg.min_age + ai}")
    return source * np.nan_to_num(factor)  # both moved arrays are zero off the mask


def stepwise_projection(cfg: ScenarioConfig, entrants_path=None,
                        eps_mort=None, eps_ret=None) -> ProjectionResult:
    """Year-by-year evolution of the census counts; shocks may be supplied to
    replay a path. A replay argument that is not as below, or an entrants_path
    naming other sexes, is a ValueError raised before year 1 that names the
    argument and the index of a value it refuses.

    Args:
        cfg: the scenario.
        entrants_path: dict sex -> (n_years,) finite arrivals >= 0; expected path if None.
        eps_mort: (n_years, n_sex, n_mort_ages) finite mortality shocks, or None.
        eps_ret: (n_years,) finite return shocks, or None for the expected rate.
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
        ne = np.stack([_replay_input(f"entrants_path[{s!r}]", entrants_path[s], (n_years,),
                                     nonnegative=True) for s in cfg.sexes], axis=1)
    eps_mort = _replay_input("eps_mort", eps_mort, (n_years,) + mm.q0.shape)
    eps_ret = _replay_input("eps_ret", eps_ret, (n_years,))

    counts, sexes, min_age = cfg.census, cfg.sexes, cfg.min_age
    totals = _initial_totals(cfg)
    prices = price_index(cfg, years)
    out = {k: np.empty(n_years) for k in ("subjective", "integrative", "disbursements",
                                          "rates", "actives", "retirees")}
    x_dev = ec.deviations.x0
    for ti, t in enumerate(years):
        index_t = prices[ti]
        for rule in (cfg.contrib_subjective, cfg.contrib_integrative):
            out[rule.name][ti] = contribution_income(counts, t, sexes, min_age, rule, index_t,
                                                     cfg.exemption_years)
        out["disbursements"][ti] = float(totals[RETIRED].sum())
        if eps_ret is None:
            out["rates"][ti] = ec.expected_return.value(t)
        else:
            x_dev = ec.deviations.phi * x_dev + ec.deviations.sigma * float(eps_ret[ti])
            out["rates"][ti] = ec.expected_return.value(t) + x_dev
        out["actives"][ti] = float(counts[ACTIVE].sum())
        out["retirees"][ti] = float(counts[RETIRED].sum())
        if t == cfg.last_year:
            break

        # end of year t: credit the year's contributions to the accounts
        totals[ACTIVE] = accrue_and_credit(totals[ACTIVE], counts, t, cfg.contrib_subjective,
                                           index_t, cfg.accrual_rate, cfg.exemption_years)
        counts, totals = age_one_year(counts, t, min_age, mm,
                                      None if eps_mort is None else eps_mort[ti], totals)
        counts = inject_new_entrants(counts, min_age, ne[ti], cfg.entry_age)

        # pensions in payment are indexed as the new year opens,
        # before this census's retirements join at their starting level
        totals[RETIRED] *= 1.0 + ec.inflation.value(t + 1)
        active = counts[ACTIVE]
        counts, masks = retire(counts, t + 1, sexes, min_age, cfg.retirement)
        for b, mask in masks.items():
            moved_bal = np.where(mask, totals[ACTIVE], 0.0)
            totals[RETIRED] += _new_pensions(cfg, b, t + 1,
                                             np.where(mask, active, 0.0), moved_bal)
            totals[ACTIVE] -= moved_bal

    return _assemble_result(cfg, out, out["rates"], ne)
