"""Projection engine over member cohorts.

The projection has a convenient linear structure. Every per-capita amount
(contribution, notional balance, pension) is a deterministic function of a
member's sex, first visible year, age and seniority at that date, so members
sharing those coordinates form a cohort whose cash profile can be tabulated
once. Randomness moves headcounts only: entrant arrivals and survival. Each
yearly flow is then a dot product of cohort counts with a precomputed
per-capita column, and a whole Monte Carlo batch reduces to small
(replication, cohort) matrix updates.

`build_system` enumerates the cohorts (one per populated census cell, one
per future arrival year and sex) and tabulates what `simulate_flows` reads
into a `CohortSystem`: the census headcounts, the cohorts the arrivals
enter, the per-capita flows and status masks per year, the survival cell
of each cohort per year and the mortality moments. `simulate_flows` evolves
the counts of many replications at once. Shocks enter as plain arrays,
mapped a whole block at a time to arrivals (`entrant_product`), survival
probabilities (`survival_rates`) and returns (`return_rates`), so the
deterministic path is the same code with the shocks at zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cohorts import ACTIVE, expected_mortality_grid
from .config import ScenarioConfig
from .entrants import DRAWS_PER_CELL, factor_moments
from .errors import CoverageError
from .stochastic import ar1_path

# the flows `simulate_flows` sums, in `CohortSystem.flow_block` row order
FLOWS = ("subjective", "integrative", "disbursements", "actives", "retirees")


def price_index(cfg: ScenarioConfig, years):
    """Price index at a year or an array of years: the product of (1 + inflation)
    over the years after the profile base year, taken left to right, and flat 1
    at or before the base year, which only backcast contribution histories reach."""
    years = np.asarray(years, dtype=int)
    base = cfg.economics.profile_base_year
    lo = min(int(years.min()), base + 1)
    growth = [1.0 + cfg.economics.inflation.value(y) if y > base else 1.0
              for y in range(lo, int(years.max()) + 1)]
    return np.cumprod(growth)[years - lo][()]


def opening_balance(cfg: ScenarioConfig, sex_index, age, seniority) -> np.ndarray:
    """Backcast per-capita notional balances for census cells, given as
    equal-length sequences (a sex as an index into `cfg.sexes`).

    Replays each cell's assumed contribution history: entry `seniority`
    years before the census at age - seniority, crediting each year's
    subjective contribution under the same accrual and exemption rules the
    projection uses. Without backfilling, census members start from zero and
    their eventual pensions reflect projected contributions only.
    """
    si, age, sen = (np.asarray(a, dtype=int).reshape(-1) for a in (sex_index, age, seniority))
    bal, rule = np.zeros(len(age)), cfg.contrib_subjective
    first_credit = cfg.first_year - sen.max(initial=0) + rule.exemption_years + 1
    if not cfg.backfill_notional or first_credit >= cfg.first_year:
        return bal  # no credited year, and zero balances stay zero
    entry = age - sen
    if np.any((sen > 0) & ((entry < cfg.min_age) | (age > cfg.max_age))):
        raise CoverageError("a contribution history leaves the age grid")
    hist = np.arange(first_credit, cfg.first_year)
    rate, index = np.array([rule.rate.value(y) for y in hist]), price_index(cfg, hist)
    profile = rule.profile.slice_for(cfg.census)
    # each cell's credit in each history year, zero before its first credited
    # year, so that its balance stays exactly zero until then
    credit = np.zeros((len(hist), len(age)))
    ti, live = ((np.arange(len(hist))[:, None] + sen - len(hist)) > rule.exemption_years).nonzero()
    then = age[live] - len(hist) + ti - cfg.min_age  # the cell's age that year, on the grid
    credit[ti, live] = rate[ti] * profile[si[live], then] * index[ti]
    for row in credit:
        bal = bal * (1.0 + cfg.accrual_rate) + row
    for i in np.isnan(bal).nonzero()[0][:1]:  # the first gap, if any
        raise CoverageError(f"subjective profile has a gap in the history of sex "
                            f"{cfg.sexes[si[i]]!r} age {age[i]} seniority {sen[i]}")
    return bal


@dataclass
class CohortSystem:
    """Per-cohort tables for one scenario, ready for batched count simulation.

    Cohorts are rows: the populated census cells (actives, then retirees),
    then one arrival cohort per later year and sex. `initial_counts` holds
    the census headcounts (0 for arrival cohorts), and `arrival_rows[t, s]`
    is the row that receives the year-t arrivals of sex s (or -1).
    `flow_block[t]` holds year t's columns of the three per-capita flows
    and the active and retired masks as contiguous rows, in `FLOWS` order.
    `survival_index[t]` points each cohort at its cell of a year-t survival
    row: the mortality table's (sex, age) cells, then 1.0 for cohorts off
    the grid and 0.0 for those leaving it at the terminal age. `qbar` and
    `qsigma` are the mortality model on the table's own age axis, which may
    start below the grid's.
    """

    first_year: int
    last_year: int
    sexes: tuple[str, ...]
    initial_counts: np.ndarray = field(repr=False)  # (n_cohorts,)
    arrival_rows: np.ndarray = field(repr=False)    # (n_years, n_sex)
    qbar: np.ndarray = field(repr=False)     # (n_years, n_sex, n_mort_ages)
    qsigma: np.ndarray = field(repr=False)   # (n_sex, n_mort_ages)
    flow_block: np.ndarray = field(repr=False)      # (n_years, len(FLOWS), n_cohorts)
    survival_index: np.ndarray = field(repr=False)  # (n_years - 1, n_cohorts)

    @property
    def n_cohorts(self) -> int:
        return len(self.initial_counts)

    @property
    def n_years(self) -> int:
        return self.last_year - self.first_year + 1


def build_system(cfg: ScenarioConfig) -> CohortSystem:
    """Enumerate cohorts and tabulate their per-capita flow columns.

    Cohorts are the populated census cells, actives first, then one arrival
    cohort per later year and sex. The rules become per-year and per-(sex,
    age) arrays once, and every cohort's age, seniority, status and
    contributions become (cohort, year) tables over the whole horizon; only
    the notional balances and the indexed pensions are carried year to year.
    A cohort retires in the first checked year in which the thresholds then
    in force are met: age strictly above the minimum, seniority at or above
    it. The type exceeded by the widest margin wins, ties going to the first
    listed. Census cohorts are checked from the year after the census, which
    says who is retired; arrivals from their first year. A table gap is a
    CoverageError only where some cohort visits it.
    """
    years, grid = cfg.years, cfg.census
    n_years, n_sex = len(years), len(cfg.sexes)
    cells = np.argwhere(grid.counts > 0)  # (status, sex, age, seniority), actives first
    n_census, n_act = len(cells), int(np.sum(cells[:, 0] == ACTIVE))
    n = n_census + (n_years - 1) * n_sex
    sex = np.concatenate([cells[:, 1], np.tile(np.arange(n_sex), n_years - 1)])
    age0 = np.concatenate([cfg.min_age + cells[:, 2], np.full(n - n_census, cfg.entry_age)])
    sen0 = np.concatenate([cells[:, 3], np.zeros(n - n_census, dtype=int)])
    fy = np.concatenate([np.full(n_census, years[0]), np.repeat(np.array(years[1:], int), n_sex)])

    prices = price_index(cfg, years)
    infl = np.array([cfg.economics.inflation.value(t) for t in years])
    rule = cfg.retirement
    thresholds = [[np.array([[rule.thresholds[b][s][k].value(t) for t in years] for s in cfg.sexes])
                   for k in (0, 1)] for b in rule.benefit_types]
    # (sex, age) tables are flattened, so one cell index per cohort reads them all
    benefits = [cfg.benefits[b] for b in rule.benefit_types]
    notional = np.array([ben.kind == "notional_account" for ben in benefits])
    payout = np.concatenate([(ben.conversion if ben.kind == "notional_account"
                              else ben.profile).slice_for(grid).ravel() for ben in benefits])
    contribs = [(np.array([c.rate.value(t) for t in years]), c.profile.slice_for(grid).ravel())
                for c in (cfg.contrib_subjective, cfg.contrib_integrative)]
    cell0 = sex * grid.n_ages - cfg.min_age  # plus the age gives the cell

    # (cohort, year) tables: age, seniority, and whether the cohort is on the grid
    x = age0[:, None] + (np.array(years) - fy[:, None])
    cell = cell0[:, None] + x
    sen = np.minimum(x - (age0 - sen0)[:, None], cfg.max_seniority)
    on = (fy[:, None] <= years) & (x <= cfg.max_age)
    ages = np.where(on, x, -1).astype(np.int32)

    best, kind = np.full(x.shape, -np.inf), np.zeros(x.shape, dtype=int)
    for j, (age_min, sen_min) in enumerate(thresholds):
        lead = np.minimum((x - age_min[sex]) - 1.0, sen - sen_min[sex])
        wins = lead > best  # strict, so ties stay with the earlier type
        best, kind = np.where(wins, lead, best), np.where(wins, j, kind)
    # a cohort retires in its first eligible year, a census retiree before the
    # horizon, one that never qualifies after it (n_years); none at the census
    eligible = on & (best >= 0)
    eligible[:, 0] = False
    ret_year = np.where(eligible.any(axis=1), eligible.argmax(axis=1), n_years)
    ret_year[n_act:n_census] = 0
    retired = np.arange(n_years) >= ret_year[:, None]
    active, paid = on & ~retired, on & retired

    # year-major, so that each year's columns are contiguous rows for simulate_flows
    flow_block = np.zeros((n_years, len(FLOWS), n))
    flow_block[:, 4] = paid.T
    flow_block[:, 3] = active.T
    row, ti = (active & (sen > cfg.contrib_subjective.exemption_years)).nonzero()
    for k, (rate, profile) in enumerate(contribs):
        flow_block[ti, k, row] = (rate[ti] * profile[cell[row, ti]]) * prices[ti]

    # the balance each cohort holds at the start of each year; only actives'
    # balances are read, the others may drift
    balance = np.zeros((n_years, n))
    balance[0, :n_act] = opening_balance(cfg, sex[:n_act], age0[:n_act], sen0[:n_act])
    for ti in range(n_years - 1):
        np.multiply(balance[ti], 1.0 + cfg.accrual_rate, out=balance[ti + 1])
        balance[ti + 1] += flow_block[ti, 0]

    # pensions as running products, one factor a year: ones until retirement,
    # which leave the first pension exact, the first pension, then inflation
    factor = np.where(retired, 1.0 + infl, 1.0)
    factor[n_act:n_census, 0] = cfg.pre_existing.slice_for(grid).ravel()[
        (cell0 + age0)[n_act:n_census]]
    new = ((ret_year > 0) & (ret_year < n_years)).nonzero()[0]
    ry, rt = ret_year[new], kind[new, ret_year[new]]
    coef = payout[rt * n_sex * grid.n_ages + cell[new, ry]]
    factor[new, ry] = np.where(notional[rt], balance[ry, new] * coef, coef * prices[ry])
    flow_block[:, 2] = np.where(paid, np.cumprod(factor, axis=1), 0.0).T

    gaps = np.isnan(flow_block)
    for what, k in (("subjective profile", 0), ("integrative profile", 1),
                    ("pension or conversion table", 2)) if gaps.any() else ():
        for row, ti in np.argwhere(gaps[:, k].T)[:1]:  # the first gap, cohort by cohort
            raise CoverageError(f"{what} has no value for sex {cfg.sexes[sex[row]]!r} "
                                f"age {ages[row, ti]} in {years[ti]}")
    counts = np.concatenate([grid.counts[tuple(cells.T)], np.zeros(n - n_census)])
    arrival_rows = np.full((n_years, n_sex), -1, dtype=int)
    arrival_rows[:-1] = np.arange(n_census, n).reshape(n_years - 1, n_sex)
    qbar = np.array([expected_mortality_grid(cfg.mortality, t) for t in years])
    n_cells = qbar[0].size
    survival = np.where(ages >= 0, sex[:, None] * qbar.shape[2] + ages - cfg.mortality.min_age,
                        n_cells)
    survival[ages == cfg.max_age] = n_cells + 1
    return CohortSystem(
        first_year=cfg.first_year, last_year=cfg.last_year, sexes=cfg.sexes,
        initial_counts=counts, arrival_rows=arrival_rows, qbar=qbar,
        qsigma=cfg.mortality.sigma, flow_block=flow_block,
        survival_index=survival[:, :-1].T.copy())


def simulate_flows(system: CohortSystem, ne: np.ndarray,
                   survival: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """Evolve cohort counts for a batch of replications and sum the flows.

    Args:
        system: tables from `build_system`.
        ne: arrival headcounts, shape (n_reps, n_years, n_sex). The last
            year's arrivals fall outside the horizon and are ignored.
        survival: survival probabilities aligned with the mortality table,
            shape (n_reps, n_years, n_sex, n_mort_ages), as `survival_rates`
            maps them from mortality shocks, or None for the expected path.
            The last year's row is ignored.
    Returns:
        Euro flow and headcount arrays, each (n_reps, n_years), keyed by
        `FLOWS`: subjective, integrative, disbursements, actives, retirees.
    """
    n_reps, n_years = ne.shape[0], system.n_years
    if ne.shape != (n_reps, n_years, len(system.sexes)):
        raise ValueError(f"arrivals shape {ne.shape}, expected "
                         f"{(n_reps, n_years, len(system.sexes))}")
    counts = np.tile(system.initial_counts, (n_reps, 1))
    product = np.empty((len(FLOWS),) + counts.shape)
    out = np.empty((len(FLOWS), n_reps, n_years))
    # one survival row per replication (one shared row without shocks): the
    # mortality table's cells, then the off-grid 1.0 and the terminal 0.0
    n_cells = system.qsigma.size
    cells = 1.0 - system.qbar if survival is None else survival
    cells = cells.reshape(cells.shape[:-2] + (n_cells,))  # (..., n_years, n_cells)
    row = np.empty(cells.shape[:-2] + (n_cells + 2,))
    row[..., n_cells:] = (1.0, 0.0)
    arrivals = [[(s, r) for s, r in enumerate(year) if r >= 0]
                for year in system.arrival_rows.tolist()]

    for ti in range(n_years):
        # not `counts @ cols`: BLAS picks its reduction order from the batch
        # shape, and replications must not feel how the batch was chunked.
        # A last-axis sum reduces each row the same way at any batch size.
        np.multiply(system.flow_block[ti, :, None], counts, out=product)
        product.sum(axis=2, out=out[:, :, ti])
        if ti == n_years - 1:
            break
        row[..., :n_cells] = cells[..., ti, :]
        counts *= row[..., system.survival_index[ti]]
        for s, r in arrivals[ti]:
            counts[:, r] = ne[:, ti, s]
    return dict(zip(FLOWS, out))


# ---------------------------------------------------------------------------
# Shock-to-input mappings shared by the deterministic and Monte Carlo paths


def entrant_moment_tables(cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """Mean and sigma of the five arrival factors per (year, sex), in the
    draw order of `entrants.factor_moments`."""
    shape = (len(cfg.years), len(cfg.sexes), DRAWS_PER_CELL)
    mean, sigma = np.empty(shape), np.empty(shape)
    for ti, t in enumerate(cfg.years):
        for si, s in enumerate(cfg.sexes):
            mean[ti, si], sigma[ti, si] = factor_moments(cfg.entrants_params, cfg.population, s, t)
    return mean, sigma


def entrants_matrix(cfg: ScenarioConfig, eps: np.ndarray) -> np.ndarray:
    """Arrival headcounts from shock blocks: (n_reps, n_years, n_sex)."""
    mean, sigma = entrant_moment_tables(cfg)
    if eps.shape[1:] != mean.shape:
        raise ValueError(f"entrant shocks shape {eps.shape}, expected "
                         f"(n_reps,) + {mean.shape}")
    return entrant_product(mean, sigma, eps)


def entrant_product(mean: np.ndarray, sigma: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Arrivals from the moment tables and shocks shaped like them, after any
    leading axes. Each factor draw is floored at zero before the product, so a
    deep negative shock annihilates the year's arrivals rather than producing
    a negative count. Zero shocks, or a scalar 0.0, give exactly the
    expected-value product: the expected arrivals."""
    factors = sigma * eps  # one working array, the size of eps
    factors += mean
    return np.prod(np.maximum(0.0, factors, out=factors), axis=-1)


def survival_rates(system: CohortSystem, eps: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Survival probabilities from mortality shocks shaped (n_reps, n_years,
    n_sex, n_mort_ages): one minus the death rate qbar + qsigma * eps,
    clipped to [0, 1]. The result goes to `out` when given, which may be
    `eps` itself; otherwise to a new array, and `eps` is left as it was."""
    out = np.multiply(system.qsigma, eps, out=out)
    out += system.qbar
    np.clip(out, 0.0, 1.0, out=out)
    return np.subtract(1.0, out, out=out)


def return_rates(cfg: ScenarioConfig, eps: np.ndarray, stochastic: bool) -> np.ndarray:
    """Yearly fund returns per replication: expected rate plus AR(1) deviation.

    With `stochastic` False the deviation is pinned at zero and eps is
    ignored, so a deterministic run never develops return memory.
    """
    base = np.array([cfg.economics.expected_return.value(t) for t in cfg.years])
    if not stochastic:
        return np.broadcast_to(base, eps.shape).copy()
    return base + ar1_path(cfg.economics.deviations, eps)


def admin_path(cfg: ScenarioConfig) -> np.ndarray:
    """Deterministic administration costs per projection year."""
    ec = cfg.economics
    return np.array([ec.admin_base * (1.0 + ec.admin_growth) ** (t - ec.admin_base_year)
                     for t in cfg.years])
