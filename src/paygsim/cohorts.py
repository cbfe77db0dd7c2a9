"""Member counts on a (status, sex, age, seniority) grid and their yearly evolution.

Counts are one real-valued array, axis 0 ACTIVE/RETIRED, ages from the
scenario's min_age; each step takes it with the year and geometry it reads and
returns a new one. Mortality removes the expected (or sampled) fraction of each
cell rather than simulating individual deaths. A projection year applies, in
order, mortality with ageing (`age_one_year`), injection of new entrants at the
entry age (`inject_new_entrants`), and retirement of the cells that satisfy the
age and seniority thresholds (`retire`), as `projection.stepwise_projection`
runs it. Retired cells keep their seniority frozen; cells that reach the
terminal age are removed after their last mortality step."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoverageError
from .schedules import Schedule

ACTIVE, RETIRED = 0, 1
STATUS_NAMES = ("active", "retired")


@dataclass(frozen=True)
class MortalityModel:
    """Base-year death probabilities with a yearly drift and a dispersion per cell.

    The expected probability at year t is min(1, (1+drift)^(t-base_year) * q0);
    sampled probabilities add sigma times a standard normal shock, clipped
    into [0, 1]. One shock per (sex, age, year), shared by every seniority and
    status in that cell.
    """

    base_year: int
    sexes: tuple[str, ...]
    min_age: int
    max_age: int
    q0: np.ndarray      # (n_sex, n_age), values in [0, 1]
    drift: np.ndarray   # (n_sex, n_age), 1 + drift > 0
    sigma: np.ndarray   # (n_sex, n_age), >= 0


def expected_mortality_grid(mm: MortalityModel, year: int) -> np.ndarray:
    """Expected probabilities for every (sex, age) cell at once."""
    if year < mm.base_year:
        raise CoverageError(f"year {year} precedes mortality base year {mm.base_year}")
    return np.minimum(1.0, (1.0 + mm.drift) ** (year - mm.base_year) * mm.q0)


def death_probability_grid(mm: MortalityModel, year: int, eps=None) -> np.ndarray:
    """Per-(sex, age) probabilities for one year; eps is None for the expected path."""
    qbar = expected_mortality_grid(mm, year)
    if eps is None:
        return qbar
    eps = np.asarray(eps, dtype=float)
    if eps.shape != qbar.shape:
        raise ValueError(f"eps shape {eps.shape}, expected {qbar.shape}")
    return np.clip(qbar + mm.sigma * eps, 0.0, 1.0)


def _shift(values: np.ndarray) -> np.ndarray:
    """Values shaped like census counts, moved one year on as `age_one_year` says."""
    out = np.zeros_like(values)
    out[ACTIVE, :, 1:, 1:] = values[ACTIVE, :, :-1, :-1]
    out[ACTIVE, :, 1:, -1] += values[ACTIVE, :, :-1, -1]
    out[RETIRED, :, 1:] = values[RETIRED, :, :-1]
    return out


def age_one_year(counts: np.ndarray, year: int, min_age: int, mm: MortalityModel,
                 eps=None, totals=None):
    """Apply year's mortality (eps: its (n_sex, n_mort_ages) shock, None for the
    expected path) to every cell of counts, whose ages start at min_age, then age
    them a year. Actives gain a year of seniority, capped at the top one; retirees
    keep theirs; survivors at the top age leave. totals shaped like the counts
    (balances, pensions) die and age with their members; when given, they are
    returned with the counts."""
    lo, max_age = min_age - mm.min_age, min_age + counts.shape[2] - 1
    if lo < 0 or max_age > mm.max_age:
        raise CoverageError(f"grid ages {min_age}-{max_age} outside the mortality table")
    surv = 1.0 - death_probability_grid(mm, year, eps)[:, lo:lo + counts.shape[2], None]
    aged = _shift(counts * surv)
    return aged if totals is None else (aged, _shift(totals * surv))


def inject_new_entrants(counts: np.ndarray, min_age: int, entrants,
                        entry_age: int) -> np.ndarray:
    """Add the year's new members, one number per sex in the counts' order, as
    active cells at (entry_age, seniority 0)."""
    at = entry_age - min_age
    if not 0 <= at < counts.shape[2]:
        raise ValueError(f"entry age {entry_age} outside grid ages "
                         f"[{min_age}, {min_age + counts.shape[2] - 1}]")
    counts = counts.copy()
    counts[ACTIVE, :, at, 0] += entrants
    return counts


@dataclass(frozen=True)
class RetirementRule:
    """Age and seniority thresholds per benefit type, sex and year.

    benefit_types preserves configuration order, which breaks ties when a
    cell qualifies for several types at once. thresholds maps
    type -> sex -> (min_age Schedule, min_seniority Schedule); eligibility is
    strict on age (x > min_age) and weak on seniority (a >= min_seniority).
    """

    benefit_types: tuple[str, ...]
    thresholds: dict[str, dict[str, tuple[Schedule, Schedule]]]


def retirement_assignment(counts: np.ndarray, year: int, sexes, min_age: int,
                          rule: RetirementRule) -> dict[str, np.ndarray]:
    """Boolean mask of the cells, shaped like one status of counts, that each
    benefit type retires this year.

    A cell eligible under several types goes to the one whose requirements
    were met earliest (largest min(x - min_age - 1, a - min_seniority),
    evaluated at this year's thresholds); ties go to the type listed first.
    """
    shape = counts.shape[1:]
    ages = np.arange(min_age, min_age + shape[1], dtype=float)[:, None]
    sens = np.arange(shape[2], dtype=float)[None, :]
    leads = np.empty((len(rule.benefit_types),) + shape)
    for bi, b in enumerate(rule.benefit_types):
        for si, sex in enumerate(sexes):
            age_min, sen_min = rule.thresholds[b][sex]
            leads[bi, si] = np.minimum(ages - age_min.value(year) - 1.0,
                                       sens - sen_min.value(year))
    best = leads.max(axis=0)
    winner = np.full(shape, -1, dtype=int)
    for bi in reversed(range(len(rule.benefit_types))):
        winner[(leads[bi] >= 0) & (leads[bi] == best)] = bi
    return {b: winner == bi for bi, b in enumerate(rule.benefit_types)}


def retire(counts: np.ndarray, year: int, sexes, min_age: int, rule: RetirementRule):
    """Move the active cells `retirement_assignment` picks this year to the retired
    layer, seniority kept; return the new counts and each benefit type's mask."""
    masks = retirement_assignment(counts, year, sexes, min_age, rule)
    counts = counts.copy()
    for mask in masks.values():
        moved = np.where(mask, counts[ACTIVE], 0.0)
        counts[RETIRED] += moved
        counts[ACTIVE] -= moved
    return counts, masks
