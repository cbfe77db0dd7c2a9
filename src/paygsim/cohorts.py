"""Member cohorts on a (sex, age, seniority, status) grid and their yearly evolution.

Counts are real-valued: mortality removes the expected (or sampled) fraction
of each cell rather than simulating individual deaths. A projection year
applies, in order, mortality with ageing, injection of new entrants at the
entry age, and retirement of cells that satisfy the age and seniority
thresholds. Retired cells keep their seniority frozen; cells that reach the
terminal age are removed after their last mortality step.
`projection.stepwise_projection` runs that year as `age_one_year`, `inject_new_entrants`, `retire`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import CoverageError
from .schedules import Schedule

ACTIVE, RETIRED = 0, 1
STATUS_NAMES = ("active", "retired")


@dataclass(frozen=True)
class CohortGrid:
    """Member counts by cell at the start of a calendar year.

    counts has shape (2, n_sex, n_age, n_seniority); axis 0 is ACTIVE/RETIRED,
    ages run min_age..max_age inclusive, seniorities 0..max_seniority.
    """

    year: int
    sexes: tuple[str, ...]
    min_age: int
    max_age: int
    max_seniority: int
    counts: np.ndarray

    def __post_init__(self):
        want = (2, len(self.sexes), self.n_ages, self.max_seniority + 1)
        if self.counts.shape != want:
            raise ValueError(f"counts shape {self.counts.shape}, expected {want}")
        if np.any(self.counts < 0):
            raise ValueError("cohort counts must be non-negative")

    @property
    def n_ages(self) -> int:
        return self.max_age - self.min_age + 1

    @classmethod
    def from_records(cls, records, year, sexes, min_age, max_age, max_seniority) -> "CohortGrid":
        """Build from (sex, age, seniority, status, count) tuples, summing duplicates."""
        shape = (2, len(sexes), max_age - min_age + 1, max_seniority + 1)
        grid = cls(year, tuple(sexes), min_age, max_age, max_seniority, np.zeros(shape))
        sex_idx = {s: i for i, s in enumerate(grid.sexes)}
        records = list(records)
        for sex, age, sen, status, count in records:
            if sex not in sex_idx:
                raise ValueError(f"unknown sex {sex!r}")
            if not min_age <= age <= max_age:
                raise ValueError(f"age {age} outside [{min_age}, {max_age}]")
            if not 0 <= sen <= max_seniority:
                raise ValueError(f"seniority {sen} outside [0, {max_seniority}]")
            if status not in STATUS_NAMES:
                raise ValueError(f"status must be one of {STATUS_NAMES}, got {status!r}")
            if count < 0:
                raise ValueError(f"count must be >= 0, got {count}")
        if not records:
            return grid
        sex, age, sen, status, count = zip(*records)
        status_idx = {name: i for i, name in enumerate(STATUS_NAMES)}
        cells = (list(map(status_idx.get, status)), list(map(sex_idx.get, sex)),
                 np.array(age) - min_age, np.array(sen))
        np.add.at(grid.counts, cells, np.array(count, dtype=float))  # unbuffered: record order
        return grid

    def total(self) -> float:
        return float(self.counts.sum())

    def total_active(self) -> float:
        return float(self.counts[ACTIVE].sum())

    def total_retired(self) -> float:
        return float(self.counts[RETIRED].sum())

    def check_seniority_bound(self, entry_age: int):
        """Every populated cell must satisfy seniority <= age - entry_age."""
        ages = np.arange(self.min_age, self.max_age + 1)[:, None]
        sens = np.arange(self.max_seniority + 1)[None, :]
        bad = (sens > ages - entry_age) & (self.counts.sum(axis=(0, 1)) > 0)
        if np.any(bad):
            ai, si = np.argwhere(bad)[0]
            raise ValueError(
                f"cell age={self.min_age + ai} seniority={si} violates "
                f"seniority <= age - entry_age ({entry_age})"
            )


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

    def __post_init__(self):
        n = (len(self.sexes), self.max_age - self.min_age + 1)
        for name, arr in (("q0", self.q0), ("drift", self.drift), ("sigma", self.sigma)):
            if arr.shape != n:
                raise ValueError(f"{name} shape {arr.shape}, expected {n}")
        if np.any(self.q0 < 0) or np.any(self.q0 > 1):
            raise ValueError("q0 must lie in [0, 1]")
        if np.any(1.0 + self.drift <= 0):
            raise ValueError("drift must satisfy 1 + drift > 0")
        if np.any(self.sigma < 0):
            raise ValueError("sigma must be >= 0")


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
    """Values shaped like a grid's counts, moved one year on as `age_one_year` says."""
    out = np.zeros_like(values)
    out[ACTIVE, :, 1:, 1:] = values[ACTIVE, :, :-1, :-1]
    out[ACTIVE, :, 1:, -1] += values[ACTIVE, :, :-1, -1]
    out[RETIRED, :, 1:] = values[RETIRED, :, :-1]
    return out


def age_one_year(grid: CohortGrid, mm: MortalityModel, eps=None, totals=None):
    """Apply the year's mortality (eps: its (n_sex, n_mort_ages) shock, None for the
    expected path) to every cell, then age the grid a year. Actives gain a year of
    seniority, capped at the top one; retirees keep theirs; survivors at the top age
    leave. totals shaped like the counts (balances, pensions) die and age with their
    members; when given, they are returned with the grid."""
    lo = grid.min_age - mm.min_age
    if lo < 0 or grid.max_age > mm.max_age:
        raise CoverageError(f"grid ages {grid.min_age}-{grid.max_age} outside the mortality table")
    surv = 1.0 - death_probability_grid(mm, grid.year, eps)[:, lo:lo + grid.n_ages, None]
    aged = replace(grid, year=grid.year + 1, counts=_shift(grid.counts * surv))
    return aged if totals is None else (aged, _shift(totals * surv))


def inject_new_entrants(grid: CohortGrid, entrants_by_sex: dict[str, float],
                        entry_age: int) -> CohortGrid:
    """Add the year's new members as active cells at (entry_age, seniority 0)."""
    if not grid.min_age <= entry_age <= grid.max_age:
        raise ValueError(f"entry age {entry_age} outside grid ages "
                         f"[{grid.min_age}, {grid.max_age}]")
    counts = grid.counts.copy()
    for sex, ne in entrants_by_sex.items():
        if sex not in grid.sexes:
            raise ValueError(f"unknown sex {sex!r}")
        if ne < 0:
            raise ValueError(f"entrant count must be >= 0, got {ne}")
        counts[ACTIVE, grid.sexes.index(sex), entry_age - grid.min_age, 0] += ne
    return replace(grid, counts=counts)


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

    def __post_init__(self):
        for b in self.benefit_types:
            if b not in self.thresholds:
                raise ValueError(f"no thresholds for benefit type {b!r}")


def retirement_assignment(grid: CohortGrid, rule: RetirementRule,
                          year: int) -> dict[str, np.ndarray]:
    """Boolean mask of cells each benefit type retires this year.

    A cell eligible under several types goes to the one whose requirements
    were met earliest (largest min(x - min_age - 1, a - min_seniority),
    evaluated at this year's thresholds); ties go to the type listed first.
    """
    ages = np.arange(grid.min_age, grid.max_age + 1, dtype=float)[:, None]
    sens = np.arange(grid.max_seniority + 1, dtype=float)[None, :]
    shape = (len(grid.sexes), grid.n_ages, grid.max_seniority + 1)
    leads = np.empty((len(rule.benefit_types),) + shape)
    for bi, b in enumerate(rule.benefit_types):
        for si, sex in enumerate(grid.sexes):
            age_min, sen_min = rule.thresholds[b][sex]
            leads[bi, si] = np.minimum(ages - age_min.value(year) - 1.0,
                                       sens - sen_min.value(year))
    best = leads.max(axis=0)
    winner = np.full(shape, -1, dtype=int)
    for bi in reversed(range(len(rule.benefit_types))):
        winner[(leads[bi] >= 0) & (leads[bi] == best)] = bi
    return {b: winner == bi for bi, b in enumerate(rule.benefit_types)}


def retire(grid: CohortGrid, rule: RetirementRule):
    """Move the active cells `retirement_assignment` picks this year to the retired
    layer, seniority kept; return the new grid and each benefit type's mask."""
    masks = retirement_assignment(grid, rule, grid.year)
    counts = grid.counts.copy()
    for mask in masks.values():
        moved = np.where(mask, counts[ACTIVE], 0.0)
        counts[RETIRED] += moved
        counts[ACTIVE] -= moved
    return replace(grid, counts=counts), masks
