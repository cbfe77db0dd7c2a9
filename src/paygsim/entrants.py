"""New-entrant pipeline: national population to fund members.

A professional fund cannot recruit freely: a cohort must pass through
university enrolment, graduation, admission to the professional register and
finally inscription to the fund. Each stage is a noisy transition rate applied
with the appropriate calendar lag, so the expected number of new members at
year t is

    NE(t) = POP(t - h - k) * enrol(t - h - k) * grad(t - k) * adm(t) * memb(t)

where h is the nominal study duration and k the professional training lag.
Each factor is a zero-floored affine normal (rates above 1 are legal, e.g.
after an education reform); shocks are independent across factors, sexes and
years. One shock per factor per (sex, year), in a fixed order, so paths are
reproducible from the seed alone. This module holds the model's inputs and
the closed-form variance; `engine.entrants_matrix` evaluates the product for
whole arrays of shocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CoverageError
from .schedules import Schedule

# Draw order inside one (sex, year) cell. Fixed so that pre-drawn shock blocks
# line up with sequential draws.
FACTOR_NAMES = ("enrolment", "graduation", "admission", "membership")
DRAWS_PER_CELL = 1 + len(FACTOR_NAMES)  # population shock first


@dataclass(frozen=True)
class PopulationSeries:
    """Reference population aggregated over the recruitment ages, by sex and year.

    Args:
        expected: mapping sex -> {year: expected population}.
        sigma: mapping sex -> {year: standard deviation of the aggregate}.
        min_age, max_age: age band the aggregate covers (metadata).
    """

    expected: dict[str, dict[int, float]]
    sigma: dict[str, dict[int, float]]
    min_age: int
    max_age: int

    def __post_init__(self):
        if self.min_age > self.max_age:
            raise ValueError("min_age must be <= max_age")

    def at(self, sex: str, year: int) -> tuple[float, float]:
        try:
            by_year = self.expected[sex]
        except KeyError:
            raise CoverageError(f"population series has no sex {sex!r}") from None
        if year not in by_year:
            raise CoverageError(f"population series does not cover year {year} for sex {sex!r}")
        return by_year[year], self.sigma[sex].get(year, 0.0)


@dataclass(frozen=True)
class FactorMoments:
    """Mean and dispersion of one transition rate, possibly varying by year."""

    mean: Schedule
    sigma: Schedule


@dataclass(frozen=True)
class EntrantsModelParams:
    """Per-sex transition moments plus the pipeline lags.

    factors maps sex -> {factor name -> FactorMoments} with the factor names
    of FACTOR_NAMES. study_years is the enrolment-to-graduation lag (h),
    training_years the graduation-to-admission lag (k).
    """

    factors: dict[str, dict[str, FactorMoments]]
    study_years: int
    training_years: int

    def __post_init__(self):
        if self.study_years < 0 or self.training_years < 0:
            raise ValueError("lags must be non-negative")
        for sex, fs in self.factors.items():
            missing = set(FACTOR_NAMES) - set(fs)
            if missing:
                raise ValueError(f"sex {sex!r} is missing factors {sorted(missing)}")

    def factor_years(self, year: int) -> dict[str, int]:
        """Calendar year at which each factor schedule is evaluated for NE(year)."""
        h, k = self.study_years, self.training_years
        return {
            "enrolment": year - h - k,
            "graduation": year - k,
            "admission": year,
            "membership": year,
        }

    def population_year(self, year: int) -> int:
        return year - self.study_years - self.training_years


def factor_moments(params: EntrantsModelParams, series: PopulationSeries,
                   sex: str, year: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Means and sigmas of the five factors of NE(year), in draw order: the
    reference population at its lag, then each transition rate at the
    calendar year `factor_years` gives it."""
    pop = series.at(sex, params.population_year(year))
    try:
        fs = params.factors[sex]
    except KeyError:
        raise CoverageError(f"entrants model has no sex {sex!r}") from None
    lagged = params.factor_years(year)
    rates = [(fs[name].mean.value(lagged[name]), fs[name].sigma.value(lagged[name]))
             for name in FACTOR_NAMES]
    means, sigmas = zip(pop, *rates)
    return means, sigmas


def variance_new_entrants(params: EntrantsModelParams, series: PopulationSeries,
                          sex: str, year: int) -> float:
    """Variance of the factor product under independent shocks.

    Second raw moments multiply across independent factors; the squared mean
    is subtracted to get a true variance. Truncation at zero is ignored, which
    is immaterial while every mean sits several sigmas above zero.
    """
    raw2 = mean2 = 1.0
    for mean, sigma in zip(*factor_moments(params, series, sex, year)):
        raw2 *= mean * mean + sigma * sigma
        mean2 *= mean * mean
    # same association order on both products, so all-zero sigmas give exactly 0
    return raw2 - mean2
