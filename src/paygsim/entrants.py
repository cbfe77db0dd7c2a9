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
reproducible from the seed alone. The reference population is the first
factor, held like the four rates as a mean and a sigma schedule by year. This
module holds the model's inputs, `moment_tables`, which reads each factor's
mean and sigma at its lagged year for every arrival year and sex at once, and
the closed-form variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoverageError
from .schedules import Schedule

# Draw order inside one (sex, year) cell. Fixed so that pre-drawn shock blocks
# line up with sequential draws.
FACTOR_NAMES = ("enrolment", "graduation", "admission", "membership")
DRAWS_PER_CELL = 1 + len(FACTOR_NAMES)  # population shock first


@dataclass(frozen=True)
class FactorMoments:
    """Mean and dispersion of one factor of NE(t), possibly varying by year."""

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


def _draw_lags(study_years: int, training_years: int) -> tuple[int, ...]:
    """How many years before the arrival year t each draw of a cell is read,
    in draw order: the population and enrolment at t - h - k, graduation at
    t - k, admission and membership at t."""
    h, k = study_years, training_years
    return (h + k, h + k, k, 0, 0)


def moment_tables(params: EntrantsModelParams, population: dict[str, FactorMoments],
                  sexes, years) -> tuple[np.ndarray, np.ndarray]:
    """Means and sigmas of the five factors of NE(t) for each year t and sex,
    two (n_years, n_sex, DRAWS_PER_CELL) tables in draw order, each factor
    read at its lag before t (`_draw_lags`). The population, keyed by sex, is
    the first factor."""
    lags = _draw_lags(params.study_years, params.training_years)
    mean, sigma = (np.empty((len(years), len(sexes), DRAWS_PER_CELL)) for _ in range(2))
    for si, s in enumerate(sexes):
        if s not in population or s not in params.factors:
            raise CoverageError(f"entrants model or population series has no sex {s!r}")
        draws = (population[s], *(params.factors[s][n] for n in FACTOR_NAMES))
        for d, (fm, lag) in enumerate(zip(draws, lags)):
            mean[:, si, d] = [fm.mean.value(t - lag) for t in years]
            sigma[:, si, d] = [fm.sigma.value(t - lag) for t in years]
    return mean, sigma


def variance_new_entrants(params: EntrantsModelParams, series: dict[str, FactorMoments],
                          sex: str, year: int) -> float:
    """Variance of the factor product under independent shocks.

    Second raw moments multiply across independent factors; the squared mean
    is subtracted to get a true variance. Truncation at zero is ignored, which
    is immaterial while every mean sits several sigmas above zero.
    """
    mean, sigma = moment_tables(params, series, (sex,), (year,))
    raw2 = mean2 = 1.0
    for m, s in zip(mean[0, 0].tolist(), sigma[0, 0].tolist()):
        raw2 *= m * m + s * s
        mean2 *= m * m
    # same association order on both products, so all-zero sigmas give exactly 0
    return raw2 - mean2
