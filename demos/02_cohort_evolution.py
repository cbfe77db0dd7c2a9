"""One year in the life of the member grid.

Members are counted on a (status, sex, age, seniority) grid: one float array,
as the scenario's census is. A projection year applies mortality and ages
everyone by one year, injects the new arrivals at the entry age, then retires
whoever has crossed the age and seniority thresholds. Counts are expected
values, so they stay fractional; nothing is ever created or lost except
deaths, arrivals, and survivors who age past the top of the grid.
"""

import numpy as np

from paygsim import Schedule
from paygsim.cohorts import (ACTIVE, RETIRED, MortalityModel, RetirementRule,
                             age_one_year, inject_new_entrants, retire)

SEXES = ("male", "female")
MIN_AGE, MAX_AGE, MAX_SENIORITY = 29, 105, 45

# a toy fund: 100 actives aged 40 with 10 years of seniority, 80 aged 60
# with 30 years, and 50 pensioners aged 70, per sex
counts = np.zeros((2, len(SEXES), MAX_AGE - MIN_AGE + 1, MAX_SENIORITY + 1))
counts[ACTIVE, :, 40 - MIN_AGE, 10] = 100
counts[ACTIVE, :, 60 - MIN_AGE, 30] = 80
counts[RETIRED, :, 70 - MIN_AGE, 35] = 50

# flat 1% death probability, improving 1% a year
n = (2, MAX_AGE - MIN_AGE + 1)
mortality = MortalityModel(base_year=2006, sexes=SEXES, min_age=MIN_AGE, max_age=MAX_AGE,
                           q0=np.full(n, 0.01), drift=np.full(n, -0.01),
                           sigma=np.zeros(n))

# retire from 65 with at least 30 years of membership
rule = RetirementRule(
    benefit_types=("old_age",),
    thresholds={"old_age": {s: (Schedule(default=65), Schedule(default=30))
                            for s in SEXES}})


print("year  actives  retired    total")
for year in range(2006, 2014):
    print(f"{year}  {counts[ACTIVE].sum():7.1f}  {counts[RETIRED].sum():7.1f}"
          f"  {counts.sum():7.1f}")
    # one projection year, step by step as the stepwise oracle takes it:
    # the year's mortality, then everyone ages a year; actives also gain seniority
    counts = age_one_year(counts, year, MIN_AGE, mortality)
    # the year's arrivals (male, female) join at the entry age, untouched by its mortality
    counts = inject_new_entrants(counts, MIN_AGE, [12.0, 10.0], entry_age=29)
    # whoever passes the next year's thresholds retires, seniority kept
    counts, _ = retire(counts, year + 1, SEXES, MIN_AGE, rule)

# where did everyone end up? The 60-year-olds crossed 65 in 2012 (age is
# strict: retirement needs age > 65) and now sit in the retired layer.
print(f"\n{year + 1}: retired at age "
      + ", ".join(f"{MIN_AGE + a}" for a in
                  sorted(set(np.argwhere(counts[RETIRED].sum(axis=(0, 2)) > 0).ravel()))))
print("actives aged "
      + ", ".join(f"{MIN_AGE + a}" for a in
                  sorted(set(np.argwhere(counts[ACTIVE].sum(axis=(0, 2)) > 0).ravel()))))
