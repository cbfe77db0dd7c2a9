"""One year in the life of the member grid.

Members are counted on a (status, sex, age, seniority) grid. A projection
year applies mortality and ages everyone by one year, injects the new
arrivals at the entry age, then retires whoever has crossed the age and
seniority thresholds. Counts are expected values, so they stay fractional;
nothing is ever created or lost except deaths, arrivals, and survivors who
age past the top of the grid.
"""

import numpy as np

from paygsim import Schedule
from paygsim.cohorts import (ACTIVE, RETIRED, CohortGrid, MortalityModel,
                             RetirementRule, age_one_year, inject_new_entrants,
                             retire)

SEXES = ("male", "female")

# a toy fund: 100 actives aged 40 with 10 years of seniority, 80 aged 60
# with 30 years, and 50 pensioners aged 70, per sex
grid = CohortGrid.from_records(
    [(s, 40, 10, "active", 100) for s in SEXES]
    + [(s, 60, 30, "active", 80) for s in SEXES]
    + [(s, 70, 35, "retired", 50) for s in SEXES],
    year=2006, sexes=SEXES, min_age=29, max_age=105, max_seniority=45)

# flat 1% death probability, improving 1% a year
n = (2, 105 - 29 + 1)
mortality = MortalityModel(base_year=2006, sexes=SEXES, min_age=29, max_age=105,
                           q0=np.full(n, 0.01), drift=np.full(n, -0.01),
                           sigma=np.zeros(n))

# retire from 65 with at least 30 years of membership
rule = RetirementRule(
    benefit_types=("old_age",),
    thresholds={"old_age": {s: (Schedule(default=65), Schedule(default=30))
                            for s in SEXES}})


print("year  actives  retired    total")
for step in range(8):
    print(f"{grid.year}  {grid.total_active():7.1f}  {grid.total_retired():7.1f}"
          f"  {grid.total():7.1f}")
    # one projection year, step by step as the stepwise oracle takes it:
    # mortality, then everyone ages a year; actives also gain seniority
    grid = age_one_year(grid, mortality)
    # the year's arrivals join at the entry age, untouched by its mortality
    grid = inject_new_entrants(grid, {"male": 12.0, "female": 10.0}, entry_age=29)
    # whoever now passes the thresholds retires, seniority kept
    grid, _ = retire(grid, rule)

# where did everyone end up? The 60-year-olds crossed 65 in 2012 (age is
# strict: retirement needs age > 65) and now sit in the retired layer.
print(f"\n{grid.year}: retired at age "
      + ", ".join(f"{29 + a}" for a in
                  sorted(set(np.argwhere(grid.counts[RETIRED].sum(axis=(0, 2)) > 0).ravel()))))
print("actives aged "
      + ", ".join(f"{29 + a}" for a in
                  sorted(set(np.argwhere(grid.counts[ACTIVE].sum(axis=(0, 2)) > 0).ravel()))))
