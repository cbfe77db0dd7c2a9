"""How new members reach the fund.

Membership is restricted: a candidate enrols in a degree course, graduates,
passes the admission exam, and only then may register with the fund. The
arrival model chains those stages onto a reference population of 18-25 year
olds, each stage lagged by the years it takes. Expected arrivals in year t
therefore depend on the population nine years earlier (five years of study,
four of training), the enrolment and graduation rates of those cohorts, and
the admission and membership rates of year t itself.
"""

import numpy as np

from paygsim import default_config_path, load_config, variance_new_entrants
from paygsim.engine import entrant_moment_tables, entrants_matrix
from paygsim.entrants import DRAWS_PER_CELL
from paygsim.montecarlo import entrant_paths

cfg = load_config(default_config_path())
params, series = cfg.entrants_params, cfg.population

# the lag structure for one arrival year
year = 2020
h, k = params.study_years, params.training_years
print(f"arrivals of {year} draw on ({h} years of study, {k} of training):")
print(f"  population      of {year - h - k}")
print(f"  enrolment rate  of {year - h - k}")
print(f"  graduation rate of {year - k}")
print(f"  admission rate  of {year}")
print(f"  membership rate of {year}")

# expected arrivals, men and women, a few years along the horizon: the
# arrival product with every shock at zero
expected = entrants_matrix(cfg, np.zeros((1, len(cfg.years), len(cfg.sexes), DRAWS_PER_CELL)))[0]
print("\nexpected arrivals")
print("year    male  female")
for y in (2006, 2010, 2020, 2030, 2040):
    row = expected[y - cfg.first_year]
    print(f"{y}  {row[0]:6.0f}  {row[1]:6.0f}")

# closed-form variance against a plain Monte Carlo check. The closed form
# multiplies second raw moments across the five independent factors and
# ignores the floor at zero, so the sample comes out a touch below it.
# Each replication draws its arrival shocks from its own stream (seed, rep).
paths = entrant_paths(cfg.with_run(n_reps=20_000, seed=7), entrant_moment_tables(cfg))
draws = paths["male"][:, year - cfg.first_year]
closed = variance_new_entrants(params, series, "male", year)
print(f"\nNE({year}), male: mean {draws.mean():.1f}, "
      f"sample var {draws.var(ddof=1):,.0f}, closed form {closed:,.0f}")

# one stochastic path of the whole horizon, reproducible from its stream key
total = paths["male"][1] + paths["female"][1]
print("\none sampled path (seed 7, replication 1), total arrivals:")
print("  " + "  ".join(f"{y}:{n:,.0f}" for y, n in
                       zip(cfg.years[::8], total[::8])))
