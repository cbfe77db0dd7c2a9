#!/usr/bin/env python3
"""Brute-force oracles for the arrival-count variance, frozen into the tests.

Estimates the variance of the 2020 arrival count under the bundled scenario
by direct simulation of the five-factor product, with its own generator and
its own arithmetic so the result is independent of the package's sampling
path. Two estimates per sex:

  truncated    each factor floored at zero, as sampled in production
  unfloored    the plain affine product, which the closed-form variance
               describes exactly

Run: python3 scripts/compute_oracles.py  (takes ~10 s)
"""

import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

from paygsim import load_config, default_config_path, variance_new_entrants

YEAR = 2020
N_DRAWS = 10_000_000
BATCH = 500_000
SEED = 424242


def lagged_moments(cfg, sex, year):
    """[(mean, sigma)] for population then the four chain factors of NE(year),
    each read at its own calendar year: population and enrolment h + k years
    earlier, graduation k years earlier, admission and membership at year."""
    params = cfg.entrants_params
    h, k = params.study_years, params.training_years
    pop_year = year - h - k
    pop = cfg.population[sex]
    out = [(pop.mean.value(pop_year), pop.sigma.value(pop_year))]
    for name, at in (("enrolment", pop_year), ("graduation", year - k),
                     ("admission", year), ("membership", year)):
        fm = params.factors[sex][name]
        out.append((fm.mean.value(at), fm.sigma.value(at)))
    return out


def brute_force(moments, rng):
    """(mean, variance) of truncated and unfloored products, N_DRAWS each."""
    sums = np.zeros(2)
    squares = np.zeros(2)
    done = 0
    while done < N_DRAWS:
        n = min(BATCH, N_DRAWS - done)
        eps = rng.standard_normal((n, len(moments)))
        raw = np.ones(n)
        floored = np.ones(n)
        for i, (m, s) in enumerate(moments):
            factor = m + s * eps[:, i]
            raw *= factor
            floored *= np.maximum(0.0, factor)
        for j, x in enumerate((floored, raw)):
            sums[j] += float(x.sum())
            squares[j] += float((x * x).sum())
        done += n
    mean = sums / N_DRAWS
    var = squares / N_DRAWS - mean * mean
    return [(mean[j], var[j] * N_DRAWS / (N_DRAWS - 1)) for j in (0, 1)]


def main():
    cfg = load_config(default_config_path())
    rng = np.random.default_rng(SEED)
    for sex in cfg.sexes:
        moments = lagged_moments(cfg, sex, YEAR)
        (mean_t, var_t), (mean_r, var_r) = brute_force(moments, rng)
        closed = variance_new_entrants(cfg.entrants_params, cfg.population, sex, YEAR)
        print(f"{sex}:")
        print(f"  factors            {[f'{m:.6g}/{s:.6g}' for m, s in moments]}")
        print(f"  truncated   mean {float(mean_t)!r}  var {float(var_t)!r}")
        print(f"  unfloored   mean {float(mean_r)!r}  var {float(var_r)!r}")
        print(f"  closed-form var  {float(closed)!r}  rel diff vs unfloored "
              f"{abs(closed - var_r) / var_r:.2e}")


if __name__ == "__main__":
    main()
