#!/usr/bin/env python3
"""Regenerate the bundled scenario under src/paygsim/data/.

The data set is a synthetic stand-in for a mid-size Italian professional
fund as of 1 January 2006. Only aggregates of the real fund are public, so
every file here is constructed:

  reference_population.csv  backed out from the arrival targets below, so
                            the expected arrival path reproduces them
  census_2006.csv           single-entry-age backstory: everyone joined at
                            29; actives follow a hump-shaped age curve (the
                            enrolment wave of the 1980s-90s), pensioners
                            decay geometrically
  mortality_2006.csv        two-parameter exponential age curve with a
                            yearly improvement drift and a proportional
                            spread
  income_2005.csv           linear-then-flat career profile, scaled so the
  turnover_2005.csv         2006 contribution flows land on the fund's
                            opening statement
  pensions_2006.csv         geometric age profile scaled to the 2006
                            disbursement total
  conversion.csv            unitary annuity-due priced on the bundled
                            mortality table
  default_scenario.yaml     ties the files together

Run from anywhere: python3 scripts/build_fixtures.py
"""

import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.normpath(os.path.join(HERE, "..", "src", "paygsim", "data"))

SEXES = ("male", "female")
FACTORS = ("enrolment", "graduation", "admission", "membership")
LAG = 5 + 4  # study plus training years

# Expected new members per year, (male, female). The arrival model is
# calibrated to reproduce these exactly under zero shocks.
ARRIVAL_TARGETS = {
    2006: (1119, 915), 2007: (1330, 1088), 2008: (1509, 1235),
    2009: (1565, 1280), 2010: (1280, 976), 2011: (1166, 904),
    2012: (896, 724), 2013: (713, 573), 2014: (650, 561),
    2015: (621, 541), 2016: (613, 533), 2017: (606, 526),
    2018: (600, 521), 2019: (597, 518), 2020: (595, 516),
    2021: (592, 513), 2022: (591, 511), 2023: (589, 510),
    2024: (585, 506), 2025: (582, 503), 2026: (578, 499),
    2027: (576, 497), 2028: (574, 495), 2029: (574, 495),
    2030: (576, 497), 2031: (579, 500), 2032: (584, 504),
    2033: (588, 508), 2034: (592, 511), 2035: (593, 512),
    2036: (593, 512), 2037: (592, 511), 2038: (590, 508),
    2039: (586, 504), 2040: (578, 497), 2041: (570, 490),
    2042: (562, 484), 2043: (554, 476), 2044: (546, 470),
    2045: (539, 464), 2046: (574, 458), 2047: (568, 452),
    2048: (561, 447), 2049: (556, 443), 2050: (552, 440),
    2051: (549, 437), 2052: (546, 435), 2053: (544, 434),
    2054: (543, 432), 2055: (542, 432), 2056: (542, 432),
    2057: (542, 432), 2058: (542, 432), 2059: (543, 433),
}

FACTOR_MOMENTS = {
    "male": {
        "enrolment": (0.0090, 0.0005), "graduation": (0.5110, 0.1996),
        "admission": (0.0893, 0.0320), "membership": (0.6388, 0.1108),
    },
    "female": {
        "enrolment": (0.0085, 0.0007), "graduation": (0.5110, 0.1996),
        "admission": (0.0811, 0.0291), "membership": (0.6261, 0.1088),
    },
}

# Calibration targets for the 2006 flows, euros.
TARGET_SUBJECTIVE = 235_721_000.0
TARGET_INTEGRATIVE = 155_133_000.0
TARGET_PENSIONS = 126_378_000.0

SUBJECTIVE_RATE = 0.107
INTEGRATIVE_RATE_EARLY = 0.04
PRICE_INDEX_2006 = 1.02  # profiles are at 2005 prices, 2006 inflation 2%

ACTIVE_AGES = range(29, 66)
RETIRED_AGES = range(66, 96)
GRID_MAX_AGE = 105
MAX_SENIORITY = 45
EXEMPT_SENIORITY = 3

# Active age curve: bell centred on the enrolment wave of the 1980s-90s.
# The wave reaching retirement age in the late 2020s is what turns the
# pension balance negative in the 2030s.
ACTIVE_PEAK_AGE = 41
ACTIVE_SPREAD = 9.0
ACTIVE_PEAK_COUNT = 2400
RETIRED_BASE = 650.0
RETIRED_DECAY = 0.11

MORT_B = 0.095
MORT_A = {"male": 3.2e-5, "female": 2.56e-5}
MORT_DRIFT = -0.010
MORT_SIGMA_FRACTION = 0.05

NOMINAL_RETURN = 0.034
LONG_RUN_INFLATION = 0.016


def write_lines(name, lines):
    path = os.path.join(DATA, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {path}")


def chain_mean(sex):
    out = 1.0
    for f in FACTORS:
        out *= FACTOR_MOMENTS[sex][f][0]
    return out


def build_population():
    lines = [
        "# Aggregate population aged 18-25 by calendar year.",
        "# Backed out from the arrival targets: expected(y) = target(y+9) / product of",
        "# the factor means, so the zero-shock arrival path reproduces the targets.",
        "# Spread: zero for observed years (through 2006), 1% of the mean afterwards.",
        "year,sex,expected,sigma",
    ]
    for sex in SEXES:
        denom = chain_mean(sex)
        col = 0 if sex == "male" else 1
        for arrival_year in sorted(ARRIVAL_TARGETS):
            pop_year = arrival_year - LAG
            expected = ARRIVAL_TARGETS[arrival_year][col] / denom
            sigma = 0.0 if pop_year <= 2006 else 0.01 * expected
            lines.append(f"{pop_year},{sex},{expected!r},{sigma!r}")
    write_lines("reference_population.csv", lines)


def census_actives():
    """(sex, age) -> count. Everyone joined at 29, so seniority = age - 29."""
    out = {}
    for age in ACTIVE_AGES:
        z = (age - ACTIVE_PEAK_AGE) / ACTIVE_SPREAD
        total = round(ACTIVE_PEAK_COUNT * math.exp(-0.5 * z * z))
        # older cohorts are male-dominated, recent ones close to even
        male = round(min(0.74, 0.52 + 0.006 * (age - 29)) * total)
        out[("male", age)] = male
        out[("female", age)] = total - male
    return out


def census_retirees():
    out = {}
    for age in RETIRED_AGES:
        total = round(RETIRED_BASE * math.exp(-RETIRED_DECAY * (age - 66)))
        male = round(0.78 * total)
        out[("male", age)] = male
        out[("female", age)] = total - male
    return out


def build_census():
    lines = [
        "# Members on 1 January 2006. Synthetic single-entry-age backstory:",
        "# every member joined at 29, so active seniority is age - 29. Actives",
        "# follow a bell-shaped age curve peaking in the early forties (the",
        "# enrolment wave); pensioner counts decay geometrically with age.",
        "sex,age,seniority,status,count",
    ]
    actives = census_actives()
    retirees = census_retirees()
    for sex in SEXES:
        for age in ACTIVE_AGES:
            lines.append(f"{sex},{age},{age - 29},active,{actives[(sex, age)]}")
    for sex in SEXES:
        for age in RETIRED_AGES:
            seniority = min(age - 29, MAX_SENIORITY)
            lines.append(f"{sex},{age},{seniority},retired,{retirees[(sex, age)]}")
    write_lines("census_2006.csv", lines)
    return actives, retirees


def mortality_q0(sex, age):
    return float(f"{min(0.9, MORT_A[sex] * math.exp(MORT_B * age)):.6e}")


def build_mortality():
    lines = [
        "# Baseline death probabilities at 2006 with a yearly improvement drift.",
        "# q0 follows a two-parameter exponential age curve; sigma is 5% of q0.",
        "sex,age,q0,drift,sigma",
    ]
    for sex in SEXES:
        for age in range(29, GRID_MAX_AGE + 1):
            q0 = mortality_q0(sex, age)
            lines.append(f"{sex},{age},{q0:.6e},{MORT_DRIFT},{0.05 * q0:.6e}")
    write_lines("mortality_2006.csv", lines)


def income_shape(sex, age):
    # steep early-career climb: declared income roughly quadruples between
    # entry and the mid-fifties plateau
    base = 16_000.0 + 2_400.0 * min(age - 29, 25)
    return base * (1.10 if sex == "male" else 0.88)


def turnover_shape(sex, age):
    base = 30_000.0 + 5_000.0 * min(age - 29, 25)
    return base * (1.15 if sex == "male" else 0.85)


def pension_shape(sex, age):
    base = 36_000.0 * 0.99 ** (age - 66)
    return base * (1.08 if sex == "male" else 0.90)


def build_profiles(actives, retirees):
    # contributions are exempt for the first 3 seniority years; on the
    # diagonal census that excludes ages 29-32
    paying = {k: n for k, n in actives.items() if k[1] - 29 > EXEMPT_SENIORITY}

    def scaled(shape, target, rate_times_index):
        raw = sum(shape(s, a) * n for (s, a), n in paying.items())
        return target / (rate_times_index * raw)

    c_inc = scaled(income_shape, TARGET_SUBJECTIVE, SUBJECTIVE_RATE * PRICE_INDEX_2006)
    c_vat = scaled(turnover_shape, TARGET_INTEGRATIVE, INTEGRATIVE_RATE_EARLY * PRICE_INDEX_2006)
    raw_pen = sum(pension_shape(s, a) * n for (s, a), n in retirees.items())
    c_pen = TARGET_PENSIONS / raw_pen

    lines = [
        "# Average professional income by sex and age, 2005 prices.",
        "# Linear-then-flat career curve, scaled so the 2006 subjective",
        "# contributions of the bundled census equal the calibration target.",
        "sex,age,amount",
    ]
    for sex in SEXES:
        for age in ACTIVE_AGES:
            lines.append(f"{sex},{age},{c_inc * income_shape(sex, age):.2f}")
    write_lines("income_2005.csv", lines)

    lines = [
        "# Average VAT turnover by sex and age, 2005 prices, scaled like the",
        "# income profile but against the integrative target at the 4% rate.",
        "sex,age,amount",
    ]
    for sex in SEXES:
        for age in ACTIVE_AGES:
            lines.append(f"{sex},{age},{c_vat * turnover_shape(sex, age):.2f}")
    write_lines("turnover_2005.csv", lines)

    lines = [
        "# Average pension in payment by sex and age, 2006 prices, for members",
        "# retired before 1 January 2006. Scaled to the 2006 disbursement total.",
        "sex,age,amount",
    ]
    for sex in SEXES:
        for age in RETIRED_AGES:
            lines.append(f"{sex},{age},{c_pen * pension_shape(sex, age):.2f}")
    write_lines("pensions_2006.csv", lines)


def build_conversion():
    v = (1.0 + LONG_RUN_INFLATION) / (1.0 + NOMINAL_RETURN)
    lines = [
        "# Conversion coefficients: reciprocal of a unitary annuity-due priced on",
        "# the bundled 2006 mortality (no drift), benefits indexed at the long-run",
        "# inflation assumption, discounting at the expected nominal return.",
        "sex,age,coefficient",
    ]
    for sex in SEXES:
        for age in range(55, 91):
            annuity = 0.0
            survival = 1.0
            for k in range(0, GRID_MAX_AGE - age + 1):
                annuity += (v ** k) * survival
                survival *= 1.0 - mortality_q0(sex, age + k)
            lines.append(f"{sex},{age},{1.0 / annuity:.6f}")
    write_lines("conversion.csv", lines)


SCENARIO_YAML = """\
# Bundled default scenario: synthetic stand-in for a mid-size Italian
# professional fund, projected from 1 January 2006. All referenced CSV
# files are regenerated by scripts/build_fixtures.py.

horizon:
  first_year: 2006
  last_year: 2046

run:
  seed: 1
  n_reps: 1000
  stochastic: {entrants: true, mortality: true, returns: true}
  percentile_probes: [0.1, 1, 5, 25, 50, 75, 95, 99, 99.9]
  moments_years: [2010, 2015, 2020, 2025, 2030, 2035, 2040, 2045]

population:
  sexes: [male, female]
  min_age: 29
  max_age: 105
  max_seniority: 45
  entry_age: 29
  census_csv: census_2006.csv

entrants:
  study_years: 5
  training_years: 4
  pool_min_age: 18
  pool_max_age: 25
  population_csv: reference_population.csv
  factors:
    male:
      enrolment: {mean: 0.0090, sigma: 0.0005}
      graduation: {mean: 0.5110, sigma: 0.1996}
      admission: {mean: 0.0893, sigma: 0.0320}
      membership: {mean: 0.6388, sigma: 0.1108}
    female:
      enrolment: {mean: 0.0085, sigma: 0.0007}
      graduation: {mean: 0.5110, sigma: 0.1996}
      admission: {mean: 0.0811, sigma: 0.0291}
      membership: {mean: 0.6261, sigma: 0.1088}

mortality:
  base_year: 2006
  table_csv: mortality_2006.csv

retirement:
  benefit_types: [vecchiaia, unica_contributiva]
  thresholds:
    vecchiaia: {min_age: 65, min_seniority: 30}
    unica_contributiva: {min_age: 60, min_seniority: 40}

contributions:
  exemption_years: 3
  subjective:
    rate: 0.107
    profile_csv: income_2005.csv
  integrative:
    # statutory rate cut: 4% applies to the flows of 2006-2009, 2% after
    rate: {default: 0.02, overrides: {2006: 0.04, 2007: 0.04, 2008: 0.04, 2009: 0.04}}
    profile_csv: turnover_2005.csv

benefits:
  accrual_rate: 0.034
  backfill_notional: true
  pre_existing_profile_csv: pensions_2006.csv
  types:
    vecchiaia: {kind: notional_account, conversion_csv: conversion.csv}
    unica_contributiva: {kind: notional_account, conversion_csv: conversion.csv}

economics:
  initial_assets: 2067793989
  admin_base: 28447830
  admin_growth: 0.05
  admin_base_year: 2006
  profile_base_year: 2005
  inflation:
    default: 0.016
    overrides: {2006: 0.020, 2007: 0.017, 2008: 0.021, 2009: 0.019}
  expected_return: 0.034
  return_deviations: {phi: -0.612, sigma: 0.03667, x0: 0.0}
"""


def check():
    """Load the freshly written scenario and spot-check the calibration."""
    sys.path.insert(0, os.path.join(HERE, "..", "src"))
    import numpy as np

    from paygsim import load_config
    from paygsim.cashflows import contribution_income
    from paygsim.cohorts import RETIRED
    from paygsim.engine import entrants_matrix, price_index
    from paygsim.entrants import DRAWS_PER_CELL
    from paygsim.projection import _initial_totals

    cfg = load_config(os.path.join(DATA, "default_scenario.yaml"))
    zeros = np.zeros((1, len(cfg.years), len(cfg.sexes), DRAWS_PER_CELL))
    expected = entrants_matrix(cfg, zeros)[0, 2020 - cfg.first_year]
    for sex, got, want in zip(SEXES, expected, ARRIVAL_TARGETS[2020]):
        assert abs(got - want) < 1e-6, (sex, got, want)

    index = price_index(cfg, 2006)
    subj, integ = (contribution_income(cfg.census, 2006, cfg.sexes, cfg.min_age, rule, index,
                                       cfg.exemption_years)
                   for rule in (cfg.contrib_subjective, cfg.contrib_integrative))
    disb = float(_initial_totals(cfg)[RETIRED].sum())
    print(f"2006 subjective   {subj:16,.2f}  target {TARGET_SUBJECTIVE:16,.2f}")
    print(f"2006 integrative  {integ:16,.2f}  target {TARGET_INTEGRATIVE:16,.2f}")
    print(f"2006 pensions     {disb:16,.2f}  target {TARGET_PENSIONS:16,.2f}")
    for got, want in ((subj, TARGET_SUBJECTIVE), (integ, TARGET_INTEGRATIVE),
                      (disb, TARGET_PENSIONS)):
        assert abs(got - want) < 500.0, (got, want)  # profile cents rounding


def main():
    os.makedirs(DATA, exist_ok=True)
    build_population()
    actives, retirees = build_census()
    build_mortality()
    build_profiles(actives, retirees)
    build_conversion()
    write_lines("default_scenario.yaml", SCENARIO_YAML.splitlines())
    check()


if __name__ == "__main__":
    main()
