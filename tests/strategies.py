"""Hypothesis strategies for generated variants of the small scenario.

`scenario_tweaks` draws a tweak mapping for `conftest.write_scenario`: two
benefit types whose thresholds often tie, the exemption, the contribution
rates, inflation, the profile base year and whether census accounts are
backfilled. `load_variant` makes one such variant with `ScenarioConfig.edit`
from `variant_base()`, the small scenario with a census with more senior
actives, written once per session beside the extra tables variants name.
"""

import functools
import tempfile

from hypothesis import strategies as st

from conftest import BASE_CSVS, BASE_SCENARIO, write_scenario
from paygsim import load_config

# the horizon plus the years the census members' backcast histories reach
YEARS = range(1994, 2017)


@st.composite
def schedules(draw, lo, hi, places=3):
    """A bare number or a {default, overrides} mapping within [lo, hi]."""
    value = st.integers(int(lo * 10 ** places), int(hi * 10 ** places)).map(
        lambda v: v / 10 ** places)
    default = draw(value)
    overrides = draw(st.dictionaries(st.sampled_from(YEARS), value, max_size=3))
    return {"default": default, "overrides": overrides} if overrides else default


@st.composite
def thresholds(draw):
    # narrow ranges, so that two benefit types often tie on their lead
    return {"min_age": draw(schedules(36, 44, places=0)),
            "min_seniority": draw(schedules(0, 10, places=0))}


@st.composite
def scenario_tweaks(draw):
    second = draw(st.sampled_from(["notional_account", "fixed_profile"]))
    first_th = draw(thresholds())
    second_th = first_th if draw(st.booleans()) else draw(thresholds())
    second_type = ({"kind": "notional_account", "conversion_csv": "conversion2.csv"}
                   if second == "notional_account"
                   else {"kind": "fixed_profile", "profile_csv": "fixed.csv"})
    return {
        "retirement": {"benefit_types": ["old_age", "second"],
                       "thresholds": {"old_age": first_th, "second": second_th}},
        "contributions": {
            "exemption_years": draw(st.integers(0, 5)),
            "subjective": {"rate": draw(schedules(0.05, 0.15))},
            "integrative": {"rate": draw(schedules(0.0, 0.05))},
        },
        "benefits": {
            "backfill_notional": draw(st.booleans()),
            "types": {"old_age": {"kind": "notional_account",
                                  "conversion_csv": "conversion.csv"},
                      "second": second_type},
        },
        "economics": {"inflation": draw(schedules(-0.01, 0.05)),
                      "profile_base_year": draw(st.integers(1998, 2008))},
    }


FIXED_PROFILE = ["sex,age,amount"] + [
    f"{s},{a},{15000 + 250 * a + (s == 'female') * 100}"
    for s in ("male", "female") for a in range(30, 51)]
# a second type's own conversion rates, all below conversion.csv's 0.06,
# so that which type won shows in the disbursements
SECOND_CONVERSION = ["sex,age,coefficient"] + [
    f"{s},{a},{0.04 + 0.001 * (a - 35) + (s == 'female') * 0.002:.3f}"
    for s in ("male", "female") for a in range(35, 51)]
CENSUS = BASE_CSVS["census.csv"] + ["male,44,12,active,5", "female,33,2,active,7"]


@functools.cache
def variant_base():
    """The directory holding the variants' tables, removed when the session
    ends, and the small scenario loaded from it."""
    tables = tempfile.TemporaryDirectory()
    return tables, load_config(write_scenario(tables.name, csv_overrides={
        "fixed.csv": FIXED_PROFILE, "conversion2.csv": SECOND_CONVERSION, "census.csv": CENSUS}))


def edits(tweaks: dict, base: dict = BASE_SCENARIO, at: str = "") -> dict:
    """The dotted-path edits that make the changes `deep_merge` makes when
    it applies `tweaks` to `base`."""
    out = {}
    for key, value in tweaks.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            out.update(edits(value, base[key], f"{at}{key}."))
        else:
            out[f"{at}{key}"] = value
    return out


def load_variant(tweaks):
    """The small scenario with `tweaks` applied, through `edit`."""
    return variant_base()[1].edit(edits(tweaks))
