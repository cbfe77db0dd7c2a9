import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import census_counts
from paygsim import Schedule
from paygsim.cohorts import (ACTIVE, RETIRED, MortalityModel, RetirementRule, age_one_year,
                             death_probability_grid, expected_mortality_grid,
                             inject_new_entrants, retire, retirement_assignment)
from paygsim.errors import CoverageError

SEXES = ("male", "female")
YEAR, MIN_AGE = 2000, 20  # make_grid's year and first age


def make_mm(q0=0.0, drift=0.0, sigma=0.0, sexes=SEXES,
            min_age=20, max_age=80, base_year=2000):
    n = (len(sexes), max_age - min_age + 1)
    return MortalityModel(
        base_year=base_year, sexes=tuple(sexes), min_age=min_age, max_age=max_age,
        q0=np.full(n, float(q0)), drift=np.full(n, float(drift)),
        sigma=np.full(n, float(sigma)))


def make_grid(records, sexes=SEXES, min_age=MIN_AGE, max_age=80, max_seniority=40):
    return census_counts(records, sexes, min_age, max_age, max_seniority)


def rule(min_age, min_seniority, sexes=SEXES):
    th = {s: (Schedule(default=min_age), Schedule(default=min_seniority)) for s in sexes}
    return RetirementRule(benefit_types=("old_age",), thresholds={"old_age": th})


class TestMortality:
    # the cell of a 40-year-old man on make_mm's (sex, age) axes
    MALE_40 = (0, 20)

    def test_no_drift_is_flat(self):
        mm = make_mm(q0=0.01)
        assert expected_mortality_grid(mm, 2007)[self.MALE_40] == 0.01

    def test_drift_compounds(self):
        mm = make_mm(q0=0.01, drift=0.01)
        assert expected_mortality_grid(mm, 2003)[self.MALE_40] == pytest.approx(
            0.0103030, abs=5e-8)

    def test_capped_at_one(self):
        mm = make_mm(q0=0.9, drift=0.2)
        assert expected_mortality_grid(mm, 2005)[self.MALE_40] == 1.0

    def test_before_base_year_rejected(self):
        mm = make_mm(q0=0.01)
        with pytest.raises(CoverageError, match="1999"):
            expected_mortality_grid(mm, 1999)
        with pytest.raises(CoverageError, match="1999"):
            death_probability_grid(mm, 1999)

    def test_sampled_probabilities_clipped(self):
        mm = make_mm(q0=0.01, sigma=0.05)
        n_age = mm.max_age - mm.min_age + 1
        lo = death_probability_grid(mm, 2005, eps=np.full((2, n_age), -100.0))
        hi = death_probability_grid(mm, 2005, eps=np.full((2, n_age), +100.0))
        assert np.all(lo == 0.0)
        assert np.all(hi == 1.0)
        mid = death_probability_grid(mm, 2005, eps=np.full((2, n_age), 1.0))
        assert np.allclose(mid, 0.06)


class TestClippedMortality:
    """Sampled probabilities: the drifted rate plus sigma times the shock,
    clipped into [0, 1]."""

    @staticmethod
    def sampled(q0, sigma, eps):
        mm = make_mm(q0=q0, sigma=sigma, sexes=("male",), min_age=40, max_age=40)
        return death_probability_grid(mm, 2000, np.array([[eps]]))[0, 0]

    def test_clip_below(self):
        assert self.sampled(0.004, 0.001, -5.0) == 0.0

    def test_clip_above(self):
        assert self.sampled(0.9, 0.2, 1.0) == 1.0

    def test_hand_value(self):
        assert self.sampled(0.01, 0.002, 1.0) == pytest.approx(0.012)

    def test_shock_shape_checked(self):
        with pytest.raises(ValueError, match="eps shape"):
            death_probability_grid(make_mm(q0=0.01), 2000, np.zeros((2, 3)))

    @given(st.floats(0.0, 1.0), st.floats(0.0, 2.0), st.floats(-100.0, 100.0))
    def test_always_a_probability(self, q0, sigma, eps):
        assert 0.0 <= self.sampled(q0, sigma, eps) <= 1.0


class TestAgeOneYear:
    def test_zero_mortality_just_ages(self):
        g = make_grid([("male", 30, 2, "active", 10), ("female", 50, 20, "retired", 4)])
        out = age_one_year(g, YEAR, MIN_AGE, make_mm(q0=0.0))
        assert out[ACTIVE, 0, 11, 3] == 10      # age 31, seniority 3
        assert out[RETIRED, 1, 31, 20] == 4     # age 51, seniority frozen
        assert out.sum() == g.sum()

    def test_certain_death_empties_grid(self):
        g = make_grid([("male", 30, 2, "active", 10), ("male", 60, 30, "retired", 7)])
        out = age_one_year(g, YEAR, MIN_AGE, make_mm(q0=1.0))
        assert out.sum() == 0.0

    def test_expected_survivors(self):
        g = make_grid([("male", 30, 2, "active", 100)])
        out = age_one_year(g, YEAR, MIN_AGE, make_mm(q0=0.1))
        assert out[ACTIVE, 0, 11, 3] == pytest.approx(90.0)

    def test_the_year_read_is_the_one_given(self):
        g = make_grid([("male", 30, 2, "active", 100)])
        mm = make_mm(q0=0.1, drift=0.1)
        out = age_one_year(g, YEAR + 2, MIN_AGE, mm)
        assert out[ACTIVE, 0, 11, 3] == pytest.approx(100.0 * (1.0 - 0.1 * 1.1 ** 2))
        with pytest.raises(CoverageError, match="1999"):
            age_one_year(g, YEAR - 1, MIN_AGE, mm)

    def test_terminal_age_removed_after_last_year(self):
        g = make_grid([("male", 80, 40, "retired", 5)], max_age=80)
        out = age_one_year(g, YEAR, MIN_AGE, make_mm(q0=0.0))
        assert out.sum() == 0.0

    def test_seniority_cap_accumulates(self):
        # the top seniority bucket is a storage cap, not a cliff
        g = make_grid([("male", 50, 40, "active", 3)], max_seniority=40)
        out = age_one_year(g, YEAR, MIN_AGE, make_mm(q0=0.0))
        assert out[ACTIVE, 0, 31, 40] == 3

    def test_monotone_in_mortality(self):
        g = make_grid([("male", a, 5, "active", 10) for a in range(30, 60)])
        soft = age_one_year(g, YEAR, MIN_AGE, make_mm(q0=0.05))
        hard = age_one_year(g, YEAR, MIN_AGE, make_mm(q0=0.20))
        assert np.all(hard <= soft)
        assert hard.sum() < soft.sum()

    @pytest.mark.parametrize("ages", [(19, 40), (30, 81)])
    def test_a_mortality_table_narrower_than_the_grid_is_refused(self, ages):
        g = make_grid([("male", 30, 2, "active", 10)], min_age=ages[0], max_age=ages[1])
        with pytest.raises(CoverageError, match=f"grid ages {ages[0]}-{ages[1]} outside"):
            age_one_year(g, YEAR, ages[0], make_mm(q0=0.1))

    def test_totals_die_and_age_with_their_cells(self):
        g = make_grid([("male", 30, 2, "active", 10), ("female", 50, 20, "retired", 4)])
        totals = np.zeros_like(g)
        totals[ACTIVE, 0, 10, 2] = 500.0
        totals[RETIRED, 1, 30, 20] = 80.0
        out, aged = age_one_year(g, YEAR, MIN_AGE, make_mm(q0=0.1), totals=totals)
        assert out[ACTIVE, 0, 11, 3] == pytest.approx(9.0)
        assert aged[ACTIVE, 0, 11, 3] == pytest.approx(450.0)   # age and seniority +1
        assert aged[RETIRED, 1, 31, 20] == pytest.approx(72.0)  # seniority frozen
        assert aged.sum() == pytest.approx(522.0)
        assert totals[ACTIVE, 0, 10, 2] == 500.0                # input left as it was


class TestInjection:
    def test_zero_entrants_is_identity(self):
        g = make_grid([("male", 30, 2, "active", 10)])
        out = inject_new_entrants(g, MIN_AGE, [0.0, 0.0], entry_age=29)
        assert np.array_equal(out, g)

    def test_entrants_land_at_entry_age(self):
        g = make_grid([])
        out = inject_new_entrants(g, MIN_AGE, [595.0, 516.0], entry_age=29)
        assert out[ACTIVE, 0, 9, 0] == 595.0
        assert out[ACTIVE, 1, 9, 0] == 516.0
        assert out.sum() == 1111.0
        assert g.sum() == 0.0  # input left as it was

    def test_additive(self):
        g = make_grid([("male", 29, 0, "active", 10)])
        once = inject_new_entrants(g, MIN_AGE, [5.0, 0.0], 29)
        twice = inject_new_entrants(inject_new_entrants(g, MIN_AGE, [2.0, 0.0], 29),
                                    MIN_AGE, [3.0, 0.0], 29)
        assert np.array_equal(once, twice)

    @pytest.mark.parametrize("entry_age", [19, 81])
    def test_an_entry_age_off_the_grid_is_refused(self, entry_age):
        g = make_grid([("male", 30, 2, "active", 10)])
        with pytest.raises(ValueError, match=f"entry age {entry_age} outside grid ages "
                                             r"\[20, 80\]"):
            inject_new_entrants(g, MIN_AGE, [1.0, 1.0], entry_age=entry_age)


class TestRetirement:
    def test_eligibility_is_strict_on_age_weak_on_seniority(self):
        r = rule(65, 30)
        g = make_grid([
            ("male", 66, 31, "active", 10),   # both thresholds passed
            ("male", 66, 30, "active", 20),   # seniority exactly at the bar
            ("male", 65, 40, "active", 5),    # age only equal: stays
            ("male", 66, 5, "active", 7),     # seniority short: stays
        ])
        out, _ = retire(g, YEAR, SEXES, MIN_AGE, r)
        assert out[RETIRED, 0, 46, 31] == 10
        assert out[RETIRED, 0, 46, 30] == 20
        assert out[ACTIVE, 0, 45, 40] == 5
        assert out[ACTIVE, 0, 46, 5] == 7
        assert out.sum() == g.sum()

    def test_retired_never_revert(self):
        r = rule(65, 30)
        g = make_grid([("male", 50, 10, "retired", 8)])
        out, _ = retire(g, YEAR, SEXES, MIN_AGE, r)
        assert out[RETIRED, 0, 30, 10] == 8
        assert out[ACTIVE].sum() == 0.0

    def test_seniority_kept_on_retirement(self):
        out, _ = retire(make_grid([("male", 70, 33, "active", 2)]), YEAR, SEXES, MIN_AGE,
                        rule(65, 30))
        assert out[RETIRED, 0, 50, 33] == 2

    def test_thresholds_can_vary_by_year(self):
        th = {"male": (Schedule(default=65, overrides={2000: 60}), Schedule(default=0))}
        r = RetirementRule(("old_age",), {"old_age": th})
        g = make_grid([("male", 62, 10, "active", 1)], sexes=("male",))
        assert retire(g, 2000, ("male",), MIN_AGE, r)[0][RETIRED].sum() == 1.0
        assert retire(g, 2001, ("male",), MIN_AGE, r)[0][RETIRED].sum() == 0.0

    def test_returns_each_types_mask(self):
        r = rule(65, 30)
        g = make_grid([("male", 66, 31, "active", 10), ("male", 60, 31, "active", 3)])
        _, masks = retire(g, YEAR, SEXES, MIN_AGE, r)
        assert list(masks) == ["old_age"]
        assert np.array_equal(masks["old_age"],
                              retirement_assignment(g, YEAR, SEXES, MIN_AGE, r)["old_age"])
        assert masks["old_age"][0, 46, 31] and not masks["old_age"][0, 40, 31]

    def test_tie_goes_to_first_listed_type(self):
        th = {"male": (Schedule(default=60), Schedule(default=5))}
        r = RetirementRule(("first", "second"),
                           {"first": th, "second": th})
        g = make_grid([("male", 62, 7, "active", 1)], sexes=("male",))
        masks = retirement_assignment(g, YEAR, ("male",), MIN_AGE, r)
        assert masks["first"][0, 42, 7]
        assert not masks["second"][0, 42, 7]

    def test_earliest_met_type_wins(self):
        # requirements under "second" were satisfied years before "first"
        r = RetirementRule(
            ("first", "second"),
            {"first": {"male": (Schedule(default=65), Schedule(default=1))},
             "second": {"male": (Schedule(default=55), Schedule(default=1))}})
        g = make_grid([("male", 66, 2, "active", 1)], sexes=("male",))
        masks = retirement_assignment(g, YEAR, ("male",), MIN_AGE, r)
        assert masks["second"][0, 46, 2]
        assert not masks["first"][0, 46, 2]


def one_year(counts, year, mm, r, entrants, entry_age):
    """Mortality and ageing, entry, then retirement, as the oracle steps."""
    aged = inject_new_entrants(age_one_year(counts, year, MIN_AGE, mm), MIN_AGE, entrants,
                               entry_age)
    return retire(aged, year + 1, SEXES, MIN_AGE, r)[0]


class TestEvolveYear:
    def test_pipeline_order(self):
        # a 64-year-old crosses the age bar during the year and retires at 65+1;
        # arrivals enter after mortality so they are untouched by it
        g = make_grid([("male", 65, 35, "active", 10)])
        mm = make_mm(q0=0.1)
        out = one_year(g, YEAR, mm, rule(65, 30), [4.0, 0.0], entry_age=29)
        assert out[RETIRED, 0, 46, 36] == pytest.approx(9.0)
        assert out[ACTIVE, 0, 9, 0] == 4.0

    def test_conservation_with_zero_mortality(self):
        g = make_grid([("male", a, 5, "active", 3) for a in range(30, 50)])
        out = one_year(g, YEAR, make_mm(q0=0.0), rule(65, 30), [2.0, 1.5], 29)
        assert out.sum() == pytest.approx(g.sum() + 3.5)


@st.composite
def small_grids(draw):
    """Census counts on both sexes, the first age drawn, and a death probability."""
    n_ages = draw(st.integers(1, 5))
    n_sen = draw(st.integers(1, 3))
    min_age = draw(st.integers(20, 60))
    cells = draw(st.lists(
        st.floats(0.0, 100.0, allow_nan=False),
        min_size=2 * 2 * n_ages * n_sen, max_size=2 * 2 * n_ages * n_sen))
    counts = np.array(cells).reshape(2, 2, n_ages, n_sen)
    q = draw(st.floats(0.0, 1.0, allow_nan=False))
    return counts, min_age, q


class TestConservationProperties:
    @settings(max_examples=150, deadline=None)
    @given(small_grids())
    def test_mortality_accounts_for_every_member(self, grid_q):
        counts, min_age, q = grid_q
        mm = make_mm(q0=q, min_age=min_age, max_age=min_age + counts.shape[2] - 1)
        out = age_one_year(counts, YEAR, min_age, mm)
        deaths = counts.sum() * q
        terminal_survivors = counts[:, :, -1, :].sum() * (1.0 - q)
        assert out.sum() == pytest.approx(counts.sum() - deaths - terminal_survivors,
                                          abs=1e-9 * max(1.0, counts.sum()))

    @settings(max_examples=150, deadline=None)
    @given(small_grids(), st.integers(0, 4), st.integers(0, 2))
    def test_retirement_moves_mass_without_losing_any(self, grid_q, age_bar, sen_bar):
        counts, min_age, _ = grid_q
        r = rule(min_age + age_bar, sen_bar)
        out, _ = retire(counts, YEAR, SEXES, min_age, r)
        assert out.sum() == pytest.approx(counts.sum())
        assert np.all(out >= 0)
        # retired stock only grows
        assert out[RETIRED].sum() >= counts[RETIRED].sum() - 1e-12

    @settings(max_examples=150, deadline=None)
    @given(small_grids(), st.floats(0.0, 0.5), st.data())
    def test_totals_equal_to_the_counts_age_into_the_aged_counts(self, grid_q, sigma, data):
        counts, min_age, q = grid_q
        # a mortality table wider than the grid, so the grid's slice is read
        mm = make_mm(q0=q, sigma=sigma, min_age=min_age - 2,
                     max_age=min_age + counts.shape[2] + 2)
        shape = (2, mm.max_age - mm.min_age + 1)
        eps = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=shape[0] * shape[1],
                                          max_size=shape[0] * shape[1]))).reshape(shape)
        aged, totals = age_one_year(counts, YEAR, min_age, mm, eps, totals=counts.copy())
        assert totals.tobytes() == aged.tobytes()
